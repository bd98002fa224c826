package main

import (
	"bufio"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// maxKeptSpans bounds the raw spans held in memory for the span file;
// past it spans still feed the per-name totals and are counted as
// dropped.
const maxKeptSpans = 200_000

// span is one timed call into a layer: its name, the trial it belongs
// to (-1 outside trials), the span that caused it (0 for none), and its
// start and end relative to the recorder's epoch.
type span struct {
	ID, Parent int64
	Trial      int64
	Name       string
	Start, End time.Duration
}

// total accumulates the spans (or counter additions) of one name.
type total struct {
	Count int64
	Sum   time.Duration
}

// spans is the traced run's in-memory recorder. It is safe for use by
// the concurrent trial workers of a runner pool. Spans are written out
// once, when the run ends.
type spans struct {
	epoch  time.Time
	nextID atomic.Int64

	mu      sync.Mutex
	kept    []span
	dropped int64
	totals  map[string]*total
}

func newSpans() *spans {
	return &spans{epoch: time.Now(), totals: make(map[string]*total)}
}

// open is a span that has begun and not yet ended.
type open struct {
	sp     *spans
	id     int64
	parent int64
	trial  int64
	name   string
	start  time.Time
}

// begin starts a span named name under parent (0 for a root span).
func (s *spans) begin(name string, trial, parent int64) *open {
	return &open{sp: s, id: s.nextID.Add(1), parent: parent, trial: trial, name: name, start: time.Now()}
}

// end closes the span and returns its duration.
func (o *open) end() time.Duration {
	now := time.Now()
	d := now.Sub(o.start)
	s := o.sp
	s.mu.Lock()
	s.addLocked(o.name, d)
	if len(s.kept) < maxKeptSpans {
		s.kept = append(s.kept, span{ID: o.id, Parent: o.parent, Trial: o.trial, Name: o.name,
			Start: o.start.Sub(s.epoch), End: now.Sub(s.epoch)})
	} else {
		s.dropped++
	}
	s.mu.Unlock()
	return d
}

// add charges d to name's total without recording a span: for time
// measured in many tiny slices (the auditor hook runs once per engine
// step) and for counters.
func (s *spans) add(name string, d time.Duration) {
	s.mu.Lock()
	s.addLocked(name, d)
	s.mu.Unlock()
}

func (s *spans) addLocked(name string, d time.Duration) {
	t := s.totals[name]
	if t == nil {
		t = &total{}
		s.totals[name] = t
	}
	t.Count++
	t.Sum += d
}

// seconds returns name's summed duration in seconds.
func (s *spans) seconds(name string) float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if t := s.totals[name]; t != nil {
		return t.Sum.Seconds()
	}
	return 0
}

// count returns how many spans (or additions) name received.
func (s *spans) count(name string) int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if t := s.totals[name]; t != nil {
		return t.Count
	}
	return 0
}

// write stores the kept spans as JSONL (one span per line, times in
// nanoseconds since the recorder's epoch) and reports how many were
// dropped past the in-memory cap.
func (s *spans) write(path string) error {
	fh, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(fh)
	s.mu.Lock()
	for _, sp := range s.kept {
		fmt.Fprintf(bw, "{\"id\":%d,\"parent\":%d,\"trial\":%d,\"name\":%q,\"start_ns\":%d,\"end_ns\":%d}\n",
			sp.ID, sp.Parent, sp.Trial, sp.Name, int64(sp.Start), int64(sp.End))
	}
	if s.dropped > 0 {
		fmt.Fprintf(bw, "{\"dropped\":%d}\n", s.dropped)
	}
	s.mu.Unlock()
	if err := bw.Flush(); err != nil {
		fh.Close()
		return err
	}
	return fh.Close()
}
