package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"time"
)

// size selects a workload's scale: fullSize is what the benchmark
// measures, tinySize the seconds-long pass the package tests run.
type size int

const (
	fullSize size = iota
	tinySize
)

// setupRepeats is how many times a run sets its workload up; setup_s is
// the median.
const setupRepeats = 3

// workload is one benchmark workload.
type workload interface {
	// setup prepares the timed phase: topologies, up-front workload
	// generation, an untimed warm-up pass. Calling it again redoes it.
	setup() error
	// pass runs the workload once through the experiment functions the
	// CLI calls.
	pass() (*pass, error)
	// tracedPass runs the same trials composed from the layers'
	// exported calls, with a span around each call.
	tracedPass(sp *spans) (*pass, error)
}

// newWorkload returns the named workload at size sz (nil for an unknown
// name); workdir holds any files it writes.
func newWorkload(name string, seed int64, sz size, workdir string) workload {
	switch name {
	case "grid":
		return newGrid(seed, sz)
	case "churn":
		return newChurn(seed, sz)
	case "soak":
		return newSoak(seed, sz)
	case "deploy":
		return newDeploy(workdir)
	}
	return nil
}

// pass is the outcome of one pass over a workload.
type pass struct {
	wall time.Duration
	// trials completed: grid trials, churn trials, soak cells, deploy
	// updates.
	trials int
	// flows whose update was requested.
	flows int
	// simSec is the virtual time simulated, summed over trials.
	simSec float64
	// trialFlowsPerSec, when nonzero, is the experiment's own measure of
	// arrivals per wall second of the trial body (churn); otherwise
	// flows_per_s is flows over the pass's wall time.
	trialFlowsPerSec float64
	// p4u are the P4Update update-completion samples (Completed − Sent).
	p4u []time.Duration
	// wallSamples marks p4u as wall-clock measurements (deploy): they
	// are pooled across passes instead of required to repeat.
	wallSamples bool
	// Operations attempted and failed, per the workload's definition.
	attempted, failed int
	// virtual holds the named simulated outputs that must repeat exactly
	// for one seed; fingerprint hashes every simulated output.
	virtual     map[string]float64
	fingerprint uint64
	// layers holds per-layer counts read off the outputs.
	layers map[string]float64
	// errs lists failed correctness checks.
	errs []string
}

func (p *pass) failf(format string, args ...any) {
	p.errs = append(p.errs, fmt.Sprintf(format, args...))
}

// runWorkload runs one workload in the selected mode and returns its
// result line.
func runWorkload(name string, o options, out io.Writer) (result, error) {
	w := newWorkload(name, o.seed, fullSize, o.workdir)
	fmt.Fprintf(out, "== %s (seed %d, %gs, trace %v) ==\n", name, o.seed, o.seconds, o.trace)
	if o.trace {
		return runTraced(name, w, o, out)
	}
	setups, err := timeSetups(w, setupRepeats)
	if err != nil {
		return result{}, err
	}
	passes, err := timedPasses(w, o.seconds, 2)
	if err != nil {
		return result{}, err
	}
	res := endToEnd(setups, passes)
	fmt.Fprintf(out, "setup runs (s): %v\n", setups)
	describe(out, passes)
	printMetrics(out, "  ", res.Metrics)
	for _, e := range res.Errors {
		fmt.Fprintf(out, "CHECK FAILED: %s\n", e)
	}
	return res, nil
}

// timeSetups runs the workload's set-up n times and returns each
// duration in seconds; the last set-up's state feeds the timed phase.
func timeSetups(w workload, n int) ([]float64, error) {
	out := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		t0 := time.Now()
		if err := w.setup(); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		out = append(out, time.Since(t0).Seconds())
	}
	return out, nil
}

// timedPasses repeats passes until seconds of wall time have
// elapsed, and at least minPasses times so repeatability is checked.
func timedPasses(w workload, seconds float64, minPasses int) ([]*pass, error) {
	budget := time.Duration(seconds * float64(time.Second))
	start := time.Now()
	var passes []*pass
	for len(passes) < minPasses || time.Since(start) < budget {
		t0 := time.Now()
		p, err := w.pass()
		if err != nil {
			return nil, err
		}
		p.wall = time.Since(t0)
		passes = append(passes, p)
	}
	return passes, nil
}

// endToEnd computes the end-to-end metrics and the correctness gate.
func endToEnd(setups []float64, passes []*pass) result {
	res := result{Correct: true, Metrics: map[string]metric{}}
	var trialsPS, flowsPS, simPS []float64
	var samples []time.Duration
	first := passes[0]
	for i, p := range passes {
		s := p.wall.Seconds()
		trialsPS = append(trialsPS, float64(p.trials)/s)
		if p.trialFlowsPerSec > 0 {
			flowsPS = append(flowsPS, p.trialFlowsPerSec)
		} else {
			flowsPS = append(flowsPS, float64(p.flows)/s)
		}
		simPS = append(simPS, p.simSec/s)
		res.Attempted += p.attempted
		res.Failed += p.failed
		for _, e := range p.errs {
			res.Errors = append(res.Errors, fmt.Sprintf("pass %d: %s", i, e))
		}
		if p.wallSamples {
			samples = append(samples, p.p4u...)
		} else if i > 0 {
			if err := sameOutputs(first, p); err != nil {
				res.Errors = append(res.Errors, fmt.Sprintf("pass %d repeats pass 0 with different simulated outputs: %v", i, err))
			}
		}
	}
	if !first.wallSamples {
		samples = first.p4u
	}
	if len(samples) == 0 {
		res.Errors = append(res.Errors, "no P4Update update-completion samples")
	}
	res.Correct = len(res.Errors) == 0
	res.Metrics["setup_s"] = metric{median(setups), "s"}
	res.Metrics["trials_per_s"] = metric{median(trialsPS), "trials/s"}
	res.Metrics["flows_per_s"] = metric{median(flowsPS), "flows/s"}
	res.Metrics["sim_s_per_s"] = metric{median(simPS), "s/s"}
	res.Metrics["p4u_update_p50_ms"] = metric{quantileMs(samples, 0.50), "ms"}
	res.Metrics["p4u_update_p99_ms"] = metric{quantileMs(samples, 0.99), "ms"}
	res.Metrics["peak_rss_mb"] = metric{peakRSSMiB(), "MiB"}
	return res
}

// sameOutputs reports how two passes over one seed differ in their
// simulated outputs (nil when they are identical).
func sameOutputs(a, b *pass) error {
	for _, k := range sortedKeys(a.virtual) {
		if a.virtual[k] != b.virtual[k] {
			return fmt.Errorf("%s: %v vs %v", k, a.virtual[k], b.virtual[k])
		}
	}
	if len(a.virtual) != len(b.virtual) {
		return fmt.Errorf("%d vs %d named outputs", len(a.virtual), len(b.virtual))
	}
	if a.fingerprint != b.fingerprint {
		return fmt.Errorf("output fingerprint %016x vs %016x", a.fingerprint, b.fingerprint)
	}
	return nil
}

// describe prints the operation accounting and the simulated outputs
// of a run's passes.
func describe(out io.Writer, passes []*pass) {
	var att, fail int
	var walls []float64
	for _, p := range passes {
		att += p.attempted
		fail += p.failed
		walls = append(walls, p.wall.Seconds())
	}
	pct := 0.0
	if att > 0 {
		pct = 100 * float64(fail) / float64(att)
	}
	fmt.Fprintf(out, "passes: %d, wall per pass (s): median %.4f, min %.4f, max %.4f\n",
		len(passes), median(walls), slices.Min(walls), slices.Max(walls))
	fmt.Fprintf(out, "operations: attempted=%d failed=%d failed_pct=%.4f%%\n", att, fail, pct)
	p := passes[0]
	n := len(p.p4u)
	if p.wallSamples {
		n = 0
		for _, q := range passes {
			n += len(q.p4u)
		}
	}
	beyond := 0
	if n > 0 {
		beyond = n - 1 - int(0.99*float64(n-1))
	}
	fmt.Fprintf(out, "p4u samples: n=%d (beyond p99: %d)\n", n, beyond)
	for _, k := range sortedKeys(p.virtual) {
		fmt.Fprintf(out, "  virtual %-28s %v\n", k, p.virtual[k])
	}
}

// runTraced is the -trace 1 mode: one set-up, one untraced pass as the
// reference, then traced passes for the time budget; every traced pass
// must reproduce the untraced pass's simulated outputs.
func runTraced(name string, w workload, o options, out io.Writer) (result, error) {
	if err := w.setup(); err != nil {
		return result{}, fmt.Errorf("setup: %w", err)
	}
	t0 := time.Now()
	ref, err := w.pass()
	if err != nil {
		return result{}, err
	}
	ref.wall = time.Since(t0)

	sp := newSpans()
	rt0 := readGoRuntime()
	passes, err := timedPasses(tracedAdapter{w, sp}, o.seconds, 1)
	if err != nil {
		return result{}, err
	}
	rt1 := readGoRuntime()

	res := result{Correct: true}
	for _, e := range ref.errs {
		res.Errors = append(res.Errors, "untraced pass: "+e)
	}
	for i, p := range passes {
		res.Attempted += p.attempted
		res.Failed += p.failed
		for _, e := range p.errs {
			res.Errors = append(res.Errors, fmt.Sprintf("traced pass %d: %s", i, e))
		}
		if err := sameOutputs(ref, p); err != nil {
			res.Errors = append(res.Errors, fmt.Sprintf("traced pass %d differs from the untraced pass: %v", i, err))
		}
	}
	res.Correct = len(res.Errors) == 0
	res.Metrics = layerMetrics(sp, passes, ref, rt1.sub(rt0))

	path := filepath.Join(o.workdir, "results", fmt.Sprintf("%s-seed%d.spans.jsonl", name, o.seed))
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return result{}, err
	}
	if err := sp.write(path); err != nil {
		return result{}, err
	}
	fmt.Fprintf(out, "untraced pass wall %.4fs; %d traced passes; spans in %s\n", ref.wall.Seconds(), len(passes), path)
	describe(out, passes)
	printMetrics(out, "  ", res.Metrics)
	for _, e := range res.Errors {
		fmt.Fprintf(out, "CHECK FAILED: %s\n", e)
	}
	return res, nil
}

// tracedAdapter runs a workload's traced pass where timedPasses expects
// an untraced pass.
type tracedAdapter struct {
	workload
	sp *spans
}

func (t tracedAdapter) pass() (*pass, error) { return t.tracedPass(t.sp) }

// median returns the middle value (mean of the middle two); 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// quantileMs is the p-quantile of samples in milliseconds, by the rank
// convention the program's own reports use (sorted[p·(n−1)]).
func quantileMs(samples []time.Duration, p float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), samples...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return float64(s[int(p*float64(len(s)-1))]) / float64(time.Millisecond)
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
