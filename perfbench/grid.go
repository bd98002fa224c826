package main

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"strings"
	"time"

	"p4update/internal/controlplane"
	"p4update/internal/experiments"
	"p4update/internal/plancache"
	"p4update/internal/runner"
	"p4update/internal/topo"
	"p4update/internal/trace"
	"p4update/internal/traffic"
	"p4update/internal/wiring"
)

// subfig is one panel of the paper's Fig. 7 evaluation grid, as the CLI
// runs it (-exp fig7).
type subfig struct {
	label   string
	mk      func() *topo.Topology
	multi   bool // multiple-flow scenario (else single flow)
	fatTree bool
}

var fig7 = []subfig{
	{"synthetic (Fig. 7a)", topo.Synthetic, false, false},
	{"fat-tree K=4 (Fig. 7b)", func() *topo.Topology { return topo.FatTree(4) }, true, true},
	{"B4 (Fig. 7c)", topo.B4, false, false},
	{"B4 (Fig. 7d)", topo.B4, true, false},
	{"Internet2 (Fig. 7e)", topo.Internet2, false, false},
	{"Internet2 (Fig. 7f)", topo.Internet2, true, false},
}

// grid is the Fig. 7a–f evaluation grid: six subfigures × every
// registered system × runs, closed loop on the trial pool.
type grid struct {
	seed     int64
	runs     int // runs per (subfigure, system); P4Update contributes 6×runs samples
	warmRuns int
	systems  []experiments.SystemKind
	// flows[i][run] is the flow count of subfigure i's run (set-up).
	flows [][]int
}

func newGrid(seed int64, sz size) *grid {
	g := &grid{seed: seed, runs: 170, warmRuns: 10, systems: experiments.AllSystems()}
	if sz == tinySize {
		g.runs, g.warmRuns = 2, 1
	}
	return g
}

func (g *grid) opts() experiments.RunOptions {
	return experiments.RunOptions{Workers: poolWorkers()}
}

// workloadRand mirrors the experiment's per-run workload RNG derivation
// (experiments.newWorkloadRand): the multiple-flow workload of a run
// depends only on seed+run, so every system sees the same scenario.
func workloadRand(seed int64) *rand.Rand {
	return rand.New(rand.NewSource(seed ^ 0x6f10))
}

// singleFlowSpec mirrors the experiment's choice of the single-flow
// scenario: the exact Fig. 1 paths on the synthetic topology, a
// segmented long flow elsewhere.
func singleFlowSpec(g *topo.Topology) (traffic.FlowSpec, error) {
	if g.Name == "synthetic" {
		oldP, newP := topo.SyntheticPaths()
		return traffic.FlowSpec{Src: oldP[0], Dst: oldP[len(oldP)-1], Old: oldP, New: newP, SizeK: 1000}, nil
	}
	return traffic.SegmentedSingleFlow(g, 1000)
}

func multiFlowConfig(g *topo.Topology, fatTree bool) traffic.Config {
	tcfg := traffic.DefaultConfig()
	if fatTree {
		tcfg.Candidates = topo.EdgeSwitches(g)
	}
	return tcfg
}

// setup generates every run's multiple-flow workload up front (the flow
// counts feed flows_per_s) and makes an untimed warm-up pass.
func (g *grid) setup() error {
	g.flows = make([][]int, len(fig7))
	for i, sf := range fig7 {
		g.flows[i] = make([]int, g.runs)
		if !sf.multi {
			for run := range g.flows[i] {
				g.flows[i][run] = 1
			}
			continue
		}
		t := sf.mk()
		t.Freeze()
		tcfg := multiFlowConfig(t, sf.fatTree)
		for run := 0; run < g.runs; run++ {
			flows, err := traffic.MultiFlowWorkload(t, workloadRand(g.seed+int64(run)), tcfg)
			if err != nil {
				return fmt.Errorf("%s run %d: %w", sf.label, run, err)
			}
			g.flows[i][run] = len(flows)
		}
	}
	_, err := g.experimentPass(g.warmRuns)
	return err
}

func (g *grid) pass() (*pass, error) { return g.experimentPass(g.runs) }

// experimentPass runs the six subfigures through the functions the
// CLI's -exp fig7 calls.
func (g *grid) experimentPass(runs int) (*pass, error) {
	var panels [][]runner.Result
	for _, sf := range fig7 {
		var res *experiments.Fig7Result
		var err error
		if sf.multi {
			res, err = experiments.Fig7MultiFlowOpts(sf.mk, sf.label, sf.fatTree, runs, g.seed, g.opts())
		} else {
			res, err = experiments.Fig7SingleFlowOpts(sf.mk, sf.label, runs, g.seed, g.opts())
		}
		if err != nil {
			return nil, fmt.Errorf("%s: %w", sf.label, err)
		}
		panels = append(panels, res.Trials)
	}
	return g.tally(panels, runs), nil
}

// tally folds the per-subfigure trial results (system-major, run-minor,
// as the experiments order them) into a pass, using their own rule
// for a failed run: a Failed trial or one without samples.
func (g *grid) tally(panels [][]runner.Result, runs int) *pass {
	p := &pass{virtual: map[string]float64{}, layers: map[string]float64{}}
	h := fnv.New64a()
	var events, scheduled float64
	for i, trials := range panels {
		for ki, kind := range g.systems {
			for run := 0; run < runs; run++ {
				r := trials[ki*runs+run]
				fmt.Fprintf(h, "%d/%d/%d:%v:%d:%d:%d;", i, ki, run, r.Failed, r.VirtualTime, r.Events, r.EventsScheduled)
				for _, s := range r.Samples {
					fmt.Fprintf(h, "%d,", s)
				}
				p.attempted++
				events += float64(r.Events)
				scheduled += float64(r.EventsScheduled)
				p.simSec += r.VirtualTime.Seconds()
				if r.Failed || len(r.Samples) == 0 {
					p.failed++
					p.layers["runner.failed_trials"]++
					if kind == experiments.KindP4Update {
						p.failf("%s: P4Update run %d did not complete (%s)", fig7[i].label, run, r.Err)
					}
					continue
				}
				p.trials++
				if run < len(g.flows[i]) {
					p.flows += g.flows[i][run]
				}
				if kind == experiments.KindP4Update {
					p.p4u = append(p.p4u, r.Samples...)
				}
			}
		}
	}
	p.fingerprint = h.Sum64()
	p.virtual["p4u_update_p50_ms"] = quantileMs(p.p4u, 0.50)
	p.virtual["p4u_update_p99_ms"] = quantileMs(p.p4u, 0.99)
	p.virtual["p4u_samples"] = float64(len(p.p4u))
	p.virtual["sim.events"] = events
	p.layers["sim.events"] = events
	p.layers["sim.events_scheduled"] = scheduled
	return p
}

// tracedPass composes the same grid from the layers' exported calls:
// topology build and freeze, workload generation in front of the pool,
// one shared plan cache per subfigure, and per trial wiring.New,
// Register, Trigger and the engine run, each under a span.
func (g *grid) tracedPass(sp *spans) (*pass, error) {
	var panels [][]runner.Result
	hits, misses := uint64(0), uint64(0)
	layers := map[string]float64{}
	for i, sf := range fig7 {
		o := sp.begin("experiments.subfig", -1, 0)
		b := sp.begin("topo.build", -1, o.id)
		t := sf.mk()
		t.Freeze()
		b.end()

		// Workload generation runs serially, in front of the pool.
		gen := make([][]traffic.FlowSpec, g.runs)
		if sf.multi {
			tcfg := multiFlowConfig(t, sf.fatTree)
			for run := 0; run < g.runs; run++ {
				s := sp.begin("traffic.gen", -1, o.id)
				flows, err := traffic.MultiFlowWorkload(t, workloadRand(g.seed+int64(run)), tcfg)
				s.end()
				if err != nil {
					return nil, fmt.Errorf("%s run %d: %w", sf.label, run, err)
				}
				gen[run] = flows
			}
		} else {
			s := sp.begin("traffic.gen", -1, o.id)
			spec, err := singleFlowSpec(t)
			s.end()
			if err != nil {
				return nil, fmt.Errorf("%s: %w", sf.label, err)
			}
			for run := range gen {
				gen[run] = []traffic.FlowSpec{spec}
			}
		}

		plans := plancache.New(t)
		trials := make([]runner.Trial, 0, len(g.systems)*g.runs)
		for _, kind := range g.systems {
			for run := 0; run < g.runs; run++ {
				cfg := experiments.DefaultBedConfig()
				if sf.multi {
					cfg.Congestion = true
					cfg.FatTreeControl = sf.fatTree
				} else {
					cfg.NodeDelayMean = 100 * time.Millisecond
				}
				wcfg := cfg.WiringConfig(kind, g.seed+int64(run))
				wcfg.Plans = plans
				// A one-event ring: the recorder's counters still count
				// every send, verdict and commit.
				wcfg.Trace = &trace.Options{Cap: 1}
				trials = append(trials, g.tracedTrial(sp, o.id, int64(i*100000+len(trials)), sf, kind, t, wcfg, gen[run]))
			}
		}
		pool := sp.begin("runner.pool", -1, o.id)
		results := g.opts().Pool().Run(trials)
		pool.end()
		o.end()
		h, m := plans.Stats()
		hits += h
		misses += m
		for _, r := range results {
			addTraceSummary(layers, r.Trace)
		}
		panels = append(panels, results)
	}
	p := g.tally(panels, g.runs)
	for k, v := range layers {
		p.layers[k] = v
	}
	p.layers["plancache.hits"] = float64(hits)
	p.layers["plancache.misses"] = float64(misses)
	p.layers["runner.workers"] = float64(g.opts().Pool().NumWorkers())
	return p, nil
}

// tracedTrial builds one grid trial the way runner.BedTrial and the
// Fig. 7 trial bodies do, with spans around each layer call.
func (g *grid) tracedTrial(sp *spans, parent, id int64, sf subfig, kind experiments.SystemKind,
	t *topo.Topology, wcfg wiring.Config, flows []traffic.FlowSpec) runner.Trial {
	return runner.Trial{
		Label:  fmt.Sprintf("%s/%s/%d", sf.label, kind, id),
		System: kind.String(),
		Seed:   wcfg.Seed,
		Run: func() (runner.Metrics, error) {
			tr := sp.begin("runner.trial", id, parent)
			defer tr.end()
			s := sp.begin("wiring.new", id, tr.id)
			sys := wiring.New(t, wcfg)
			s.end()
			m, err := gridTrialBody(sp, id, tr.id, &experiments.Bed{Kind: kind, System: sys}, sf.multi, flows)
			m.VirtualTime = sys.Eng.Now()
			m.Events = sys.Eng.Steps()
			m.EventsScheduled = sys.Eng.Scheduled()
			m.Trace = sys.Trace.Summarize()
			return m, err
		},
	}
}

// gridTrialBody registers the flows, triggers every update, runs the
// engine to quiescence and returns the experiment's sample: the update's
// completion time (single flow) or the last flow's (multiple flows).
func gridTrialBody(sp *spans, id, parent int64, b *experiments.Bed, multi bool, flows []traffic.FlowSpec) (runner.Metrics, error) {
	s := sp.begin("controlplane.register", id, parent)
	err := b.Register(flows)
	s.end()
	if err != nil {
		return runner.Metrics{}, err
	}
	var updates []*controlplane.UpdateStatus
	for _, f := range flows {
		s := sp.begin("controlplane.trigger", id, parent)
		u, err := b.Trigger(f.ID(), f.New)
		s.end()
		if err != nil {
			return runner.Metrics{}, fmt.Errorf("%s: trigger: %w", b.Kind, err)
		}
		if u != nil || !multi {
			updates = append(updates, u)
		}
	}
	s = sp.begin("sim.run", id, parent)
	b.Eng.Run()
	s.end()
	if !multi {
		u := updates[0]
		if u == nil || !u.Done() {
			return runner.Metrics{}, nil
		}
		return runner.Metrics{Samples: []time.Duration{u.Completed - u.Sent}}, nil
	}
	var last time.Duration
	for _, u := range updates {
		if !u.Done() {
			return runner.Metrics{}, nil
		}
		if u.Completed > last {
			last = u.Completed
		}
	}
	if last == 0 {
		return runner.Metrics{}, nil
	}
	return runner.Metrics{Samples: []time.Duration{last}}, nil
}

// addTraceSummary adds a flight recorder's per-class counts to the
// packet and core layer counters.
func addTraceSummary(layers map[string]float64, s *trace.Summary) {
	if s == nil {
		return
	}
	for k, n := range s.ByClass {
		switch {
		case strings.HasPrefix(k, "send:"):
			layers["packet.sent."+strings.TrimPrefix(k, "send:")] += float64(n)
		case strings.HasPrefix(k, "verdict:"):
			layers["core.verdicts"] += float64(n)
		case k == "commit":
			layers["core.commits"] += float64(n)
		}
	}
}
