package main

import (
	"fmt"
	"hash/fnv"
	"time"

	"p4update/internal/experiments"
	"p4update/internal/runner"
	"p4update/internal/soak"
	"p4update/internal/topo"
	"p4update/internal/trace"
	"p4update/internal/traffic"
	"p4update/internal/wiring"
)

// churn is one streaming-churn trial at a time on fat-tree K=16: Poisson
// arrivals at 12k flows/s of virtual time with a mean lifetime that
// targets 10⁵ live flows, and a link-latency perturbation every 50 ms
// driving batched reroute waves, P4Update only.
type churn struct {
	seed  int64
	k     int
	co    experiments.ChurnOpts
	label string
	// warm is the shorter trial the set-up runs untimed.
	warm experiments.ChurnOpts
}

func newChurn(seed int64, sz size) *churn {
	c := &churn{seed: seed, k: 16}
	c.co = experiments.DefaultChurnOpts()
	c.co.ArrivalRate = 12000
	c.co.MeanLifetime = time.Duration(100_000 / c.co.ArrivalRate * float64(time.Second))
	c.co.Duration = 6 * time.Second
	c.co.RerouteEvery = 50 * time.Millisecond
	c.co.EdgeOnly = true
	if sz == tinySize {
		c.k = 4
		c.co.ArrivalRate = 2000
		c.co.MeanLifetime = 500 * time.Millisecond
		c.co.Duration = 300 * time.Millisecond
		c.co.Drain = 200 * time.Millisecond
		c.co.RerouteEvery = 20 * time.Millisecond
	}
	c.warm = c.co
	c.warm.Duration = c.co.Duration / 10
	c.label = fmt.Sprintf("fat-tree K=%d", c.k)
	return c
}

func (c *churn) mk() *topo.Topology { return topo.FatTree(c.k) }

// setup runs a short untimed churn trial through experiments.RunChurn:
// topology build and jitter, wiring, workload generation and a warm
// engine.
func (c *churn) setup() error {
	_, err := c.experimentPass(c.warm)
	return err
}

func (c *churn) pass() (*pass, error) { return c.experimentPass(c.co) }

func (c *churn) experimentPass(co experiments.ChurnOpts) (*pass, error) {
	res, err := experiments.RunChurn(c.mk, c.label, 1, c.seed, co, experiments.RunOptions{Workers: 1})
	if err != nil {
		return nil, err
	}
	return c.tally(res.Trials[0]), nil
}

// tally turns the churn trial's result into a pass. An operation is one
// update: it fails when triggered but not completed, or when its
// trigger errored.
func (c *churn) tally(r runner.Result) *pass {
	p := &pass{virtual: map[string]float64{}, layers: map[string]float64{}}
	if r.Failed {
		p.failf("churn trial failed: %s", r.Err)
		p.attempted, p.failed = 1, 1
		return p
	}
	v := r.Values
	h := fnv.New64a()
	for _, k := range sortedKeys(v) {
		if k == "wall_flows_per_sec" { // host-side, not simulated
			continue
		}
		p.virtual["churn."+k] = v[k]
	}
	fmt.Fprintf(h, "%d:%d:%d;", r.VirtualTime, r.Events, r.EventsScheduled)
	for _, s := range r.Samples {
		fmt.Fprintf(h, "%d,", s)
	}
	p.fingerprint = h.Sum64()
	p.trials = 1
	p.flows = int(v["arrivals"])
	p.trialFlowsPerSec = v["wall_flows_per_sec"]
	p.simSec = r.VirtualTime.Seconds()
	p.p4u = r.Samples
	errs := int(v["trigger_errors"])
	p.attempted = int(v["updates_triggered"]) + errs
	p.failed = int(v["updates_triggered"]-v["updates_completed"]) + errs
	p.virtual["p4u_update_p50_ms"] = quantileMs(p.p4u, 0.50)
	p.virtual["p4u_update_p99_ms"] = quantileMs(p.p4u, 0.99)
	p.virtual["sim.events"] = float64(r.Events)

	p.layers["sim.events"] = float64(r.Events)
	p.layers["sim.events_scheduled"] = float64(r.EventsScheduled)
	p.layers["dataplane.peak_live"] = v["peak_live"]
	p.layers["dataplane.flow_slots"] = v["flow_slots"]
	p.layers["dataplane.retired"] = v["retired"]
	p.layers["controlplane.trigger_calls"] = v["updates_triggered"]
	p.layers["controlplane.batch_frames"] = v["batch_frames"]
	p.layers["controlplane.batched_uims"] = v["batched_uims"]
	p.layers["soak.waves"] = v["waves"]
	p.layers["soak.triggered"] = v["updates_triggered"]
	p.layers["soak.completed"] = v["updates_completed"]
	p.layers["soak.skipped_busy"] = v["skipped_busy"]
	return p
}

// soakOptions mirrors the experiment's translation of churn knobs into the
// shared harness options (experiments.ChurnOpts.soakOptions).
func soakOptions(o experiments.ChurnOpts) soak.Options {
	return soak.Options{
		ArrivalRate:  o.ArrivalRate,
		MeanLifetime: o.MeanLifetime,
		Duration:     o.Duration,
		Drain:        o.Drain,
		RerouteEvery: o.RerouteEvery,
		EdgeOnly:     o.EdgeOnly,
		RetireGrace:  o.RetireGrace,
	}
}

// tracedPass composes the churn trial from the layers' exported calls:
// topology build and jitter, wiring.New, workload generation, harness
// start and the engine run, each under a span.
func (c *churn) tracedPass(sp *spans) (*pass, error) {
	co := c.co
	trialSeed := c.seed // run 0 of the experiment's grid
	b := sp.begin("topo.build", -1, 0)
	g := c.mk()
	traffic.JitterLatencies(g, trialSeed, co.LatencyJitter)
	b.end()
	cfg := experiments.DefaultBedConfig().WiringConfig(experiments.KindP4Update, trialSeed)
	cfg.Trace = &trace.Options{Cap: 1}
	var summary *trace.Summary
	trial := runner.Trial{
		Label: "churn/" + c.label, System: experiments.KindP4Update.String(), Seed: trialSeed,
		Run: func() (runner.Metrics, error) {
			tr := sp.begin("runner.trial", 0, 0)
			defer tr.end()
			s := sp.begin("wiring.new", 0, tr.id)
			sys := wiring.New(g, cfg)
			s.end()
			m, err := churnTrialBody(sp, tr.id, sys, g, trialSeed, co)
			m.VirtualTime = sys.Eng.Now()
			m.Events = sys.Eng.Steps()
			m.EventsScheduled = sys.Eng.Scheduled()
			summary = sys.Trace.Summarize()
			return m, err
		},
	}
	pool := sp.begin("runner.pool", -1, 0)
	results := (&runner.Pool{Workers: 1}).Run([]runner.Trial{trial})
	pool.end()
	p := c.tally(results[0])
	p.layers["runner.workers"] = 1
	addTraceSummary(p.layers, summary)
	return p, nil
}

// churnTrialBody mirrors the experiment's churn trial body
// (experiments.runChurnTrial) with spans around each layer call.
func churnTrialBody(sp *spans, parent int64, sys *wiring.System, g *topo.Topology, seed int64, co experiments.ChurnOpts) (runner.Metrics, error) {
	start := time.Now()
	so := soakOptions(co)
	s := sp.begin("traffic.gen", 0, parent)
	w, err := soak.NewWorkload(g, seed, so)
	s.end()
	if err != nil {
		return runner.Metrics{}, err
	}
	s = sp.begin("soak.start", 0, parent)
	h := soak.NewHarness(sys, g, w, so)
	h.Start()
	s.end()
	s = sp.begin("sim.run", 0, parent)
	sys.Eng.RunUntil(co.Duration + co.Drain)
	s.end()

	cnt := h.Counters()
	samples := h.Samples()
	m := runner.Metrics{Samples: samples}
	m.Values = map[string]float64{
		"arrivals":          float64(cnt.Arrivals),
		"departures":        float64(cnt.Departures),
		"retired":           float64(cnt.Retired),
		"peak_live":         float64(cnt.PeakLive),
		"end_live":          float64(h.LiveFlows()),
		"flow_slots":        float64(sys.Net.NumFlowSlots()),
		"waves":             float64(cnt.Waves),
		"updates_triggered": float64(cnt.Triggered),
		"updates_completed": float64(cnt.Completed),
		"skipped_busy":      float64(cnt.SkippedBusy),
		"skipped_same":      float64(cnt.SkippedSame),
		"trigger_errors":    float64(cnt.TriggerErrs),
		"batch_frames":      float64(sys.Ctl.BatchFrames),
		"batched_uims":      float64(sys.Ctl.BatchedUIMs),
	}
	if len(samples) > 0 {
		var sum time.Duration
		for _, x := range samples {
			sum += x
		}
		m.Values["update_p50_ms"] = quantileMs(samples, 0.50)
		m.Values["update_p99_ms"] = quantileMs(samples, 0.99)
		m.Values["update_mean_ms"] = float64(sum) / float64(len(samples)) / float64(time.Millisecond)
	}
	if el := time.Since(start).Seconds(); el > 0 {
		m.Values["wall_flows_per_sec"] = float64(cnt.Arrivals) / el
	}
	return m, nil
}
