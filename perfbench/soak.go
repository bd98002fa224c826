package main

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"time"

	"p4update/internal/experiments"
	"p4update/internal/faults"
	"p4update/internal/runner"
	"p4update/internal/soak"
	"p4update/internal/topo"
	"p4update/internal/trace"
	"p4update/internal/traffic"
	"p4update/internal/wiring"
)

// Soak pass size: soakRuns storm schedules per system, each admitting
// flows for soakDur and then draining. A cell's cost and update count
// swing widely with where its reroute waves land, so a pass averages
// many short cells; the auditor's cost per cell also grows faster than
// the window, as stranded flows accumulate.
const (
	soakRuns = 48
	soakDur  = 625 * time.Millisecond
)

// minAvailabilityPct is the audited availability P4Update must sustain
// under the squall storm (the soak gate the repository already keeps).
const minAvailabilityPct = 99

// soakBench is the fault-storm soak on B4: storm profile squall, churn at
// 300 flows/s, P4Update, ez-Segway and Central one cell at a time, with
// the invariant auditor sweeping after every engine step.
type soakBench struct {
	seed int64
	// runs independent storm schedules per pass (seed + run·7919, as the
	// experiment derives them), so one pass averages over several storms.
	runs    int
	so      experiments.SoakOpts
	warm    experiments.SoakOpts
	systems []experiments.SystemKind
}

func newSoak(seed int64, sz size) *soakBench {
	s := &soakBench{seed: seed, runs: soakRuns, systems: []experiments.SystemKind{
		experiments.KindP4Update, experiments.KindEZSegway, experiments.KindCentral}}
	s.so = experiments.DefaultSoakOpts()
	s.so.Churn.ArrivalRate = 300
	s.so.Churn.Duration = soakDur
	s.so.Profiles = []string{"squall"}
	s.so.AuditEvery = 1
	if sz == tinySize {
		s.runs = 1
		s.so.Churn.Duration = 500 * time.Millisecond
	}
	s.warm = s.so
	s.warm.Churn.Duration = s.so.Churn.Duration / 5
	return s
}

func (s *soakBench) opts() experiments.RunOptions {
	return experiments.RunOptions{Workers: 1, Systems: s.systems}
}

// setup runs a short untimed soak grid through experiments.RunSoak.
func (s *soakBench) setup() error {
	_, err := s.experimentPass(s.warm)
	return err
}

func (s *soakBench) pass() (*pass, error) { return s.experimentPass(s.so) }

func (s *soakBench) experimentPass(so experiments.SoakOpts) (*pass, error) {
	res, err := experiments.RunSoak(topo.B4, "B4", s.runs, s.seed, so, s.opts())
	if err != nil {
		return nil, err
	}
	return s.tally(res.Trials, res.Reports), nil
}

// tally folds the cells into a pass. The operations are P4Update's
// updates; one fails when it is stalled or crash-orphaned at the end of
// the cell. The baselines lack §11 recovery and strand updates under the
// storm by design: their strandings are reported, not counted as
// failures of the benchmark.
func (s *soakBench) tally(trials []runner.Result, reps []*soak.Report) *pass {
	p := &pass{virtual: map[string]float64{}, layers: map[string]float64{}}
	h := fnv.New64a()
	for i, r := range trials {
		rep := reps[i]
		if r.Failed || rep == nil {
			p.failf("soak cell %s failed: %s", r.Label, r.Err)
			p.attempted++
			p.failed++
			continue
		}
		fmt.Fprintf(h, "%d:%d:%d;", r.VirtualTime, r.Events, r.EventsScheduled)
		h.Write(r.Report)
		for _, x := range r.Samples {
			fmt.Fprintf(h, "%d,", x)
		}
		p.trials++
		p.flows += int(rep.Arrivals)
		p.simSec += r.VirtualTime.Seconds()
		p.virtual["sim.events"] += float64(r.Events)
		p.virtual["soak.all_triggered"] += float64(rep.UpdatesTriggered)
		p.virtual["soak.all_stranded"] += float64(rep.Stalled + rep.CrashOrphaned)

		p.layers["sim.events"] += float64(r.Events)
		p.layers["sim.events_scheduled"] += float64(r.EventsScheduled)
		p.layers["audit.sweeps"] += float64(rep.Sweeps)
		p.layers["audit.violations"] += float64(rep.Violations.Total)
		p.layers["controlplane.retriggers"] += float64(rep.Retriggers)
		p.layers["controlplane.probe_retries"] += float64(rep.ProbeRetries)
		p.layers["controlplane.trigger_calls"] += float64(rep.UpdatesTriggered)
		p.layers["dataplane.peak_live"] = max(p.layers["dataplane.peak_live"], float64(rep.PeakLive))
		p.layers["dataplane.retired"] += float64(rep.Retired)
		p.layers["soak.waves"] += float64(rep.Waves)
		p.layers["soak.triggered"] += float64(rep.UpdatesTriggered)
		p.layers["soak.completed"] += float64(rep.UpdatesCompleted)
		if rep.System != string(experiments.KindP4Update) {
			continue
		}
		p.p4u = append(p.p4u, r.Samples...)
		p.attempted += int(rep.UpdatesTriggered)
		p.failed += int(rep.Stalled + rep.CrashOrphaned)
		if a, ok := p.virtual["p4u_availability_pct"]; !ok || rep.AvailabilityPct < a {
			p.virtual["p4u_availability_pct"] = rep.AvailabilityPct
			p.layers["soak.p4u_availability_pct"] = rep.AvailabilityPct
		}
		if rep.Violations.Total != 0 {
			p.failf("P4Update recorded %d invariant violations", rep.Violations.Total)
		}
		if rep.AvailabilityPct < minAvailabilityPct {
			p.failf("P4Update availability %.3f%% is below %d%%", rep.AvailabilityPct, minAvailabilityPct)
		}
	}
	p.fingerprint = h.Sum64()
	p.virtual["p4u_update_p50_ms"] = quantileMs(p.p4u, 0.50)
	p.virtual["p4u_update_p99_ms"] = quantileMs(p.p4u, 0.99)
	return p
}

// tracedPass composes the soak grid from the layers' exported calls, as
// experiments.RunSoak does, with spans around each call and a timer
// around the auditor's engine hook.
func (s *soakBench) tracedPass(sp *spans) (*pass, error) {
	profile, ok := faults.LookupStorm(s.so.Profiles[0])
	if !ok {
		return nil, fmt.Errorf("unknown storm profile %q", s.so.Profiles[0])
	}
	var trials []runner.Trial
	var extra []map[string]float64
	for _, kind := range s.systems {
		for run := 0; run < s.runs; run++ {
			id := int64(len(trials))
			layers := map[string]float64{}
			extra = append(extra, layers)
			trials = append(trials, s.tracedCell(sp, id, kind, s.seed+int64(run)*7919, profile, layers))
		}
	}
	pool := sp.begin("runner.pool", -1, 0)
	results := (&runner.Pool{Workers: 1}).Run(trials)
	pool.end()
	reps := make([]*soak.Report, len(results))
	for i, r := range results {
		if r.Failed || len(r.Report) == 0 {
			continue
		}
		reps[i] = new(soak.Report)
		if err := json.Unmarshal(r.Report, reps[i]); err != nil {
			return nil, fmt.Errorf("cell %s report: %w", r.Label, err)
		}
	}
	p := s.tally(results, reps)
	for _, layers := range extra {
		for k, v := range layers {
			if k == "dataplane.flow_slots" {
				p.layers[k] = max(p.layers[k], v)
				continue
			}
			p.layers[k] += v
		}
	}
	p.layers["runner.workers"] = 1
	return p, nil
}

// tracedCell builds one soak cell the way experiments.RunSoak does, with
// spans around each layer call; layers receives its per-layer counters.
func (s *soakBench) tracedCell(sp *spans, id int64, kind experiments.SystemKind, trialSeed int64,
	profile faults.StormProfile, layers map[string]float64) runner.Trial {
	so := s.so
	co := so.Churn
	b := sp.begin("topo.build", id, 0)
	g := topo.B4()
	traffic.JitterLatencies(g, trialSeed, co.LatencyJitter)
	b.end()
	plan, episodes := faults.BuildStorm(g, trialSeed, co.Duration, profile)

	wcfg := experiments.DefaultBedConfig().WiringConfig(kind, trialSeed)
	wcfg.Faults = plan
	wcfg.AuditEvery = so.AuditEvery
	wcfg.WatchdogTimeout = so.Watchdog
	wcfg.ProbeTimeout = so.Watchdog
	wcfg.MaxRetriggers = so.MaxRetriggers
	wcfg.ChainedDL = true
	wcfg.MaxEvents = 200_000_000
	wcfg.Trace = &trace.Options{}

	sopt := soakOptions(co)
	sopt.Episodes = episodes
	sopt.MaxRetriggers = so.MaxRetriggers
	kindName := string(kind)
	return runner.Trial{
		Label: "soak/B4/" + kindName, System: kind.String(), Seed: trialSeed,
		Run: func() (runner.Metrics, error) {
			tr := sp.begin("runner.trial", id, 0)
			defer tr.end()
			w := sp.begin("wiring.new", id, tr.id)
			sys := wiring.New(g, wcfg)
			w.end()
			hookTime := timeAuditHook(sys)
			m, err := soakCellBody(sp, id, tr.id, sys, g, trialSeed, kindName, profile.Name, sopt, co, layers)
			sp.add("audit.hook", hookTime())
			m.VirtualTime = sys.Eng.Now()
			m.Events = sys.Eng.Steps()
			m.EventsScheduled = sys.Eng.Scheduled()
			addTraceSummary(layers, sys.Trace.Summarize())
			layers["dataplane.flow_slots"] = float64(sys.Net.NumFlowSlots())
			layers["controlplane.batch_frames"] = float64(sys.Ctl.BatchFrames)
			layers["controlplane.batched_uims"] = float64(sys.Ctl.BatchedUIMs)
			if sys.Inj != nil {
				layers["faults.inspected"] = float64(sys.Inj.Stats.Inspected)
				layers["faults.faulted"] = float64(sys.Inj.Stats.Faulted())
			}
			return m, err
		},
	}
}

// timeAuditHook wraps the engine's after-step hook (the invariant
// auditor's sweep) with a timer and returns a reader of the time spent
// in it. The total is charged to the recorder once per trial, keeping
// its lock off the per-step path.
func timeAuditHook(sys *wiring.System) func() time.Duration {
	var spent time.Duration
	hook := sys.Eng.AfterStep
	if hook != nil {
		sys.Eng.AfterStep = func() {
			t0 := time.Now()
			hook()
			spent += time.Since(t0)
		}
	}
	return func() time.Duration { return spent }
}

// soakCellBody mirrors the experiment's soak cell body with spans around
// each layer call.
func soakCellBody(sp *spans, id, parent int64, sys *wiring.System, g *topo.Topology, seed int64,
	kindName, profile string, sopt soak.Options, co experiments.ChurnOpts, layers map[string]float64) (runner.Metrics, error) {
	s := sp.begin("traffic.gen", id, parent)
	w, err := soak.NewWorkload(g, seed, sopt)
	s.end()
	if err != nil {
		return runner.Metrics{}, err
	}
	s = sp.begin("soak.start", id, parent)
	h := soak.NewHarness(sys, g, w, sopt)
	h.Start()
	s.end()
	s = sp.begin("sim.run", id, parent)
	sys.Eng.RunUntil(co.Duration + co.Drain)
	s.end()
	layers["soak.skipped_busy"] = float64(h.Counters().SkippedBusy)
	rep := h.Finish(kindName, profile, seed)
	raw, err := rep.Marshal()
	if err != nil {
		return runner.Metrics{}, err
	}
	return runner.Metrics{Samples: h.Samples(), Report: raw}, nil
}
