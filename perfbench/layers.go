package main

// sentClasses are the protocol message classes counted per send.
var sentClasses = []string{"FRM", "UIM", "UNM", "UFM", "EZI", "EZN", "CLN"}

// endToEndUnits lists the end-to-end metrics (-trace 0) with their units.
var endToEndUnits = map[string]string{
	"setup_s":           "s",
	"trials_per_s":      "trials/s",
	"flows_per_s":       "flows/s",
	"sim_s_per_s":       "s/s",
	"p4u_update_p50_ms": "ms",
	"p4u_update_p99_ms": "ms",
	"peak_rss_mb":       "MiB",
}

// layerUnits lists the per-layer metrics (-trace 1) with their units.
// Every traced run prints all of them; a layer a workload does not use
// reads 0.
func layerUnits() map[string]string {
	u := map[string]string{
		"bench.traced_passes":         "count",
		"bench.trace_overhead":        "ratio",
		"runner.trials":               "count",
		"runner.failed_trials":        "count",
		"runner.trial_busy_s":         "s",
		"runner.utilization":          "ratio",
		"experiments.serial_s":        "s",
		"traffic.gen_calls":           "count",
		"traffic.gen_s":               "s",
		"topo.build_s":                "s",
		"wiring.new_calls":            "count",
		"wiring.new_s":                "s",
		"controlplane.register_s":     "s",
		"controlplane.trigger_calls":  "count",
		"controlplane.trigger_s":      "s",
		"controlplane.uims_per_frame": "ratio",
		"controlplane.retriggers":     "count",
		"controlplane.probe_retries":  "count",
		"plancache.hits":              "count",
		"plancache.misses":            "count",
		"plancache.hit_ratio":         "ratio",
		"sim.run_s":                   "s",
		"sim.events":                  "count",
		"sim.events_scheduled":        "count",
		"sim.handler_ns_per_event":    "ns",
		"audit.hook_s":                "s",
		"audit.sweeps":                "count",
		"audit.share":                 "ratio",
		"audit.violations":            "count",
		"faults.inspected":            "count",
		"faults.faulted":              "count",
		"dataplane.peak_live":         "count",
		"dataplane.flow_slots":        "count",
		"dataplane.retired":           "count",
		"core.verdicts":               "count",
		"core.commits":                "count",
		"core.commit_ratio":           "ratio",
		"soak.waves":                  "count",
		"soak.triggered":              "count",
		"soak.completed":              "count",
		"soak.skipped_busy":           "count",
		"soak.p4u_availability_pct":   "%",
		"deploy.start_s":              "s",
		"deploy.push_ms":              "ms",
		"deploy.complete_ms":          "ms",
		"deploy.update_ms":            "ms",
		"deploy.cpu_ms_per_update":    "ms",
		"replaydiff.diff_s":           "s",
		"replaydiff.decisions":        "count",
		"replaydiff.divergences":      "count",
		"go.allocs":                   "count",
		"go.alloc_bytes":              "bytes",
		"go.gc_cpu_s":                 "s",
	}
	for _, c := range sentClasses {
		u["packet.sent."+c] = "count"
	}
	return u
}

// layerMetrics turns the traced passes' spans and counters into the
// per-layer metrics, each per pass. ref is the untraced pass the
// traced ones reproduce; rt the Go runtime's counters over all traced
// passes.
func layerMetrics(sp *spans, passes []*pass, ref *pass, rt goRuntime) map[string]metric {
	units := layerUnits()
	n := float64(len(passes))
	v := make(map[string]float64, len(units))
	perPass := func(name string) float64 { return sp.seconds(name) / n }
	perPassCount := func(name string) float64 { return float64(sp.count(name)) / n }

	// Counts read off the outputs: the median over passes (counts of
	// simulated work repeat exactly; deploy's wall-clock figures vary).
	for k := range passes[0].layers {
		var xs []float64
		for _, p := range passes {
			xs = append(xs, p.layers[k])
		}
		v[k] = median(xs)
	}

	var walls []float64
	var wall float64
	for _, p := range passes {
		walls = append(walls, p.wall.Seconds())
		wall += p.wall.Seconds()
	}
	v["bench.traced_passes"] = n
	v["bench.trace_overhead"] = median(walls) / ref.wall.Seconds()

	v["runner.trials"] = perPassCount("runner.trial")
	v["runner.trial_busy_s"] = perPass("runner.trial")
	if pool := sp.seconds("runner.pool"); pool > 0 && v["runner.workers"] > 0 {
		v["runner.utilization"] = sp.seconds("runner.trial") / (v["runner.workers"] * pool)
	}
	delete(v, "runner.workers")
	v["experiments.serial_s"] = (wall - sp.seconds("runner.pool")) / n
	v["traffic.gen_calls"] = perPassCount("traffic.gen")
	v["traffic.gen_s"] = perPass("traffic.gen")
	v["topo.build_s"] = perPass("topo.build")
	v["wiring.new_calls"] = perPassCount("wiring.new")
	v["wiring.new_s"] = perPass("wiring.new")
	v["controlplane.register_s"] = perPass("controlplane.register")
	v["controlplane.trigger_calls"] += perPassCount("controlplane.trigger")
	v["controlplane.trigger_s"] = perPass("controlplane.trigger")
	if frames := v["controlplane.batch_frames"]; frames > 0 {
		v["controlplane.uims_per_frame"] = v["controlplane.batched_uims"] / frames
	}
	delete(v, "controlplane.batch_frames")
	delete(v, "controlplane.batched_uims")
	if total := v["plancache.hits"] + v["plancache.misses"]; total > 0 {
		v["plancache.hit_ratio"] = v["plancache.hits"] / total
	}
	v["sim.run_s"] = perPass("sim.run")
	v["audit.hook_s"] = perPass("audit.hook")
	if v["sim.run_s"] > 0 {
		v["audit.share"] = v["audit.hook_s"] / v["sim.run_s"]
	}
	if ev := v["sim.events"]; ev > 0 {
		v["sim.handler_ns_per_event"] = (v["sim.run_s"] - v["audit.hook_s"]) * 1e9 / ev
	}
	if verdicts := v["core.verdicts"]; verdicts > 0 {
		v["core.commit_ratio"] = v["core.commits"] / verdicts
	}
	v["deploy.start_s"] = perPass("deploy.start")
	v["replaydiff.diff_s"] = perPass("replaydiff.diff")
	v["go.allocs"] = float64(rt.allocs) / n
	v["go.alloc_bytes"] = float64(rt.allocBytes) / n
	v["go.gc_cpu_s"] = rt.gcCPU / n

	out := make(map[string]metric, len(units))
	for name, unit := range units {
		out[name] = metric{v[name], unit}
	}
	return out
}
