package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// TestTinyWorkloads runs every workload at its tiny size: set-up, two
// untraced passes that must repeat each other's simulated outputs, and a
// traced pass that must reproduce them. It also checks that the metric
// sets are exactly the declared ones.
func TestTinyWorkloads(t *testing.T) {
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			w := newWorkload(name, 7, tinySize, t.TempDir())
			setups, err := timeSetups(w, 1)
			if err != nil {
				t.Fatal(err)
			}
			passes, err := timedPasses(w, 1e-9, 2)
			if err != nil {
				t.Fatal(err)
			}
			res := endToEnd(setups, passes)
			if !res.Correct {
				t.Fatalf("correctness gate failed: %v", res.Errors)
			}
			if res.Attempted == 0 || res.Failed != 0 {
				t.Fatalf("operations: attempted %d, failed %d", res.Attempted, res.Failed)
			}
			checkMetrics(t, res.Metrics, endToEndUnits)
			for name, m := range res.Metrics {
				if m.Value <= 0 {
					t.Errorf("end-to-end metric %s = %v, want > 0", name, m.Value)
				}
			}

			sp := newSpans()
			traced, err := tracedAdapter{w, sp}.pass()
			if err != nil {
				t.Fatal(err)
			}
			if len(traced.errs) > 0 {
				t.Fatalf("traced pass: %v", traced.errs)
			}
			if err := sameOutputs(passes[0], traced); err != nil {
				t.Fatalf("traced pass differs from the untraced pass: %v", err)
			}
			traced.wall = passes[0].wall
			checkMetrics(t, layerMetrics(sp, []*pass{traced}, passes[0], goRuntime{}), layerUnits())
		})
	}
}

// TestAuditShareSplitsWorkloads checks the layer split the workloads were
// chosen for: the auditor's hook runs in soak and not in grid or churn,
// and grid hits the plan cache.
func TestAuditShareSplitsWorkloads(t *testing.T) {
	for _, name := range []string{"grid", "churn", "soak"} {
		w := newWorkload(name, 3, tinySize, t.TempDir())
		if err := w.setup(); err != nil {
			t.Fatal(err)
		}
		sp := newSpans()
		p, err := tracedAdapter{w, sp}.pass()
		if err != nil {
			t.Fatal(err)
		}
		p.wall = 1
		m := layerMetrics(sp, []*pass{p}, p, goRuntime{})
		share, hits := m["audit.share"].Value, m["plancache.hits"].Value
		switch name {
		case "grid":
			if share != 0 || hits == 0 {
				t.Errorf("grid: audit.share %v, plancache.hits %v; want 0 and > 0", share, hits)
			}
		case "churn":
			if share != 0 {
				t.Errorf("churn: audit.share %v, want 0", share)
			}
		case "soak":
			if share <= 0 || m["audit.sweeps"].Value == 0 {
				t.Errorf("soak: audit.share %v over %v sweeps; want > 0", share, m["audit.sweeps"].Value)
			}
		}
	}
}

// TestPrintedMetricsMatchBenchmarkJSON runs the command on the deploy
// workload, the quickest at full size, in both modes and checks its last
// output line against the metrics BENCHMARK.json declares, in both
// directions.
func TestPrintedMetricsMatchBenchmarkJSON(t *testing.T) {
	decl := readBenchmarkJSON(t)
	for _, mode := range []string{"0", "1"} {
		var out, errOut bytes.Buffer
		code := run([]string{"-workload", "deploy", "-seed", "2", "-seconds", "0.3", "-trace", mode,
			"-workdir", t.TempDir()}, &out, &errOut)
		if code != 0 {
			t.Fatalf("trace %s: exit %d\n%s%s", mode, code, out.String(), errOut.String())
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var res result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			t.Fatalf("trace %s: last line is not the result object: %v", mode, err)
		}
		if !res.Correct || res.Attempted < 1 {
			t.Fatalf("trace %s: correct %v, attempted %d", mode, res.Correct, res.Attempted)
		}
		want := decl.endToEnd
		if mode == "1" {
			want = decl.perLayer
		}
		checkMetrics(t, res.Metrics, want)
	}
}

// TestSchemaMatchesBenchmarkJSON checks the metric and workload tables
// against BENCHMARK.json in both directions.
func TestSchemaMatchesBenchmarkJSON(t *testing.T) {
	decl := readBenchmarkJSON(t)
	sameSet(t, "end_to_end", decl.endToEnd, endToEndUnits)
	sameSet(t, "per_layer", decl.perLayer, layerUnits())
	if strings.Join(decl.workloads, ",") != strings.Join(workloadNames, ",") {
		t.Errorf("workloads: BENCHMARK.json %v, benchmark %v", decl.workloads, workloadNames)
	}
}

func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-workload", "nope"},
		{"-workload", "grid", "-trace", "2"},
		{"-workload", "grid", "-seconds", "0"},
	} {
		var out, errOut bytes.Buffer
		if code := run(append(args, "-workdir", t.TempDir()), &out, &errOut); code != 2 {
			t.Errorf("%v: exit %d, want 2", args, code)
		}
		if out.Len() != 0 {
			t.Errorf("%v: printed %q on a usage error", args, out.String())
		}
	}
}

type declared struct {
	endToEnd, perLayer map[string]string
	workloads          []string
}

func readBenchmarkJSON(t *testing.T) declared {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []struct {
			Name string `json:"name"`
			Unit string `json:"unit"`
		} `json:"end_to_end"`
		PerLayer []struct {
			Name string `json:"name"`
			Unit string `json:"unit"`
		} `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &f); err != nil {
		t.Fatal(err)
	}
	d := declared{endToEnd: map[string]string{}, perLayer: map[string]string{}}
	for _, w := range f.Workloads {
		d.workloads = append(d.workloads, w.Name)
	}
	for _, m := range f.EndToEnd {
		d.endToEnd[m.Name] = m.Unit
	}
	for _, m := range f.PerLayer {
		d.perLayer[m.Name] = m.Unit
	}
	return d
}

func checkMetrics(t *testing.T, got map[string]metric, want map[string]string) {
	t.Helper()
	units := make(map[string]string, len(got))
	for k, m := range got {
		units[k] = m.Unit
	}
	sameSet(t, "printed metrics", units, want)
}

func sameSet(t *testing.T, what string, got, want map[string]string) {
	t.Helper()
	for k, u := range want {
		if g, ok := got[k]; !ok {
			t.Errorf("%s: missing %s", what, k)
		} else if g != u {
			t.Errorf("%s: %s has unit %q, want %q", what, k, g, u)
		}
	}
	for k := range got {
		if _, ok := want[k]; !ok {
			t.Errorf("%s: undeclared %s", what, k)
		}
	}
}
