package main

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"io"
	"net"
	"os"
	"path/filepath"
	"time"

	"p4update/internal/deploy"
	"p4update/internal/packet"
	"p4update/internal/replaydiff"
	"p4update/internal/topo"
	"p4update/internal/trace"
)

// deployTimeout bounds each wait on the real-process fabric.
const deployTimeout = 20 * time.Second

// deployBench is the Fig. 2 scenario run as real daemons in this
// process: one ControllerDaemon and one SwitchDaemon per node, over
// loopback UDP on kernel-assigned ports. Every update gets fresh daemons
// and a fresh state directory, runs to probe-confirmed completion and the
// stale node's cleanup, and is replay-diffed against the simulated
// oracle.
type deployBench struct {
	scn     deploy.Scenario
	workdir string // parent of the per-update state directories
}

// newDeploy builds the workload. The scenario is fixed
// (deploy.Fig2Scenario), so it takes no seed and has no tiny size.
func newDeploy(workdir string) *deployBench {
	return &deployBench{scn: deploy.Fig2Scenario(), workdir: workdir}
}

// setup runs one untimed update: socket binds, daemon construction, the
// update and its replay diff.
func (d *deployBench) setup() error {
	p, err := d.update(nil)
	if err != nil {
		return err
	}
	if len(p.errs) > 0 {
		return fmt.Errorf("warm-up update: %s", p.errs[0])
	}
	return nil
}

func (d *deployBench) pass() (*pass, error) { return d.update(nil) }

func (d *deployBench) tracedPass(sp *spans) (*pass, error) { return d.update(sp) }

// fabric is one live in-process deployment.
type fabric struct {
	ctl      *deploy.ControllerDaemon
	switches []*deploy.SwitchDaemon
}

func (f *fabric) stop() {
	if f.ctl != nil {
		f.ctl.Stop()
	}
	for _, s := range f.switches {
		s.Stop()
	}
}

// update runs one closed-loop update on fresh daemons. With sp nil it is
// the untraced pass; otherwise every call into the daemons, the oracle
// and the replay diff runs under a span.
func (d *deployBench) update(sp *spans) (p *pass, err error) {
	if sp == nil {
		sp = newSpans() // discarded: the untraced pass records nothing it keeps
	}
	if err := os.MkdirAll(d.workdir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(d.workdir, "update-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	p = &pass{virtual: map[string]float64{}, layers: map[string]float64{}, wallSamples: true, attempted: 1}
	cpu0 := cpuTime()
	tr := sp.begin("deploy.update", 0, 0)
	start := time.Now()
	st := sp.begin("deploy.start", 0, tr.id)
	fb, err := d.start(dir)
	st.end()
	if err != nil {
		return nil, err
	}
	stopped := false
	defer func() {
		if !stopped {
			fb.stop()
		}
	}()

	f := d.scn.Flow()
	wait := sp.begin("deploy.push", 0, tr.id)
	pushErr := waitFor(fb.ctl.Pushed(), "update push")
	wait.end()
	pushed := time.Now()
	wait = sp.begin("deploy.complete", 0, tr.id)
	doneErr := waitFor(fb.ctl.Completed(), "update completion")
	wait.end()
	done := time.Now()
	if pushErr != nil || doneErr != nil {
		p.failed = 1
		p.failf("deploy: %v %v", pushErr, doneErr)
		return p, nil
	}
	// §11 cleanup: the node that left the path drops its stale rule
	// before the fabric is torn down, so every oracle decision happened.
	wait = sp.begin("deploy.cleanup", 0, tr.id)
	cleanErr := d.waitCleanup(fb, f)
	wait.end()
	fb.stop()
	stopped = true
	tr.end()
	if cleanErr != nil {
		p.failed = 1
		p.failf("deploy: %v", cleanErr)
		return p, nil
	}

	diff := sp.begin("replaydiff.diff", 0, 0)
	decisions, divergences, simSec, err := d.replayDiff(fb)
	diff.end()
	if err != nil {
		return nil, err
	}
	p.layers["deploy.cpu_ms_per_update"] = ms(cpuTime() - cpu0)
	if divergences != 0 || decisions == 0 {
		p.failed = 1
		p.failf("replay diff: %d divergences over %d decisions", divergences, decisions)
	}
	p.trials = 1
	p.flows = 1
	p.simSec = simSec
	p.p4u = []time.Duration{done.Sub(pushed)}
	p.virtual["replaydiff.decisions"] = float64(decisions)
	p.virtual["replaydiff.divergences"] = float64(divergences)
	h := fnv.New64a()
	fmt.Fprintf(h, "%d:%d:%v", decisions, divergences, simSec)
	p.fingerprint = h.Sum64()
	p.layers["replaydiff.decisions"] = float64(decisions)
	p.layers["replaydiff.divergences"] = float64(divergences)
	p.layers["deploy.push_ms"] = ms(pushed.Sub(start))
	p.layers["deploy.complete_ms"] = ms(done.Sub(pushed))
	p.layers["deploy.update_ms"] = ms(done.Sub(start))
	return p, nil
}

// start binds one loopback socket per daemon on a kernel-assigned port
// and starts the switches, then the controller.
func (d *deployBench) start(dir string) (*fabric, error) {
	g, err := d.scn.Topology()
	if err != nil {
		return nil, err
	}
	n := g.NumNodes()
	conns := make([]*net.UDPConn, n+1) // conns[n] is the controller's
	closeAll := func() {
		for _, c := range conns {
			if c != nil {
				c.Close()
			}
		}
	}
	peers := make(map[int32]string, n+1)
	for i := range conns {
		c, err := deploy.ListenLocal(0)
		if err != nil {
			closeAll()
			return nil, err
		}
		conns[i] = c
		id := int32(i)
		if i == n {
			id = -1
		}
		peers[id] = c.LocalAddr().String()
	}
	fb := &fabric{}
	for i := 0; i < n; i++ {
		sw, err := deploy.NewSwitch(deploy.SwitchConfig{
			Node:      topo.NodeID(i),
			Scn:       d.scn,
			Conn:      conns[i],
			Peers:     peers,
			StateFile: filepath.Join(dir, fmt.Sprintf("sw%d.json", i)),
		})
		if err != nil {
			fb.stop()
			closeAll()
			return nil, err
		}
		sw.Start()
		fb.switches = append(fb.switches, sw)
	}
	ctl, err := deploy.NewControllerDaemon(deploy.ControllerConfig{
		Scn:       d.scn,
		Conn:      conns[n],
		Peers:     peers,
		StateFile: filepath.Join(dir, "controller.json"),
	})
	if err != nil {
		fb.stop()
		closeAll()
		return nil, err
	}
	ctl.Start()
	fb.ctl = ctl
	return fb, nil
}

// waitCleanup polls until the node the update removed from the path has
// dropped its rule.
func (d *deployBench) waitCleanup(fb *fabric, f packet.FlowID) error {
	onNew := make(map[topo.NodeID]bool)
	for _, n := range d.scn.NewPath {
		onNew[n] = true
	}
	deadline := time.Now().Add(deployTimeout)
	for _, n := range d.scn.OldPath {
		if onNew[n] {
			continue
		}
		for {
			if _, ok := fb.switches[n].FlowVersion(f); !ok {
				break
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("stale node %d still holds a rule", n)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	return nil
}

// replayDiff merges every daemon's own decisions and diffs them against
// the simulated oracle's. It returns the oracle's decision count, the
// number of divergences, and the virtual seconds the oracle simulated.
func (d *deployBench) replayDiff(fb *fabric) (decisions, divergences int, simSec float64, err error) {
	golden, err := deploy.GoldenEvents(d.scn)
	if err != nil {
		return 0, 0, 0, err
	}
	want := replaydiff.Canonicalize(golden)
	if len(golden) > 0 {
		simSec = golden[len(golden)-1].At.Seconds()
	}
	logs := make([]*replaydiff.Log, 0, len(fb.switches)+1)
	l, err := ownLog(fb.ctl.WriteTrace, trace.NodeController)
	if err != nil {
		return 0, 0, 0, err
	}
	logs = append(logs, l)
	for i, sw := range fb.switches {
		l, err := ownLog(sw.WriteTrace, int32(i))
		if err != nil {
			return 0, 0, 0, err
		}
		logs = append(logs, l)
	}
	got := replaydiff.Merge(logs...)
	divergences = len(replaydiff.Diff(got, want))
	if got.Len() != want.Len() && divergences == 0 {
		divergences = 1
	}
	return want.Len(), divergences, simSec, nil
}

// ownLog dumps a daemon's flight recording and keeps the decisions the
// daemon itself made.
func ownLog(dump func(io.Writer) error, node int32) (*replaydiff.Log, error) {
	var buf bytes.Buffer
	if err := dump(&buf); err != nil {
		return nil, err
	}
	evs, err := trace.ParseJSONL(&buf)
	if err != nil {
		return nil, err
	}
	return replaydiff.Canonicalize(replaydiff.OwnedBy(evs, node)), nil
}

func waitFor(ch <-chan struct{}, what string) error {
	select {
	case <-ch:
		return nil
	case <-time.After(deployTimeout):
		return fmt.Errorf("timed out waiting for %s", what)
	}
}

// ms converts a duration to milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
