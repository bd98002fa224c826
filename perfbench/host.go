package main

import (
	"bufio"
	"os"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// host is the machine metadata recorded with every result.
type host struct {
	NumCPU     int    `json:"nproc"`
	Gomaxprocs int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
}

func hostInfo() host {
	return host{
		NumCPU:     runtime.NumCPU(),
		Gomaxprocs: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CPUModel:   cpuModel(),
	}
}

// cpuModel reads the first "model name" from /proc/cpuinfo ("" where
// the file does not exist).
func cpuModel() string {
	fh, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return ""
	}
	defer fh.Close()
	sc := bufio.NewScanner(fh)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return ""
}

// poolWorkers is the trial-pool width: two workers, or fewer on a
// smaller machine, so the benchmark never runs more busy threads than
// there are CPUs.
func poolWorkers() int {
	return min(2, runtime.NumCPU(), runtime.GOMAXPROCS(0))
}

// peakRSSMiB returns the process's peak resident set (VmHWM), falling
// back to getrusage's maximum RSS where /proc is unavailable.
func peakRSSMiB() float64 {
	if raw, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(raw), "\n") {
			if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				f := strings.Fields(rest)
				if len(f) > 0 {
					if kb, err := strconv.ParseFloat(f[0], 64); err == nil {
						return kb / 1024
					}
				}
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// cpuTime returns the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// goRuntime is a snapshot of the runtime's cumulative allocation and GC
// CPU counters.
type goRuntime struct {
	allocs, allocBytes uint64
	gcCPU              float64
}

func readGoRuntime() goRuntime {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
	}
	metrics.Read(s)
	var r goRuntime
	if s[0].Value.Kind() == metrics.KindUint64 {
		r.allocs = s[0].Value.Uint64()
	}
	if s[1].Value.Kind() == metrics.KindUint64 {
		r.allocBytes = s[1].Value.Uint64()
	}
	if s[2].Value.Kind() == metrics.KindFloat64 {
		r.gcCPU = s[2].Value.Float64()
	}
	return r
}

func (r goRuntime) sub(o goRuntime) goRuntime {
	return goRuntime{r.allocs - o.allocs, r.allocBytes - o.allocBytes, r.gcCPU - o.gcCPU}
}
