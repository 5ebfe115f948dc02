package main

import (
	"bufio"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// hostRecord describes the machine, toolchain, commit and seed a run
// measured, so a figure can be tied back to where it came from.
func hostRecord(seed uint64) string {
	commit := "unknown (not built in a git checkout)"
	if bi, ok := debug.ReadBuildInfo(); ok {
		var rev, modified string
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					modified = " (modified)"
				}
			}
		}
		if rev != "" {
			commit = rev + modified
		}
	}
	return fmt.Sprintf("host: nproc %d, GOMAXPROCS %d, cpu %q, %s; %s; commit %s; seed %d",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), cpuModel(), cacheSizes(), runtime.Version(), commit, seed)
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// cacheSizes lists cpu0's unified and data caches from sysfs.
func cacheSizes() string {
	dirs, _ := filepath.Glob("/sys/devices/system/cpu/cpu0/cache/index*")
	var parts []string
	for _, d := range dirs {
		read := func(name string) string {
			b, err := os.ReadFile(filepath.Join(d, name))
			if err != nil {
				return ""
			}
			return strings.TrimSpace(string(b))
		}
		if typ := read("type"); typ == "Instruction" {
			continue
		}
		if lvl, size := read("level"), read("size"); lvl != "" && size != "" {
			parts = append(parts, fmt.Sprintf("L%s %s (shared by cpus %s)", lvl, size, read("shared_cpu_list")))
		}
	}
	if len(parts) == 0 {
		return "caches unknown"
	}
	return strings.Join(parts, ", ")
}

// cpuTime is the process's user+sys CPU so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMiB is the process's peak resident set size.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// resetPeakRSS restarts the kernel's resident-set high-water mark
// (VmHWM) at the current resident size.
func resetPeakRSS() error {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSSinceResetMiB is VmHWM: the peak resident set size since the
// last resetPeakRSS. getrusage's maxrss is no substitute, as it keeps
// the peak of any thread that has exited.
func peakRSSSinceResetMiB() (float64, error) {
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kib, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			return kib / 1024, err
		}
	}
	return 0, errors.New("/proc/self/status has no VmHWM line")
}

// goStats samples the runtime counters the go.* per-layer metrics
// difference over a timed phase.
type goStats struct {
	allocBytes, gcCycles float64
	gcCPU, totalCPU      float64
}

var goStatNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readGoStats() goStats {
	samples := make([]metrics.Sample, len(goStatNames))
	for i, n := range goStatNames {
		samples[i].Name = n
	}
	metrics.Read(samples)
	val := func(i int) float64 {
		switch samples[i].Value.Kind() {
		case metrics.KindUint64:
			return float64(samples[i].Value.Uint64())
		case metrics.KindFloat64:
			return samples[i].Value.Float64()
		}
		return 0
	}
	return goStats{val(0), val(1), val(2), val(3)}
}

// rssWindow is how long each resident-set peak a timed phase records
// runs. The phase's peak_rss_mib is the mean of its windows' peaks:
// the process's own peak is a single moment, a set-up or a late GC
// meeting two large solves or experiments, and it moved by a third or
// more between runs of the same code. On cold-solve the resident size
// swings between 30 and 100 MiB from one second to the next as GC
// cycles meet big-graph solves; over seven runs on a shared 2-vCPU
// host the interquartile range of the mean of the per-second peaks
// was 7% of its median, of their median 11% and of the phase's peak
// 29%.
const rssWindow = time.Second

// phase brackets a timed phase: CPU, runtime counters, wall time and
// the resident-set peak of each rssWindow.
type phase struct {
	start time.Time
	cpu   time.Duration
	gs    goStats
	stop  chan struct{}
	peaks chan []float64
}

func beginPhase() phase {
	p := phase{start: time.Now(), cpu: cpuTime(), gs: readGoStats(), stop: make(chan struct{}), peaks: make(chan []float64, 1)}
	go p.samplePeaks()
	return p
}

// samplePeaks restarts the resident-set high-water mark every
// rssWindow and sends the peak of each window, the last one cut short
// by end, once the phase ends. It sends nil where the kernel cannot
// restart or report the mark.
func (p phase) samplePeaks() {
	var peaks []float64
	err := resetPeakRSS()
	tick := time.NewTicker(rssWindow)
	defer tick.Stop()
	for stopped := false; err == nil && !stopped; {
		select {
		case <-tick.C:
		case <-p.stop:
			stopped = true
		}
		var v float64
		if v, err = peakRSSSinceResetMiB(); err == nil {
			peaks = append(peaks, v)
			err = resetPeakRSS()
		}
	}
	if err != nil {
		<-p.stop
		peaks = nil
	}
	p.peaks <- peaks
}

// end fills the phase's shared metrics into o: throughput and CPU per
// op over ops completed, the peak RSS, and on traced passes the go.*
// layer metrics.
func (p phase) end(o *outcome, ops int64) {
	wall := time.Since(p.start)
	cpu := cpuTime() - p.cpu
	gs := readGoStats()
	close(p.stop)
	o.e2e["throughput_ops"] = float64(ops) / wall.Seconds()
	if ops > 0 {
		o.e2e["cpu_ms_per_op"] = float64(cpu.Nanoseconds()) / 1e6 / float64(ops)
	}
	if peaks := <-p.peaks; peaks != nil {
		var sum float64
		for _, v := range peaks {
			sum += v
		}
		o.e2e["peak_rss_mib"] = sum / float64(len(peaks))
	} else {
		o.e2e["peak_rss_mib"] = peakRSSMiB()
		o.notef("peak_rss_mib is the process peak: the kernel does not restart the resident-set high-water mark")
	}
	o.layers["go.alloc_mib"] = (gs.allocBytes - p.gs.allocBytes) / (1 << 20)
	o.layers["go.gc_cycles"] = gs.gcCycles - p.gs.gcCycles
	if d := gs.totalCPU - p.gs.totalCPU; d > 0 {
		o.layers["go.gc_cpu_share"] = (gs.gcCPU - p.gs.gcCPU) / d
	}
}
