package main

import (
	"bufio"
	"os"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"
)

// host is the record every output carries, so a row always names the
// machine it was measured on.
type host struct {
	NumCPU     int    `json:"numCPU"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"goVersion"`
	CPUModel   string `json:"cpuModel"`
	// StealTicks is the hypervisor steal time over the run, in /proc/stat
	// clock ticks summed over all CPUs: a noisy neighbour shows here.
	StealTicks int64 `json:"stealTicks"`
}

func readHost() host {
	h := host{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPUModel = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	return h
}

// stealTicks returns the aggregate steal column of /proc/stat (0 where the
// file is missing).
func stealTicks() int64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	// cpu user nice system idle iowait irq softirq steal ...
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	v, _ := strconv.ParseInt(f[8], 10, 64)
	return v
}

// counters is one reading of the process-wide counters the benchmark
// takes at phase boundaries; differences of two readings give a phase's
// cost.
type counters struct {
	cpu      time.Duration // user+sys CPU of the process (getrusage)
	syscr    int64         // read-family syscalls (/proc/self/io)
	syscw    int64         // write-family syscalls (/proc/self/io)
	procIOs  int64         // procIO calls made before this reading
	alloc    uint64        // cumulative heap bytes allocated
	mallocs  uint64        // cumulative heap objects allocated
	gcCPU    float64       // cumulative GC CPU seconds
	totalCPU float64       // cumulative CPU seconds the runtime accounts
}

var cpuMetrics = []metrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/gc/heap/allocs:objects"},
}

// readCounters takes one reading. It does not stop the world.
func readCounters() counters {
	c := counters{cpu: processCPU()}
	c.syscr, c.syscw, c.procIOs = procIO()
	samples := make([]metrics.Sample, len(cpuMetrics))
	copy(samples, cpuMetrics)
	metrics.Read(samples)
	c.gcCPU = samples[0].Value.Float64()
	c.totalCPU = samples[1].Value.Float64()
	c.alloc = samples[2].Value.Uint64()
	c.mallocs = samples[3].Value.Uint64()
	return c
}

// processCPU returns the process's user+sys CPU time.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSBytes returns the process's peak resident set size.
func peakRSSBytes() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Maxrss * 1024 // Linux reports kilobytes
}

// procIOCalls counts procIO calls, so that a syscall delta can leave out
// the benchmark's own reads of /proc/self/io.
var procIOCalls atomic.Int64

// readsPerProcIO is how many read-family syscalls one procIO call makes.
var readsPerProcIO = func() int64 {
	a, _, _ := procIO()
	b, _, _ := procIO()
	return b - a
}()

// procIO returns the syscr and syscw counters of /proc/self/io (zeros where
// the file is missing) and how many procIO calls came before this one. The
// kernel counts a read once it has returned, so the counters include every
// earlier call's reads and none of this call's.
func procIO() (syscr, syscw, calls int64) {
	calls = procIOCalls.Add(1) - 1
	b, err := os.ReadFile("/proc/self/io")
	if err != nil {
		return 0, 0, calls
	}
	for _, line := range strings.Split(string(b), "\n") {
		k, v, ok := strings.Cut(line, ":")
		if !ok {
			continue
		}
		n, _ := strconv.ParseInt(strings.TrimSpace(v), 10, 64)
		switch k {
		case "syscr":
			syscr = n
		case "syscw":
			syscw = n
		}
	}
	return syscr, syscw, calls
}
