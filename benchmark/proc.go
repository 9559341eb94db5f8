package main

import (
	"bytes"
	"os"
	"runtime"
	"strconv"
)

// peakRSSMB is the process's peak resident set (VmHWM) in MB, or 0 where
// /proc is not available.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range bytes.Split(b, []byte("\n")) {
		if rest, ok := bytes.CutPrefix(line, []byte("VmHWM:")); ok {
			f := bytes.Fields(rest)
			if len(f) > 0 {
				kb, _ := strconv.ParseFloat(string(f[0]), 64)
				return kb / 1024
			}
		}
	}
	return 0
}

// cpuSeconds is the user plus system CPU time the process has used, from
// /proc/self/stat (0 where /proc is not available). The kernel reports
// it in clock ticks, 100 per second on every Linux this runs on.
func cpuSeconds() float64 {
	b, err := os.ReadFile("/proc/self/stat")
	if err != nil {
		return 0
	}
	// Fields are counted after the parenthesised command name, which may
	// itself hold spaces: utime and stime are the 14th and 15th overall.
	i := bytes.LastIndexByte(b, ')')
	f := bytes.Fields(b[i+1:])
	if i < 0 || len(f) < 13 {
		return 0
	}
	utime, _ := strconv.ParseFloat(string(f[11]), 64)
	stime, _ := strconv.ParseFloat(string(f[12]), 64)
	return (utime + stime) / 100
}

// stolenTicks returns how long the hypervisor ran something else while
// this box wanted a CPU, and all CPU time accounted so far, both in
// clock ticks over every CPU, from the first line of /proc/stat (zeros
// where /proc is not available). Their ratio over an interval is the
// share of the box that was taken away: the most direct sign of a noisy
// neighbour a guest can see.
func stolenTicks() (steal, total float64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := bytes.Cut(b, []byte("\n"))
	f := bytes.Fields(line)
	if len(f) < 9 || string(f[0]) != "cpu" {
		return 0, 0
	}
	for i, v := range f[1:] {
		x, _ := strconv.ParseFloat(string(v), 64)
		if i < 8 { // user nice system idle iowait irq softirq steal; guest time is already inside user
			total += x
		}
		if i == 7 {
			steal = x
		}
	}
	return steal, total
}

// gcPauseSeconds is the total stop-the-world pause so far.
func gcPauseSeconds() float64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.PauseTotalNs) / 1e9
}

// heapMB is the live heap after a forced collection.
func heapMB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

// mallocs is the cumulative count of heap objects allocated.
func mallocs() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs
}
