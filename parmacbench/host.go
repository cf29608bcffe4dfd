package main

import (
	"os"
	"strconv"
	"strings"
)

// maxSteal is the share of the VM's CPU time the hypervisor may hand to
// other guests during a sample before the sample counts as disturbed. On a
// shared host such episodes slow every figure of the runs they fall in by
// a quarter to a half; the sample then measures the host, not the program.
const maxSteal = 0.02

// hostTicks are the VM's CPU time counters from /proc/stat, summed over its
// CPUs, in clock ticks.
type hostTicks struct{ steal, total uint64 }

// readHostTicks reads the counters; ok is false where /proc/stat is not
// readable, and then no sample counts as disturbed.
func readHostTicks() (t hostTicks, ok bool) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return t, false
	}
	line, _, _ := strings.Cut(string(b), "\n")
	// cpu user nice system idle iowait irq softirq steal [guest guest_nice];
	// guest time is already counted in user and nice.
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return t, false
	}
	for i, s := range f[1:9] {
		v, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			return hostTicks{}, false
		}
		t.total += v
		if i == 7 {
			t.steal = v
		}
	}
	return t, true
}

// stealWindow measures the steal share of an interval.
type stealWindow struct {
	start hostTicks
	ok    bool
}

func openSteal() stealWindow {
	t, ok := readHostTicks()
	return stealWindow{start: t, ok: ok}
}

// share returns the share of the VM's CPU time stolen since the window
// opened.
func (w stealWindow) share() float64 {
	t, ok := readHostTicks()
	if !w.ok || !ok || t.total <= w.start.total {
		return 0
	}
	return float64(t.steal-w.start.steal) / float64(t.total-w.start.total)
}

// clean returns the samples whose steal share is at most maxSteal, or all
// of them when fewer than half are clean: a run inside a long episode
// still reports, and its figures then show the episode.
func clean[T any](samples []T, steal []float64) []T {
	var out []T
	for i, s := range samples {
		if steal[i] <= maxSteal {
			out = append(out, s)
		}
	}
	if 2*len(out) < len(samples) {
		return samples
	}
	return out
}

// disturbed counts the samples whose steal share exceeds maxSteal.
func disturbed(steal []float64) int {
	n := 0
	for _, s := range steal {
		if s > maxSteal {
			n++
		}
	}
	return n
}
