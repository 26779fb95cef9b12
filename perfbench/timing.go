package main

import (
	"os"
	"sort"
	"strconv"
	"strings"
	"time"
)

// windows is how many consecutive windows a timed loop's ops are split
// into, at least: the throughput and latency figures are medians over
// windows.
const windows = 20

// maxWindowOps caps a window's ops: a loop with many short ops (serve-hot)
// gets windows of a fifth of a second or so, fine enough to find the quiet
// stretches between bursts of stolen time, and each still holds ten samples
// above its 99th percentile.
const maxWindowOps = 1000

// quietSteal is the share of host CPU time the hypervisor may steal during
// a window for the window to count as quiet.
const quietSteal = 0.02

// sample is one op of a timed loop: when it completed, counted from the
// start of the loop, and how long it took.
type sample struct {
	end, latency time.Duration
}

// ticks is one reading of the host's CPU time counters.
type ticks struct {
	at           time.Duration
	steal, total uint64
}

// timeline is what a timed loop observed: every op, and the host's CPU
// counters read every 50 ms alongside.
type timeline struct {
	samples []sample
	host    []ticks
}

// measure runs op until d has passed (at least once). op returns the
// latency of what it did.
func measure(d time.Duration, op func() (time.Duration, error)) (*timeline, error) {
	t := &timeline{}
	start := time.Now()
	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		tick := time.NewTicker(50 * time.Millisecond)
		defer tick.Stop()
		for {
			if steal, total, ok := readCPUTicks(); ok {
				t.host = append(t.host, ticks{at: time.Since(start), steal: steal, total: total})
			}
			select {
			case <-stop:
				return
			case <-tick.C:
			}
		}
	}()
	var err error
	for {
		var lat time.Duration
		lat, err = op()
		t.samples = append(t.samples, sample{end: time.Since(start), latency: lat})
		if err != nil || t.samples[len(t.samples)-1].end >= d {
			break
		}
	}
	close(stop)
	<-done
	return t, err
}

// readCPUTicks reads the stolen and the total CPU time of all CPUs from
// /proc/stat, in clock ticks.
func readCPUTicks() (steal, total uint64, ok bool) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, false
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0, false
	}
	for i, f := range fields[1:] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return 0, 0, false
		}
		// guest and guest_nice (fields 9 and 10) are already counted in
		// user and nice.
		if i < 8 {
			total += v
		}
		if i == 7 {
			steal = v
		}
	}
	return steal, total, true
}

// stealShare is the share of host CPU time stolen between from and to,
// from the readings bracketing the interval (0 without readings).
func (t *timeline) stealShare(from, to time.Duration) float64 {
	if len(t.host) < 2 {
		return 0
	}
	lo := sort.Search(len(t.host), func(i int) bool { return t.host[i].at > from }) - 1
	hi := sort.Search(len(t.host), func(i int) bool { return t.host[i].at >= to })
	lo, hi = max(lo, 0), min(hi, len(t.host)-1)
	if hi <= lo || t.host[hi].total == t.host[lo].total {
		return 0
	}
	return float64(t.host[hi].steal-t.host[lo].steal) / float64(t.host[hi].total-t.host[lo].total)
}

// loopStats are the figures of a timed loop.
type loopStats struct {
	p50, p90, p99 float64 // latency, ms
	rate          float64 // ops per second
	windows, kept int
	steal         float64 // share of host CPU time stolen over the loop
	samples       int     // ops behind the latency percentiles
}

// summarize splits the loop into consecutive windows of whole periods of
// ops (a rotation of a mixed workload) — about twenty, or more of
// maxWindowOps each — and reports medians over the quiet ones: windows in
// which the hypervisor stole at most quietSteal
// of the host's CPU time, or, when fewer than half are that quiet, the
// quieter half. Stolen time is taken by other tenants of the host, never
// by the program, and a burst of it slows every layer at once; a median of
// quiet windows is unmoved by such a burst, or by a stall confined to a
// few windows, that a figure over the whole run would absorb.
//
// A latency percentile is the median of the windows' percentiles when each
// window leaves ten samples above it, and else the percentile of all the
// samples in the quiet windows.
func summarize(t *timeline, period int) loopStats {
	n := len(t.samples)
	period = max(period, 1)
	w := max(period, min(n/windows, maxWindowOps)/period*period)
	type window struct {
		lo, hi int // samples[lo:hi]
		steal  float64
	}
	var all []window
	for lo := 0; lo+w <= n; lo += w {
		from := time.Duration(0)
		if lo > 0 {
			from = t.samples[lo-1].end
		}
		all = append(all, window{lo: lo, hi: lo + w, steal: t.stealShare(from, t.samples[lo+w-1].end)})
	}
	var kept []window
	for _, win := range all {
		if win.steal <= quietSteal {
			kept = append(kept, win)
		}
	}
	if 2*len(kept) < len(all) {
		kept = append([]window(nil), all...)
		sort.SliceStable(kept, func(i, j int) bool { return kept[i].steal < kept[j].steal })
		kept = kept[:(len(kept)+1)/2]
	}

	st := loopStats{windows: len(all), kept: len(kept)}
	if n > 0 {
		st.steal = t.stealShare(0, t.samples[n-1].end)
	}
	var rates, pooled []float64
	for _, win := range kept {
		from := time.Duration(0)
		if win.lo > 0 {
			from = t.samples[win.lo-1].end
		}
		rates = append(rates, float64(w)/(t.samples[win.hi-1].end-from).Seconds())
		for _, s := range t.samples[win.lo:win.hi] {
			pooled = append(pooled, ms(s.latency))
		}
	}
	st.rate = median(rates)
	st.samples = len(pooled)
	pct := func(q float64) float64 {
		if float64(w)*(1-q) < 10 {
			return quantile(pooled, q)
		}
		var per []float64
		for i := 0; i < len(pooled); i += w {
			per = append(per, quantile(pooled[i:i+w], q))
		}
		return median(per)
	}
	st.p50, st.p90, st.p99 = pct(0.50), pct(0.90), pct(0.99)
	return st
}

// reportTiming sets the end-to-end timing metrics from st; opsPerSample scales a
// loop op (a lib-paper9 cycle) to the operations throughput counts.
func (r *run) reportTiming(st loopStats, opsPerSample float64) {
	r.set("latency_p50_ms", st.p50, "ms")
	r.set("latency_p90_ms", st.p90, "ms")
	r.set("throughput_rps", st.rate*opsPerSample, "1/s")
	r.note("%d of %d windows quiet enough to count (host steal %.1f%% over the loop); %d samples behind each latency percentile",
		st.kept, st.windows, 100*st.steal, st.samples)
	// The 99th percentile is reported, not gated: under bursts of stolen
	// host CPU it moved by more than any bound a gate could hold.
	r.note("latency_p99_ms = %.4g ms", st.p99)
}
