package main

import (
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between the
// two nearest order statistics (the "type 7" estimator). xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

// ratio is a/b, or 0 when b is 0 (a layer the workload does not exercise).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// relError is |got - want| / |want| under the Euclidean norm, the relative
// error of one release against its exact answer.
func relError(got, want []float64) float64 {
	var num, den float64
	for i := range want {
		d := got[i] - want[i]
		num += d * d
		den += want[i] * want[i]
	}
	if den == 0 {
		return math.Sqrt(num)
	}
	return math.Sqrt(num / den)
}

func allFinite(xs []float64) bool {
	for _, x := range xs {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return false
		}
	}
	return len(xs) > 0
}

func equalVec(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// splitmix64 is a bijective 64-bit mixer: distinct inputs give distinct
// outputs, so request seeds derived from (workload seed, index) never
// collide within a run.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// peakRSSMB reads VmHWM, the peak resident set size, of process pid
// ("self" for this process) from /proc.
func peakRSSMB(pid string) (float64, bool) {
	data, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0, false
	}
	for _, line := range strings.Split(string(data), "\n") {
		rest, ok := strings.CutPrefix(line, "VmHWM:")
		if !ok {
			continue
		}
		kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
		if err != nil {
			return 0, false
		}
		return kb / 1024, true
	}
	return 0, false
}

// resetPeakRSS restarts this process's VmHWM from its current RSS, so a
// later peakRSSMB("self") covers only what ran after the call.
func resetPeakRSS() {
	// Best effort: kernels without clear_refs keep the process-lifetime peak.
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}
