package main

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"

	"upa/internal/core"
	"upa/internal/mapreduce"
	"upa/internal/queries"
)

// libSystem is lib-paper9's system under test: the nine Table II queries and
// one long-lived core.System on its own engine.
type libSystem struct {
	w       *queries.Workload
	eng     *mapreduce.Engine
	sys     *core.System
	runners []queries.Runner
	repeat  queries.Runner // released again at the end of every cycle
	exact   map[string][]float64
}

func newLibSystem(w *queries.Workload, n int, seed uint64) (*libSystem, error) {
	eng := mapreduce.NewEngine()
	cfg := core.DefaultConfig()
	cfg.SampleSize = n
	cfg.Seed = splitmix64(seed) | 1 // core rejects a zero seed; the mix keeps seeds 2k and 2k+1 apart
	sys, err := core.NewSystem(eng, cfg)
	if err != nil {
		return nil, err
	}
	repeat, err := w.ByName("TPCH1")
	if err != nil {
		return nil, err
	}
	return &libSystem{w: w, eng: eng, sys: sys, runners: w.All(), repeat: repeat}, nil
}

// metricName turns a Table II query name into a metric-name component.
func metricName(query string) string { return strings.ReplaceAll(query, " ", "") }

// computeExact evaluates every query with no DP machinery: the reference of
// the utility metrics. It returns each query's time.
func (l *libSystem) computeExact() (map[string]time.Duration, error) {
	l.exact = make(map[string][]float64)
	times := make(map[string]time.Duration)
	for _, q := range l.runners {
		start := time.Now()
		out, err := q.RunVanilla(l.eng)
		if err != nil {
			return nil, fmt.Errorf("%s vanilla: %w", q.Name(), err)
		}
		times[q.Name()] = time.Since(start)
		l.exact[q.Name()] = out
	}
	return times, nil
}

// cycle is one lib-paper9 cycle: a fresh analyst session (ResetHistory),
// the nine queries, then TPCH1 again, whose collision makes the RANGE
// ENFORCER remove records once per cycle. Without the reset the removal
// counts grow from cycle to cycle and the workload never settles. A non-nil
// tr instruments every release; each sees every release.
func (l *libSystem) cycle(tr *libTrace, each func(q queries.Runner, repeat bool, res *core.Result)) error {
	l.sys.ResetHistory()
	for i := 0; i <= len(l.runners); i++ {
		q, repeat := l.repeat, i == len(l.runners)
		if !repeat {
			q = l.runners[i]
		}
		var before mapreduce.MetricsSnapshot
		if tr != nil {
			before = l.eng.Metrics()
		}
		start := time.Now()
		res, err := q.RunUPA(l.sys)
		wall := time.Since(start)
		if err != nil {
			return fmt.Errorf("%s: %w", q.Name(), err)
		}
		if tr != nil {
			tr.record(q.Name(), repeat, res, wall, l.eng.Metrics().Sub(before))
		}
		each(q, repeat, res)
	}
	return nil
}

// check verifies one release against its exact answer and feeds the
// utility metrics.
func (l *libSystem) check(r *run, q queries.Runner, repeat bool, res *core.Result, u *utility) {
	r.attempted++
	want := l.exact[q.Name()]
	if len(res.Output) != len(want) || !allFinite(res.Output) {
		r.fail("%s released %v, want %d finite values", q.Name(), res.Output, len(want))
		return
	}
	// The repeat's enforcer removals change its pre-noise output: it is its
	// own group, and cannot be told apart from a noiseless release.
	group := q.Name()
	if repeat {
		group += " repeat"
	}
	u.add(group, res.Output, want, !repeat)
}

// runLib runs lib-paper9: r.sc.setupReps set-ups (data generation, System
// build, one untimed cycle; setup_s is their median), then cycles for
// r.seconds. The traced run alternates traced and untraced cycles.
func runLib(ctx context.Context, r *run) error {
	var l *libSystem
	var setups []float64
	var warmup time.Duration
	for i := 0; i < r.sc.setupReps; i++ {
		if l != nil {
			// Let the previous set-up's memory go before the next one, so
			// peak_rss_mb measures one system, not several.
			l.eng.Close()
			l = nil
			runtime.GC()
			debug.FreeOSMemory()
		}
		if i == r.sc.setupReps-1 {
			resetPeakRSS()
		}
		start := time.Now()
		w, err := generate(r.sc, r.sc.lsRecords)
		if err != nil {
			return err
		}
		if l, err = newLibSystem(w, r.sc.libN, r.seed); err != nil {
			return err
		}
		cycleStart := time.Now()
		if err := l.cycle(nil, func(queries.Runner, bool, *core.Result) {}); err != nil {
			return err
		}
		warmup = time.Since(cycleStart)
		setups = append(setups, time.Since(start).Seconds())
	}
	defer l.eng.Close()
	vanilla, err := l.computeExact()
	if err != nil {
		return err
	}

	var pr *probes
	if r.trace {
		lb, err := newLab(l.w)
		if err != nil {
			return err
		}
		if pr, err = runProbes(ctx, r, lb); err != nil {
			return err
		}
		defer pr.close()
	}

	u := newUtility()
	var tracedCycles, untracedCycles []float64
	cycles := 0
	trace := newLibTrace()
	tl, err := measure(time.Duration(r.seconds)*time.Second, func() (time.Duration, error) {
		// The traced run alternates instrumented and plain cycles of the
		// same work; their times give the tracing overhead.
		var tr *libTrace
		if r.trace && cycles%2 == 1 {
			tr = trace
		}
		start := time.Now()
		err := l.cycle(tr, func(q queries.Runner, repeat bool, res *core.Result) {
			l.check(r, q, repeat, res, u)
		})
		d := time.Since(start)
		cycles++
		if tr != nil {
			tracedCycles = append(tracedCycles, ms(d))
		} else {
			untracedCycles = append(untracedCycles, ms(d))
		}
		return d, err
	})
	if err != nil {
		return err
	}

	if !r.trace {
		rss, ok := peakRSSMB("self")
		if !ok {
			return fmt.Errorf("cannot read this process's peak RSS")
		}
		r.set("setup_s", median(setups), "s")
		r.reportTiming(summarize(tl, 1), float64(len(l.runners)+1))
		r.set("peak_rss_mb", rss, "MB")
		r.set("rel_error_mean", u.summary(r), "share")
		r.note("latency is per cycle of %d releases; %d set-ups behind setup_s", len(l.runners)+1, len(setups))
		return nil
	}
	for name, d := range vanilla {
		trace.vanillaMS[name] = ms(d)
	}
	lp := layerInputs{warmupS: warmup.Seconds(), zeroNoise: u.zeroNoise, lib: trace}
	if len(tracedCycles) > 0 && len(untracedCycles) > 0 {
		// 1 - traced throughput / untraced throughput, over alternating
		// cycles of the same work.
		lp.overheadShare = 1 - mean(untracedCycles)/mean(tracedCycles)
	}
	emitLayers(r, pr, &lp, false)
	r.note("%d traced and %d untraced cycles behind trace.overhead_share", len(tracedCycles), len(untracedCycles))
	return nil
}

// libTrace accumulates the per-release instrumentation of traced cycles.
type libTrace struct {
	releaseMS   map[string][]float64
	vanillaMS   map[string]float64
	stageMS     map[string]float64 // summed over releases
	releases    int
	idleMS      float64
	covered     float64 // ms of release wall time inside some stage span
	wallMS      float64
	attempts    float64
	retries     float64
	speculative float64
	removed     []float64
	engine      mapreduce.MetricsSnapshot // summed per-release deltas
}

func newLibTrace() *libTrace {
	return &libTrace{
		releaseMS: make(map[string][]float64),
		vanillaMS: make(map[string]float64),
		stageMS:   make(map[string]float64),
	}
}

func (t *libTrace) record(name string, repeat bool, res *core.Result, wall time.Duration, delta mapreduce.MetricsSnapshot) {
	t.releases++
	t.engine = addSnapshots(t.engine, delta)
	t.wallMS += ms(wall)
	if repeat {
		t.removed = append(t.removed, float64(res.RemovedRecords))
	} else {
		t.releaseMS[name] = append(t.releaseMS[name], ms(wall))
	}
	if len(res.Spans) == 0 {
		return
	}
	type interval struct{ start, end time.Time }
	spans := make([]interval, 0, len(res.Spans))
	for _, s := range res.Spans {
		t.stageMS[s.Stage] += ms(s.Duration())
		t.attempts += float64(s.Attempts)
		t.retries += float64(s.Retries)
		t.speculative += float64(s.Speculative)
		spans = append(spans, interval{s.Start, s.End})
	}
	// Union of the span intervals: what the stages covered, and the gaps
	// between first start and last end where no stage ran.
	sort.Slice(spans, func(i, j int) bool { return spans[i].start.Before(spans[j].start) })
	var covered time.Duration
	cur := spans[0]
	envelopeEnd := cur.end
	for _, s := range spans[1:] {
		if s.start.After(cur.end) {
			covered += cur.end.Sub(cur.start)
			cur = s
		} else if s.end.After(cur.end) {
			cur.end = s.end
		}
		if s.end.After(envelopeEnd) {
			envelopeEnd = s.end
		}
	}
	covered += cur.end.Sub(cur.start)
	t.covered += ms(covered)
	t.idleMS += ms(envelopeEnd.Sub(spans[0].start) - covered)
}

// addSnapshots sums the engine counters the per-layer metrics read.
func addSnapshots(a, b mapreduce.MetricsSnapshot) mapreduce.MetricsSnapshot {
	a.RecordsMapped += b.RecordsMapped
	a.RecordsShuffled += b.RecordsShuffled
	a.ShuffleRounds += b.ShuffleRounds
	a.ReduceOps += b.ReduceOps
	a.TasksRun += b.TasksRun
	a.RecordsPreCombine += b.RecordsPreCombine
	a.RecordsPostCombine += b.RecordsPostCombine
	a.CacheHits += b.CacheHits
	a.CacheMisses += b.CacheMisses
	a.BroadcastRecords += b.BroadcastRecords
	a.TaskRetries += b.TaskRetries
	return a
}
