package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"upa/internal/core"
	"upa/internal/mapreduce"
	"upa/internal/queries"
	"upa/internal/serve"
	"upa/internal/sql"
)

// The traced run times calls into each layer's public functions from the
// benchmark itself; nothing inside the program is instrumented. The same
// probes run in every traced run, so every workload reports every
// per-layer metric. Counters of a layer the workload does not pass through
// (the HTTP layer of lib-paper9, say) read 0.

// planProbe is what the probes measured for one named serve plan.
type planProbe struct {
	compileMS, allocMB, allocsK, plainMS, releaseMS []float64
	missMS                                          float64
	influenceRows, batched, shuffled                float64
}

// probes holds the in-process layer measurements of one traced run.
type probes struct {
	plans map[string]*planProbe
	// svc is the in-process service; it outlives the probes for the
	// replay check.
	svc    *serve.Service
	svcDir string

	hitNamedUS, hitAdhocUS                         []float64
	decodeUS, fingerprintUS, supportsUS, journalUS []float64
	missEngine, hitEngine                          mapreduce.MetricsSnapshot
	misses, hits                                   int
	// lib is one instrumented lib-paper9 cycle, for workloads that do not
	// run the library path themselves.
	lib *libTrace
}

func (p *probes) close() {
	if p.svc != nil {
		p.svc.Close()
	}
	os.RemoveAll(p.svcDir)
}

// runProbes measures every layer in-process on lb's warehouse.
func runProbes(ctx context.Context, r *run, lb *lab) (*probes, error) {
	sc := r.sc
	pr := &probes{plans: make(map[string]*planProbe)}
	tmp := r.tmpDir()
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return nil, err
	}
	var err error
	if pr.svcDir, err = os.MkdirTemp(tmp, "probe-"); err != nil {
		return nil, err
	}
	if pr.svc, err = lb.newService(sc, pr.svcDir); err != nil {
		pr.close()
		return nil, err
	}
	steps := []func(context.Context, *run, *lab) error{pr.probeSQL, pr.probeService, pr.probeServeParts}
	if r.workload != "lib-paper9" {
		steps = append(steps, pr.probeLib)
	}
	for _, step := range steps {
		if err := step(ctx, r, lb); err != nil {
			pr.close()
			return nil, err
		}
	}
	return pr, nil
}

// probeSQL times influence compilation (with its allocations and engine
// counters), the plain count, and the release of each named serve plan.
func (pr *probes) probeSQL(ctx context.Context, r *run, lb *lab) error {
	eng := lb.eng
	for i, p := range servePlans {
		pp := &planProbe{}
		pr.plans[p.name] = pp
		plan := lb.named[p.name]
		var q core.Query[sql.IndexedRow]
		var data []sql.IndexedRow
		for rep := 0; rep < r.sc.probeReps; rep++ {
			runtime.GC()
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			before := eng.Metrics()
			start := time.Now()
			var err error
			q, data, err = sql.CompileDPCount(eng, plan, p.protected)
			d := time.Since(start)
			runtime.ReadMemStats(&m1)
			if err != nil {
				return fmt.Errorf("compile %s: %w", p.name, err)
			}
			delta := eng.Metrics().Sub(before)
			pp.compileMS = append(pp.compileMS, ms(d))
			pp.allocMB = append(pp.allocMB, float64(m1.TotalAlloc-m0.TotalAlloc)/(1<<20))
			pp.allocsK = append(pp.allocsK, float64(m1.Mallocs-m0.Mallocs)/1000)
			pp.influenceRows = float64(len(data))
			pp.batched = float64(delta.RecordsBatched)
			pp.shuffled = float64(delta.RecordsShuffled)
		}
		for rep := 0; rep < r.sc.probeReps; rep++ {
			start := time.Now()
			if _, err := sql.ExecuteCount(eng, plan); err != nil {
				return fmt.Errorf("count %s: %w", p.name, err)
			}
			pp.plainMS = append(pp.plainMS, ms(time.Since(start)))
		}
		for rep := 0; rep < r.sc.probeReps; rep++ {
			cfg := core.DefaultConfig()
			cfg.SampleSize = r.sc.serveN
			cfg.Epsilon = epsilon
			cfg.Seed = splitmix64(r.seed<<8^uint64(i*r.sc.probeReps+rep)) | 1
			sys, err := core.NewSystem(eng, cfg)
			if err != nil {
				return err
			}
			start := time.Now()
			res, err := core.RunCtx(ctx, sys, q, data, nil)
			d := time.Since(start)
			r.attempted++
			if err != nil || !allFinite(res.Output) {
				r.fail("release %s: %v", p.name, err)
				continue
			}
			pp.releaseMS = append(pp.releaseMS, ms(d))
		}
	}
	return nil
}

// probeService times in-process Service.Query: one miss per named plan,
// then hits over the serve-hot mix of named and ad-hoc keys.
func (pr *probes) probeService(ctx context.Context, r *run, lb *lab) error {
	eng := lb.eng
	seed := func(i int) uint64 { return splitmix64(r.seed<<16 ^ 0xBEEF ^ uint64(i)) }
	var keys []serve.Request
	for i, p := range servePlans {
		req := serve.Request{Tenant: tenantName(0), User: userName(0), PlanName: p.name, Protected: p.protected, Epsilon: epsilon, Seed: seed(i)}
		before := eng.Metrics()
		start := time.Now()
		rel, serr := pr.svc.Query(ctx, req)
		d := time.Since(start)
		r.attempted++
		if serr != nil || rel.Cached || rel.Charged != epsilon {
			r.fail("in-process miss %s: %v", p.name, serr)
			continue
		}
		pr.missEngine = addSnapshots(pr.missEngine, eng.Metrics().Sub(before))
		pr.misses++
		pr.plans[p.name].missMS = ms(d)
		keys = append(keys, req)
	}
	for j, raw := range adhocPlans {
		req := serve.Request{Tenant: tenantName(0), User: userName(0), Plan: []byte(raw), Epsilon: epsilon, Seed: seed(len(servePlans) + j)}
		r.attempted++
		if _, serr := pr.svc.Query(ctx, req); serr != nil {
			r.fail("in-process ad-hoc miss: %v", serr)
			continue
		}
		keys = append(keys, req)
	}
	if len(keys) == 0 {
		return fmt.Errorf("no in-process release succeeded")
	}
	before := eng.Metrics()
	for i := 0; i < r.sc.fastProbeReps; i++ {
		req := keys[i%len(keys)]
		start := time.Now()
		rel, serr := pr.svc.Query(ctx, req)
		d := time.Since(start)
		r.attempted++
		if serr != nil || !rel.Cached {
			r.fail("in-process hit: %v", serr)
			continue
		}
		if req.PlanName != "" {
			pr.hitNamedUS = append(pr.hitNamedUS, us(d))
		} else {
			pr.hitAdhocUS = append(pr.hitAdhocUS, us(d))
		}
	}
	pr.hitEngine = eng.Metrics().Sub(before)
	pr.hits = r.sc.fastProbeReps
	return nil
}

// probeServeParts times the serving layer's pieces on their own: plan
// decoding, fingerprinting, the DP-count validator, and a journaled ledger
// write.
func (pr *probes) probeServeParts(_ context.Context, r *run, lb *lab) error {
	raws := make([][]byte, len(adhocPlans))
	for i, raw := range adhocPlans {
		raws[i] = []byte(raw)
	}
	plans := append([]sql.Plan(nil), lb.adhoc...)
	protected := []string{"orders", "orders", "orders"}
	for _, p := range servePlans {
		plans = append(plans, lb.named[p.name])
		protected = append(protected, p.protected)
	}
	n := r.sc.fastProbeReps
	for i := 0; i < n; i++ {
		start := time.Now()
		_, err := serve.DecodePlan(raws[i%len(raws)], lb.tables)
		d := time.Since(start)
		if err != nil {
			return err
		}
		pr.decodeUS = append(pr.decodeUS, us(d))
	}
	for i := 0; i < n; i++ {
		start := time.Now()
		fp := sql.Fingerprint(plans[i%len(plans)])
		d := time.Since(start)
		if fp == "" {
			return fmt.Errorf("empty fingerprint")
		}
		pr.fingerprintUS = append(pr.fingerprintUS, us(d))
	}
	for i := 0; i < n; i++ {
		k := i % len(plans)
		start := time.Now()
		err := sql.SupportsDPCount(plans[k], protected[k])
		d := time.Since(start)
		if err != nil {
			return err
		}
		pr.supportsUS = append(pr.supportsUS, us(d))
	}

	dir, err := os.MkdirTemp(r.tmpDir(), "ledger-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	store, _, err := serve.OpenStore(filepath.Join(dir, "ledger.json"))
	if err != nil {
		return err
	}
	defer store.Close()
	ledger := serve.NewLedger(store.Append)
	// Each registration of a new tenant is one journaled write, the write
	// an admission charge makes. ChargeAdmission itself may only be called
	// from the serving layer's admission site.
	for i := 0; i < max(n/10, 5); i++ {
		start := time.Now()
		err := ledger.Register(fmt.Sprintf("probe%d", i), tenantBudget, userBudget)
		d := time.Since(start)
		if err != nil {
			return err
		}
		pr.journalUS = append(pr.journalUS, us(d))
	}
	return nil
}

// probeLib runs one instrumented lib-paper9 cycle, after the exact answers
// (whose times are the vanilla baseline).
func (pr *probes) probeLib(_ context.Context, r *run, lb *lab) error {
	l, err := newLibSystem(lb.w, r.sc.libN, r.seed)
	if err != nil {
		return err
	}
	defer l.eng.Close()
	vanilla, err := l.computeExact()
	if err != nil {
		return err
	}
	pr.lib = newLibTrace()
	for name, d := range vanilla {
		pr.lib.vanillaMS[name] = ms(d)
	}
	u := newUtility()
	return l.cycle(pr.lib, func(q queries.Runner, repeat bool, res *core.Result) {
		l.check(r, q, repeat, res, u)
	})
}

// layerInputs are the per-layer figures a workload's own loop observed.
type layerInputs struct {
	warmupS            float64
	cacheHitRatio      float64
	journalBytesPerReq float64
	httpHitP50US       float64 // 0: no HTTP layer
	zeroNoise          int
	lib                *libTrace // lib-paper9's own traced cycles
	overheadShare      float64
}

// emitLayers reports every per-layer metric.
func emitLayers(r *run, pr *probes, lp *layerInputs, hot bool) {
	hitUS := median(append(append([]float64(nil), pr.hitNamedUS...), pr.hitAdhocUS...))
	httpOverhead := 0.0
	if lp.httpHitP50US > 0 {
		base := median(pr.hitNamedUS) // serve-cold probes hits of named plans
		if hot {
			base = hitUS
		}
		httpOverhead = lp.httpHitP50US - base
	}
	r.set("http.overhead_us", httpOverhead, "us")
	r.set("serve.query_hit_us", hitUS, "us")
	r.set("serve.decode_plan_us", median(pr.decodeUS), "us")
	r.set("serve.fingerprint_us", median(pr.fingerprintUS), "us")
	r.set("serve.supports_dpcount_us", median(pr.supportsUS), "us")
	r.set("serve.cache_hit_ratio", lp.cacheHitRatio, "ratio")
	r.set("serve.ledger_journal_us", median(pr.journalUS), "us")
	r.set("serve.journal_bytes_per_req", lp.journalBytesPerReq, "B")
	r.set("serve.warmup_s", lp.warmupS, "s")

	var missMS, compiledMS float64
	for _, p := range servePlans {
		pp := pr.plans[p.name]
		r.set("serve.query_miss_ms."+p.name, pp.missMS, "ms")
		r.set("sql.compile_ms."+p.name, median(pp.compileMS), "ms")
		r.set("sql.compile_alloc_mb."+p.name, median(pp.allocMB), "MB")
		r.set("sql.compile_allocs_k."+p.name, median(pp.allocsK), "k")
		r.set("sql.plain_count_ms."+p.name, median(pp.plainMS), "ms")
		r.set("sql.influence_rows."+p.name, pp.influenceRows, "count")
		r.set("sql.records_batched."+p.name, pp.batched, "count")
		r.set("sql.records_shuffled."+p.name, pp.shuffled, "count")
		r.set("core.release_ms.sql_"+p.name, median(pp.releaseMS), "ms")
		missMS += pp.missMS
		compiledMS += median(pp.compileMS) + median(pp.releaseMS) + median(pr.journalUS)/1000
	}

	lib := lp.lib
	if lib == nil {
		lib = pr.lib
	}
	var upaMS, vanillaMS float64
	for name, vanilla := range lib.vanillaMS {
		release := median(lib.releaseMS[name])
		r.set("core.release_ms."+metricName(name), release, "ms")
		r.set("core.vanilla_ms."+metricName(name), vanilla, "ms")
		upaMS += release
		vanillaMS += vanilla
	}
	for _, stage := range []string{
		core.StagePartitionSample, core.StageBulkReduce, core.StageMapSamples, core.StageMapAdditions,
		core.StagePrefixSuffix, core.StageNeighbourDeltas, core.StageNeighbourJoin,
		core.StageFit, core.StageEnforce, core.StagePerturb,
	} {
		r.set("core.stage_ms."+stage, ratio(lib.stageMS[stage], float64(lib.releases)), "ms")
	}
	r.set("core.enforcer_removed_records", mean(lib.removed), "count")
	r.set("core.overhead_x", ratio(upaMS, vanillaMS), "x")
	r.set("core.zero_noise_releases", float64(lp.zeroNoise), "count")
	releases := float64(lib.releases)
	r.set("jobgraph.idle_ms", ratio(lib.idleMS, releases), "ms")
	r.set("jobgraph.attempts", ratio(lib.attempts, releases), "count")
	r.set("jobgraph.retries", ratio(lib.retries, releases), "count")
	r.set("jobgraph.speculative", ratio(lib.speculative, releases), "count")

	// The engine counters of the workload's own operation mix, per
	// operation: a cold request, a hot request, or a library release.
	snap, ops := pr.missEngine, float64(pr.misses)
	switch {
	case hot:
		snap, ops = pr.hitEngine, float64(pr.hits)
	case lp.lib != nil:
		snap, ops = lp.lib.engine, float64(lp.lib.releases)
	}
	r.set("mapreduce.records_mapped", ratio(float64(snap.RecordsMapped), ops), "count")
	r.set("mapreduce.records_shuffled", ratio(float64(snap.RecordsShuffled), ops), "count")
	r.set("mapreduce.shuffle_rounds", ratio(float64(snap.ShuffleRounds), ops), "count")
	r.set("mapreduce.reduce_ops", ratio(float64(snap.ReduceOps), ops), "count")
	r.set("mapreduce.tasks_run", ratio(float64(snap.TasksRun), ops), "count")
	r.set("mapreduce.combine_ratio", ratio(float64(snap.RecordsPostCombine), float64(snap.RecordsPreCombine)), "ratio")
	r.set("mapreduce.cache_hit_ratio", ratio(float64(snap.CacheHits), float64(snap.CacheHits+snap.CacheMisses)), "ratio")
	r.set("mapreduce.broadcast_records", ratio(float64(snap.BroadcastRecords), ops), "count")
	r.set("mapreduce.task_retries", ratio(float64(snap.TaskRetries), ops), "count")

	// Coverage: the measured layer times over the time of the operation
	// they make up.
	var coverage float64
	switch {
	case hot:
		// Half the hot keys are ad-hoc and decode their plan.
		parts := median(pr.decodeUS)/2 + median(pr.fingerprintUS) + median(pr.supportsUS)
		coverage = ratio(parts, hitUS)
	case lp.lib != nil:
		coverage = ratio(lib.covered, lib.wallMS)
	default:
		coverage = ratio(compiledMS, missMS)
	}
	r.set("trace.coverage_share", coverage, "share")
	r.set("trace.overhead_share", lp.overheadShare, "share")
}
