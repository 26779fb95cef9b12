package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"
	"net/http"
	"os"
	"runtime"
	"sort"
	"time"

	"upa/internal/serve"
)

// wireRelease is the part of a POST /query response the checks read.
type wireRelease struct {
	Query   string          `json:"query"`
	Cached  bool            `json:"cached"`
	Charged float64         `json:"charged"`
	Output  json.RawMessage `json:"output"`
	values  []float64
}

// decodeRelease parses a 200 response and checks the promises every
// release makes: cached as expected, charged ε on a miss and nothing on a
// hit, one finite output.
func decodeRelease(body []byte, wantCached bool, wantQuery string) (*wireRelease, error) {
	var rel wireRelease
	if err := json.Unmarshal(body, &rel); err != nil {
		return nil, fmt.Errorf("malformed response: %w", err)
	}
	if err := json.Unmarshal(rel.Output, &rel.values); err != nil {
		return nil, fmt.Errorf("malformed output: %w", err)
	}
	wantCharged := epsilon
	if wantCached {
		wantCharged = 0
	}
	switch {
	case rel.Cached != wantCached:
		return nil, fmt.Errorf("cached=%v, want %v", rel.Cached, wantCached)
	case rel.Charged != wantCharged:
		return nil, fmt.Errorf("charged=%v, want %v", rel.Charged, wantCharged)
	case rel.Query != wantQuery:
		return nil, fmt.Errorf("query=%q, want %q", rel.Query, wantQuery)
	case len(rel.values) != 1 || !allFinite(rel.values):
		return nil, fmt.Errorf("output %s is not one finite count", rel.Output)
	}
	return &rel, nil
}

// queryName is the name a release reports for req.
func queryName(req serve.Request) string {
	if req.PlanName != "" {
		return req.PlanName
	}
	return "adhoc"
}

// send posts one request and returns its latency, which covers the HTTP
// round trip and reading the body but not the checks.
func send(c *client, req serve.Request) (time.Duration, int, []byte, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return 0, 0, nil, err
	}
	start := time.Now()
	status, resp, err := c.post("/query", body)
	return time.Since(start), status, resp, err
}

// servedRelease is one checked release of the timed loop.
type servedRelease struct {
	req     serve.Request
	latency time.Duration
	rel     *wireRelease
}

// runServe runs serve-cold or serve-hot: it starts upa-server
// r.sc.setupReps times (setup_s is the median exec-to-healthy time), keeps
// the last one, and drives it from one closed-loop client for r.seconds.
// The utility figures and the replay check come after the timed loop, from
// releases the server returned.
func runServe(ctx context.Context, r *run, hot bool) error {
	plans := releasePlans(r.sc, hot)
	var keys []hotKey
	if hot {
		keys = hotKeys(plans, r.sc.hotSeeds, r.seed)
	}
	// The traced run's probes measure before any server runs. The untraced
	// run needs no data of its own until the server has stopped.
	var lb *lab
	var pr *probes
	if r.trace {
		var err error
		if lb, err = newServeLab(r.sc, r.sc.lsRecords); err != nil { // the probes also release the library queries
			return err
		}
		if pr, err = runProbes(ctx, r, lb); err != nil {
			return err
		}
		defer pr.close()
	}

	workdir := r.tmpDir()
	var setups []float64
	var srv *server
	for i := 0; i < r.sc.setupReps; i++ {
		s, d, err := startServer(r.server, workdir, serverArgs(r.sc))
		if err != nil {
			return err
		}
		setups = append(setups, d.Seconds())
		if i < r.sc.setupReps-1 {
			s.stop()
		} else {
			srv = s
		}
	}
	defer srv.stop()
	c := newClient(srv.base)
	defer c.close()

	// The client is one goroutine waiting on the server: one processor is
	// all it needs, and idle extra ones only spin on the CPUs the server
	// runs on.
	restoreProcs := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(restoreProcs)
	var lp layerInputs
	outs := make(servedOutputs)
	var loop *serveLoop
	var err error
	if hot {
		loop, err = runHot(r, keys, plans, outs, srv, c, &lp)
	} else {
		loop, err = runCold(r, outs, srv, c, &lp)
	}
	if err != nil {
		return err
	}
	// Server-side counters of the timed loop.
	journalPerReq := ratio(float64(srv.journalBytes()-loop.journalBefore), float64(len(loop.served)))
	hits, misses, err := c.cacheCounters()
	if err != nil {
		return err
	}
	hitRatio := ratio(hits-loop.hitsBefore, hits-loop.hitsBefore+misses-loop.missesBefore)
	rss, ok := srv.peakRSSMB()
	if !ok {
		return fmt.Errorf("cannot read the server's peak RSS")
	}
	if r.trace && !hot {
		// The HTTP layer's own cost, measured on hits of the last keys the
		// loop released (the earliest may have left the bounded cache),
		// after the loop's counters were read.
		var hitLat []float64
		recent := loop.served[max(0, len(loop.served)-3):]
		for i := 0; i < r.sc.fastProbeReps/4; i++ {
			rel, d, err := query(r, c, recent[i%len(recent)].req, true)
			if err != nil {
				return err
			}
			if rel != nil {
				hitLat = append(hitLat, us(d))
			}
		}
		lp.httpHitP50US = median(hitLat)
	}
	if err := topUp(r, c, plans, outs); err != nil {
		return err
	}
	runtime.GOMAXPROCS(restoreProcs)
	c.close()
	srv.stop()

	if lb == nil {
		if lb, err = newServeLab(r.sc, r.sc.serveLSRecords); err != nil {
			return err
		}
	}
	util, err := lb.servedUtility(plans, outs)
	if err != nil {
		return err
	}
	if err := replay(ctx, r, lb, pr, loop.served); err != nil {
		return err
	}

	st := summarize(loop.timeline, loop.period)
	if !r.trace {
		r.set("setup_s", median(setups), "s")
		r.reportTiming(st, 1)
		r.set("peak_rss_mb", rss, "MB")
		r.set("rel_error_mean", util.summary(r), "share")
		r.note("%d timed requests; %d set-ups behind setup_s", len(loop.served), len(setups))
		if !hot {
			notePercentileModes(r, loop.served, st)
		}
		return nil
	}
	lp.cacheHitRatio = hitRatio
	lp.journalBytesPerReq = journalPerReq
	lp.zeroNoise = util.zeroNoise
	if hot {
		lp.httpHitP50US = st.p50 * 1000
	}
	emitLayers(r, pr, &lp, hot)
	return nil
}

// newServeLab builds the in-process copy of the server's warehouse.
func newServeLab(sc scale, lsRecords int) (*lab, error) {
	w, err := generate(sc, lsRecords)
	if err != nil {
		return nil, err
	}
	return newLab(w)
}

// replay releases one key the server released through an in-process
// serve.Service — the probes' in a traced run, a fresh one otherwise: the
// output must be byte-identical to the server's, as serve promises across
// servers. It picks a release of the cheapest plans, tpch13 or an ad-hoc
// count.
func replay(ctx context.Context, r *run, lb *lab, pr *probes, served []servedRelease) error {
	var pick *servedRelease
	for i := range served {
		s := &served[i]
		if s.rel == nil {
			continue
		}
		if pick == nil || s.req.PlanName == "tpch13" || s.req.PlanName == "" {
			pick = s
		}
		if pick.req.PlanName == "tpch13" || pick.req.PlanName == "" {
			break
		}
	}
	if pick == nil {
		return fmt.Errorf("no checked release to replay")
	}
	var svc *serve.Service
	if pr != nil {
		svc = pr.svc
	} else {
		tmp := r.tmpDir()
		if err := os.MkdirAll(tmp, 0o755); err != nil {
			return err
		}
		dir, err := os.MkdirTemp(tmp, "replay-")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		if svc, err = lb.newService(r.sc, dir); err != nil {
			return err
		}
		defer svc.Close()
	}
	rel, serr := svc.Query(ctx, pick.req)
	r.attempted++
	if serr != nil {
		r.fail("in-process replay of %s: %v", queryName(pick.req), serr)
	} else if got, err := json.Marshal(rel.Output); err != nil || !bytes.Equal(got, pick.rel.Output) {
		r.fail("in-process replay of %s gave %s, the server %s", queryName(pick.req), got, pick.rel.Output)
	}
	return nil
}

// serveLoop is what a serve workload's timed loop observed.
type serveLoop struct {
	served                   []servedRelease
	timeline                 *timeline
	journalBefore            int64
	period                   int // requests in one rotation of the mix
	hitsBefore, missesBefore float64
}

// startLoop records the server-side counters the timed loop is measured
// against.
func startLoop(c *client, srv *server) (*serveLoop, error) {
	hits, misses, err := c.cacheCounters()
	if err != nil {
		return nil, err
	}
	return &serveLoop{journalBefore: srv.journalBytes(), hitsBefore: hits, missesBefore: misses}, nil
}

// runCold sends requests that each carry a fresh seed, rotating over the
// three named plans and the 4x4 tenants and users, so every request misses
// the cache and is compiled, released and journaled.
func runCold(r *run, outs servedOutputs, srv *server, c *client, lp *layerInputs) (*serveLoop, error) {
	request := func(i int, p servePlan, stream int) serve.Request {
		return serve.Request{
			Tenant: tenantName(i), User: userName(i),
			PlanName: p.name, Protected: p.protected,
			Epsilon: epsilon,
			Seed:    requestSeed(r.seed, stream, i),
		}
	}
	// Warm-up, untimed: one miss per plan.
	warmStart := time.Now()
	for i, p := range servePlans {
		req := request(i, p, streamWarmUp)
		if _, err := warmUp(r, c, req); err != nil {
			return nil, err
		}
	}
	lp.warmupS = time.Since(warmStart).Seconds()

	loop, err := startLoop(c, srv)
	if err != nil {
		return nil, err
	}
	loop.period = len(servePlans)
	// Every rotation releases each plan once, in a seeded random order: a
	// fixed order could lock the server's collector cycles into step with
	// one plan.
	rng := rand.New(rand.NewPCG(r.seed, 0xC01D))
	order := rng.Perm(len(servePlans))
	i := 0
	loop.timeline, err = measure(time.Duration(r.seconds)*time.Second, func() (time.Duration, error) {
		if i%len(order) == 0 {
			rng.Shuffle(len(order), func(a, b int) { order[a], order[b] = order[b], order[a] })
		}
		req := request(i, servePlans[order[i%len(order)]], streamTimed)
		i++
		rel, d, err := query(r, c, req, false)
		if err != nil || rel == nil {
			return d, err // a nil release was counted as failed
		}
		loop.served = append(loop.served, servedRelease{req: req, latency: d, rel: rel})
		outs[req.PlanName] = append(outs[req.PlanName], rel.values)
		return d, nil
	})
	if err != nil {
		return nil, err
	}
	if len(loop.served) == 0 {
		return nil, fmt.Errorf("no request succeeded")
	}
	return loop, nil
}

// runHot warms a fixed key set — the named plans and the ad-hoc counts over
// orders, several seeds each — then requests those keys in seeded random
// order, so every timed request must hit the cache. The warm-ups of plans
// the utility figures cover go into outs.
func runHot(r *run, keys []hotKey, plans []releasePlan, outs servedOutputs, srv *server, c *client, lp *layerInputs) (*serveLoop, error) {
	counted := make(map[string]bool)
	for _, p := range plans {
		counted[p.group] = p.quota > 0
	}
	warm := make([]json.RawMessage, len(keys))
	warmStart := time.Now()
	for k, key := range keys {
		req := key.req
		req.Tenant, req.User = tenantName(k), userName(k)
		rel, err := warmUp(r, c, req)
		if err != nil {
			return nil, err
		}
		warm[k] = rel.Output
		if counted[key.group] {
			outs[key.group] = append(outs[key.group], rel.values)
		}
	}
	lp.warmupS = time.Since(warmStart).Seconds()

	loop, err := startLoop(c, srv)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewPCG(r.seed, 0x407))
	order := rng.Perm(len(keys))
	// A response repeats byte for byte for the same key, tenant and user:
	// hits charge nothing, so the remaining budgets it reports are fixed.
	// Each distinct body is decoded and checked once, then compared.
	type identity struct{ key, who int }
	seen := make(map[identity][]byte)
	i := 0
	loop.timeline, err = measure(time.Duration(r.seconds)*time.Second, func() (time.Duration, error) {
		if i%len(order) == 0 && i > 0 {
			rng.Shuffle(len(order), func(a, b int) { order[a], order[b] = order[b], order[a] })
		}
		k := order[i%len(order)]
		who := i % (nTenants * nUsers)
		req := keys[k].req
		req.Tenant, req.User = tenantName(who), userName(who)
		i++
		d, status, body, err := send(c, req)
		r.attempted++
		if err != nil || status != http.StatusOK {
			r.fail("hot request: status %d, %v: %s", status, err, body)
			return d, nil
		}
		id := identity{k, who}
		if prev, ok := seen[id]; ok && bytes.Equal(prev, body) {
			loop.served = append(loop.served, servedRelease{req: req, latency: d})
			return d, nil
		}
		rel, err := decodeRelease(body, true, queryName(req))
		if err != nil {
			r.fail("hot request: %v", err)
			return d, nil
		}
		if !bytes.Equal(rel.Output, warm[k]) {
			r.fail("hot key %d served %s, warm-up %s", k, rel.Output, warm[k])
			return d, nil
		}
		seen[id] = body
		loop.served = append(loop.served, servedRelease{req: req, latency: d, rel: rel})
		return d, nil
	})
	if err != nil {
		return nil, err
	}
	if len(loop.served) == 0 {
		return nil, fmt.Errorf("no request succeeded")
	}
	return loop, nil
}

// query sends one request and checks its release. A failed request or
// check is counted and yields a nil release; only a transport error is
// returned.
func query(r *run, c *client, req serve.Request, cached bool) (*wireRelease, time.Duration, error) {
	d, status, body, err := send(c, req)
	r.attempted++
	if err != nil {
		r.failed++
		return nil, d, fmt.Errorf("POST /query: %w", err)
	}
	if status != http.StatusOK {
		r.fail("%s: status %d: %s", queryName(req), status, body)
		return nil, d, nil
	}
	rel, err := decodeRelease(body, cached, queryName(req))
	if err != nil {
		r.fail("%s: %v", queryName(req), err)
		return nil, d, nil
	}
	return rel, d, nil
}

// warmUp sends an untimed request that must succeed.
func warmUp(r *run, c *client, req serve.Request) (*wireRelease, error) {
	rel, _, err := query(r, c, req, false)
	if err == nil && rel == nil {
		err = fmt.Errorf("warm-up request for %s failed", queryName(req))
	}
	return rel, err
}

// notePercentileModes records which plan's mode each reported percentile
// of a mixed workload falls in.
func notePercentileModes(r *run, served []servedRelease, st loopStats) {
	byPlan := make(map[string][]float64)
	for _, s := range served {
		byPlan[queryName(s.req)] = append(byPlan[queryName(s.req)], ms(s.latency))
	}
	names := make([]string, 0, len(byPlan))
	for name := range byPlan {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, p := range []struct {
		name string
		v    float64
	}{{"p50", st.p50}, {"p90", st.p90}, {"p99", st.p99}} {
		v := p.v
		// The mode is the plan whose median is nearest on a log scale.
		in, best := "", math.Inf(1)
		for _, name := range names {
			if dist := math.Abs(math.Log(v / median(byPlan[name]))); dist < best {
				in, best = name, dist
			}
		}
		r.note("%s = %.4g ms falls in the %s mode", p.name, v, in)
	}
	for _, name := range names {
		lat := byPlan[name]
		r.note("%s: %d requests, p10 %.4g median %.4g p90 %.4g ms", name, len(lat), quantile(lat, 0.1), median(lat), quantile(lat, 0.9))
	}
}
