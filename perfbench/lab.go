package main

import (
	"fmt"
	"path/filepath"
	"strings"

	"upa/internal/lifesci"
	"upa/internal/mapreduce"
	"upa/internal/queries"
	"upa/internal/serve"
	"upa/internal/sql"
	"upa/internal/tpch"
)

// scale sizes every workload. fullScale is what the benchmark measures;
// tinyScale keeps the self-test to seconds.
type scale struct {
	name      string
	lineitems int
	// lsRecords sizes the life-science data of lib-paper9 and of the traced
	// probes; serveLSRecords that of upa-server, whose serving path never
	// reads it.
	lsRecords      int
	serveLSRecords int
	serveN         int // upa-server -n
	libN           int // core.Config.SampleSize of lib-paper9
	hotSeeds       int // seeds per key of the serve-hot key set
	setupReps      int // set-ups per run; setup_s is their median
	probeReps      int // repetitions of each expensive traced probe
	fastProbeReps  int // repetitions of each microsecond traced probe
	// utilityReleases is how many served releases per plan the serve
	// workloads' utility figures are computed from.
	utilityReleases int
}

var (
	fullScale = scale{name: "full", lineitems: 100000, lsRecords: 20000, serveLSRecords: 1000,
		serveN: 200, libN: 1000, hotSeeds: 3, setupReps: 3, probeReps: 3, fastProbeReps: 2000, utilityReleases: 80}
	tinyScale = scale{name: "tiny", lineitems: 3000, lsRecords: 1500, serveLSRecords: 500,
		serveN: 50, libN: 100, hotSeeds: 2, setupReps: 2, probeReps: 1, fastProbeReps: 50, utilityReleases: 4}
)

const (
	// dataSeed fixes the generated warehouse: workloads vary their request
	// streams and noise with --seed, never the data the server holds.
	dataSeed = 1
	skew     = 0.2
	epsilon  = 0.1
	// tenantBudget and userBudget are large enough that no run refuses a
	// request: a refusal would be a failed request, not a workload feature.
	tenantBudget = 1e6
	userBudget   = 1e5
	nTenants     = 4
	nUsers       = 4
)

// servePlan is one canned plan of upa-server and the table its release
// protects.
type servePlan struct{ name, protected string }

var servePlans = []servePlan{
	{"tpch1", "lineitem"},
	{"tpch4", "orders"},
	{"tpch13", "customer"},
}

// adhocPlans are the serve-hot ad-hoc counts over orders, in the planJSON
// wire form of POST /query.
var adhocPlans = []string{
	`{"op":"aggregate","aggs":[{"name":"n","func":"count"}],"input":{"op":"filter","pred":{"op":"eq","left":{"col":"o_orderstatus"},"right":{"str":"F"}},"input":{"op":"scan","table":"orders"}}}`,
	`{"op":"aggregate","aggs":[{"name":"n","func":"count"}],"input":{"op":"filter","pred":{"op":"eq","left":{"col":"o_special"},"right":{"bool":true}},"input":{"op":"scan","table":"orders"}}}`,
	`{"op":"aggregate","aggs":[{"name":"n","func":"count"}],"input":{"op":"filter","pred":{"op":"lt","left":{"col":"o_orderdate"},"right":{"int":730}},"input":{"op":"scan","table":"orders"}}}`,
}

func tenantName(i int) string { return fmt.Sprintf("t%d", i%nTenants) }
func userName(i int) string   { return fmt.Sprintf("u%d", (i/nTenants)%nUsers) }

// tenantSpecs registers the benchmark's tenants, as the -tenants flag and
// as serve.TenantSpecs for the in-process service.
func tenantSpecs() (flagValue string, specs []serve.TenantSpec) {
	parts := make([]string, nTenants)
	for i := range parts {
		specs = append(specs, serve.TenantSpec{Name: tenantName(i), Budget: tenantBudget, UserBudget: userBudget})
		parts[i] = fmt.Sprintf("%s:%g:%g", tenantName(i), tenantBudget, userBudget)
	}
	return strings.Join(parts, ","), specs
}

// serverArgs are the upa-server flags every serve workload runs with.
func serverArgs(sc scale) []string {
	flagValue, _ := tenantSpecs()
	return []string{
		"-lineitems", fmt.Sprint(sc.lineitems),
		"-lsrecords", fmt.Sprint(sc.serveLSRecords),
		"-skew", fmt.Sprint(skew),
		"-seed", fmt.Sprint(dataSeed),
		"-n", fmt.Sprint(sc.serveN),
		"-epsilon", fmt.Sprint(epsilon),
		"-tenants", flagValue,
	}
}

// lab is an in-process copy of the system under test, built from the same
// generator settings as upa-server: it gives exact answers for the utility
// metrics, the replay check's reference service and the traced probes.
type lab struct {
	w      *queries.Workload
	eng    *mapreduce.Engine
	tables map[string]*sql.ScanPlan
	named  map[string]sql.Plan
	adhoc  []sql.Plan
}

// generate builds the warehouse every workload runs on, with the generator
// settings upa-server uses.
func generate(sc scale, lsRecords int) (*queries.Workload, error) {
	return queries.NewWorkload(
		tpch.Config{Lineitems: sc.lineitems, Skew: skew, Seed: dataSeed},
		lifesci.Config{Records: lsRecords, Dims: 4, Clusters: 3, OutlierFrac: 0.01, Seed: dataSeed},
	)
}

func newLab(w *queries.Workload) (*lab, error) {
	l := &lab{
		w:   w,
		eng: mapreduce.NewEngine(),
		tables: map[string]*sql.ScanPlan{
			"lineitem": queries.LineitemRelation(w.DB),
			"orders":   queries.OrdersRelation(w.DB),
			"customer": queries.CustomerRelation(w.DB),
		},
		named: make(map[string]sql.Plan),
	}
	for _, p := range servePlans {
		plan, err := queries.PlanByName(w.DB, p.name)
		if err != nil {
			return nil, err
		}
		l.named[p.name] = plan
	}
	for _, raw := range adhocPlans {
		plan, err := serve.DecodePlan([]byte(raw), l.tables)
		if err != nil {
			return nil, err
		}
		l.adhoc = append(l.adhoc, plan)
	}
	return l, nil
}

// newService builds an in-process serve.Service configured like upa-server,
// persisting its ledger under dir.
func (l *lab) newService(sc scale, dir string) (*serve.Service, error) {
	_, specs := tenantSpecs()
	return serve.NewService(serve.Config{
		Engine: l.eng,
		Tables: l.tables,
		NamedPlan: func(name string) (sql.Plan, error) {
			plan, ok := l.named[strings.ToLower(name)]
			if !ok {
				return nil, fmt.Errorf("no canned plan %q", name)
			}
			return plan, nil
		},
		SampleSize:     sc.serveN,
		DefaultEpsilon: epsilon,
		StatePath:      filepath.Join(dir, "ledger.json"),
	}, specs)
}

// exactCount is the exact answer of the counting plan req names, computed
// without any DP machinery: the reference the utility metrics compare
// releases with.
func (l *lab) exactCount(req serve.Request) (float64, error) {
	plan, ok := l.named[req.PlanName]
	if req.PlanName == "" {
		var err error
		if plan, err = serve.DecodePlan(req.Plan, l.tables); err != nil {
			return 0, err
		}
	} else if !ok {
		return 0, fmt.Errorf("no canned plan %q", req.PlanName)
	}
	n, err := sql.ExecuteCount(l.eng, plan)
	return float64(n), err
}

// The request seed streams of the serve workloads. A seed is a bijective
// mix of (workload seed, stream, index), so no two requests of a run share
// a seed and a cache key: every miss is a miss.
const (
	streamWarmUp = iota + 1
	streamTimed
	streamTopUp
	streamHotKeys
)

func requestSeed(seed uint64, stream, i int) uint64 {
	return splitmix64(seed<<24 ^ uint64(stream)<<20 ^ uint64(i))
}

// hotKey is one release of the serve-hot key set: a plan at one seed.
type hotKey struct {
	req   serve.Request // tenant and user are filled per request
	group string        // the plan, as the utility figures group releases
}

// hotKeys builds the serve-hot key set: every plan at seeds seeds drawn
// from the workload seed.
func hotKeys(plans []releasePlan, seeds int, seed uint64) []hotKey {
	var keys []hotKey
	for _, p := range plans {
		for j := 0; j < seeds; j++ {
			req := p.req
			req.Seed = requestSeed(seed, streamHotKeys, len(keys))
			keys = append(keys, hotKey{req: req, group: p.group})
		}
	}
	return keys
}
