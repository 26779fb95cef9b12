// Package upa is a Go implementation of UPA — Union Preserving Aggregation
// (Li et al., "UPA: An Automated, Accurate and Efficient Differentially
// Private Big-data Mining System", DSN 2020): an automated, accurate and
// efficient system for releasing MapReduce query results under individual
// differential privacy (iDP).
//
// A query is a Mapper (per-record contribution), a commutative and
// associative Reducer (vector addition by default), and an optional Finalize
// step. Given a query and a dataset, UPA samples n differing records,
// exploits the reducer's commutativity and associativity to reuse the
// reduction of the un-sampled bulk of the input across all n sampled
// neighbouring datasets, infers a local sensitivity value from the 1st/99th
// percentiles of an MLE-fitted normal distribution over the neighbouring
// outputs, detects repeated-query attacks with the RANGE ENFORCER, clamps
// the output into the inferred range, and releases it with Laplace noise.
//
// Basic use:
//
//	session, err := upa.NewSession(upa.WithEpsilon(0.1))
//	...
//	query := upa.Count("active-users", func(u User) bool { return u.Active })
//	result, err := upa.Release(session, query, users, nil)
//	fmt.Println(result.Output[0]) // noisy count, iDP-protected
package upa

import (
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"sync"
	"time"

	"upa/internal/core"
	"upa/internal/mapreduce"
	"upa/internal/stats"
)

// ErrBudgetExhausted is returned by Release when the session's total
// privacy budget (WithTotalBudget) cannot cover another release. Under
// sequential composition, each release spends ε per ε-unit of its price
// (core.ReleasePrice); once the ledger is empty no further information
// about the data may be released.
var ErrBudgetExhausted = errors.New("upa: session privacy budget exhausted")

// RNG is the deterministic randomness source handed to domain samplers.
type RNG = stats.RNG

// Session is a UPA deployment: an execution engine, a RANGE ENFORCER whose
// attack-detection history spans every query released through the session,
// and a Laplace mechanism with a fixed per-release privacy budget.
//
// A Session is safe for concurrent use.
type Session struct {
	eng *mapreduce.Engine
	sys *core.System

	// budgetMu guards the composition ledger; totalBudget == 0 means
	// unlimited. units counts the ε-units admitted so far, as priced by
	// core.ReleasePrice.
	budgetMu    sync.Mutex
	totalBudget float64
	spentBudget float64
	units       int
	composition Composition
	delta       float64
}

// Option configures a Session.
type Option func(*sessionConfig)

type sessionConfig struct {
	workers     int
	budget      float64
	composition Composition
	delta       float64
	core        core.Config
}

// WithEpsilon sets the per-release privacy budget ε (default 0.1, the
// paper's evaluation setting).
func WithEpsilon(eps float64) Option {
	return func(c *sessionConfig) { c.core.Epsilon = eps }
}

// WithSampleSize sets n, the number of differing records sampled per side
// (default 1000; statistically sufficient per §IV-A).
func WithSampleSize(n int) Option {
	return func(c *sessionConfig) { c.core.SampleSize = n }
}

// WithSeed seeds every stochastic component for reproducible releases.
func WithSeed(seed uint64) Option {
	return func(c *sessionConfig) { c.core.Seed = seed }
}

// WithPercentiles sets the output-range percentiles (default 0.01, 0.99).
func WithPercentiles(lo, hi float64) Option {
	return func(c *sessionConfig) { c.core.PercentileLo, c.core.PercentileHi = lo, hi }
}

// WithWorkers sets the engine's worker-pool size (default GOMAXPROCS).
func WithWorkers(n int) Option {
	return func(c *sessionConfig) { c.workers = n }
}

// WithTotalBudget caps the session's cumulative privacy spend: under
// sequential composition, k ε-units consume k·ε — one unit per scalar or
// split-vector release, d per d-dimensional vector release (see
// core.ReleasePrice), one per keyed release — and Release returns
// ErrBudgetExhausted once another
// release would exceed total. Zero (the default) means no cap.
func WithTotalBudget(total float64) Option {
	return func(c *sessionConfig) { c.budget = total }
}

// WithLogger routes one structured record per release (phase durations,
// inferred sensitivity, enforcer decisions) to logger. Nil keeps releases
// silent (the default).
func WithLogger(logger *slog.Logger) Option {
	return func(c *sessionConfig) { c.core.Logger = logger }
}

// WithSplitVectorBudget divides ε across the output coordinates of
// vector-valued queries, so one release of a d-dimensional output composes
// to a single ε instead of d·ε (at the cost of d× more noise per
// coordinate). Scalar queries are unaffected.
func WithSplitVectorBudget() Option {
	return func(c *sessionConfig) { c.core.SplitVectorBudget = true }
}

// WithGroupSize extends the guarantee from individuals to groups of up to k
// records (the paper's §VI-E extension): UPA additionally samples whole-
// group neighbouring datasets — reusing the same intermediate reductions —
// and widens the enforced output range to cover group influence.
func WithGroupSize(k int) Option {
	return func(c *sessionConfig) { c.core.GroupSize = k }
}

// NewSession builds a session with the paper's evaluation defaults.
func NewSession(opts ...Option) (*Session, error) {
	cfg := sessionConfig{core: core.DefaultConfig()}
	for _, opt := range opts {
		opt(&cfg)
	}
	var engOpts []mapreduce.Option
	if cfg.workers > 0 {
		engOpts = append(engOpts, mapreduce.WithWorkers(cfg.workers))
	}
	eng := mapreduce.NewEngine(engOpts...)
	sys, err := core.NewSystem(eng, cfg.core)
	if err != nil {
		return nil, err
	}
	if cfg.budget < 0 {
		return nil, fmt.Errorf("upa: total budget must be non-negative, got %v", cfg.budget)
	}
	if err := validateComposition(cfg.composition, cfg.delta); err != nil {
		return nil, err
	}
	return &Session{
		eng: eng, sys: sys,
		totalBudget: cfg.budget,
		composition: cfg.composition,
		delta:       cfg.delta,
	}, nil
}

// SpentBudget reports the composed ε consumed by releases so far (linear
// sum by default; the advanced-composition bound under
// WithAdvancedComposition).
func (s *Session) SpentBudget() float64 {
	s.budgetMu.Lock()
	defer s.budgetMu.Unlock()
	return s.spentBudget
}

// RemainingBudget reports the ε left before ErrBudgetExhausted; it returns
// +Inf when the session has no cap.
func (s *Session) RemainingBudget() float64 {
	s.budgetMu.Lock()
	defer s.budgetMu.Unlock()
	if s.totalBudget == 0 {
		return math.Inf(1)
	}
	return s.totalBudget - s.spentBudget
}

// debit reserves units more ε-units in the ledger, failing when the
// composed spend would exceed the budget.
func (s *Session) debit(units int) error {
	s.budgetMu.Lock()
	defer s.budgetMu.Unlock()
	next := composedEpsilon(s.Composition(), s.Epsilon(), s.units+units, s.delta)
	if s.totalBudget > 0 && next > s.totalBudget+1e-12 {
		return fmt.Errorf("%w: %d ε-units compose to %.4g, budget %.4g cannot cover %d more",
			ErrBudgetExhausted, s.units, s.spentBudget, s.totalBudget, units)
	}
	s.units += units
	s.spentBudget = next
	return nil
}

// credit refunds a reservation when its release fails before touching data.
func (s *Session) credit(units int) {
	s.budgetMu.Lock()
	defer s.budgetMu.Unlock()
	s.units -= units
	s.spentBudget = composedEpsilon(s.Composition(), s.Epsilon(), s.units, s.delta)
}

// Epsilon reports the session's per-release privacy budget.
func (s *Session) Epsilon() float64 { return s.sys.Config().Epsilon }

// SampleSize reports the configured differing-record sample size n.
func (s *Session) SampleSize() int { return s.sys.Config().SampleSize }

// ResetHistory clears the RANGE ENFORCER's attack-detection history,
// starting a fresh analyst session.
func (s *Session) ResetHistory() { s.sys.ResetHistory() }

// HistoryLen reports how many releases the RANGE ENFORCER remembers.
func (s *Session) HistoryLen() int { return s.sys.Enforcer().HistoryLen() }

// SaveHistory serializes the RANGE ENFORCER's attack-detection history to
// w. Persist it across process restarts: an analyst who can bounce the
// service between two releases of the same query would otherwise erase the
// evidence the enforcer needs to detect the §III differencing attack.
func (s *Session) SaveHistory(w io.Writer) error {
	return s.sys.Enforcer().Save(w)
}

// LoadHistory replaces the RANGE ENFORCER's history with one previously
// written by SaveHistory.
func (s *Session) LoadHistory(r io.Reader) error {
	return s.sys.Enforcer().Load(r)
}

// Metrics snapshots the engine's activity counters.
func (s *Session) Metrics() EngineMetrics {
	m := s.eng.Metrics()
	return EngineMetrics{
		TasksRun:               m.TasksRun,
		RecordsMapped:          m.RecordsMapped,
		ReduceOps:              m.ReduceOps,
		ShuffleRounds:          m.ShuffleRounds,
		RecordsShuffled:        m.RecordsShuffled,
		RecordsPreCombine:      m.RecordsPreCombine,
		RecordsPostCombine:     m.RecordsPostCombine,
		RecordsCombinedMapSide: m.RecordsCombinedMapSide,
		CacheHits:              m.CacheHits,
		CacheMisses:            m.CacheMisses,
	}
}

// EngineMetrics is a snapshot of the session's execution-engine counters.
type EngineMetrics struct {
	TasksRun        int64
	RecordsMapped   int64
	ReduceOps       int64
	ShuffleRounds   int64
	RecordsShuffled int64
	// RecordsPreCombine and RecordsPostCombine bracket the engine's map-side
	// combines (records entering the combiners vs combined records actually
	// shuffled); RecordsCombinedMapSide is the difference — raw records the
	// combiners kept off the wire.
	RecordsPreCombine      int64
	RecordsPostCombine     int64
	RecordsCombinedMapSide int64
	CacheHits              int64
	CacheMisses            int64
}

// Result is one iDP release.
type Result struct {
	// Query names the released query.
	Query string
	// Output is the noisy output vector returned to the analyst.
	Output []float64
	// Sensitivity is the inferred local sensitivity per coordinate.
	Sensitivity []float64
	// RangeLo and RangeHi are the enforced output range per coordinate.
	RangeLo, RangeHi []float64
	// SampleSize is the effective n (min of the configured n and |x|).
	SampleSize int
	// AttackSuspected reports whether the RANGE ENFORCER matched this
	// release against a previous one on a possibly-neighbouring dataset;
	// RemovedRecords counts the records it removed to break the attack.
	AttackSuspected bool
	RemovedRecords  int
	// Phases is the wall-clock breakdown over UPA's four phases.
	Phases PhaseTimings
}

// PhaseTimings is the wall-clock breakdown over UPA's four phases (§III).
type PhaseTimings struct {
	PartitionSample       time.Duration
	ParallelMap           time.Duration
	UnionPreservingReduce time.Duration
	IDPEnforcement        time.Duration
}

// Total returns the sum of all phases.
func (p PhaseTimings) Total() time.Duration {
	return p.PartitionSample + p.ParallelMap + p.UnionPreservingReduce + p.IDPEnforcement
}

// Release runs query q over data through the session and returns the iDP
// release. domain, if non-nil, samples records from the query's record
// domain (beyond those in data) so that "addition" neighbouring datasets are
// covered too; with a nil domain only removals are sampled.
func Release[T any](s *Session, q Query[T], data []T, domain func(*RNG) T) (*Result, error) {
	cq, err := q.toCore()
	if err != nil {
		return nil, err
	}
	_, units := core.ReleasePrice(s.sys.Config(), cq.OutputDim)
	if err := s.debit(units); err != nil {
		return nil, err
	}
	res, err := core.Run(s.sys, cq, data, domain)
	if err != nil {
		// Nothing was released, so the reserved budget is refunded.
		s.credit(units)
		return nil, err
	}
	return &Result{
		Query:           res.Query,
		Output:          res.Output,
		Sensitivity:     res.Sensitivity,
		RangeLo:         res.RangeLo,
		RangeHi:         res.RangeHi,
		SampleSize:      res.SampleSize,
		AttackSuspected: res.AttackSuspected,
		RemovedRecords:  res.RemovedRecords,
		Phases: PhaseTimings{
			PartitionSample:       res.Phases.PartitionSample,
			ParallelMap:           res.Phases.ParallelMap,
			UnionPreservingReduce: res.Phases.UnionPreservingReduce,
			IDPEnforcement:        res.Phases.IDPEnforcement,
		},
	}, nil
}

// Evaluate runs query q with no privacy machinery — the vanilla baseline.
// It never touches the RANGE ENFORCER history and must not be released to
// untrusted analysts.
func Evaluate[T any](s *Session, q Query[T], data []T) ([]float64, error) {
	cq, err := q.toCore()
	if err != nil {
		return nil, err
	}
	return core.RunVanilla(s.eng, cq, data)
}
