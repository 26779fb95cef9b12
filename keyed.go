package upa

import (
	"fmt"
	"sort"

	"upa/internal/dpop"
	"upa/internal/mapreduce"
	"upa/internal/stats"
)

// KeyedQuery is a per-key aggregation ("GROUP BY key"): every record
// contributes Value(record) to the group Key(record), and groups combine
// contributions with Reduce (addition when nil; must be commutative and
// associative).
//
// Because each record contributes to exactly one group, the groups form
// disjoint sub-datasets and the release satisfies iDP by parallel
// composition: one ε covers the whole keyed output.
type KeyedQuery[T any, K comparable] struct {
	Name   string
	Key    func(T) K
	Value  func(T) float64
	Reduce func(float64, float64) float64
}

func (q KeyedQuery[T, K]) validate() error {
	if q.Name == "" {
		return fmt.Errorf("upa: keyed query needs a name")
	}
	if q.Key == nil || q.Value == nil {
		return fmt.Errorf("upa: keyed query %q needs Key and Value functions", q.Name)
	}
	return nil
}

// KeyedValue is one group of a keyed release.
type KeyedValue[K comparable] struct {
	Key K
	// Output is the noisy group value; Sensitivity the local sensitivity
	// the noise was scaled to.
	Output      float64
	Sensitivity float64
}

// KeyedResult is one per-key iDP release.
type KeyedResult[K comparable] struct {
	Query string
	// Groups holds one noisy value per key, in deterministic order.
	Groups []KeyedValue[K]
	// SampleSize is the effective number of sampled differing records;
	// GlobalSensitivity the largest per-record influence observed across
	// all groups (the fallback scale for groups no sample touched).
	SampleSize        int
	GlobalSensitivity float64
}

// ReleaseByKey releases a keyed aggregation under iDP: UPA samples n
// differing records, computes every group's value with the sampled records'
// contributions tracked individually (the reduceByKeyDP operator of Table
// I), infers a per-group local sensitivity from the sampled neighbouring
// outputs — falling back to the largest observed influence for groups the
// sample missed — and perturbs each group with Laplace noise at the
// session's ε (parallel composition across disjoint groups).
//
// domain, if non-nil, samples additional records from the record domain so
// addition neighbours are covered.
func ReleaseByKey[T any, K comparable](s *Session, q KeyedQuery[T, K], data []T, domain func(*RNG) T) (*KeyedResult[K], error) {
	if err := q.validate(); err != nil {
		return nil, err
	}
	if len(data) < 2 {
		return nil, fmt.Errorf("upa: keyed query %q needs at least two records", q.Name)
	}
	// Disjoint groups compose in parallel: the whole keyed release is one
	// ε-unit.
	if err := s.debit(1); err != nil {
		return nil, err
	}
	res, err := releaseByKey(s, q, data, domain)
	if err != nil {
		s.credit(1)
		return nil, err
	}
	return res, nil
}

func releaseByKey[T any, K comparable](s *Session, q KeyedQuery[T, K], data []T, domain func(*RNG) T) (*KeyedResult[K], error) {
	reduce := q.Reduce
	if reduce == nil {
		reduce = func(a, b float64) float64 { return a + b }
	}
	pairs := make([]mapreduce.Pair[K, float64], len(data))
	for i, rec := range data {
		pairs[i] = mapreduce.Pair[K, float64]{Key: q.Key(rec), Value: q.Value(rec)}
	}
	cfg := s.sys.Config()
	sampleRNG := stats.NewRNG(cfg.Seed).Split(0x6B65)
	d, err := dpop.DPReadKV(s.eng, pairs, cfg.SampleSize, sampleRNG)
	if err != nil {
		return nil, err
	}
	kv, err := dpop.ReduceByKeyDP(d, reduce)
	if err != nil {
		return nil, err
	}

	// Per-group sensitivity from the sampled removal neighbours; the
	// global maximum backs groups the sample missed.
	totals := make(map[K]float64, len(kv.Result))
	order := make([]K, 0, len(kv.Result))
	for _, p := range kv.Result {
		totals[p.Key] = p.Value
		order = append(order, p.Key)
	}
	perKey := make(map[K]float64)
	global := 0.0
	observe := func(k K, neighbour float64, present bool) {
		base := totals[k]
		diff := base - neighbour
		if !present {
			diff = base
		}
		if diff < 0 {
			diff = -diff
		}
		if diff > perKey[k] {
			perKey[k] = diff
		}
		if diff > global {
			global = diff
		}
	}
	for _, nb := range kv.Neighbours {
		observe(nb.Key, nb.Value, nb.Present)
	}
	// Addition neighbours: a fresh record adds its contribution to its key.
	if domain != nil {
		addRNG := stats.NewRNG(cfg.Seed).Split(0x6B66)
		for i := 0; i < d.SampleSize(); i++ {
			rec := domain(addRNG)
			k := q.Key(rec)
			v := q.Value(rec)
			base, ok := totals[k]
			neighbour := v
			if ok {
				neighbour = reduce(base, v)
			}
			observe(k, neighbour, true)
		}
	}

	out := &KeyedResult[K]{
		Query:             q.Name,
		SampleSize:        d.SampleSize(),
		GlobalSensitivity: global,
		Groups:            make([]KeyedValue[K], 0, len(order)),
	}
	noiseRNG := stats.NewRNG(cfg.Seed).Split(0x6B67)
	mech, err := stats.NewMechanism(cfg.Epsilon, noiseRNG)
	if err != nil {
		return nil, err
	}
	for _, k := range order {
		sens, ok := perKey[k]
		if !ok || sens == 0 {
			sens = global
		}
		out.Groups = append(out.Groups, KeyedValue[K]{
			Key:         k,
			Output:      mech.Perturb(totals[k], sens),
			Sensitivity: sens,
		})
	}
	// Deterministic order already guaranteed by ReduceByKeyDP; keep it
	// stable across Go versions by sorting on the rendered key.
	sort.SliceStable(out.Groups, func(i, j int) bool {
		return fmt.Sprint(out.Groups[i].Key) < fmt.Sprint(out.Groups[j].Key)
	})
	return out, nil
}
