package main

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"

	"upa/internal/serve"
)

// utility collects the relative errors of a run's releases, grouped by
// query, against exact answers computed without DP machinery.
type utility struct {
	errs map[string][]float64
	// zeroNoise counts releases that carried no noise, the known defect of
	// a zero inferred sensitivity.
	zeroNoise int
}

func newUtility() *utility { return &utility{errs: make(map[string][]float64)} }

// add records one release of group. countZero says whether the release
// can show that it carried no noise: by equalling its exact answer, or by
// being whole numbers only, which a Laplace-noised value practically never
// is. The second catches noiseless serve counts that release a pre-noise
// count off from sql.ExecuteCount's.
func (u *utility) add(group string, got, want []float64, countZero bool) {
	u.errs[group] = append(u.errs[group], relError(got, want))
	if countZero && (equalVec(got, want) || allWhole(got)) {
		u.zeroNoise++
	}
}

func allWhole(xs []float64) bool {
	for _, x := range xs {
		if x != math.Trunc(x) {
			return false
		}
	}
	return true
}

// summary is rel_error_mean: each query's mean relative error, combined
// across queries by their geometric mean. Queries differ in error by orders
// of magnitude, so a figure pooled over all releases would follow the
// worst query alone. The mean, not the median: a tenth of tpch1's releases
// carry no noise, and resampling served releases at a run's sample sizes
// gave the median-based figure 1.6 times the spread across seeds of the
// mean-based one. A query whose mean is 0 (all its
// releases noiseless) cannot enter a geometric mean; it is reported in the
// notes and in core.zero_noise_releases.
func (u *utility) summary(r *run) float64 {
	groups := make([]string, 0, len(u.errs))
	for g := range u.errs {
		groups = append(groups, g)
	}
	sort.Strings(groups)
	logSum, n, total := 0.0, 0, 0
	for _, g := range groups {
		m := mean(u.errs[g])
		total += len(u.errs[g])
		if m == 0 {
			r.note("%s: mean relative error 0 over %d releases; left out of rel_error_mean", g, len(u.errs[g]))
			continue
		}
		logSum += math.Log(m)
		n++
	}
	r.note("rel_error_mean: %d queries, %d releases; %d releases without noise", n, total, u.zeroNoise)
	if n == 0 {
		return 0
	}
	return math.Exp(logSum / float64(n))
}

// releasePlan is one plan a serve workload releases: the request that
// names it, the group its releases count under, and how many served
// releases the utility figures need of it (0: it is left out of them).
type releasePlan struct {
	group string
	req   serve.Request
	quota int
}

// releasePlans lists the plans a serve workload releases. serve-cold's
// utility figures cover its three named plans; tpch1's release costs
// several times the others', so it needs half as many. serve-hot warms
// each plan at only a few seeds, too few for a steady figure, so its
// figures cover the ad-hoc counts, the cheapest releases the server makes
// (a quarter of a tpch4 miss), at two and a half times the quota.
func releasePlans(sc scale, hot bool) []releasePlan {
	var out []releasePlan
	for _, p := range servePlans {
		quota := sc.utilityReleases
		if p.name == "tpch1" {
			quota /= 2
		}
		if hot {
			quota = 0
		}
		out = append(out, releasePlan{
			group: p.name,
			req:   serve.Request{PlanName: p.name, Protected: p.protected, Epsilon: epsilon},
			quota: quota,
		})
	}
	if hot {
		for i, raw := range adhocPlans {
			out = append(out, releasePlan{
				group: fmt.Sprintf("adhoc%d", i),
				req:   serve.Request{Plan: json.RawMessage(raw), Epsilon: epsilon},
				quota: sc.utilityReleases * 5 / 2,
			})
		}
	}
	return out
}

// servedOutputs are the outputs the server released in a run, by plan
// group: what the serve workloads' utility figures are computed from.
type servedOutputs map[string][][]float64

// topUp sends untimed fresh-seed misses of each plan until the run holds
// its quota of served releases: the timed loop alone makes too few for a
// steady figure.
func topUp(r *run, c *client, plans []releasePlan, outs servedOutputs) error {
	i := 0
	for _, p := range plans {
		for n := len(outs[p.group]); n < p.quota; n++ {
			req := p.req
			req.Tenant, req.User = tenantName(i), userName(i)
			req.Seed = requestSeed(r.seed, streamTopUp, i)
			i++
			rel, _, err := query(r, c, req, false)
			if err != nil {
				return err
			}
			if rel != nil {
				outs[p.group] = append(outs[p.group], rel.values)
			}
		}
	}
	return nil
}

// servedUtility compares every served output with its plan's exact answer.
func (l *lab) servedUtility(plans []releasePlan, outs servedOutputs) (*utility, error) {
	u := newUtility()
	for _, p := range plans {
		if p.quota == 0 {
			continue
		}
		exact, err := l.exactCount(p.req)
		if err != nil {
			return nil, fmt.Errorf("exact answer of %s: %w", p.group, err)
		}
		for _, out := range outs[p.group] {
			u.add(p.group, out, []float64{exact}, true)
		}
	}
	return u, nil
}
