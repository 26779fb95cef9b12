package upa

import (
	"errors"
	"math"
	"testing"
)

func TestBudgetUnlimitedByDefault(t *testing.T) {
	s := newSessionT(t, WithSampleSize(20))
	if !math.IsInf(s.RemainingBudget(), 1) {
		t.Fatalf("RemainingBudget = %v, want +Inf", s.RemainingBudget())
	}
	for i := 0; i < 5; i++ {
		if _, err := Release(s, Count[user]("c", nil), testUsers(100), nil); err != nil {
			t.Fatalf("release %d: %v", i, err)
		}
	}
	if got := s.SpentBudget(); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("SpentBudget = %v, want 0.5 (5 releases at eps 0.1)", got)
	}
}

func TestBudgetExhaustion(t *testing.T) {
	s := newSessionT(t, WithSampleSize(20), WithEpsilon(0.1), WithTotalBudget(0.25))
	q := Count[user]("c", nil)
	users := testUsers(100)
	for i := 0; i < 2; i++ {
		if _, err := Release(s, q, users, nil); err != nil {
			t.Fatalf("release %d within budget failed: %v", i, err)
		}
	}
	if _, err := Release(s, q, users, nil); !errors.Is(err, ErrBudgetExhausted) {
		t.Fatalf("third release error = %v, want ErrBudgetExhausted", err)
	}
	// The ledger is not corrupted by the refusal.
	if got := s.SpentBudget(); math.Abs(got-0.2) > 1e-12 {
		t.Fatalf("SpentBudget = %v, want 0.2", got)
	}
	if got := s.RemainingBudget(); math.Abs(got-0.05) > 1e-12 {
		t.Fatalf("RemainingBudget = %v, want 0.05", got)
	}
}

func TestBudgetRefundedOnFailedRelease(t *testing.T) {
	s := newSessionT(t, WithSampleSize(20), WithTotalBudget(1))
	// Single-record input fails inside core; budget must be refunded.
	if _, err := Release(s, Count[user]("c", nil), testUsers(1), nil); err == nil {
		t.Fatal("single-record release succeeded")
	}
	if got := s.SpentBudget(); got != 0 {
		t.Fatalf("SpentBudget after failed release = %v, want 0", got)
	}
}

func TestBudgetInvalidOption(t *testing.T) {
	if _, err := NewSession(WithTotalBudget(-1)); err == nil {
		t.Fatal("negative budget accepted")
	}
}

func TestEvaluateDoesNotSpendBudget(t *testing.T) {
	s := newSessionT(t, WithTotalBudget(0.1))
	if _, err := Evaluate(s, Count[user]("c", nil), testUsers(50)); err != nil {
		t.Fatal(err)
	}
	if s.SpentBudget() != 0 {
		t.Fatalf("Evaluate spent budget: %v", s.SpentBudget())
	}
}

func TestAdvancedCompositionAllowsMoreReleases(t *testing.T) {
	// At small ε the advanced bound grows with sqrt(k): the same budget
	// admits strictly more releases than linear composition.
	const (
		eps    = 0.01
		budget = 0.5
		delta  = 1e-6
	)
	countReleases := func(opts ...Option) int {
		base := []Option{WithEpsilon(eps), WithSampleSize(20), WithTotalBudget(budget)}
		s := newSessionT(t, append(base, opts...)...)
		q := Count[user]("c", nil)
		users := testUsers(60)
		n := 0
		for n < 200 {
			if _, err := Release(s, q, users, nil); err != nil {
				if !errors.Is(err, ErrBudgetExhausted) {
					t.Fatal(err)
				}
				break
			}
			n++
		}
		return n
	}
	linear := countReleases()
	advanced := countReleases(WithAdvancedComposition(delta))
	if linear != 50 { // 0.5 / 0.01
		t.Fatalf("linear releases = %d, want 50", linear)
	}
	if advanced <= linear {
		t.Fatalf("advanced composition allowed %d releases, linear %d", advanced, linear)
	}
	// The composed formula matches the ledger.
	want := composedEpsilon(CompositionAdvanced, eps, advanced, delta)
	s := newSessionT(t, WithEpsilon(eps), WithAdvancedComposition(delta))
	for i := 0; i < advanced; i++ {
		if err := s.debit(1); err != nil {
			t.Fatal(err)
		}
	}
	if math.Abs(s.SpentBudget()-want) > 1e-12 {
		t.Fatalf("SpentBudget = %v, want %v", s.SpentBudget(), want)
	}
}

func TestAdvancedCompositionValidation(t *testing.T) {
	if _, err := NewSession(WithAdvancedComposition(0)); err == nil {
		t.Error("delta 0 accepted")
	}
	if _, err := NewSession(WithAdvancedComposition(1)); err == nil {
		t.Error("delta 1 accepted")
	}
	s := newSessionT(t, WithAdvancedComposition(1e-6))
	if s.Composition() != CompositionAdvanced || s.Delta() != 1e-6 {
		t.Errorf("mode/delta = %v/%v", s.Composition(), s.Delta())
	}
	if newSessionT(t).Composition() != CompositionLinear {
		t.Error("default mode is not linear")
	}
}

func TestComposedEpsilonFormula(t *testing.T) {
	// Linear: k*eps exactly.
	if got := composedEpsilon(CompositionLinear, 0.1, 7, 0); math.Abs(got-0.7) > 1e-12 {
		t.Errorf("linear composed = %v, want 0.7", got)
	}
	if got := composedEpsilon(CompositionAdvanced, 0.1, 0, 1e-6); got != 0 {
		t.Errorf("zero releases composed = %v, want 0", got)
	}
	// Advanced matches the closed form.
	eps, k, delta := 0.05, 10, 1e-5
	want := eps*math.Sqrt(2*10*math.Log(1/delta)) + 10*eps*(math.Exp(eps)-1)
	if got := composedEpsilon(CompositionAdvanced, eps, k, delta); math.Abs(got-want) > 1e-9 {
		t.Errorf("advanced composed = %v, want %v", got, want)
	}
	// Crossover: for one release, advanced is worse (sqrt term dominates);
	// for many small releases it is better than linear.
	one := composedEpsilon(CompositionAdvanced, 0.01, 1, 1e-6)
	if one <= 0.01 {
		t.Errorf("advanced single-release cost %v not above linear 0.01", one)
	}
	many := composedEpsilon(CompositionAdvanced, 0.01, 150, 1e-6)
	if many >= 1.5 {
		t.Errorf("advanced 150-release cost %v not below linear 1.5", many)
	}
}

func TestGroupSizeOption(t *testing.T) {
	s := newSessionT(t, WithSampleSize(40), WithGroupSize(8))
	res, err := Release(s, Count[user]("c", nil), testUsers(400), nil)
	if err != nil {
		t.Fatal(err)
	}
	// Group neighbours widen the inferred sensitivity well beyond the
	// individual count sensitivity.
	if res.Sensitivity[0] < 8 {
		t.Fatalf("group-size-8 count sensitivity = %v, want >= 8", res.Sensitivity[0])
	}
	if _, err := NewSession(WithGroupSize(-2)); err == nil {
		t.Fatal("negative group size accepted")
	}
}

// TestBudgetPricesVectorReleasesPerCoordinate pins the session ledger to the
// system's own charge: a d-dimensional release without SplitVectorBudget
// spends d·ε, so the session must admit and account it at that price.
func TestBudgetPricesVectorReleasesPerCoordinate(t *testing.T) {
	vec := VectorSum[user]("v", 3, func(u user) []float64 {
		active := 0.0
		if u.Active {
			active = 1
		}
		return []float64{u.Spend, active, 1}
	})
	users := testUsers(100)

	// A 3-dimensional release costs 0.3 and cannot fit a 0.25 cap.
	s := newSessionT(t, WithSampleSize(20), WithEpsilon(0.1), WithTotalBudget(0.25))
	if _, err := Release(s, vec, users, nil); !errors.Is(err, ErrBudgetExhausted) {
		t.Fatalf("3-dim release under cap 0.25: error = %v, want ErrBudgetExhausted", err)
	}
	if s.SpentBudget() != 0 || s.sys.EpsilonSpent() != 0 {
		t.Fatalf("refused release spent session %v, system %v", s.SpentBudget(), s.sys.EpsilonSpent())
	}
	// Split across its coordinates, the same release costs one ε.
	split := newSessionT(t, WithSampleSize(20), WithEpsilon(0.1), WithTotalBudget(0.25), WithSplitVectorBudget())
	for i := 0; i < 2; i++ {
		if _, err := Release(split, vec, users, nil); err != nil {
			t.Fatalf("split release %d: %v", i, err)
		}
	}
	if _, err := Release(split, vec, users, nil); !errors.Is(err, ErrBudgetExhausted) {
		t.Fatalf("third split release error = %v, want ErrBudgetExhausted", err)
	}

	// Under linear composition the session's ledger and the system's charge
	// agree after any mix of scalar and vector releases.
	mixed := newSessionT(t, WithSampleSize(20), WithEpsilon(0.1))
	for i, q := range []Query[user]{Count[user]("c", nil), vec, Count[user]("c2", nil), vec} {
		if _, err := Release(mixed, q, users, nil); err != nil {
			t.Fatalf("release %d: %v", i, err)
		}
	}
	if got, want := mixed.SpentBudget(), mixed.sys.EpsilonSpent(); math.Abs(got-want) > 1e-12 || math.Abs(got-0.8) > 1e-12 {
		t.Fatalf("SpentBudget = %v, system EpsilonSpent = %v, want both 0.8", got, want)
	}

	// Under advanced composition k counts ε-units: one vector release is 3.
	adv := newSessionT(t, WithSampleSize(20), WithEpsilon(0.1), WithAdvancedComposition(1e-6))
	if _, err := Release(adv, vec, users, nil); err != nil {
		t.Fatal(err)
	}
	if got, want := adv.SpentBudget(), composedEpsilon(CompositionAdvanced, 0.1, 3, 1e-6); math.Abs(got-want) > 1e-12 {
		t.Fatalf("advanced SpentBudget = %v, want %v (k = 3 ε-units)", got, want)
	}
}
