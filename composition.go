package upa

import (
	"fmt"
	"math"
)

// Composition selects how the session's budget ledger accounts a sequence
// of ε-releases.
type Composition int

// Composition modes.
const (
	// CompositionLinear is basic sequential composition: k releases of ε
	// each consume exactly k·ε (pure ε-DP, the default).
	CompositionLinear Composition = iota + 1
	// CompositionAdvanced is the advanced composition theorem (Dwork &
	// Roth, Thm 3.20): k releases of ε each satisfy
	// (ε√(2k·ln(1/δ)) + k·ε·(e^ε − 1), δ)-DP, which grows with √k instead
	// of k — so a fixed budget admits substantially more small-ε releases,
	// at the price of a δ failure probability.
	CompositionAdvanced
)

// WithAdvancedComposition switches the session's ledger to advanced
// composition with the given δ (must be in (0, 1)); combine with
// WithTotalBudget to cap the composed ε.
func WithAdvancedComposition(delta float64) Option {
	return func(c *sessionConfig) {
		c.composition = CompositionAdvanced
		c.delta = delta
	}
}

// composedEpsilon returns the ε consumed by k ε-units of eps0 each (as
// priced by core.ReleasePrice) under the session's composition mode.
func composedEpsilon(mode Composition, eps0 float64, k int, delta float64) float64 {
	if k <= 0 {
		return 0
	}
	switch mode {
	case CompositionAdvanced:
		kf := float64(k)
		return eps0*math.Sqrt(2*kf*math.Log(1/delta)) + kf*eps0*(math.Expm1(eps0))
	default:
		return float64(k) * eps0
	}
}

// validateComposition checks the mode/δ pairing at session construction.
func validateComposition(mode Composition, delta float64) error {
	switch mode {
	case 0, CompositionLinear:
		return nil
	case CompositionAdvanced:
		if delta <= 0 || delta >= 1 {
			return fmt.Errorf("upa: advanced composition needs delta in (0,1), got %v", delta)
		}
		return nil
	default:
		return fmt.Errorf("upa: unknown composition mode %d", mode)
	}
}

// Delta reports the session's composition δ (0 under linear composition).
func (s *Session) Delta() float64 { return s.delta }

// Composition reports the session's ledger mode.
func (s *Session) Composition() Composition {
	if s.composition == 0 {
		return CompositionLinear
	}
	return s.composition
}
