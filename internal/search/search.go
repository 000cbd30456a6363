// Package search locates a system's tolerance boundary: the smallest fault
// magnitude along one scalar axis — fault count, slow delay, scenario
// intensity — at which the system stops passing (loses liveness, or exceeds
// a sensitivity-score threshold). The paper measures sensitivity at
// hand-picked fault points; Bisect turns every such point into the endpoint
// of an adaptive probe sequence that converges on the pass/fail frontier
// with O(log range) experiment runs. The companion shrinker (see shrink.go)
// then reduces a failing composite scenario to a minimal failing spec,
// delta-debugging style.
package search

import (
	"fmt"
	"math"
)

// Probe evaluates the experiment at one axis value and reports whether it
// fails. Probes are assumed monotone over the axis: once the magnitude is
// large enough to fail, every larger magnitude fails too. Bisect still
// terminates on a non-monotone probe, but then only brackets *a* boundary,
// not the first one.
type Probe func(x float64) (fail bool, err error)

// Axis describes the swept scalar.
type Axis struct {
	// Name labels the axis in results ("count", "slowby", "intensity").
	Name string
	// Lo and Hi bracket the sweep; Lo is expected to pass and Hi to fail.
	Lo, Hi float64
	// Integer snaps every probe to a whole number (fault counts).
	Integer bool
	// Resolution is the bracket width at which bisection stops; 1 for
	// integer axes, (Hi-Lo)/64 otherwise when zero.
	Resolution float64
}

func (ax Axis) withDefaults() (Axis, error) {
	if ax.Hi <= ax.Lo {
		return ax, fmt.Errorf("search: axis %s: hi (%g) must exceed lo (%g)", ax.Name, ax.Hi, ax.Lo)
	}
	if ax.Integer {
		ax.Lo = math.Round(ax.Lo)
		ax.Hi = math.Round(ax.Hi)
		if ax.Resolution < 1 {
			ax.Resolution = 1
		}
	} else if ax.Resolution <= 0 {
		ax.Resolution = (ax.Hi - ax.Lo) / 64
	}
	return ax, nil
}

// ProbeResult is one evaluated point of the search.
type ProbeResult struct {
	X    float64 `json:"x"`
	Fail bool    `json:"fail"`
}

// Boundary is the bracketed pass/fail frontier.
type Boundary struct {
	Axis string `json:"axis"`
	// HavePass and HaveFail report which sides of the frontier were
	// observed inside [Lo, Hi]: both true means LastPass < FirstFail
	// bracket the boundary; HavePass alone means nothing failed up to Hi;
	// HaveFail alone means even Lo fails.
	HavePass bool `json:"havePass"`
	HaveFail bool `json:"haveFail"`
	// LastPass is the largest magnitude observed to pass, FirstFail the
	// smallest observed to fail.
	LastPass  float64 `json:"lastPass"`
	FirstFail float64 `json:"firstFail"`
	// Probes lists every evaluated point in evaluation order.
	Probes []ProbeResult `json:"probes"`
}

// Bracketed reports whether both sides of the frontier were observed.
func (b *Boundary) Bracketed() bool { return b.HavePass && b.HaveFail }

// Bisect locates the pass/fail boundary of probe over ax. It first evaluates
// the endpoints: when even Lo fails (or nothing up to Hi does) it returns the
// one-sided result instead of probing further. Each probe value is evaluated
// at most once. A probe's error stops the search; the boundary returned with
// it holds the probes evaluated before.
func Bisect(ax Axis, probe Probe) (*Boundary, error) {
	ax, err := ax.withDefaults()
	if err != nil {
		return nil, err
	}
	b := &Boundary{Axis: ax.Name}
	seen := make(map[float64]bool)
	eval := func(x float64) (bool, error) {
		if ax.Integer {
			x = math.Round(x)
		}
		if fail, ok := seen[x]; ok {
			return fail, nil
		}
		fail, err := probe(x)
		if err != nil {
			return false, fmt.Errorf("search: probe %s=%g: %w", ax.Name, x, err)
		}
		seen[x] = fail
		b.Probes = append(b.Probes, ProbeResult{X: x, Fail: fail})
		return fail, nil
	}

	loFails, err := eval(ax.Lo)
	if err != nil {
		return b, err
	}
	if loFails {
		b.HaveFail = true
		b.FirstFail = ax.Lo
		return b, nil
	}
	hiFails, err := eval(ax.Hi)
	if err != nil {
		return b, err
	}
	if !hiFails {
		b.HavePass = true
		b.LastPass = ax.Hi
		return b, nil
	}

	lo, hi := ax.Lo, ax.Hi // invariant: lo passes, hi fails
	for hi-lo > ax.Resolution {
		mid := lo + (hi-lo)/2
		if ax.Integer {
			mid = math.Floor(mid)
			if mid <= lo || mid >= hi {
				break
			}
		}
		fail, err := eval(mid)
		if err != nil {
			return b, err
		}
		if fail {
			hi = mid
		} else {
			lo = mid
		}
	}
	b.HavePass, b.HaveFail = true, true
	b.LastPass, b.FirstFail = lo, hi
	return b, nil
}
