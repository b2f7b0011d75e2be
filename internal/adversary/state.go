package adversary

import (
	"fmt"

	"popstab/internal/wire"
)

// Fingerprinted is implemented by strategies whose Name() does not expose
// their full configuration (patch centers, rewiring regions): Fingerprint
// renders every behavior-determining parameter. The engine's snapshot
// identity uses FingerprintOf, so a snapshot cannot silently restore into
// a strategy aimed at a different point.
type Fingerprinted interface {
	Fingerprint() string
}

// FingerprintOf renders a strategy's full configuration identity, falling
// back to Name() for strategies whose name already carries everything.
func FingerprintOf(a Adversary) string {
	if f, ok := a.(Fingerprinted); ok {
		return f.Fingerprint()
	}
	return a.Name()
}

// Fingerprint implements Fingerprinted (Name omits the center).
func (d *PatchDeleter) Fingerprint() string {
	return fmt.Sprintf("%s@(%g,%g)", d.Name(), d.Center.X, d.Center.Y)
}

// Fingerprint implements Fingerprinted (Name omits the center).
func (in *ClusterInserter) Fingerprint() string {
	return fmt.Sprintf("%s@(%g,%g)", in.Name(), in.Center.X, in.Center.Y)
}

// Fingerprint implements Fingerprinted by delegation to both halves.
func (pc *PatchCombo) Fingerprint() string {
	return fmt.Sprintf("%s[%s,%s]", pc.Name(), FingerprintOf(pc.Deleter), FingerprintOf(pc.Inserter))
}

// Fingerprint implements Fingerprinted (Name omits region and target
// centers).
func (ra *RewireAdversary) Fingerprint() string {
	return fmt.Sprintf("%s@(%g,%g,r=%g)->(%g,%g,r=%g,d=%d)",
		ra.Name(), ra.Center.X, ra.Center.Y, ra.Radius,
		ra.TargetCenter.X, ra.TargetCenter.Y, ra.TargetRadius, ra.Directive)
}

// Fingerprint implements Fingerprinted by delegation.
func (p *Paced) Fingerprint() string {
	return fmt.Sprintf("%s/every%d", FingerprintOf(p.Inner), p.Every)
}

// Stateful is implemented by strategies that carry mutable per-run state
// beyond what the engine's round counter determines — PatchCombo's
// alternation parity is the canonical case. The engine snapshot captures it
// so a restored run continues the attack mid-stride; purely round-clocked
// strategies (Paced's period) derive their behavior from View.GlobalRound
// and need nothing here.
//
// Paced, the one wrapper, implements Stateful by delegating to its inner
// strategy, so presence and layout are pure functions of the configuration
// — a snapshot and the configuration it restores into always agree on the
// encoding.
type Stateful interface {
	// EncodeState appends the strategy's mutable state to a snapshot.
	EncodeState(e *wire.Enc)
	// DecodeState reinstates state captured by EncodeState on a strategy
	// built from the same configuration.
	DecodeState(d *wire.Dec) error
}

// EncodeState implements Stateful: the alternation parity that decides
// which half of the combo acts first.
func (pc *PatchCombo) EncodeState(e *wire.Enc) { e.U64(pc.turn) }

// DecodeState implements Stateful.
func (pc *PatchCombo) DecodeState(d *wire.Dec) error {
	pc.turn = d.U64()
	return d.Err()
}

// EncodeState implements Stateful by delegation to the throttled strategy;
// a stateless inner strategy contributes nothing, so the layout is a pure
// function of the configuration.
func (p *Paced) EncodeState(e *wire.Enc) {
	if s, ok := p.Inner.(Stateful); ok {
		s.EncodeState(e)
	}
}

// DecodeState implements Stateful.
func (p *Paced) DecodeState(d *wire.Dec) error {
	if s, ok := p.Inner.(Stateful); ok {
		return s.DecodeState(d)
	}
	return nil
}

// Compile-time checks that the combo carries its state and Paced delegates.
var (
	_ Stateful = (*PatchCombo)(nil)
	_ Stateful = (*Paced)(nil)
)
