package netlist

import (
	"fmt"
	"slices"
)

// Fingerprint returns a canonical content hash of the netlist, rendered as
// 32 hex digits. Two netlists have the same fingerprint exactly when they
// contain the same nets (name, PI/PO marking) and the same gates (kind,
// output net, input nets in pin order) — regardless of the order nets and
// gates were declared in. Gate instance names are excluded: they carry no
// circuit semantics, only diagnostics.
//
// The hash keys the poison-input breaker of the identification service
// (internal/service) and nothing else: failures of one circuit count
// against it however its submissions order or space their declarations. It
// is not the result-cache key, because the pipeline's §2.2 adjacency
// grouping reads declaration order, so two netlists with one fingerprint
// can have different reports; the cache keys on the exact request instead.
//
// Construction follows the cone.Interner hashing idiom: fnv-1a over small
// canonical tuples, made declaration-order-independent by hashing each net
// and gate record separately, sorting the record hashes, and folding the
// sorted sequence. Two independent folds with different seeds give 128 bits,
// so accidental collisions are not a practical concern for the breaker.
func (nl *Netlist) Fingerprint() string {
	recs := make([]uint64, 0, len(nl.gates)+len(nl.nets))
	for i := range nl.gates {
		g := &nl.gates[i]
		h := uint64(fnvOffset64)
		h = (h ^ 'g') * fnvPrime64
		h = (h ^ uint64(g.Kind)) * fnvPrime64
		h = fnvString(h, nl.nets[g.Output].Name)
		for _, in := range g.Inputs {
			h = fnvString(h, nl.nets[in].Name)
		}
		h = (h ^ uint64(len(g.Inputs))) * fnvPrime64
		recs = append(recs, h)
	}
	for i := range nl.nets {
		n := &nl.nets[i]
		h := uint64(fnvOffset64)
		h = (h ^ 'n') * fnvPrime64
		h = fnvString(h, n.Name)
		var flags uint64
		if n.IsPI {
			flags |= 1
		}
		if n.IsPO {
			flags |= 2
		}
		h = (h ^ flags) * fnvPrime64
		recs = append(recs, h)
	}
	slices.Sort(recs)
	return fmt.Sprintf("%016x%016x", nl.foldRecords(recs, fnvOffset64),
		nl.foldRecords(recs, fingerprintSeed2))
}

const (
	fnvOffset64      = 14695981039346656037
	fnvPrime64       = 1099511628211
	fingerprintSeed2 = 0x9e3779b97f4a7c15 // golden-ratio seed for the second fold
)

func fnvString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * fnvPrime64
	}
	return (h ^ uint64(len(s))) * fnvPrime64
}

func (nl *Netlist) foldRecords(recs []uint64, seed uint64) uint64 {
	h := fnvString(seed, nl.Name)
	for _, r := range recs {
		h = (h ^ r) * fnvPrime64
	}
	return (h ^ uint64(len(recs))) * fnvPrime64
}
