package metrics

import (
	"math/rand"
	"testing"

	"gatewords/internal/netlist"
	"gatewords/internal/refwords"
)

// TestEvaluateProperties checks invariants on random reference/generated
// word configurations: the three outcomes partition the reference set,
// percentages sum to 100, and fragmentation stays within (0, 1] for
// partially found words.
func TestEvaluateProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 300; trial++ {
		nRefs := 1 + rng.Intn(6)
		var refs []refwords.Word
		next := netlist.NetID(0)
		for r := 0; r < nRefs; r++ {
			w := refwords.Word{Name: "w" + string(rune('0'+r))}
			width := 2 + rng.Intn(6)
			for b := 0; b < width; b++ {
				w.Bits = append(w.Bits, next)
				next++
			}
			refs = append(refs, w)
		}
		// Random generated partition over a random subset of the nets.
		var gen [][]netlist.NetID
		for n := netlist.NetID(0); n < next; n++ {
			if rng.Intn(5) == 0 {
				continue // uncovered bit
			}
			if len(gen) == 0 || rng.Intn(3) == 0 {
				gen = append(gen, nil)
			}
			gi := rng.Intn(len(gen))
			gen[gi] = append(gen[gi], n)
		}
		rep := Evaluate(refs, gen)
		if rep.FullyFound+rep.PartiallyFound+rep.NotFound != rep.RefWords {
			t.Fatalf("trial %d: outcomes do not partition: %+v", trial, rep)
		}
		sum := rep.FullyFoundPct() + pct(rep.PartiallyFound, rep.RefWords) + rep.NotFoundPct()
		if sum < 99.999 || sum > 100.001 {
			t.Fatalf("trial %d: percentages sum to %f", trial, sum)
		}
		for _, wr := range rep.Words {
			switch wr.Outcome {
			case FullyFound:
				if wr.Fragments != 1 {
					t.Fatalf("trial %d: fully found with %d fragments", trial, wr.Fragments)
				}
			case PartiallyFound:
				if wr.Fragmentation <= 0 || wr.Fragmentation > 1 {
					t.Fatalf("trial %d: fragmentation %f out of range", trial, wr.Fragmentation)
				}
				if wr.Fragments < 2 || wr.Fragments >= len(wr.Ref.Bits) {
					t.Fatalf("trial %d: partial with %d fragments of %d bits", trial, wr.Fragments, len(wr.Ref.Bits))
				}
			case NotFound:
				if wr.Fragments != len(wr.Ref.Bits) {
					t.Fatalf("trial %d: not-found with %d fragments of %d bits", trial, wr.Fragments, len(wr.Ref.Bits))
				}
			}
		}
	}
}
