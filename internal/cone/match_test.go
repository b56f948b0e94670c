package cone

import (
	"math/rand"
	"sort"
	"testing"

	"gatewords/internal/logic"
	"gatewords/internal/netlist"
)

// makeBits fabricates BitCones with the given subtree key strings (interned
// as atoms, bypassing netlist construction) so matching logic can be tested
// in isolation. Subtrees are sorted in the interner's key order, as
// Builder.Bit produces them, and the full key is the hash-consed tuple of
// the sorted subtree keys — so equal key multisets yield equal FullKeys.
func makeBits(it *Interner, kind logic.Kind, keyLists ...[]string) []*BitCone {
	var out []*BitCone
	for i, keys := range keyLists {
		bc := &BitCone{Net: netlist.NetID(i), RootKind: kind}
		ids := make([]KeyID, 0, len(keys))
		for _, k := range keys {
			id := it.Intern(k)
			bc.Subtrees = append(bc.Subtrees, Subtree{Root: netlist.NoNet, Key: id})
			ids = append(ids, id)
		}
		sort.Slice(bc.Subtrees, func(a, b int) bool {
			return bc.Subtrees[a].Key < bc.Subtrees[b].Key
		})
		bc.FullKey = it.InternNode(kind, ids)
		out = append(out, bc)
	}
	return out
}

func TestMatchFull(t *testing.T) {
	it := NewInterner()
	bits := makeBits(it, logic.Nand, []string{"x", "y"}, []string{"y", "x"})
	if !FullMatch(bits[0], bits[1]) {
		t.Error("FullMatch false on identical key multisets")
	}
	if !PartialMatch(bits[0], bits[1]) {
		t.Error("PartialMatch false on identical key multisets")
	}
}

func TestMatchPartial(t *testing.T) {
	it := NewInterner()
	bits := makeBits(it, logic.Nand, []string{"x", "y", "z1"}, []string{"x", "y", "z2"})
	if FullMatch(bits[0], bits[1]) || !PartialMatch(bits[0], bits[1]) {
		t.Errorf("partial match misclassified: full %v, partial %v", FullMatch(bits[0], bits[1]), PartialMatch(bits[0], bits[1]))
	}
	dis := Dissimilar(bits[0], CommonKeys(bits))
	if len(dis) != 1 || it.String(dis[0].Key) != "z1" {
		t.Errorf("dissimilar subtrees of bit 0: %+v", dis)
	}
}

func TestMatchDisjoint(t *testing.T) {
	it := NewInterner()
	bits := makeBits(it, logic.Nand, []string{"a", "b"}, []string{"c", "d"})
	if FullMatch(bits[0], bits[1]) || PartialMatch(bits[0], bits[1]) {
		t.Error("disjoint subtrees matched")
	}
}

func TestMatchMultiset(t *testing.T) {
	// Duplicate keys must match with multiset semantics: {x,x,y} vs {x,y,y}
	// shares one x and one y, and each bit keeps one dissimilar subtree.
	it := NewInterner()
	bits := makeBits(it, logic.Nand, []string{"x", "x", "y"}, []string{"x", "y", "y"})
	common := CommonKeys(bits)
	if !PartialMatch(bits[0], bits[1]) || len(common) != 2 {
		t.Errorf("multiset match: partial %v, common %v", PartialMatch(bits[0], bits[1]), common)
	}
	for i, b := range bits {
		if dis := Dissimilar(b, common); len(dis) != 1 {
			t.Errorf("bit %d: dissimilar subtrees %+v, want one", i, dis)
		}
	}
}

// TestPartialMatchAgainstNaive checks PartialMatch on random key multisets
// against the naive intersection: two bits of one root kind partially
// match exactly when their key multisets intersect.
func TestPartialMatchAgainstNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	alphabet := []string{"a", "b", "c", "d", "e", "f"}
	for trial := 0; trial < 300; trial++ {
		it := NewInterner()
		var lists [][]string
		for i := 0; i < 2; i++ {
			keys := make([]string, rng.Intn(5))
			for j := range keys {
				keys[j] = alphabet[rng.Intn(len(alphabet))]
			}
			lists = append(lists, keys)
		}
		bits := makeBits(it, logic.Nand, lists...)
		if got, want := PartialMatch(bits[0], bits[1]), len(naiveIntersect(it, bits)) > 0; got != want {
			t.Fatalf("trial %d: PartialMatch(%v, %v) = %v, want %v", trial, lists[0], lists[1], got, want)
		}
	}
}

func TestMatchRootKindGate(t *testing.T) {
	it := NewInterner()
	a := makeBits(it, logic.Nand, []string{"x"})[0]
	b := makeBits(it, logic.Nor, []string{"x"})[0]
	if FullMatch(a, b) {
		t.Error("FullMatch across root kinds")
	}
	if PartialMatch(a, b) {
		t.Error("PartialMatch across root kinds")
	}
}

// naiveIntersect computes the multiset intersection of the bits' key lists
// the slow way, as a reference for CommonKeys.
func naiveIntersect(it *Interner, bits []*BitCone) map[string]int {
	counts := map[string]int{}
	for _, st := range bits[0].Subtrees {
		counts[it.String(st.Key)]++
	}
	for _, b := range bits[1:] {
		cur := map[string]int{}
		for _, st := range b.Subtrees {
			cur[it.String(st.Key)]++
		}
		for k, c := range counts {
			if cur[k] < c {
				counts[k] = cur[k]
			}
			if counts[k] == 0 {
				delete(counts, k)
			}
		}
	}
	return counts
}

func TestCommonKeysAgainstNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	alphabet := []string{"a", "b", "c", "d", "e"}
	for trial := 0; trial < 200; trial++ {
		it := NewInterner()
		var lists [][]string
		nBits := 2 + rng.Intn(4)
		for i := 0; i < nBits; i++ {
			n := 1 + rng.Intn(5)
			keys := make([]string, n)
			for j := range keys {
				keys[j] = alphabet[rng.Intn(len(alphabet))]
			}
			lists = append(lists, keys)
		}
		bits := makeBits(it, logic.Nand, lists...)
		common := CommonKeys(bits)
		got := map[string]int{}
		for _, k := range common {
			got[it.String(k)]++
		}
		want := naiveIntersect(it, bits)
		if len(got) != len(want) {
			t.Fatalf("trial %d: common %v want %v (lists %v)", trial, got, want, lists)
		}
		for k, c := range want {
			if got[k] != c {
				t.Fatalf("trial %d: common[%s]=%d want %d (lists %v)", trial, k, got[k], c, lists)
			}
		}
		// Dissimilar + common must partition every bit's subtrees.
		for _, b := range bits {
			dis := Dissimilar(b, common)
			if len(dis)+len(common) < len(b.Subtrees) {
				t.Fatalf("trial %d: dissimilar undercount", trial)
			}
			frac := SimilarFraction(b, common)
			wantFrac := float64(len(b.Subtrees)-len(dis)) / float64(len(b.Subtrees))
			if frac != wantFrac {
				t.Fatalf("trial %d: SimilarFraction %f want %f", trial, frac, wantFrac)
			}
		}
	}
}

func TestCommonKeysEmptyInput(t *testing.T) {
	if got := CommonKeys(nil); got != nil {
		t.Errorf("CommonKeys(nil) = %v", got)
	}
}

func TestSimilarFractionEdge(t *testing.T) {
	it := NewInterner()
	bc := &BitCone{RootKind: logic.Nand}
	if SimilarFraction(bc, nil) != 0 {
		t.Error("bit without subtrees must report 0")
	}
	bits := makeBits(it, logic.Nand, []string{"x", "y"})
	common := []KeyID{bits[0].Subtrees[0].Key, bits[0].Subtrees[1].Key}
	if SimilarFraction(bits[0], common) != 1.0 {
		t.Error("fully covered bit must report 1")
	}
}
