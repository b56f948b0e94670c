package cone

// FullMatch reports whether two bits have fully matching fanin cones: same
// effective root kind and identical sorted subtree key lists. This is
// equivalent to equality of the whole-cone keys.
func FullMatch(a, b *BitCone) bool {
	return a.RootKind == b.RootKind && a.FullKey == b.FullKey
}

// PartialMatch reports whether two bits share the root gate kind and at
// least one similar subtree (the grouping criterion of §2.3). It is the
// O(k_a + k_b) two-pointer walk of §2.3 over the sorted hash-key lists,
// stopped at the first pair of equal keys: otherwise the pointer at the
// smaller key advances past a dissimilar subtree. Keys are interned, so
// "smaller" is the interner's numeric key order; both bits must come from
// builders sharing one Interner.
func PartialMatch(a, b *BitCone) bool {
	if a.RootKind != b.RootKind {
		return false
	}
	i, j := 0, 0
	for i < len(a.Subtrees) && j < len(b.Subtrees) {
		switch ka, kb := a.Subtrees[i].Key, b.Subtrees[j].Key; {
		case ka == kb:
			return true
		case ka < kb:
			i++
		default:
			j++
		}
	}
	return false
}

// CommonKeys returns the multiset intersection of the subtree key lists of
// all bits, sorted in the interner's key order. This is the "similar
// portion" shared by every bit of a subgroup; a bit's subtrees outside it
// are its dissimilar subtrees.
func CommonKeys(bits []*BitCone) []KeyID {
	if len(bits) == 0 {
		return nil
	}
	common := make([]KeyID, len(bits[0].Subtrees))
	for i, st := range bits[0].Subtrees {
		common[i] = st.Key
	}
	for _, b := range bits[1:] {
		common = intersectSorted(common, b)
		if len(common) == 0 {
			break
		}
	}
	return common
}

func intersectSorted(common []KeyID, b *BitCone) []KeyID {
	out := common[:0]
	i, j := 0, 0
	for i < len(common) && j < len(b.Subtrees) {
		ka, kb := common[i], b.Subtrees[j].Key
		if ka == kb {
			out = append(out, ka)
			i++
			j++
			continue
		}
		if ka < kb {
			i++
		} else {
			j++
		}
	}
	return out
}

// Dissimilar returns the subtrees of bit whose keys are not covered by the
// common multiset (which must be sorted in the interner's key order, as
// produced by CommonKeys).
func Dissimilar(bit *BitCone, common []KeyID) []Subtree {
	var out []Subtree
	j := 0
	for _, st := range bit.Subtrees {
		for j < len(common) && common[j] < st.Key {
			j++
		}
		if j < len(common) && common[j] == st.Key {
			j++ // consumed one occurrence of the common multiset
			continue
		}
		out = append(out, st)
	}
	return out
}

// SimilarFraction returns the fraction of bit's subtrees covered by the
// common multiset: 1.0 for a fully similar bit, 0.0 when nothing matches.
// Bits with no subtrees report 0.
func SimilarFraction(bit *BitCone, common []KeyID) float64 {
	if len(bit.Subtrees) == 0 {
		return 0
	}
	dis := len(Dissimilar(bit, common))
	return float64(len(bit.Subtrees)-dis) / float64(len(bit.Subtrees))
}
