package cone

import (
	"sort"
	"strings"

	"gatewords/internal/logic"
)

// KeyID is an interned structural hash key. Two subtrees are structurally
// similar exactly when their KeyIDs are equal (for keys produced by the same
// Interner). KeyIDs carry a stable per-interner total order (numeric), used
// to sort subtree key lists; the order is only meaningful between keys of
// one Interner.
type KeyID int32

// NoKey is the invalid KeyID sentinel.
const NoKey KeyID = -1

// LeafKey is the key of every cone leaf (primary input, flip-flop boundary,
// constant, or depth cut). NewInterner pre-interns it, so it is ID 0 in
// every Interner.
const LeafKey KeyID = 0

// node tags distinguish the three record shapes an Interner stores.
const (
	tagLeaf uint8 = iota
	tagAtom       // free-form string key (tests and debugging only)
	tagGate       // gate kind over a sorted child-key tuple
)

// keyNode is one hash-consed structural record: a gate kind over the sorted
// tuple of its children's KeyIDs. Children live in the interner's shared
// arena; per-node allocation is a constant-size record, never a string.
type keyNode struct {
	tag  uint8
	kind logic.Kind // valid for tagGate
	off  uint32     // child tuple start in childIDs
	n    uint32     // child count
}

// Interner hash-conses structural keys as (kind, sorted child KeyID tuple)
// records and hands out dense IDs. Computing a node's key is O(fanin); no
// Polish-expression string is ever built on the identification path. The
// string rendering of a key is derived lazily (and memoized) only for
// debugging and traces via String.
//
// Deduplication uses an open-addressing table (linear probing) over the
// node hashes rather than a bucket map: the hot path then allocates only
// amortized slice growth, never per-node bucket cells.
//
// A single Interner must be shared by every Builder participating in one
// analysis so that KeyIDs are comparable across original and reduced
// circuits.
type Interner struct {
	nodes    []keyNode
	childIDs []KeyID          // shared child-tuple arena
	hashes   []uint64         // per-node hash, for probe-table resize
	table    []int32          // open addressing; entry = KeyID+1, 0 = empty
	atoms    map[string]KeyID // tagAtom lookup
	strs     map[KeyID]string // lazy renderings (plus eager atom strings)
}

// NewInterner returns an interner holding only the leaf key.
func NewInterner() *Interner {
	it := &Interner{table: make([]int32, 64)}
	it.nodes = append(it.nodes, keyNode{tag: tagLeaf})
	it.hashes = append(it.hashes, 0)
	return it
}

// Reset empties the interner back to what NewInterner returns, so the next
// keys get the IDs a fresh interner would give them: 1, 2, ... in
// first-intern order. It clears only the probe slots its nodes occupy and
// truncates its arrays back to the leaf, so it costs O(keys interned); the
// probe table keeps its size. Every KeyID handed out before Reset becomes
// meaningless.
func (it *Interner) Reset() {
	mask := uint64(len(it.table) - 1)
	for id := 1; id < len(it.nodes); id++ {
		if it.nodes[id].tag != tagGate {
			continue
		}
		idx := it.hashes[id] & mask
		for it.table[idx] != int32(id)+1 {
			idx = (idx + 1) & mask
		}
		it.table[idx] = 0
	}
	it.nodes = it.nodes[:1]
	it.hashes = it.hashes[:1]
	it.childIDs = it.childIDs[:0]
	clear(it.atoms)
	clear(it.strs)
}

// fnv-1a over the (kind, children, arity) tuple.
func hashNode(kind logic.Kind, children []KeyID) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	h = (h ^ uint64(kind)) * prime64
	for _, c := range children {
		h = (h ^ uint64(uint32(c))) * prime64
	}
	h = (h ^ uint64(len(children))) * prime64
	return h
}

// sortKeyIDs sorts a small key tuple in place (insertion sort: gate fanins
// are tiny, and this avoids the sort.Slice closure allocation).
func sortKeyIDs(a []KeyID) {
	if len(a) > 24 {
		sort.Slice(a, func(i, j int) bool { return a[i] < a[j] })
		return
	}
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && a[j] < a[j-1]; j-- {
			a[j], a[j-1] = a[j-1], a[j]
		}
	}
}

// InternNode returns the ID of the structural key "kind over the multiset
// children", allocating one if needed. children is sorted in place (the
// canonical tuple is order-insensitive, §2.3's pin-permutation invariance);
// the caller may reuse the slice afterwards — the interner copies it into
// its arena only when the node is new.
func (it *Interner) InternNode(kind logic.Kind, children []KeyID) KeyID {
	sortKeyIDs(children)
	h := hashNode(kind, children)
	mask := uint64(len(it.table) - 1)
	idx := h & mask
	for {
		slot := it.table[idx]
		if slot == 0 {
			break
		}
		id := KeyID(slot - 1)
		if it.hashes[id] == h {
			n := it.nodes[id]
			if n.kind == kind && int(n.n) == len(children) {
				stored := it.childIDs[n.off : n.off+n.n]
				same := true
				for i, c := range stored {
					if c != children[i] {
						same = false
						break
					}
				}
				if same {
					return id
				}
			}
		}
		idx = (idx + 1) & mask
	}
	id := KeyID(len(it.nodes))
	it.nodes = append(it.nodes, keyNode{
		tag:  tagGate,
		kind: kind,
		off:  uint32(len(it.childIDs)),
		n:    uint32(len(children)),
	})
	it.hashes = append(it.hashes, h)
	it.childIDs = append(it.childIDs, children...)
	it.table[idx] = int32(id) + 1
	// Keep the load factor under 3/4 (nodes overcounts table residents by
	// the leaf and any atoms, which only makes the bound more conservative).
	if len(it.nodes)*4 > len(it.table)*3 {
		it.grow()
	}
	return id
}

// grow doubles the probe table and reinserts every gate node by its stored
// hash.
func (it *Interner) grow() {
	nt := make([]int32, len(it.table)*2)
	mask := uint64(len(nt) - 1)
	for id, n := range it.nodes {
		if n.tag != tagGate {
			continue
		}
		idx := it.hashes[id] & mask
		for nt[idx] != 0 {
			idx = (idx + 1) & mask
		}
		nt[idx] = int32(id) + 1
	}
	it.table = nt
}

// Intern returns the ID of a free-form atom key. Atoms exist for tests and
// debugging (fabricating key lists without a netlist); the identification
// pipeline only ever interns structural nodes. Interning the leaf token
// returns LeafKey.
func (it *Interner) Intern(s string) KeyID {
	if s == leafToken {
		return LeafKey
	}
	if id, ok := it.atoms[s]; ok {
		return id
	}
	if it.atoms == nil {
		it.atoms = make(map[string]KeyID)
	}
	id := KeyID(len(it.nodes))
	it.nodes = append(it.nodes, keyNode{tag: tagAtom})
	it.hashes = append(it.hashes, 0)
	it.setString(id, s)
	it.atoms[s] = id
	return id
}

func (it *Interner) setString(id KeyID, s string) {
	if it.strs == nil {
		it.strs = make(map[KeyID]string)
	}
	it.strs[id] = s
}

// String renders the Polish-expression form of a key — "(" + children in
// lexicographic rendered order + gate token + ")" — computing and caching it
// on first use. The rendering is canonical (independent of the interner's
// ID assignment order), so it matches across interners and equals the key
// strings the pre-hash-consing engine produced. Debug/trace only: nothing
// on the identification path calls it.
func (it *Interner) String(id KeyID) string {
	if id < 0 || int(id) >= len(it.nodes) {
		return "<nokey>"
	}
	return it.render(id)
}

func (it *Interner) render(id KeyID) string {
	n := it.nodes[id]
	if n.tag == tagLeaf {
		return leafToken
	}
	if s, ok := it.strs[id]; ok {
		return s
	}
	if n.tag != tagGate {
		return "<nokey>" // atom without a stored string cannot happen
	}
	kids := it.childIDs[n.off : n.off+n.n]
	parts := make([]string, len(kids))
	for i, c := range kids {
		parts[i] = it.render(c)
	}
	sort.Strings(parts)
	var sb strings.Builder
	sb.WriteByte('(')
	for _, p := range parts {
		sb.WriteString(p)
	}
	sb.WriteByte(kindToken(n.kind))
	sb.WriteByte(')')
	s := sb.String()
	it.setString(id, s)
	return s
}

// Len returns the number of distinct keys interned so far (including the
// pre-interned leaf key).
func (it *Interner) Len() int { return len(it.nodes) }
