package netlist

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"gatewords/internal/logic"
)

// storageModel is what a netlist built by buildRandom must hold, kept in
// plain slices that share nothing with the netlist's slabs.
type storageModel struct {
	inputs [][]NetID
	fanout [][]GateID
}

// buildRandom adds gates gates over fresh nets to nl, each reading one to
// four random earlier nets (repeats allowed, so some nets collect long
// fanout lists), and records the expected pins and fanout in m. Lenient
// gates take the AddGateLenient path.
func buildRandom(t *testing.T, nl *Netlist, m *storageModel, rng *rand.Rand, gates int, lenient bool) {
	t.Helper()
	if nl.NetCount() == 0 {
		for i := 0; i < 4; i++ {
			nl.MarkPI(nl.MustNet(fmt.Sprintf("pi%d", i)))
			m.fanout = append(m.fanout, nil)
		}
	}
	for i := 0; i < gates; i++ {
		ins := make([]NetID, 1+rng.Intn(4))
		for j := range ins {
			ins[j] = NetID(rng.Intn(nl.NetCount()))
		}
		kind := logic.And
		if len(ins) == 1 {
			kind = logic.Buf
		}
		out := nl.MustNet(fmt.Sprintf("n%d", nl.NetCount()))
		m.fanout = append(m.fanout, nil)
		var id GateID
		if lenient {
			id = nl.AddGateLenient(fmt.Sprintf("g%d", nl.GateCount()), kind, out, ins...)
		} else {
			id = nl.MustGate(fmt.Sprintf("g%d", nl.GateCount()), kind, out, ins...)
		}
		m.inputs = append(m.inputs, slices.Clone(ins))
		for _, in := range ins {
			m.fanout[in] = append(m.fanout[in], id)
		}
	}
}

// checkModel fails unless nl holds exactly the pins and fanout of m.
func checkModel(t *testing.T, nl *Netlist, m *storageModel, when string) {
	t.Helper()
	if nl.GateCount() != len(m.inputs) || nl.NetCount() != len(m.fanout) {
		t.Fatalf("%s: %d gates, %d nets, want %d, %d", when, nl.GateCount(), nl.NetCount(), len(m.inputs), len(m.fanout))
	}
	for g, want := range m.inputs {
		if got := nl.Gate(GateID(g)).Inputs; !slices.Equal(got, want) {
			t.Fatalf("%s: gate %d inputs %v, want %v", when, g, got, want)
		}
	}
	for n, want := range m.fanout {
		if got := nl.Net(NetID(n)).Fanout; !slices.Equal(got, want) {
			t.Fatalf("%s: net %d fanout %v, want %v", when, n, got, want)
		}
	}
}

// TestSlabAppendIsolation: gate pins and the first fanout entries share
// slabs, so appending through a copy of one gate's Inputs or one net's
// Fanout must leave every other gate and net unchanged, and building must
// go on correctly afterwards. Both constructors and both AddGate paths are
// covered, across several slab chunks.
func TestSlabAppendIsolation(t *testing.T) {
	for _, c := range []struct {
		name    string
		nl      *Netlist
		lenient bool
	}{
		{"New", New("t"), false},
		{"NewSized", NewSized("t", 64, 64, 96), false},
		{"lenient", New("t"), true},
	} {
		t.Run(c.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(1))
			nl, m := c.nl, &storageModel{}
			buildRandom(t, nl, m, rng, 3*minSlabChunk, c.lenient)
			checkModel(t, nl, m, "built")
			for g := 0; g < nl.GateCount(); g++ {
				ins := nl.Gate(GateID(g)).Inputs
				_ = append(ins, -7, -7, -7)
			}
			checkModel(t, nl, m, "after appending to every gate's inputs")
			for n := 0; n < nl.NetCount(); n++ {
				_ = append(nl.Net(NetID(n)).Fanout, -7)
				_ = append(nl.Net(NetID(n)).Fanout, -7, -7, -7)
			}
			checkModel(t, nl, m, "after appending to every net's fanout")
			buildRandom(t, nl, m, rng, minSlabChunk, c.lenient)
			checkModel(t, nl, m, "grown after the appends")
		})
	}
}

// TestCloneIndependenceStorage: a clone and its original share no pin or
// fanout storage in either direction, whatever either one does next.
func TestCloneIndependenceStorage(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	nl, m := New("t"), &storageModel{}
	buildRandom(t, nl, m, rng, minSlabChunk, false)
	cp := nl.Clone()
	cm := &storageModel{
		inputs: slices.Clone(m.inputs),
		fanout: slices.Clone(m.fanout),
	}
	for i := range cm.fanout {
		cm.fanout[i] = slices.Clone(cm.fanout[i])
	}

	for g := 0; g < cp.GateCount(); g++ {
		ins := cp.Gate(GateID(g)).Inputs
		ins[0] = 0
		cm.inputs[g] = append([]NetID{0}, cm.inputs[g][1:]...)
		_ = append(ins, -7)
	}
	buildRandom(t, cp, cm, rng, minSlabChunk, false)
	checkModel(t, nl, m, "original after changing the clone")
	checkModel(t, cp, cm, "clone")

	for n := 0; n < nl.NetCount(); n++ {
		if f := nl.Net(NetID(n)).Fanout; len(f) > 0 {
			f[0] = -7
			m.fanout[n] = append([]GateID{-7}, m.fanout[n][1:]...)
		}
	}
	buildRandom(t, nl, m, rng, minSlabChunk, true)
	checkModel(t, cp, cm, "clone after changing the original")
	checkModel(t, nl, m, "original")
}

// TestEnsureNetEmptyNamePanics: EnsureNet keeps MustNet's contract for an
// empty name.
func TestEnsureNetEmptyNamePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("EnsureNet(\"\") did not panic")
		}
	}()
	New("t").EnsureNet("")
}
