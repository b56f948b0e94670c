package gatewords

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"

	"gatewords/internal/cone"
	"gatewords/internal/netlist"
	"gatewords/internal/obs"
	"gatewords/internal/scoap"
)

// TriageOptions configures Triage. The zero value runs identification with
// default Options, scores with the default SCOAP sequential cost, and keeps
// the top DefaultTriageTop suspects.
type TriageOptions struct {
	// Identify configures the word-identification run whose emitted words
	// define the covered (explained) region. Its Observer field is
	// overridden by TriageOptions.Observer when that is non-nil.
	Identify Options
	// SeqCost is the SCOAP depth cost of crossing a flip-flop boundary
	// (default 1).
	SeqCost int
	// TopN caps the ranked suspect list (0 = DefaultTriageTop, negative =
	// unlimited).
	TopN int
	// Semantic also runs the NL4xx semantic lint rules (AIG + SAT proofs)
	// when gathering diagnostic evidence. Off by default: SAT effort on a
	// large netlist dwarfs the rest of triage.
	Semantic bool
	// Observer, when non-nil, collects stage wall times (scoap, triage, and
	// the identification stages) and the scoap_iterations,
	// scoap_widened_sccs, and triage_suspects counters.
	Observer *Observer
}

// DefaultTriageTop is the suspect-list cap when TriageOptions.TopN is zero.
const DefaultTriageTop = 25

// Suspect is one ranked gate outside the identified-word region. Score is
// the combined rank key in [0,1]; Scoap, Rarity, and DiagPoints are its
// components (see DESIGN.md §12 for the formula).
type Suspect struct {
	// Gate is the instance name; Kind its cell type; Output its output net.
	Gate   string `json:"gate"`
	Kind   string `json:"kind"`
	Output string `json:"output"`
	// Score is the combined suspicion score in [0,1].
	Score float64 `json:"score"`
	// Scoap is the testability component in [0,1]: percentile of the SCOAP
	// score among the design's gates, boosted for controllable-but-
	// unobservable outputs (the classic trigger profile).
	Scoap float64 `json:"scoap"`
	// Rarity is 1/count of the output cone's shape hash: 1 for a cone shape
	// occurring once in the design, small for common datapath shapes, 0 for
	// gates without an analyzable cone (flip-flops).
	Rarity float64 `json:"rarity"`
	// DiagPoints accumulates lint evidence attached to the gate or its
	// output net (2 per warning, 1 per info); Rules lists the rule IDs.
	DiagPoints int      `json:"diag_points"`
	Rules      []string `json:"rules,omitempty"`
	// Testability is the raw SCOAP score CC0+CC1+CO; -1 renders ∞.
	Testability int64 `json:"testability"`
	// Severity buckets the score: "high" (≥ 0.8), "medium" (≥ 0.5), "low".
	Severity string `json:"severity"`
}

// TriageReport is the output of Triage: every gate not covered by an emitted
// word, scored and ranked. The JSON rendering is deterministic.
type TriageReport struct {
	Module string `json:"module"`
	// Gates counts all gates; Covered those explained by identified words
	// (a word bit's driving gate or inside a bit's depth-limited cone).
	Gates   int `json:"gates"`
	Covered int `json:"covered"`
	// Words counts emitted multi-bit words.
	Words int `json:"words"`
	// Suspects are ranked by descending Score (ties by gate ID).
	Suspects []Suspect `json:"suspects"`
	// ScoapIterations and ScoapWidenedSCCs summarize the fixed point.
	ScoapIterations  int64 `json:"scoap_iterations"`
	ScoapWidenedSCCs int   `json:"scoap_widened_sccs"`
}

// TopSeverity returns the severity of the highest-ranked suspect ("" when
// there are none) — the CLI's exit-code key.
func (r *TriageReport) TopSeverity() string {
	if len(r.Suspects) == 0 {
		return ""
	}
	return r.Suspects[0].Severity
}

// WriteJSON emits the report as deterministic indented JSON.
func (r *TriageReport) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// WriteText renders the ranked suspect table.
func (r *TriageReport) WriteText(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "%s: %d gates, %d covered by %d identified words, %d suspect(s)\n",
		r.Module, r.Gates, r.Covered, r.Words, len(r.Suspects)); err != nil {
		return err
	}
	for i, s := range r.Suspects {
		test := "inf"
		if s.Testability >= 0 {
			test = fmt.Sprintf("%d", s.Testability)
		}
		if _, err := fmt.Fprintf(w, "%3d. %-6s %.4f  %-24s %-6s out=%s scoap=%.4f rarity=%.4f diag=%d test=%s\n",
			i+1, s.Severity, s.Score, s.Gate, s.Kind, s.Output, s.Scoap, s.Rarity, s.DiagPoints, test); err != nil {
			return err
		}
	}
	return nil
}

// Triage runs word identification and then ranks every gate the emitted
// words do not explain as a Hardware-Trojan suspect: the combination of a
// SCOAP testability outlier score, lint diagnostics (NL5xx always, NL4xx
// under Semantic), and cone shape-hash rarity. The ranking is deterministic
// — byte-identical across runs and worker counts.
func Triage(d *Design, opt TriageOptions) (*TriageReport, error) {
	if opt.Observer != nil {
		opt.Identify.Observer = opt.Observer
	}
	idRep, err := Identify(d, opt.Identify)
	if err != nil {
		return nil, err
	}

	runRec := opt.Observer.newRunRecorder()
	sp := runRec.Start(obs.StageScoap)
	sr := scoap.Compute(d.nl, scoap.Config{SeqCost: opt.SeqCost})
	sp.End()
	runRec.Add(obs.CtrScoapIterations, sr.Iterations)
	runRec.Add(obs.CtrScoapWidenedSCCs, int64(sr.WidenedSCCs))

	sp = runRec.Start(obs.StageTriage)
	rep := rankSuspects(d, idRep, sr, opt)
	sp.End()
	runRec.Add(obs.CtrTriageSuspects, int64(len(rep.Suspects)))
	opt.Observer.absorb(runRec)

	rep.ScoapIterations = sr.Iterations
	rep.ScoapWidenedSCCs = sr.WidenedSCCs
	return rep, nil
}

// Score weights and severity thresholds of the triage formula (§12).
const (
	triageScoapWeight  = 0.6
	triageRarityWeight = 0.25
	triageDiagWeight   = 0.15
	triageDiagCap      = 4 // diag points saturate here
	triageZCap         = 4 // finite-testability z-scores saturate here
	triageHigh         = 0.8
	triageMedium       = 0.5
)

func rankSuspects(d *Design, idRep *Report, sr *scoap.Result, opt TriageOptions) *TriageReport {
	nl := d.nl
	rep := &TriageReport{Module: nl.Name, Gates: nl.GateCount()}

	// Covered region: the drivers of each word bit's depth-limited fanin
	// cone short of its depth frontier (the same window identification
	// matched over).
	depth := opt.Identify.Depth
	if depth < 1 {
		depth = cone.DefaultDepth
	}
	covered := make([]bool, nl.GateCount())
	var fanin netlist.Cone
	for _, w := range idRep.MultiBitWords() {
		rep.Words++
		for _, bit := range w.Bits {
			id, ok := nl.NetByName(bit)
			if !ok {
				continue
			}
			for _, cn := range fanin.Walk(nl, id, depth) {
				if g := nl.Net(cn.Net).Driver; g != netlist.NoGate && int(cn.Dist) < depth {
					covered[g] = true
				}
			}
		}
	}
	for _, c := range covered {
		if c {
			rep.Covered++
		}
	}

	// Cone shape-hash frequency over every analyzable gate output.
	builder := cone.NewBuilder(nl, cone.NewInterner(), depth)
	keyOf := make([]cone.KeyID, nl.GateCount())
	haveKey := make([]bool, nl.GateCount())
	keyCount := make(map[cone.KeyID]int)
	for gi := 0; gi < nl.GateCount(); gi++ {
		if bc := builder.Bit(nl.Gate(netlist.GateID(gi)).Output); bc != nil {
			keyOf[gi] = bc.FullKey
			haveKey[gi] = true
			keyCount[bc.FullKey]++
		}
	}

	// Lint evidence, attributed to named gates and to the drivers of named
	// nets. NL5xx always; NL4xx only under Semantic (SAT effort).
	only := []string{"NL5"}
	if opt.Semantic {
		only = append(only, "NL4")
	}
	lint := LintWith(d, LintConfig{Only: only, Semantic: opt.Semantic})
	diagPoints := make([]int, nl.GateCount())
	diagRules := make([][]string, nl.GateCount())
	addDiag := func(gi netlist.GateID, rule string, pts int) {
		if gi == netlist.NoGate {
			return
		}
		for _, r := range diagRules[gi] {
			if r == rule {
				return // one charge per rule per gate
			}
		}
		diagPoints[gi] += pts
		diagRules[gi] = append(diagRules[gi], rule)
	}
	for _, diag := range lint.Diagnostics {
		pts := 1
		if diag.Severity == "warn" {
			pts = 2
		}
		for _, gname := range diag.Gates {
			for gi := 0; gi < nl.GateCount(); gi++ {
				if nl.Gate(netlist.GateID(gi)).Name == gname {
					addDiag(netlist.GateID(gi), diag.Rule, pts)
					break
				}
			}
		}
		for _, nname := range diag.Nets {
			if id, ok := nl.NetByName(nname); ok {
				addDiag(nl.Net(id).Driver, diag.Rule, pts)
			}
		}
	}

	// Percentile bases: the finite testability and finite controllability
	// profiles over all gate outputs.
	var finiteT, finiteCtrl []uint64
	ctrlOf := func(n netlist.NetID) scoap.Cost {
		cc := sr.Controllability(n)
		c := uint64(cc.C0) + uint64(cc.C1)
		if c >= uint64(scoap.Inf) {
			return scoap.Inf
		}
		return scoap.Cost(c)
	}
	for gi := 0; gi < nl.GateCount(); gi++ {
		out := nl.Gate(netlist.GateID(gi)).Output
		if t := sr.Testability(out); t != scoap.Inf {
			finiteT = append(finiteT, uint64(t))
		}
		if c := ctrlOf(out); c != scoap.Inf {
			finiteCtrl = append(finiteCtrl, uint64(c))
		}
	}
	sort.Slice(finiteCtrl, func(i, j int) bool { return finiteCtrl[i] < finiteCtrl[j] })
	percentile := func(sorted []uint64, v uint64) float64 {
		if len(sorted) == 0 {
			return 0
		}
		le := sort.Search(len(sorted), func(i int) bool { return sorted[i] > v })
		return float64(le) / float64(len(sorted))
	}
	var tMean, tSigma float64
	if len(finiteT) > 0 {
		var sum, sumSq float64
		for _, v := range finiteT {
			sum += float64(v)
			sumSq += float64(v) * float64(v)
		}
		tMean = sum / float64(len(finiteT))
		tSigma = math.Sqrt(sumSq/float64(len(finiteT)) - tMean*tMean)
	}

	// The scoap component: a finite score contributes only as an outlier —
	// its z-score against the design profile, saturating at triageZCap — so
	// ordinary datapath gates score near zero even in tiny designs. A
	// controllable but unobservable output — the classic trigger profile —
	// ranks above every finite score; an uncontrollable (always-X) output is
	// suspicious but inert, pinned mid-scale.
	scoapComponent := func(n netlist.NetID) float64 {
		ctrl := ctrlOf(n)
		if ctrl == scoap.Inf {
			return 0.5
		}
		if t := sr.Testability(n); t != scoap.Inf {
			if tSigma == 0 {
				return 0
			}
			z := (float64(t) - tMean) / tSigma
			if z < 0 {
				z = 0
			}
			if z > triageZCap {
				z = triageZCap
			}
			return 0.85 * z / triageZCap
		}
		return 0.7 + 0.3*percentile(finiteCtrl, uint64(ctrl))
	}

	var suspects []Suspect
	for gi := 0; gi < nl.GateCount(); gi++ {
		if covered[gi] {
			continue
		}
		g := nl.Gate(netlist.GateID(gi))
		sc := scoapComponent(g.Output)
		rarity := 0.0
		if haveKey[gi] {
			rarity = 1.0 / float64(keyCount[keyOf[gi]])
		}
		diag := diagPoints[gi]
		dcomp := float64(diag)
		if dcomp > triageDiagCap {
			dcomp = triageDiagCap
		}
		score := round4(triageScoapWeight*sc + triageRarityWeight*rarity + triageDiagWeight*dcomp/triageDiagCap)
		sev := "low"
		switch {
		case score >= triageHigh:
			sev = "high"
		case score >= triageMedium:
			sev = "medium"
		}
		test := int64(-1)
		if t := sr.Testability(g.Output); t != scoap.Inf {
			test = int64(t)
		}
		rules := diagRules[gi]
		sort.Strings(rules)
		suspects = append(suspects, Suspect{
			Gate:        g.Name,
			Kind:        g.Kind.String(),
			Output:      nl.NetName(g.Output),
			Score:       score,
			Scoap:       round4(sc),
			Rarity:      round4(rarity),
			DiagPoints:  diag,
			Rules:       rules,
			Testability: test,
			Severity:    sev,
		})
	}
	sort.SliceStable(suspects, func(i, j int) bool { return suspects[i].Score > suspects[j].Score })
	top := opt.TopN
	if top == 0 {
		top = DefaultTriageTop
	}
	if top > 0 && len(suspects) > top {
		suspects = suspects[:top]
	}
	rep.Suspects = suspects
	return rep
}

func round4(f float64) float64 {
	return float64(int64(f*10000+0.5)) / 10000
}
