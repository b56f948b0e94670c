// Package metrics implements the three evaluation metrics of DAC'15 §3:
// for each golden reference word, a word-identification technique's
// generated word set either fully finds it (some generated word contains
// every bit), does not find it (no generated word contains two or more of
// its bits), or partially finds it — in which case a normalized
// fragmentation rate measures how many generated words the reference word's
// bits are spread across.
package metrics

import (
	"gatewords/internal/netlist"
	"gatewords/internal/refwords"
)

// Outcome classifies one reference word against a generated word set.
type Outcome uint8

// Possible outcomes for a reference word.
const (
	FullyFound Outcome = iota
	PartiallyFound
	NotFound
)

// String names the outcome.
func (o Outcome) String() string {
	switch o {
	case FullyFound:
		return "fully-found"
	case PartiallyFound:
		return "partially-found"
	default:
		return "not-found"
	}
}

// WordResult is the per-reference-word evaluation detail.
type WordResult struct {
	Ref           refwords.Word
	Outcome       Outcome
	Fragments     int     // number of generated words the bits spread across
	Fragmentation float64 // Fragments normalized by word size (partial only)
}

// Report aggregates the evaluation of one technique on one benchmark.
type Report struct {
	RefWords       int
	FullyFound     int
	PartiallyFound int
	NotFound       int
	// FragmentationRate is the average of per-word normalized fragmentation
	// over partially-found words; 0 when there are none (matching the
	// paper's convention).
	FragmentationRate float64
	Words             []WordResult
}

// FullyFoundPct returns 100 * FullyFound / RefWords.
func (r Report) FullyFoundPct() float64 { return pct(r.FullyFound, r.RefWords) }

// NotFoundPct returns 100 * NotFound / RefWords.
func (r Report) NotFoundPct() float64 { return pct(r.NotFound, r.RefWords) }

func pct(n, d int) float64 {
	if d == 0 {
		return 0
	}
	return 100 * float64(n) / float64(d)
}

// Evaluate scores generated words against the reference words.
//
// Membership is by net: a bit of a reference word is "in" the generated word
// that contains that net. Bits not covered by any generated word are treated
// as singleton generated words of their own (a technique that says nothing
// about a net has implicitly left it ungrouped).
//
// A net appearing in more than one generated word is attributed to the FIRST
// generated word containing it, in emission order. This tie-break is
// deliberate, not incidental: emission order is the pipeline's confidence
// order (a subgroup's verified word is emitted before later, weaker
// regroupings touch the same nets), and scoring must not double-count a bit
// toward two words. Callers comparing techniques should emit their most
// trusted words first.
func Evaluate(refs []refwords.Word, generated [][]netlist.NetID) Report {
	wordOf := make(map[netlist.NetID]int)
	for wi, w := range generated {
		for _, n := range w {
			if _, dup := wordOf[n]; !dup {
				wordOf[n] = wi // first in emission order wins
			}
		}
	}
	rep := Report{RefWords: len(refs)}
	fragSum := 0.0
	for _, ref := range refs {
		res := scoreWord(ref, wordOf, len(generated))
		rep.Words = append(rep.Words, res)
		switch res.Outcome {
		case FullyFound:
			rep.FullyFound++
		case NotFound:
			rep.NotFound++
		default:
			rep.PartiallyFound++
			fragSum += res.Fragmentation
		}
	}
	if rep.PartiallyFound > 0 {
		rep.FragmentationRate = fragSum / float64(rep.PartiallyFound)
	}
	return rep
}

// scoreWord classifies one reference word. The paper defines the outcomes
// for words of two or more bits (the only kind its §3 evaluation extracts:
// reference registers have at least two bits), where the conditions
// "fragments == 1" (fully found) and "fragments == len(bits)" (not found)
// are mutually exclusive. The degenerate sizes need a convention, fixed and
// pinned here so the switch is unambiguous:
//
//   - 0 bits: NotFound. There is no evidence to score, and the paper's
//     fragmentation (fragments / word size) would divide by zero — an empty
//     word is reported as not found with zero fragmentation rather than
//     poisoning the aggregate rate with NaN.
//   - 1 bit: FullyFound exactly when the bit lies in a REAL generated word,
//     NotFound when no generated word covers it. For 1-bit words the two
//     paper conditions hold simultaneously; the discriminating question is
//     the paper's own "did the technique learn anything": a covered bit was
//     grouped by the technique, an uncovered bit (scored via a synthetic
//     singleton) was not.
func scoreWord(ref refwords.Word, wordOf map[netlist.NetID]int, nGenerated int) WordResult {
	counts := make(map[int]int) // generated word -> #ref bits inside
	fragments := 0
	covered := 0            // bits found in a real (non-synthetic) generated word
	singleton := nGenerated // synthetic IDs for uncovered bits
	for _, bit := range ref.Bits {
		gw, ok := wordOf[bit]
		if !ok {
			gw = singleton
			singleton++
		} else {
			covered++
		}
		if counts[gw] == 0 {
			fragments++
		}
		counts[gw]++
	}
	res := WordResult{Ref: ref, Fragments: fragments}
	switch {
	case len(ref.Bits) == 0:
		res.Outcome = NotFound
	case len(ref.Bits) == 1:
		if covered == 1 {
			res.Outcome = FullyFound
		} else {
			res.Outcome = NotFound
		}
	case fragments == 1:
		res.Outcome = FullyFound
	case fragments == len(ref.Bits):
		// Every bit landed in a distinct generated word: nothing learned.
		res.Outcome = NotFound
	default:
		res.Outcome = PartiallyFound
		res.Fragmentation = float64(fragments) / float64(len(ref.Bits))
	}
	return res
}
