package main

import (
	"math"
	"math/rand"
	"sort"
)

// qspec is one query of a POST /v2/query body.
type qspec struct {
	Kind      string `json:"kind"`
	Algorithm string `json:"algorithm"`
	K         int    `json:"k"`
	Ts        int64  `json:"ts"`
	Te        int64  `json:"te"`
}

// request is one /v2/query request: a single query, or a batch sent as a
// JSON array. A live request has its window filled in at send time, ending
// at the newest acknowledged feed timestamp.
type request struct {
	qs    []qspec
	batch bool
	live  bool
}

type window struct{ ts, te int64 }

// liveWindow is the trailing window of live-feed queries and of every
// subscription, in seconds.
const liveWindow = 600

var (
	ks    = []int{3, 5, 10}
	algos = []string{"bf", "nl"}
)

// deck deals items in seeded random order, every item once per round, so
// a run's mix has exact proportions and only the order varies by seed.
type deck[T any] struct {
	rng   *rand.Rand
	items []T
	next  int
}

func newDeck[T any](rng *rand.Rand, items []T) *deck[T] {
	return &deck[T]{rng: rng, items: items, next: len(items)}
}

func (d *deck[T]) deal() T {
	if d.next == len(d.items) {
		d.rng.Shuffle(len(d.items), func(i, j int) { d.items[i], d.items[j] = d.items[j], d.items[i] })
		d.next = 0
	}
	d.next++
	return d.items[d.next-1]
}

// Request kinds of the dashboard mix, dealt 15:1:4 from a deck.
const (
	kindSingle = iota
	kindBatch
	kindAdhoc
)

type combo struct {
	algo string
	k    int
}

// mix draws the request stream of one workload from its own seeded source.
type mix struct {
	rng       *rand.Rand
	live      bool
	combos    *deck[combo]
	kinds     *deck[int]
	catalogue *deck[window]
	histEnd   int64
	adhoc     map[window]bool // ad-hoc windows already issued
}

// catalogueDeal is how many catalogue picks one round of the catalogue
// deck holds.
const catalogueDeal = 64

// newDashboardMix builds the history-dashboard mix over [0, histEnd): 75%
// single queries and 5% 4-query batches over a catalogue of aligned
// windows (the whole history, then 30-min tiles, then 10-min tiles) with
// Zipf(1.2) popularity, and 20% ad-hoc unaligned windows of 10-15 min that
// never repeat. Kinds, catalogue picks and (algorithm, k) pairs come from
// decks, so their proportions are exact in every run.
func newDashboardMix(seed int64, histEnd int64) *mix {
	rng := rand.New(rand.NewSource(seed))
	m := &mix{rng: rng, histEnd: histEnd, adhoc: map[window]bool{}, combos: newDeck(rng, combos())}
	cat := []window{{0, histEnd - 1}}
	for _, tile := range []int64{1800, 600} {
		for ts := int64(0); ts+tile <= histEnd; ts += tile {
			cat = append(cat, window{ts, ts + tile - 1})
		}
	}
	m.catalogue = newDeck(rng, zipfDeal(cat, 1.2, catalogueDeal))
	var kinds []int
	for i := 0; i < 20; i++ {
		switch {
		case i < 15:
			kinds = append(kinds, kindSingle)
		case i < 16:
			kinds = append(kinds, kindBatch)
		default:
			kinds = append(kinds, kindAdhoc)
		}
	}
	m.kinds = newDeck(rng, kinds)
	return m
}

// zipfDeal repeats each item in proportion to 1/rank^s, n picks in all,
// rounding by largest remainder.
func zipfDeal[T any](items []T, s float64, n int) []T {
	w := make([]float64, len(items))
	total := 0.0
	for i := range items {
		w[i] = math.Pow(float64(i+1), -s)
		total += w[i]
	}
	counts := make([]int, len(items))
	left := n
	for i := range items {
		counts[i] = int(float64(n) * w[i] / total)
		left -= counts[i]
	}
	order := make([]int, len(items))
	for i := range order {
		order[i] = i
	}
	frac := func(i int) float64 { return float64(n)*w[i]/total - float64(counts[i]) }
	sort.SliceStable(order, func(a, b int) bool { return frac(order[a]) > frac(order[b]) })
	for _, i := range order[:left] {
		counts[i]++
	}
	var out []T
	for i, c := range counts {
		for j := 0; j < c; j++ {
			out = append(out, items[i])
		}
	}
	return out
}

func combos() []combo {
	var out []combo
	for _, a := range algos {
		for _, k := range ks {
			out = append(out, combo{a, k})
		}
	}
	return out
}

// newLiveMix builds the live-feed mix: single queries over the trailing
// liveWindow seconds of the feed.
func newLiveMix(seed int64) *mix {
	rng := rand.New(rand.NewSource(seed))
	return &mix{rng: rng, live: true, combos: newDeck(rng, combos())}
}

func (m *mix) query(w window) qspec {
	c := m.combos.deal()
	return qspec{Kind: "topk", Algorithm: c.algo, K: c.k, Ts: w.ts, Te: w.te}
}

func (m *mix) next() request {
	if m.live {
		return request{qs: []qspec{m.query(window{})}, live: true}
	}
	switch m.kinds.deal() {
	case kindBatch:
		w := m.catalogue.deal()
		qs := make([]qspec, 4)
		for i := range qs {
			qs[i] = m.query(w)
		}
		return request{qs: qs, batch: true}
	case kindSingle:
		return request{qs: []qspec{m.query(m.catalogue.deal())}}
	default:
		for {
			length := 600 + m.rng.Int63n(301)
			ts := m.rng.Int63n(m.histEnd - length)
			w := window{ts, ts + length - 1}
			if !m.adhoc[w] && w.ts%600 != 0 {
				m.adhoc[w] = true
				return request{qs: []qspec{m.query(w)}}
			}
		}
	}
}
