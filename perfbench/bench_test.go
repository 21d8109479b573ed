package main

import (
	"math"
	"reflect"
	"testing"
	"time"

	"tkplq"
	"tkplq/internal/server"
)

func TestTailPercentileLeavesTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{0, 0}, {19, 0}, {20, 50}, {99, 50}, {100, 90}, {999, 90},
		{1000, 99}, {9999, 99}, {10000, 99.9}, {100000, 99.99},
	} {
		if got := tailPercentile(tc.n); got != tc.want {
			t.Errorf("tailPercentile(%d) = %g, want %g", tc.n, got, tc.want)
		}
	}
}

func TestSummarizeReportsRulePercentileAndCount(t *testing.T) {
	var xs []float64
	for i := 100; i >= 1; i-- {
		xs = append(xs, float64(i))
	}
	d := summarize(xs)
	want := dist{N: 100, P50: 50, P90: 90, TailP: 90, Tail: 90}
	if d != want {
		t.Fatalf("summarize(1..100) = %+v, want %+v", d, want)
	}
	if xs[0] != 100 {
		t.Fatal("summarize reordered its input")
	}
	if d := summarize(nil); d != (dist{}) {
		t.Fatalf("summarize(nil) = %+v, want zero", d)
	}
}

func TestPoissonScheduleIsAPureFunctionOfTheSeed(t *testing.T) {
	a := poissonSchedule(7, 50, 20*time.Second)
	b := poissonSchedule(7, 50, 20*time.Second)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave different schedules")
	}
	if reflect.DeepEqual(a, poissonSchedule(8, 50, 20*time.Second)) {
		t.Fatal("different seeds gave the same schedule")
	}
	if n := len(a); n < 900 || n > 1100 {
		t.Fatalf("%d arrivals in 20 s at 50/s", n)
	}
	for i := 1; i < len(a); i++ {
		if a[i] < a[i-1] || a[i] >= 20*time.Second {
			t.Fatalf("offset %d = %v out of order or range", i, a[i])
		}
	}
}

func TestMixIsAPureFunctionOfTheSeed(t *testing.T) {
	draw := func(seed int64) []request {
		m := newDashboardMix(seed, 7200)
		out := make([]request, 500)
		for i := range out {
			out[i] = m.next()
		}
		return out
	}
	a := draw(3)
	if !reflect.DeepEqual(a, draw(3)) {
		t.Fatal("same seed gave different request streams")
	}
	adhoc := map[window]bool{}
	for _, r := range a {
		for _, q := range r.qs {
			if q.Ts < 0 || q.Te >= 7200 || q.Te < q.Ts {
				t.Fatalf("window [%d, %d] outside the history", q.Ts, q.Te)
			}
		}
		if w := (window{r.qs[0].Ts, r.qs[0].Te}); w.ts%600 != 0 {
			if adhoc[w] {
				t.Fatalf("ad-hoc window %v repeated", w)
			}
			adhoc[w] = true
		}
	}
}

func TestDiffRankingFlagsOneULPAndSwappedTie(t *testing.T) {
	ref := []tkplq.Result{{SLoc: 4, Flow: 2.5}, {SLoc: 1, Flow: 1.25}, {SLoc: 7, Flow: 1.25}, {SLoc: 2, Flow: 0.5}}
	exact := []server.ResultJSON{{SLoc: 4, Flow: 2.5}, {SLoc: 1, Flow: 1.25}, {SLoc: 7, Flow: 1.25}}
	if msg := diffRanking(exact, ref, 3); msg != "" {
		t.Fatalf("identical answer flagged: %s", msg)
	}
	ulp := append([]server.ResultJSON(nil), exact...)
	ulp[1].Flow = math.Nextafter(ulp[1].Flow, math.Inf(1))
	if diffRanking(ulp, ref, 3) == "" {
		t.Error("a 1-ulp flow change passed")
	}
	tie := []server.ResultJSON{exact[0], exact[2], exact[1]}
	if diffRanking(tie, ref, 3) == "" {
		t.Error("a swapped tie passed")
	}
	if diffRanking(exact[:2], ref, 3) == "" {
		t.Error("a short answer passed")
	}
}

func TestCheckerFlagsWrongAnswers(t *testing.T) {
	ds, err := generate(1, 900, 600)
	if err != nil {
		t.Fatal(err)
	}
	ck, err := newChecker(ds.space, ds.all, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ck.refs[scopeAll].Do(t.Context(), tkplq.Query{Kind: tkplq.KindTopK, Algorithm: tkplq.BestFirst, K: 5, Ts: 100, Te: 700, SLocs: ck.slocs})
	if err != nil {
		t.Fatal(err)
	}
	var good []server.ResultJSON
	for _, r := range resp.Results {
		good = append(good, server.ResultJSON{SLoc: int(r.SLoc), Flow: r.Flow})
	}
	bad := append([]server.ResultJSON(nil), good...)
	bad[4].Flow = math.Nextafter(bad[4].Flow, 0)
	wrong, err := ck.run([]check{
		{op: "good", ts: 100, te: 700, k: 5, got: good},
		{op: "bad", ts: 100, te: 700, k: 5, got: bad},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := wrong["bad"]; !ok || len(wrong) != 1 {
		t.Fatalf("wrong = %v, want only the perturbed answer", wrong)
	}
}
