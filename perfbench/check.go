package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sync"

	"tkplq"
	"tkplq/internal/server"
)

// Reference scopes: the whole table, or shard 0's objects (what a shard's
// subscription sees).
const (
	scopeAll = iota
	scopeShard0
)

// refK is the k of every reference evaluation: the largest k the mixes and
// the subscription ask for. Smaller k are prefixes of the canonical
// (flow desc, S-location asc) ranking.
const refK = 10

// check is one answer to verify.
type check struct {
	op     string // the operation it belongs to, for failure accounting
	scope  int
	ts, te int64
	k      int
	got    []server.ResultJSON
}

type refKey struct {
	scope  int
	ts, te int64
}

// checker recomputes answers on reference Systems with one worker, cache
// and coalescing off and the NestedLoop algorithm, over exactly the
// records acknowledged by the end of the run. Queries only ever ask for
// windows ending at or before the newest acknowledged timestamp, and an
// evaluation reads only records inside its window, so every reference
// answer covers exactly the records acknowledged before the window's end.
type checker struct {
	refs  map[int]*tkplq.System
	slocs []tkplq.SLocID
	memo  map[refKey][]tkplq.Result
}

func newChecker(space *tkplq.Space, acked []tkplq.Record, shard0 func([]tkplq.Record) []tkplq.Record) (*checker, error) {
	c := &checker{refs: map[int]*tkplq.System{}, memo: map[refKey][]tkplq.Result{}}
	scopes := map[int][]tkplq.Record{scopeAll: acked}
	if shard0 != nil {
		scopes[scopeShard0] = shard0(acked)
	}
	for scope, recs := range scopes {
		t := tkplq.NewTable()
		for _, r := range recs {
			t.Append(r)
		}
		sys, err := tkplq.NewSystem(space, t, tkplq.Options{Workers: 1, DisableCache: true, DisableCoalescing: true})
		if err != nil {
			return nil, err
		}
		c.refs[scope] = sys
		c.slocs = sys.AllSLocations()
	}
	return c, nil
}

// run verifies every check and returns the operations with a wrong answer,
// one message each.
func (c *checker) run(checks []check) (map[string]string, error) {
	var keys []refKey
	for _, ch := range checks {
		k := refKey{ch.scope, ch.ts, ch.te}
		if _, ok := c.memo[k]; !ok {
			c.memo[k] = nil
			keys = append(keys, k)
		}
	}
	results := make([][]tkplq.Result, len(keys))
	errs := make([]error, len(keys))
	var wg sync.WaitGroup
	next := make(chan int, len(keys)) // sized to the number of sends
	for i := range keys {
		next <- i
	}
	close(next)
	for w := 0; w < runtime.NumCPU(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				k := keys[i]
				resp, err := c.refs[k.scope].Do(context.Background(), tkplq.Query{
					Kind: tkplq.KindTopK, Algorithm: tkplq.NestedLoop, K: refK,
					Ts: tkplq.Time(k.ts), Te: tkplq.Time(k.te), SLocs: c.slocs,
				})
				if err != nil {
					errs[i] = err
					continue
				}
				results[i] = resp.Results
			}
		}()
	}
	wg.Wait()
	for i, k := range keys {
		if errs[i] != nil {
			return nil, fmt.Errorf("reference [%d, %d]: %w", k.ts, k.te, errs[i])
		}
		c.memo[k] = results[i]
	}
	wrong := map[string]string{}
	for _, ch := range checks {
		if msg := diffRanking(ch.got, c.memo[refKey{ch.scope, ch.ts, ch.te}], ch.k); msg != "" {
			if _, seen := wrong[ch.op]; !seen {
				wrong[ch.op] = fmt.Sprintf("%s: window [%d, %d] k=%d: %s", ch.op, ch.ts, ch.te, ch.k, msg)
			}
		}
	}
	return wrong, nil
}

// diffRanking compares an answer with the top k of a reference ranking:
// the same S-locations in the same order with bit-identical flows. It
// returns "" when they agree.
func diffRanking(got []server.ResultJSON, ref []tkplq.Result, k int) string {
	want := ref[:min(k, len(ref))]
	if len(got) != len(want) {
		return fmt.Sprintf("%d results, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].SLoc != int(want[i].SLoc) {
			return fmt.Sprintf("rank %d is S-location %d, want %d", i+1, got[i].SLoc, want[i].SLoc)
		}
		if math.Float64bits(got[i].Flow) != math.Float64bits(want[i].Flow) {
			return fmt.Sprintf("rank %d flow %v, want %v", i+1, got[i].Flow, want[i].Flow)
		}
	}
	return ""
}
