package main

import (
	"context"
	"fmt"
	"strconv"
	"time"

	"tkplq"
	"tkplq/internal/core"
	"tkplq/internal/indoor"
	"tkplq/internal/iupt"
)

// openLatencies returns the open-phase request latencies, each timed from
// its scheduled send time, and how late the generator issued each.
func (p *pass) openLatencies() (lat, late []float64) {
	for _, q := range p.queries {
		if q.phase == phaseOpen && q.ok() {
			lat = append(lat, ms(q.done-q.due))
			late = append(late, ms(q.queued-q.due))
		}
	}
	return lat, late
}

// capacitySlices is how many equal slices the closed-loop phase is cut
// into; capacity is the median of their rates, so a short stall of the
// machine does not decide the figure.
const capacitySlices = 4

// capacity is answered queries per second in the closed-loop phase: the
// median over its slices of the queries answered in the slice.
func (p *pass) capacity() float64 {
	var n [capacitySlices]int
	slice := p.closed / capacitySlices
	for _, q := range p.queries {
		if q.phase != phaseClosed || !q.ok() || q.done < p.closedStart {
			continue
		}
		if i := int((q.done - p.closedStart) / slice); i < capacitySlices {
			n[i] += len(q.req.qs)
		}
	}
	rates := make([]float64, capacitySlices)
	for i := range rates {
		rates[i] = float64(n[i]) / slice.Seconds()
	}
	return median(rates)
}

// measured counts the queries and ingest batches of the measured phases.
func (p *pass) measured() (queries, batches int) {
	for _, q := range p.queries {
		if q.phase != phaseWarm {
			queries += len(q.req.qs)
		}
	}
	return queries, p.ingestPhase[phaseOpen] + p.ingestPhase[phaseClosed]
}

func (r *result) endToEnd(p *pass) {
	lat, _ := p.openLatencies()
	r.addDist("query", summarize(lat))
	r.addDist("ingest", summarize(p.ingestMS))
	r.addDist("push", summarize(p.pushMS))
	acked := len(p.st.ds.history) + int(p.ackedRecords.Load())
	r.add("storage_bytes_per_record", ratio(float64(p.dirBytes), float64(acked)), "B/record",
		strconv.FormatInt(p.dirBytes, 10)+" bytes, "+strconv.Itoa(acked)+" records")
	r.report = append(r.report, fmt.Sprintf("reported, not gated: query_capacity_qps %.4g 1/s (median of %d closed-loop slices, %d requests in the pass)",
		p.capacity(), capacitySlices, len(p.queries)))
	r.add("heap_mb", median(p.heapMB), "MiB", fmt.Sprintf("median of %d samples of the live heap over the closed-loop phase", len(p.heapMB)))
}

// perLayer computes the traced run's per-layer metrics. Layers a workload
// does not have (the router and followers outside replicated-cluster, the
// restart outside live-feed) report 0.
func (r *result) perLayer(plain, p *pass, spans []span) {
	st := p.st
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	primary := map[string]bool{}
	for _, m := range st.data {
		primary[m.name] = true
	}
	var handler, ingest, appendMS, seal, compact, apply []float64
	var selfMS, legMS, skewMS, partialBytes []float64
	handlerByReq := map[string]float64{}
	for _, s := range spans {
		switch {
		case s.Name == "server /v2/query" && s.Member == st.entry.name:
			handler = append(handler, s.ms())
			if s.Req != "" {
				handlerByReq[s.Req] = s.ms()
			}
			if st.router != nil {
				var legs []float64
				var bytes int64
				for _, c := range children[s.ID] {
					legs = append(legs, c.ms())
					bytes += c.Bytes
				}
				if len(legs) > 0 {
					lo, hi := legs[0], legs[0]
					for _, l := range legs {
						lo, hi = min(lo, l), max(hi, l)
					}
					legMS = append(legMS, legs...)
					selfMS = append(selfMS, selfTime(s, children[s.ID]))
					skewMS = append(skewMS, hi-lo)
					partialBytes = append(partialBytes, float64(bytes))
				}
			}
		case s.Name == "server /v1/ingest" && s.Member == st.entry.name:
			ingest = append(ingest, s.ms())
		case s.Name == "wal.append" && primary[s.Member]:
			appendMS = append(appendMS, s.ms())
		case s.Name == "parts.seal":
			seal = append(seal, s.ms())
		case s.Name == "parts.compact":
			compact = append(compact, s.ms())
		case s.Name == "repl.apply":
			apply = append(apply, s.ms())
		}
	}
	var codec, client, respBytes []float64
	var objTotal, objComputed, setsOrig, setsReduced, pops, answers float64
	for _, q := range p.queries {
		if !q.ok() || q.phase == phaseWarm {
			continue
		}
		respBytes = append(respBytes, float64(q.bytes))
		for _, a := range q.resps {
			objTotal += float64(a.Stats.ObjectsTotal)
			objComputed += float64(a.Stats.ObjectsComputed)
			setsOrig += float64(a.Stats.SampleSetsOriginal)
			setsReduced += float64(a.Stats.SampleSetsReduced)
			pops += float64(a.Stats.HeapPops)
			answers++
		}
		h, ok := handlerByReq[strconv.Itoa(q.id)]
		if !ok {
			continue
		}
		client = append(client, ms(q.done-q.sent)-h)
		if !q.req.batch {
			codec = append(codec, h-q.resps[0].ElapsedMS)
		}
	}
	b, a := p.before, p.after
	queries, batches := p.measured()

	r.add("server.query_p50_ms", median(handler), "ms", "time inside the entry member's /v2/query handler")
	r.add("server.codec_p50_ms", median(codec), "ms", "handler time minus the response's elapsed_ms")
	r.add("server.client_p50_ms", median(client), "ms", "round trip minus handler time")
	r.add("server.ingest_p50_ms", median(ingest), "ms", "")
	r.add("server.resp_bytes_per_query", mean(respBytes), "B/request", "")

	r.add("core.presence_hit_ratio", ratio(float64(a.cache.Hits-b.cache.Hits), float64(a.cache.Hits-b.cache.Hits+a.cache.Misses-b.cache.Misses)), "ratio", "")
	r.add("core.window_hit_ratio", ratio(float64(a.cache.WindowHits-b.cache.WindowHits), float64(a.cache.WindowHits-b.cache.WindowHits+a.cache.WindowMisses-b.cache.WindowMisses)), "ratio", "")
	r.add("core.coalesced_ratio", ratio(float64(a.cache.Coalesced-b.cache.Coalesced), float64(a.cache.Coalesced-b.cache.Coalesced+a.cache.Flights-b.cache.Flights)), "ratio", "")
	r.add("core.reduce_ms", p.stages.reduce, "ms", "median per replayed query, fresh engine")
	r.add("core.summarize_ms", p.stages.summarize, "ms", "")
	r.add("core.rank_ms", p.stages.rank, "ms", "cold Engine.Do minus fetch, reduce and summarize")
	r.add("core.computed_ratio", ratio(objComputed, objTotal), "ratio", "objects computed / objects in window")
	r.add("core.reduced_ratio", ratio(setsReduced, setsOrig), "ratio", "sample sets after / before reduction")
	r.add("core.heap_pops_per_query", ratio(pops, answers), "pops/query", "")
	var dropped int64
	for _, u := range p.updates {
		dropped += u.u.Dropped
	}
	r.add("core.push_updates", float64(len(p.updates)), "count", "")
	r.add("core.push_dropped", float64(dropped), "count", "")
	r.add("core.invalidations_per_batch", ratio(float64(a.cache.Invalidations-b.cache.Invalidations), float64(batches)), "1/batch", "")

	r.add("iupt.fetch_ms", p.stages.fetch, "ms", "SequencesInRangeSharded, median per replayed query")

	r.add("parts.materialized_per_query", ratio(float64(a.storage.MaterializedRecords-b.storage.MaterializedRecords), float64(queries)), "records/query", "")
	r.add("parts.seal_p50_ms", median(seal), "ms", "")
	r.add("parts.seals", float64(a.storage.Seals-b.storage.Seals), "count", "")
	r.add("parts.compactions", float64(a.storage.Compactions-b.storage.Compactions), "count", "")
	r.add("parts.compact_ms", median(compact), "ms", "")
	r.add("parts.partitions_end", float64(p.partitionsEnd), "count", "")
	r.add("parts.recovery_ms", p.recoveryMS, "ms", "")
	r.add("parts.replayed_records", float64(p.replayed), "count", "")

	ad := summarize(appendMS)
	r.add("wal.append_p50_ms", ad.P50, "ms", "")
	r.add("wal.append_p90_ms", ad.P90, "ms", "")
	r.add("wal.fsyncs_per_batch", ratio(float64(a.storage.WAL.Fsyncs-b.storage.WAL.Fsyncs), float64(a.storage.WAL.Frames-b.storage.WAL.Frames)), "1/batch", "")
	r.add("wal.bytes_per_record", ratio(float64(a.storage.WAL.Bytes-b.storage.WAL.Bytes), float64(a.storage.WAL.Records-b.storage.WAL.Records)), "B/record", "")

	r.add("router.self_p50_ms", median(selfMS), "ms", "router handler minus the time its shard legs cover")
	r.add("router.leg_p50_ms", median(legMS), "ms", "")
	r.add("router.leg_skew_p50_ms", median(skewMS), "ms", "")
	r.add("router.partial_bytes_per_query", mean(partialBytes), "B/request", "")
	r.add("router.retries", float64(a.retries-b.retries), "count", "")
	r.add("cluster.failovers", float64(a.failover), "count", "")

	r.add("repl.apply_p50_ms", median(apply), "ms", "")
	r.add("repl.lag_bytes_p90", summarize(p.lagBytes).P90, "B", "")
	r.add("repl.catchup_ms", p.catchupMS, "ms", "end of load until every follower reaches its primary")
	r.add("repl.full_resyncs", float64(p.fullResyncs), "count", "")

	_, late := p.openLatencies()
	r.add("go.alloc_bytes_per_op", ratio(float64(a.mem.TotalAlloc-b.mem.TotalAlloc), float64(queries+batches)), "B/op", "")
	r.add("go.gc_cpu_fraction", a.mem.GCCPUFraction, "ratio", "")
	r.add("loadgen.late_p90_ms", summarize(late).P90, "ms", "")
	plainLat, _ := plain.openLatencies()
	tracedLat, _ := p.openLatencies()
	base := median(plainLat)
	r.add("trace.overhead_pct", 100*ratio(median(tracedLat)-base, base), "%", "traced vs untraced query_p50_ms")
	ungated(r, plain)
}

// ungated adds the untraced pass's figures that no bound gates: the p90
// latencies and the closed-loop capacity.
func ungated(r *result, p *pass) {
	lat, _ := p.openLatencies()
	for _, t := range []struct {
		name string
		d    dist
	}{{"query", summarize(lat)}, {"ingest", summarize(p.ingestMS)}, {"push", summarize(p.pushMS)}} {
		r.add(t.name+"_p90_ms", t.d.P90, "ms", fmt.Sprintf("untraced pass, n=%d, rule percentile p%g", t.d.N, t.d.TailP))
	}
	r.add("query_capacity_qps", p.capacity(), "1/s", fmt.Sprintf("untraced pass, median of %d slices", capacitySlices))
}

func mean(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return ratio(s, float64(len(xs)))
}

// stages is the stage split of the traced pass's queries, replayed on a
// fresh engine after the load: medians per query.
type stages struct {
	fetch, reduce, summarize, rank float64
}

// stageSamples bounds the queries the stage split replays.
const stageSamples = 24

// stageSplit replays the first distinct windows of the open phase on a
// fresh single-worker engine over the entry data member's table (shard 0's
// primary in the cluster), timing the window fetch, Algorithm 1 reduction
// per object, Equation 1 summarization per surviving object, and a cold
// Engine.Do; ranking is what Do spends beyond the other three.
func stageSplit(p *pass) stages {
	table := p.st.data[0].sys.Table()
	space := p.st.ds.space
	qset := map[indoor.SLocID]bool{}
	slocs := make([]tkplq.SLocID, space.NumSLocations())
	for i := range slocs {
		slocs[i] = tkplq.SLocID(i)
		qset[slocs[i]] = true
	}
	opts := core.Options{Workers: 1, DisableCache: true, DisableCoalescing: true}
	seen := map[window]bool{}
	var fetch, reduce, summ, rank []float64
	ctx := context.Background()
	for _, q := range p.queries {
		if len(seen) == stageSamples {
			break
		}
		if q.phase != phaseOpen || !q.ok() {
			continue
		}
		qs := q.req.qs[0]
		w := window{qs.Ts, qs.Te}
		if seen[w] {
			continue
		}
		seen[w] = true
		eng := core.NewEngine(space, opts)
		t0 := time.Now()
		seqs, err := table.SequencesInRangeSharded(ctx, iupt.Time(qs.Ts), iupt.Time(qs.Te), 1)
		if err != nil {
			continue
		}
		t1 := time.Now()
		var reds []*core.Reduction
		for _, oid := range iupt.SortedObjects(seqs) {
			if red, ok := eng.ReduceData(seqs[oid], qset); ok {
				reds = append(reds, red)
			}
		}
		t2 := time.Now()
		for _, red := range reds {
			eng.Summarize(red.Seq)
		}
		t3 := time.Now()
		algo := tkplq.BestFirst
		if qs.Algorithm == "nl" {
			algo = tkplq.NestedLoop
		}
		if _, err := core.NewEngine(space, opts).Do(ctx, table, core.Query{
			Kind: core.KindTopK, Algorithm: algo, K: qs.K, Ts: iupt.Time(qs.Ts), Te: iupt.Time(qs.Te), SLocs: slocs,
		}); err != nil {
			continue
		}
		do := time.Since(t3)
		fetch = append(fetch, ms(t1.Sub(t0)))
		reduce = append(reduce, ms(t2.Sub(t1)))
		summ = append(summ, ms(t3.Sub(t2)))
		rank = append(rank, ms(do-t3.Sub(t0)))
	}
	return stages{median(fetch), median(reduce), median(summ), median(rank)}
}
