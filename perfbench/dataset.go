package main

import (
	"encoding/json"
	"fmt"

	"tkplq"
	"tkplq/internal/server"
	"tkplq/internal/sim"
)

// objects is the tracked population of every workload.
const objects = 50

// dataset is one workload's generated input: the indoor space, the sealed
// history and the positioning feed replayed during the run.
type dataset struct {
	space   *tkplq.Space
	all     []tkplq.Record // every record, T-sorted
	history []tkplq.Record // T < histEnd, ingested and sealed at set-up
	batches []feedBatch    // one per data-second ≥ histEnd, in T order
	histEnd tkplq.Time
}

// feedBatch is one data-second of the positioning feed, pre-encoded as a
// POST /v1/ingest body.
type feedBatch struct {
	T    tkplq.Time
	recs []tkplq.Record
	body []byte
}

// generate builds the default synthetic building and simulates the
// population over span seconds with skewed destinations, so some locations
// really are more popular. Every object lives the whole span, which keeps
// the record count, and with it the work per query, steady across seeds.
func generate(seed int64, span, histEnd tkplq.Time) (*dataset, error) {
	b, err := sim.Generate(sim.DefaultBuildingConfig())
	if err != nil {
		return nil, fmt.Errorf("building: %w", err)
	}
	mc := sim.DefaultMovementConfig()
	mc.Objects = objects
	mc.Duration = span
	mc.MinLifespan, mc.MaxLifespan = span, span
	mc.DestinationSkew = 1
	mc.Seed = seed
	trajs, err := sim.SimulateMovement(b, mc)
	if err != nil {
		return nil, fmt.Errorf("movement: %w", err)
	}
	pc := sim.DefaultPositioningConfig()
	pc.Seed = seed + 1
	table, err := sim.GenerateIUPT(b, trajs, pc)
	if err != nil {
		return nil, fmt.Errorf("positioning: %w", err)
	}
	d := &dataset{space: b.Space, all: table.SortedRecords(), histEnd: histEnd}
	for i, rec := range d.all {
		if rec.T >= histEnd {
			d.history = d.all[:i]
			d.batches = batchesOf(d.all[i:])
			return d, nil
		}
	}
	d.history = d.all
	return d, nil
}

// batchesOf groups T-sorted records into one ingest batch per timestamp.
func batchesOf(recs []tkplq.Record) []feedBatch {
	var out []feedBatch
	for lo := 0; lo < len(recs); {
		hi := lo
		for hi < len(recs) && recs[hi].T == recs[lo].T {
			hi++
		}
		out = append(out, feedBatch{T: recs[lo].T, recs: recs[lo:hi], body: ingestBody(recs[lo:hi])})
		lo = hi
	}
	return out
}

func ingestBody(recs []tkplq.Record) []byte {
	req := server.IngestRequest{Records: make([]server.RecordJSON, len(recs))}
	for i, rec := range recs {
		rj := server.RecordJSON{OID: int64(rec.OID), T: int64(rec.T), Samples: make([]server.SampleJSON, len(rec.Samples))}
		for j, s := range rec.Samples {
			rj.Samples[j] = server.SampleJSON{PLoc: int(s.Loc), Prob: s.Prob}
		}
		req.Records[i] = rj
	}
	body, err := json.Marshal(req)
	if err != nil {
		panic(err) // plain structs of numbers always marshal
	}
	return body
}
