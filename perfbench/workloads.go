package main

import "tkplq"

// workload fixes everything a run does apart from the seed. The arrival
// rates are constants, never retuned to later code: about 10-15% of the
// closed-loop capacity each mix reached on the tree that defined the
// benchmark (2 vCPUs). Each query's engine work spreads over both CPUs, so
// any overlap doubles a query's time, and at higher rates the latencies of
// different seeds spread by more than the benchmark's bounds.
type workload struct {
	name    string
	span    tkplq.Time // simulated data span, seconds
	histEnd tkplq.Time // records before this are history, sealed at set-up
	// queryRate is the open-loop /v2/query arrival rate per second;
	// feedRate the fixed ingest rate in batches (data-seconds) per second.
	queryRate, feedRate float64
	snapshotEvery       int  // auto-seal threshold in records, 0 = off
	compact             bool // run the compaction loop
	replicated          bool // router + 2 shards × (primary + follower)
	live                bool // trailing-window queries instead of the dashboard mix
	reopen              bool // close and reopen the store after the load
}

// compactTarget caps compaction output, so only the small partitions
// sealed during the run merge and the history partitions stay as sealed.
const compactTarget = 1 << 20

var workloads = []*workload{
	{
		// The read path: dashboards over a sealed 2 h history. A light feed
		// appends after the history, so ingest and push are measured, but
		// it never seals and never touches a queried window.
		name: "history-dashboard", span: 7800, histEnd: 7200,
		queryRate: 15, feedRate: 20,
	},
	{
		// Writes beside reads: the second hour replayed at 40× under fsync
		// always, auto-seals and compaction, queries and the subscription
		// over the trailing 10 minutes, then a restart.
		name: "live-feed", span: 7200, histEnd: 3600,
		queryRate: 20, feedRate: 40, snapshotEvery: 500, compact: true, live: true, reopen: true,
	},
	{
		// Router fan-out and merge, shard legs and WAL streaming to
		// followers: the dashboard mix over the sealed first hour and the
		// live feed, both through the router.
		name: "replicated-cluster", span: 7200, histEnd: 3600,
		queryRate: 20, feedRate: 25, snapshotEvery: 1000, replicated: true,
	},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// storeOptions opens a data member's partitioned store: fsync always, and
// keep rotated WAL segments for follower catch-up on replicated members.
func (w *workload) storeOptions(dir string, keep int) tkplq.PartitionedOptions {
	return tkplq.PartitionedOptions{
		Dir: dir, Policy: tkplq.SyncAlways, KeepSegments: keep,
		Compact: tkplq.CompactionPolicy{TargetBytes: compactTarget},
	}
}
