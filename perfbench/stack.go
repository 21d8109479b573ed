package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"tkplq"
	"tkplq/internal/cluster"
	"tkplq/internal/parts"
	"tkplq/internal/repl"
	"tkplq/internal/server"
)

// member is one serving process of the stack, wired in-process: a
// server.Server whose Handler is served on its own loopback listener.
type member struct {
	name  string
	dir   string
	ln    net.Listener
	hs    *http.Server
	srv   *server.Server
	sys   *tkplq.System
	store *parts.Store
	src   *repl.Source

	// Follower members only.
	fol       *repl.Follower
	app       repl.Applier
	folCancel context.CancelFunc
	folDone   chan error
	primary   *member
}

func (m *member) url() string { return "http://" + m.ln.Addr().String() }

// stack is one workload's serving topology: a standalone member, or a
// router over two shards of one primary and one follower each.
type stack struct {
	w       *workload
	ds      *dataset
	rec     *recorder
	dir     string
	topo    *cluster.Topology
	data    []*member // every member holding records: standalone, or primaries
	follows []*member // followers, aligned with data in the cluster
	router  *member
	entry   *member // where queries and ingest are sent
	sub     *member // where the subscription is opened
	compact *compactor
}

// historySeal is the data span sealed into one partition while the
// history is ingested at set-up, as a store sealing a live feed would.
const historySeal = 600

// bringUp opens the stores, ingests and seals the history, starts every
// member and waits until each reports ready on /readyz. The returned
// duration is the set-up time: it starts when the first store is opened.
func bringUp(w *workload, ds *dataset, dir string, rec *recorder) (*stack, time.Duration, error) {
	st := &stack{w: w, ds: ds, rec: rec, dir: dir}
	if err := os.RemoveAll(dir); err != nil {
		return nil, 0, err
	}
	start := time.Now()
	err := st.start()
	took := time.Since(start)
	if err != nil {
		st.close()
		return nil, 0, err
	}
	return st, took, nil
}

func (st *stack) start() error {
	if !st.w.replicated {
		m, err := st.listen("standalone")
		if err != nil {
			return err
		}
		st.data, st.entry, st.sub = []*member{m}, m, m
		if err := st.openPrimary(m, st.ds.history, server.RoleStandalone, 0, false); err != nil {
			return err
		}
		return waitReady(m)
	}
	const shards = 2
	var sets [][]string
	for i := 0; i < shards; i++ {
		p, err := st.listen(fmt.Sprintf("s%dp", i))
		if err != nil {
			return err
		}
		f, err := st.listen(fmt.Sprintf("s%df", i))
		if err != nil {
			return err
		}
		f.primary = p
		st.data, st.follows = append(st.data, p), append(st.follows, f)
		sets = append(sets, []string{p.ln.Addr().String(), f.ln.Addr().String()})
	}
	topo, err := cluster.NewReplicated(sets)
	if err != nil {
		return err
	}
	st.topo = topo
	for i, p := range st.data {
		if err := st.openPrimary(p, topo.FilterOwned(st.ds.history, i), server.RoleShard, i, true); err != nil {
			return err
		}
	}
	for i, f := range st.follows {
		if err := st.openFollower(f, i); err != nil {
			return err
		}
	}
	r, err := st.listen("router")
	if err != nil {
		return err
	}
	st.router, st.entry, st.sub = r, r, st.data[0]
	sys, err := tkplq.NewSystem(st.ds.space, tkplq.NewTable(), tkplq.Options{})
	if err != nil {
		return err
	}
	srv, err := server.New(server.Config{
		System: sys, Addr: r.ln.Addr().String(), Role: server.RoleRouter, Topology: topo,
		HealthInterval: 100 * time.Millisecond, Logf: quiet,
	})
	if err != nil {
		return err
	}
	r.sys, r.srv = sys, srv
	st.serve(r)
	for _, m := range append(append([]*member{}, st.data...), st.follows...) {
		if err := waitReady(m); err != nil {
			return err
		}
	}
	return waitRouterReady(r, shards)
}

func quiet(string, ...any) {}

func (st *stack) listen(name string) (*member, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	return &member{name: name, dir: filepath.Join(st.dir, name), ln: ln}, nil
}

// openPrimary opens a member's partitioned store, ingests its share of the
// history through System.Ingest under fsync always, sealing every
// historySeal seconds of data, and starts serving.
func (st *stack) openPrimary(m *member, hist []tkplq.Record, role string, idx int, replicated bool) error {
	keep := 0
	if replicated {
		keep = 4 // as tkplqd keeps on replicated members, for follower catch-up
	}
	p, table, err := tkplq.OpenPartitioned(st.w.storeOptions(m.dir, keep))
	if err != nil {
		return err
	}
	m.store = p
	sys, err := tkplq.NewSystem(st.ds.space, table, tkplq.Options{})
	if err != nil {
		return err
	}
	m.sys = sys
	sys.SetPersister(st.rec.persister(m.name, p))
	for lo := 0; lo < len(hist); {
		hi := lo
		for hi < len(hist) && hist[hi].T/historySeal == hist[lo].T/historySeal {
			hi++
		}
		if err := sys.Ingest(hist[lo:hi]); err != nil {
			return fmt.Errorf("%s: history ingest: %w", m.name, err)
		}
		if err := sys.Snapshot(); err != nil {
			return fmt.Errorf("%s: history seal: %w", m.name, err)
		}
		lo = hi
	}
	cfg := server.Config{
		System: sys, Addr: m.ln.Addr().String(), Store: p, SnapshotEvery: st.w.snapshotEvery,
		Role: role, Topology: st.topo, ShardIndex: idx, Logf: quiet,
	}
	if replicated {
		m.src = repl.NewSource(repl.SourceConfig{Store: p, HeartbeatEvery: 100 * time.Millisecond})
		cfg.Replication = &server.ReplConfig{Source: m.src, Store: p, Self: m.ln.Addr().String()}
	}
	srv, err := server.New(cfg)
	if err != nil {
		return err
	}
	m.srv = srv
	st.serve(m)
	return nil
}

// openFollower boots a follower of shard idx's primary: it bootstraps the
// sealed partitions over the replication stream, opens its store in the
// follower's Open callback and serves once the store is open.
func (st *stack) openFollower(m *member, idx int) error {
	self := m.ln.Addr().String()
	fol, err := repl.NewFollower(repl.FollowerConfig{
		Dir: m.dir, Self: self, Primaries: []string{m.primary.ln.Addr().String()},
		Open: func(uint64, int64) (repl.Applier, error) {
			p, table, err := tkplq.OpenPartitioned(tkplq.PartitionedOptions{Dir: m.dir, Policy: tkplq.SyncAlways, KeepSegments: 4})
			if err != nil {
				return nil, err
			}
			sys, err := tkplq.NewSystem(st.ds.space, table, tkplq.Options{})
			if err != nil {
				p.Close()
				return nil, err
			}
			sys.SetPersister(st.rec.persister(m.name, p))
			m.sys, m.store = sys, p
			m.app = st.rec.applier(m.name, repl.NewSystemApplier(sys, p))
			return m.app, nil
		},
	})
	if err != nil {
		return err
	}
	ctx, cancel := context.WithCancel(context.Background())
	m.fol, m.folCancel, m.folDone = fol, cancel, make(chan error, 1)
	go func() { m.folDone <- fol.Run(ctx) }()
	select {
	case <-fol.Opened():
	case err := <-m.folDone:
		m.folDone <- err // close() waits on it again
		return fmt.Errorf("%s: follower exited before opening its store: %v", m.name, err)
	case <-time.After(60 * time.Second):
		return fmt.Errorf("%s: follower bootstrap timed out", m.name)
	}
	m.src = repl.NewSource(repl.SourceConfig{Store: m.store, HeartbeatEvery: 100 * time.Millisecond})
	srv, err := server.New(server.Config{
		System: m.sys, Addr: self, Store: m.store, Role: server.RoleShard, Topology: st.topo, ShardIndex: idx,
		Replication: &server.ReplConfig{Source: m.src, Follower: fol, Store: m.store, Self: self}, Logf: quiet,
	})
	if err != nil {
		return err
	}
	m.srv = srv
	st.serve(m)
	return nil
}

func (st *stack) serve(m *member) {
	m.hs = &http.Server{
		Handler:           st.rec.handler(m.name, m.srv.Handler()),
		ReadHeaderTimeout: 10 * time.Second,
		WriteTimeout:      server.DefaultRequestTimeout + 10*time.Second,
	}
	go m.hs.Serve(m.ln) //nolint:errcheck // returns ErrServerClosed at close
}

// waitReady polls the member's /readyz until it answers 200.
func waitReady(m *member) error {
	deadline := time.Now().Add(60 * time.Second)
	for {
		resp, err := http.Get(m.url() + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s never became ready", m.name)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// waitRouterReady polls the router's view of the cluster until its health
// loop has seen every member ready.
func waitRouterReady(r *member, shards int) error {
	deadline := time.Now().Add(60 * time.Second)
	for {
		if c, err := clusterStats(r); err == nil && len(c.Shards) == shards {
			ready := true
			for _, s := range c.Shards {
				for _, mh := range s.Members {
					ready = ready && mh.Ready
				}
				ready = ready && len(s.Members) == 2
			}
			if ready {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return errors.New("router never saw every member ready")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func clusterStats(r *member) (*server.ClusterStatsJSON, error) {
	resp, err := http.Get(r.url() + "/v1/stats")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var body struct {
		Cluster *server.ClusterStatsJSON `json:"cluster"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		return nil, err
	}
	if body.Cluster == nil {
		return nil, errors.New("no cluster section")
	}
	return body.Cluster, nil
}

// shutdownMember stops serving and waits for the member's goroutines.
func shutdownMember(m *member) {
	if m == nil || m.ln == nil {
		return
	}
	if m.folCancel != nil {
		m.folCancel()
		<-m.folDone
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if m.srv != nil {
		_ = m.srv.Shutdown(ctx) // stops the router loop and replication streams; never served itself
	}
	if m.hs != nil {
		if err := m.hs.Shutdown(ctx); err != nil {
			m.hs.Close()
		}
	} else {
		m.ln.Close()
	}
}

// close stops every member and closes every store. It returns the first
// store close error: a failed final fsync loses acknowledged records.
func (st *stack) close() error {
	if st.compact != nil {
		st.compact.stop()
	}
	shutdownMember(st.router)
	for _, m := range st.follows {
		shutdownMember(m)
	}
	for _, m := range st.data {
		shutdownMember(m)
	}
	var first error
	for _, m := range append(append([]*member{}, st.follows...), st.data...) {
		if m.store != nil {
			if err := m.store.Close(); err != nil && first == nil {
				first = err
			}
		}
	}
	return first
}

// holders lists every member holding records.
func (st *stack) holders() []*member { return append(append([]*member{}, st.data...), st.follows...) }

// compactor runs the partitioned store's size-tiered compaction on a fixed
// cadence, as an operator's POST /v1/compact loop would. Only calls that
// merged something are recorded as spans.
type compactor struct {
	done   chan struct{}
	exited chan struct{}
	errs   atomic.Int64
}

func startCompactor(m *member, rec *recorder) *compactor {
	c := &compactor{done: make(chan struct{}), exited: make(chan struct{})}
	go func() {
		defer close(c.exited)
		t := time.NewTicker(500 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-c.done:
				return
			case <-t.C:
				var start int64
				if rec != nil {
					start = rec.now()
				}
				res, err := m.store.Compact()
				if err != nil {
					c.errs.Add(1)
				}
				if rec != nil && rec.on.Load() && res.Inputs > 0 {
					rec.add(span{Name: "parts.compact", Member: m.name, Start: start, End: rec.now()})
				}
			}
		}
	}()
	return c
}

func (c *compactor) stop() {
	close(c.done)
	<-c.exited
}
