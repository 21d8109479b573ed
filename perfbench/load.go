package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"tkplq"
	"tkplq/internal/server"
)

// Load phases of one pass.
const (
	phaseWarm = iota
	phaseOpen
	phaseClosed
)

// warmup runs the open-loop mix before measuring, so caches fill and lazy
// set-up finishes.
const warmup = 1500 * time.Millisecond

// queryResult is one /v2/query request and what came back. Times are
// offsets from the pass start.
type queryResult struct {
	id    int
	phase int
	req   request
	// due is the scheduled send time, queued when the generator handed the
	// request to a connection worker, sent when a worker sent it.
	due, queued, sent, done time.Duration
	status                  int
	err                     string
	resps                   []server.QueryResponse
	bytes                   int
}

// update is one subscription update as received.
type update struct {
	at time.Time
	u  server.UpdateJSON
}

// pending is an ingest batch waiting for the subscription update that
// covers it.
type pending struct {
	cum   int // subscription-scope records once the batch is applied
	sent  time.Time
	phase int
}

// pass drives one workload's load against one stack: the positioning feed
// at its fixed rate on its own connection, one subscription stream,
// open-loop Poisson queries over nproc connections, then a closed-loop
// phase with nproc clients while the feed goes on.
type pass struct {
	st     *stack
	w      *workload
	seed   int64
	client *http.Client // query connections, nproc of them
	feeder *http.Client // the feed's own connection
	start  time.Time
	open   time.Duration
	closed time.Duration

	newestT      atomic.Int64 // newest acknowledged feed timestamp
	ackedRecords atomic.Int64 // feed records acknowledged
	ackedBatches atomic.Int64
	inClosed     atomic.Bool // the closed-loop phase is running
	feedDone     chan struct{}

	mu       sync.Mutex
	queries  []*queryResult
	ingestMS []float64 // open phase ingest latency
	ingestOK int
	failures []string
	updates  []update
	pend     []pending
	pendNext int
	pushMS   []float64 // open phase push latency
	lagBytes []float64

	before, after snapshot
	closedStart   time.Duration
	ingestPhase   [3]int // acknowledged batches per phase

	// Post-load results.
	label         string
	postChecks    int
	catchupMS     float64
	fullResyncs   int64
	partitionsEnd int
	recoveryMS    float64
	replayed      int64
	finals        []check
	stages        stages
	heapMB        []float64 // live heap over the closed-loop phase, MiB
	dirBytes      int64
}

func newPass(st *stack, seed int64, seconds int) *pass {
	nproc := runtime.NumCPU()
	total := time.Duration(seconds) * time.Second
	return &pass{
		st: st, w: st.w, seed: seed,
		client: &http.Client{
			Timeout:   10 * time.Second,
			Transport: &http.Transport{MaxConnsPerHost: nproc, MaxIdleConnsPerHost: nproc},
		},
		feeder: &http.Client{
			Timeout:   10 * time.Second,
			Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1},
		},
		open:     total * 2 / 3,
		closed:   total / 3,
		feedDone: make(chan struct{}),
	}
}

func (p *pass) since() time.Duration { return time.Since(p.start) }

func (p *pass) fail(format string, args ...any) {
	p.mu.Lock()
	p.failures = append(p.failures, fmt.Sprintf(format, args...))
	p.mu.Unlock()
}

// run drives the load and returns once every request, the feed and the
// subscription have finished.
func (p *pass) run() error {
	st := p.st
	if n := len(st.ds.history); n > 0 {
		p.newestT.Store(int64(st.ds.history[n-1].T))
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	subReady, subDone := p.subscribe(ctx)
	select {
	case <-subReady:
	case <-time.After(10 * time.Second):
		return fmt.Errorf("subscription never delivered its first update")
	}
	if st.w.compact {
		st.compact = startCompactor(st.data[0], st.rec)
	}
	lagDone := p.sampleLag(ctx)

	p.start = time.Now()
	heapDone := p.sampleHeap(ctx)
	feedCtx, stopFeed := context.WithCancel(ctx)
	go p.feed(feedCtx)

	// Open loop: warm-up, then the measured phase, on one Poisson schedule.
	mixSeed := subSeed(p.seed, 2)
	m := p.newMix(mixSeed)
	sched := poissonSchedule(subSeed(p.seed, 3), p.w.queryRate, warmup+p.open)
	jobs := make(chan *queryResult, len(sched)) // sized to the number of sends
	var wg sync.WaitGroup
	for i := 0; i < runtime.NumCPU(); i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for q := range jobs {
				p.send(ctx, q)
			}
		}()
	}
	for i, off := range sched {
		time.Sleep(time.Until(p.start.Add(off)))
		phase := phaseOpen
		if off < warmup {
			phase = phaseWarm
		}
		if phase == phaseOpen && (i == 0 || sched[i-1] < warmup) {
			p.before = p.snap()
			if st.rec != nil {
				st.rec.on.Store(true) // spans cover the measured phases only
			}
		}
		jobs <- &queryResult{id: i + 1, phase: phase, req: m.next(), due: off, queued: p.since()}
	}
	time.Sleep(time.Until(p.start.Add(warmup + p.open)))
	close(jobs)
	wg.Wait()

	// Closed loop: nproc clients back to back on the same mix.
	cm := p.newMix(subSeed(p.seed, 4))
	var cmu sync.Mutex
	p.closedStart = p.since()
	p.inClosed.Store(true)
	deadline := p.closedStart + p.closed
	id := len(sched)
	for i := 0; i < runtime.NumCPU(); i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				cmu.Lock()
				id++
				q := &queryResult{id: id, phase: phaseClosed, req: cm.next()}
				cmu.Unlock()
				q.due = p.since()
				if q.due >= deadline {
					return
				}
				p.send(ctx, q)
			}
		}()
	}
	wg.Wait()
	p.inClosed.Store(false)
	p.after = p.snap()
	if st.rec != nil {
		st.rec.on.Store(false)
	}
	stopFeed()
	<-p.feedDone
	p.waitFollowers()

	// Let the subscription catch up with the last acknowledged batch.
	catchUp := time.Now().Add(3 * time.Second)
	for time.Now().Before(catchUp) {
		p.mu.Lock()
		done := p.pendNext >= len(p.pend)
		p.mu.Unlock()
		if done {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	cancel()
	<-subDone
	<-lagDone
	<-heapDone
	if st.compact != nil {
		st.compact.stop()
		if n := st.compact.errs.Load(); n > 0 {
			p.fail("%d compactions failed", n)
		}
		st.compact = nil
	}
	return nil
}

// waitFollowers measures how long after the feed stops every follower
// takes to reach its primary's WAL position.
func (p *pass) waitFollowers() {
	if len(p.st.follows) == 0 {
		return
	}
	start := time.Now()
	for _, f := range p.st.follows {
		for {
			ps, po := f.primary.store.Log().Position()
			fs, fo := f.app.Position()
			if ps == fs && po == fo {
				break
			}
			if time.Since(start) > 10*time.Second {
				p.fail("%s never caught up with its primary", f.name)
				break
			}
			time.Sleep(100 * time.Microsecond)
		}
	}
	p.catchupMS = ms(time.Since(start))
}

func (p *pass) newMix(seed int64) *mix {
	if p.w.live {
		return newLiveMix(seed)
	}
	return newDashboardMix(seed, int64(p.w.histEnd))
}

// send issues one query request and records the outcome.
func (p *pass) send(ctx context.Context, q *queryResult) {
	if q.req.live {
		te := p.newestT.Load()
		q.req.qs[0].Ts, q.req.qs[0].Te = max(te-liveWindow, 0), te
	}
	var body []byte
	var err error
	if q.req.batch {
		body, err = json.Marshal(q.req.qs)
	} else {
		body, err = json.Marshal(q.req.qs[0])
	}
	if err != nil {
		panic(err) // plain structs always marshal
	}
	q.sent = p.since()
	defer func() {
		q.done = p.since()
		p.mu.Lock()
		p.queries = append(p.queries, q)
		p.mu.Unlock()
	}()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, p.st.entry.url()+"/v2/query", bytes.NewReader(body))
	if err != nil {
		q.err = err.Error()
		return
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(requestIDHeader, strconv.Itoa(q.id))
	resp, err := p.client.Do(req)
	if err != nil {
		q.err = err.Error()
		return
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	q.status, q.bytes = resp.StatusCode, len(raw)
	if err != nil {
		q.err = err.Error()
		return
	}
	if resp.StatusCode != http.StatusOK {
		q.err = fmt.Sprintf("status %d: %s", resp.StatusCode, bytes.TrimSpace(raw))
		return
	}
	if q.req.batch {
		err = json.Unmarshal(raw, &q.resps)
	} else {
		var one server.QueryResponse
		err = json.Unmarshal(raw, &one)
		q.resps = []server.QueryResponse{one}
	}
	if err != nil {
		q.err = "decoding response: " + err.Error()
	} else if len(q.resps) != len(q.req.qs) {
		q.err = fmt.Sprintf("%d answers to %d queries", len(q.resps), len(q.req.qs))
	}
}

// ok reports whether the request completed with a well-formed answer.
func (q *queryResult) ok() bool { return q.err == "" }

// feed replays the positioning feed in T order, one batch per data-second
// at the workload's fixed rate, until ctx ends or the data runs out.
func (p *pass) feed(ctx context.Context) {
	defer close(p.feedDone)
	st := p.st
	scope := len(st.ds.history)
	if st.topo != nil {
		scope = len(st.topo.FilterOwned(st.ds.history, 0))
	}
	period := time.Duration(float64(time.Second) / p.w.feedRate)
	for i, b := range st.ds.batches {
		due := time.Duration(i) * period
		select {
		case <-ctx.Done():
			return
		case <-time.After(time.Until(p.start.Add(due))):
		}
		phase := phaseWarm
		switch {
		case due >= warmup+p.open:
			phase = phaseClosed
		case due >= warmup:
			phase = phaseOpen
		}
		inScope := len(b.recs)
		if st.topo != nil {
			inScope = len(st.topo.FilterOwned(b.recs, 0))
		}
		scope += inScope
		if inScope > 0 {
			p.mu.Lock()
			p.pend = append(p.pend, pending{cum: scope, sent: time.Now(), phase: phase})
			p.mu.Unlock()
		}
		// The batch is sent even if ctx ends meanwhile: an abandoned ingest
		// would leave its records' fate unknown to the checker.
		err := p.ingest(b.body)
		done := p.since()
		if err != nil {
			p.fail("ingest t=%d: %v", b.T, err)
			return
		}
		p.newestT.Store(int64(b.T))
		p.ackedRecords.Add(int64(len(b.recs)))
		p.ackedBatches.Add(1)
		p.mu.Lock()
		p.ingestOK++
		p.ingestPhase[phase]++
		if phase == phaseOpen {
			p.ingestMS = append(p.ingestMS, ms(done-due))
		}
		p.mu.Unlock()
	}
}

func (p *pass) ingest(body []byte) error {
	req, err := http.NewRequest(http.MethodPost, p.st.entry.url()+"/v1/ingest", bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := p.feeder.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(raw))
	}
	return nil
}

// subscribe opens the /v2/subscribe stream over the live window and
// records every update. ready closes at the first update (the snapshot),
// done once the stream has ended.
func (p *pass) subscribe(ctx context.Context) (ready, done <-chan struct{}) {
	r, d := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(d)
		url := fmt.Sprintf("%s/v2/subscribe?window=%d&k=10&algorithm=bf", p.st.sub.url(), liveWindow)
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
		if err != nil {
			p.fail("subscribe: %v", err)
			return
		}
		resp, err := (&http.Client{Transport: &http.Transport{}}).Do(req)
		if err != nil {
			p.fail("subscribe: %v", err)
			return
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			p.fail("subscribe: status %d", resp.StatusCode)
			return
		}
		br := bufio.NewReader(resp.Body)
		first := true
		for {
			line, err := br.ReadString('\n')
			if err != nil {
				if ctx.Err() == nil {
					p.fail("subscription stream ended: %v", err)
				}
				return
			}
			data, ok := strings.CutPrefix(line, "data: ")
			if !ok {
				continue
			}
			var u server.UpdateJSON
			if err := json.Unmarshal([]byte(data), &u); err != nil {
				p.fail("subscription update: %v", err)
				return
			}
			p.onUpdate(u)
			if first {
				first = false
				close(r)
			}
		}
	}()
	return r, d
}

func (p *pass) onUpdate(u server.UpdateJSON) {
	at := time.Now()
	p.mu.Lock()
	defer p.mu.Unlock()
	p.updates = append(p.updates, update{at: at, u: u})
	// The update reflects the newest batch it covers; older batches it
	// covers changed no ranking or flow, or were conflated, and have no
	// update of their own.
	covered := -1
	for p.pendNext < len(p.pend) && p.pend[p.pendNext].cum <= u.Records {
		covered = p.pendNext
		p.pendNext++
	}
	if covered >= 0 && p.pend[covered].phase == phaseOpen {
		p.pushMS = append(p.pushMS, ms(at.Sub(p.pend[covered].sent)))
	}
}

// sampleLag records every follower's unacknowledged replication bytes
// every 50 ms while the load runs (replicated workloads only).
func (p *pass) sampleLag(ctx context.Context) <-chan struct{} {
	done := make(chan struct{})
	go func() {
		defer close(done)
		if len(p.st.follows) == 0 {
			return
		}
		t := time.NewTicker(50 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-t.C:
			}
			for _, m := range p.st.data {
				for _, f := range m.src.Status() {
					p.mu.Lock()
					p.lagBytes = append(p.lagBytes, float64(f.LagBytes))
					p.mu.Unlock()
				}
			}
		}
	}()
	return done
}

// sampleHeap records the live heap, as marked by the latest GC, every
// 100 ms of the closed-loop phase. By then the caches are full and churn:
// they fill and flip generations in a sawtooth, so one reading at a fixed
// moment would catch a different point of it on every seed.
func (p *pass) sampleHeap(ctx context.Context) <-chan struct{} {
	done := make(chan struct{})
	go func() {
		defer close(done)
		s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		t := time.NewTicker(100 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-t.C:
			}
			if !p.inClosed.Load() {
				continue
			}
			metrics.Read(s)
			if s[0].Value.Kind() == metrics.KindUint64 {
				p.mu.Lock()
				p.heapMB = append(p.heapMB, float64(s[0].Value.Uint64())/(1<<20))
				p.mu.Unlock()
			}
		}
	}()
	return done
}

// snapshot is the counters of every layer at one instant.
type snapshot struct {
	cache    tkplq.CacheStats
	storage  tkplq.PartitionedStats // summed over record holders
	mem      runtime.MemStats
	retries  int64
	failover int64
}

func (p *pass) snap() snapshot {
	var s snapshot
	for _, m := range p.st.holders() {
		c := m.sys.CacheStats()
		s.cache.Hits += c.Hits
		s.cache.Misses += c.Misses
		s.cache.Invalidations += c.Invalidations
		s.cache.Coalesced += c.Coalesced
		s.cache.Flights += c.Flights
		s.cache.WindowHits += c.WindowHits
		s.cache.WindowMisses += c.WindowMisses
		ps := m.store.Stats()
		s.storage.Partitions += ps.Partitions
		s.storage.Seals += ps.Seals
		s.storage.Compactions += ps.Compactions
		s.storage.MaterializedRecords += ps.MaterializedRecords
		s.storage.WAL.Frames += ps.WAL.Frames
		s.storage.WAL.Records += ps.WAL.Records
		s.storage.WAL.Bytes += ps.WAL.Bytes
		s.storage.WAL.Fsyncs += ps.WAL.Fsyncs
	}
	if p.st.router != nil {
		if c, err := clusterStats(p.st.router); err == nil {
			s.failover = c.Failovers
			for _, sh := range c.Shards {
				s.retries += sh.Retries
			}
		}
	}
	runtime.ReadMemStats(&s.mem)
	return s
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
