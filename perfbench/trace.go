package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"tkplq"
	"tkplq/internal/parts"
	"tkplq/internal/repl"
)

// requestIDHeader carries the load generator's request ID to the entry
// member's handler span. Members do not forward it to shard legs, so legs
// are linked to their router span by time interval and query window.
const requestIDHeader = "X-Bench-Request"

// span is one recorded call into a layer. Times are nanoseconds since the
// recorder started.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Name   string `json:"name"`
	Member string `json:"member"`
	Req    string `json:"req,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Bytes  int64  `json:"bytes,omitempty"`
	Ts     int64  `json:"ts,omitempty"`
	Te     int64  `json:"te,omitempty"`
}

func (s span) ms() float64 { return float64(s.End-s.Start) / 1e6 }

// recorder keeps spans in memory for the traced run. A nil recorder is the
// untraced run: every wrapper hands back the real layer unchanged.
type recorder struct {
	on    atomic.Bool // spans are kept only while the load runs
	base  time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{base: time.Now()} }

func (r *recorder) now() int64 { return int64(time.Since(r.base)) }

func (r *recorder) add(s span) {
	r.mu.Lock()
	s.ID = len(r.spans) + 1
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// timed runs fn as one span of the named layer call.
func (r *recorder) timed(name, member string, fn func() error) error {
	if r == nil || !r.on.Load() {
		return fn()
	}
	start := r.now()
	err := fn()
	r.add(span{Name: name, Member: member, Start: start, End: r.now()})
	return err
}

// handler wraps a member's Server.Handler: one span per request, carrying
// the response size and, for query paths, the query window. Streams
// (subscriptions, replication) are passed through untimed.
func (r *recorder) handler(member string, h http.Handler) http.Handler {
	if r == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		path := req.URL.Path
		if !r.on.Load() || path == "/v2/subscribe" || path == repl.PathReplicate {
			h.ServeHTTP(w, req)
			return
		}
		s := span{Name: "server " + path, Member: member, Req: req.Header.Get(requestIDHeader)}
		if path == "/v2/query" || path == "/v2/partial" {
			body, err := io.ReadAll(req.Body)
			if err == nil {
				s.Ts, s.Te = windowOf(body)
			}
			req.Body = io.NopCloser(bytes.NewReader(body))
		}
		cw := &countingWriter{ResponseWriter: w}
		s.Start = r.now()
		h.ServeHTTP(cw, req)
		s.End = r.now()
		s.Bytes = cw.n
		r.add(s)
	})
}

// windowOf extracts [ts, te] from a query body (the first query of a batch).
func windowOf(body []byte) (ts, te int64) {
	var q qspec
	if bytes.HasPrefix(bytes.TrimSpace(body), []byte("[")) {
		var qs []qspec
		if json.Unmarshal(body, &qs) == nil && len(qs) > 0 {
			q = qs[0]
		}
	} else {
		_ = json.Unmarshal(body, &q) // an unparsable body just leaves the window unset
	}
	return q.Ts, q.Te
}

type countingWriter struct {
	http.ResponseWriter
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.ResponseWriter.Write(p)
	c.n += int64(n)
	return n, err
}

// persister returns what System.SetPersister receives: the store itself,
// or a wrapper timing its write-ahead appends and seals. The wrapper keeps
// Sealer, so System.Snapshot still seals through it.
func (r *recorder) persister(member string, p *parts.Store) tkplq.Persister {
	if r == nil {
		return p
	}
	return tracedStore{p: p, r: r, member: member}
}

type tracedStore struct {
	p      *parts.Store
	r      *recorder
	member string
}

func (t tracedStore) AppendBatch(recs []tkplq.Record) error {
	return t.r.timed("wal.append", t.member, func() error { return t.p.AppendBatch(recs) })
}

func (t tracedStore) Seal() error {
	return t.r.timed("parts.seal", t.member, t.p.Seal)
}

// applier wraps a follower's Applier so replicated batches and seals show
// up as repl spans.
func (r *recorder) applier(member string, a repl.Applier) repl.Applier {
	if r == nil {
		return a
	}
	return tracedApplier{Applier: a, r: r, member: member}
}

type tracedApplier struct {
	repl.Applier
	r      *recorder
	member string
}

func (t tracedApplier) Apply(recs []tkplq.Record) error {
	return t.r.timed("repl.apply", t.member, func() error { return t.Applier.Apply(recs) })
}

func (t tracedApplier) Seal(seq uint64) error {
	return t.r.timed("repl.seal", t.member, func() error { return t.Applier.Seal(seq) })
}

// maxSpan bounds how far back link looks for an enclosing span.
const maxSpan = 10 * time.Second

// link assigns every span its parent: the shortest span on the same member
// that encloses it (a WAL append inside its ingest or replicated apply), or
// for a shard's /v2/partial leg, the router query span with the same window
// that encloses it. It returns the spans sorted by start.
func (r *recorder) link() []span {
	r.mu.Lock()
	spans := append([]span(nil), r.spans...)
	r.mu.Unlock()
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	for i := range spans {
		c := &spans[i]
		best := -1
		for j := i - 1; j >= 0; j-- {
			p := spans[j]
			if c.Start-p.Start > int64(maxSpan) {
				break
			}
			if p.End < c.End || p.ID == c.ID || p.Start > c.Start {
				continue
			}
			var ok bool
			if c.Name == "server /v2/partial" {
				ok = p.Name == "server /v2/query" && p.Member == "router" && p.Ts == c.Ts && p.Te == c.Te
			} else {
				ok = p.Member == c.Member && p.Name != c.Name
			}
			if ok && (best < 0 || p.End-p.Start < spans[best].End-spans[best].Start) {
				best = j
			}
		}
		if best >= 0 {
			c.Parent = spans[best].ID
		}
	}
	return spans
}

// selfTime is a span's duration minus the part of it its children cover.
func selfTime(s span, children []span) float64 {
	type iv struct{ lo, hi int64 }
	var ivs []iv
	for _, c := range children {
		lo, hi := max(c.Start, s.Start), min(c.End, s.End)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	covered, end := int64(0), int64(-1)
	for _, v := range ivs {
		if v.lo > end {
			covered += v.hi - v.lo
			end = v.hi
		} else if v.hi > end {
			covered += v.hi - end
			end = v.hi
		}
	}
	return float64(s.End-s.Start-covered) / 1e6
}

// write saves the linked spans as JSON.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
