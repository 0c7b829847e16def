package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"
)

// sampleEvery is the oracle's sampling step: one /search reply in fifty
// is decoded and kept for comparison with the in-process answer.
const sampleEvery = 50

// match is one result of a /search reply.
type match struct {
	ID    string   `json:"id"`
	Score *float64 `json:"score"`
}

// searchReply is the part of a /search reply the benchmark reads.
type searchReply struct {
	Count   int     `json:"count"`
	TookMS  float64 `json:"took_ms"`
	Matches []match `json:"matches"`
}

// reply is a decoded /search reply kept for the oracle.
type reply struct {
	Op   op
	Body searchReply
}

// lane is one traffic source of a phase: Workers goroutines, each with its
// own connection, sending the requests Next yields. Rate > 0 makes the
// lane an open loop on a fixed schedule; 0 makes it a closed loop.
type lane struct {
	Workers int
	Rate    float64
	Next    func() (op, bool) // false: the lane has nothing more to send
	Primary bool              // the phase ends when a primary lane runs dry
}

// laneResult is what one lane measured.
type laneResult struct {
	LatMS     []float64 // per successful request; from due time when paced
	LateMS    []float64 // paced: send time minus due time, idle worker
	Work      float64   // completed requests, or documents when the lane writes
	Attempted int
	Failed    int
	Elapsed   time.Duration
	Acked     []op    // acknowledged writes, in completion order
	Sampled   []reply // decoded /search replies for the oracle
	// Behind is, per paced request in schedule order, how many requests
	// were already due but not yet taken when it was sent: the backlog.
	Behind []float64
}

// backlogGrowth is the mean backlog over the last third of a paced lane's
// schedule minus the mean over the first third, in requests.
func (r *laneResult) backlogGrowth() float64 {
	n := len(r.Behind) / 3
	if n == 0 {
		return 0
	}
	return mean(r.Behind[len(r.Behind)-n:]) - mean(r.Behind[:n])
}

// throughput is the lane's work per second over the whole phase. A median
// over stretches of the phase was tried and is no steadier: merges make the
// rate of a bulk load cycle, and the stretches sample the cycle unevenly.
func (r *laneResult) throughput() float64 {
	return r.Work / r.Elapsed.Seconds()
}

// connCount tracks how many connections the generator holds open.
type connCount struct{ open, peak atomic.Int64 }

type countedConn struct {
	net.Conn
	c    *connCount
	once sync.Once
}

func (c *countedConn) Close() error {
	c.once.Do(func() { c.c.open.Add(-1) })
	return c.Conn.Close()
}

// newClient returns an HTTP client that holds at most one connection.
func newClient(cc *connCount) *http.Client {
	d := &net.Dialer{Timeout: 5 * time.Second}
	return &http.Client{
		Timeout: 15 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
			DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
				conn, err := d.DialContext(ctx, network, addr)
				if err != nil {
					return nil, err
				}
				if n := cc.open.Add(1); n > cc.peak.Load() {
					cc.peak.Store(n)
				}
				return &countedConn{Conn: conn, c: cc}, nil
			},
		},
	}
}

// generator owns the benchmark's connections: at most nproc of them, one
// per worker goroutine.
type generator struct {
	base    string
	clients []*http.Client
	conns   connCount
	decode  bool // decode every /search reply, not one in sampleEvery
}

func newGenerator(base string) *generator {
	g := &generator{base: base}
	for i := 0; i < runtime.NumCPU(); i++ {
		g.clients = append(g.clients, newClient(&g.conns))
	}
	return g
}

func (g *generator) close() {
	for _, c := range g.clients {
		c.CloseIdleConnections()
	}
}

// send performs one request; decode asks for the /search reply body.
func (g *generator) send(c *http.Client, o *op, decode bool) (ok bool, body searchReply, n int64) {
	method, path, payload := o.target()
	var rd io.Reader
	if payload != nil {
		rd = bytes.NewReader(payload)
	}
	req, err := http.NewRequest(method, g.base+path, rd)
	if err != nil {
		return false, body, 0
	}
	resp, err := c.Do(req)
	if err != nil {
		return false, body, 0
	}
	defer resp.Body.Close()
	ok = resp.StatusCode >= 200 && resp.StatusCode < 300
	if ok && decode && o.Kind == "search" {
		raw, err := io.ReadAll(resp.Body)
		if err != nil || json.Unmarshal(raw, &body) != nil {
			return false, body, int64(len(raw))
		}
		return true, body, int64(len(raw))
	}
	n, err = io.Copy(io.Discard, resp.Body)
	return ok && err == nil, body, n
}

// runPhase drives the lanes concurrently for dur, or, with dur 0, until a
// primary lane has sent everything. It fails when the lanes together need
// more workers than the generator has connections.
func (g *generator) runPhase(lanes []lane, dur time.Duration) ([]*laneResult, error) {
	total := 0
	for _, l := range lanes {
		total += l.Workers
	}
	if total > len(g.clients) {
		return nil, fmt.Errorf("phase needs %d generator goroutines, nproc is %d", total, len(g.clients))
	}
	// The harness holds the whole in-process index: a collection of that
	// heap in mid-phase would take a core from the server for tens of
	// milliseconds and show up as tail latency. Collect between phases.
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	results := make([]*laneResult, len(lanes))
	stop := make(chan struct{})
	var stopOnce sync.Once
	halt := func() { stopOnce.Do(func() { close(stop) }) }
	if dur > 0 {
		t := time.AfterFunc(dur, halt)
		defer t.Stop()
	}
	var wg sync.WaitGroup
	start := time.Now()
	next := 0
	for li := range lanes {
		l := &lanes[li]
		res := &laneResult{}
		results[li] = res
		var mu sync.Mutex // guards res, the lane's Next and its schedule
		sent := 0         // requests taken off the schedule
		for w := 0; w < l.Workers; w++ {
			c := g.clients[next]
			next++
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					select {
					case <-stop:
						return
					default:
					}
					mu.Lock()
					o, more := l.Next()
					i := sent
					if more {
						sent++
					}
					mu.Unlock()
					if !more {
						if l.Primary {
							halt()
						}
						return
					}
					begin := time.Now()
					late := -1.0
					if l.Rate > 0 {
						due := start.Add(time.Duration(float64(i) / l.Rate * float64(time.Second)))
						if dur > 0 && due.Sub(start) >= dur {
							return
						}
						if due.After(begin) {
							sleepUntil(due)
							select {
							case <-stop:
								return
							default:
							}
							late = float64(time.Since(due)) / 1e6
						}
						behind := float64(time.Since(start))/1e9*l.Rate - float64(i+1)
						mu.Lock()
						res.Behind = append(res.Behind, max(behind, 0))
						mu.Unlock()
						begin = due
					}
					decode := o.Kind == "search" && (g.decode || i%sampleEvery == 0)
					ok, body, _ := g.send(c, &o, decode)
					done := time.Now()
					mu.Lock()
					res.Attempted++
					if late >= 0 {
						res.LateMS = append(res.LateMS, late)
					}
					if !ok {
						res.Failed++
					} else {
						res.LatMS = append(res.LatMS, float64(done.Sub(begin))/1e6)
						res.Work += float64(max(len(o.Docs), 1))
						if o.Kind != "search" {
							res.Acked = append(res.Acked, o)
						} else if decode {
							res.Sampled = append(res.Sampled, reply{Op: o, Body: body})
						}
					}
					res.Elapsed = max(res.Elapsed, done.Sub(start))
					mu.Unlock()
				}
			}()
		}
	}
	wg.Wait()
	return results, nil
}

// fromStream adapts an endless stream to a lane.
func fromStream(s *stream) func() (op, bool) {
	return func() (op, bool) { return s.next(), true }
}

// fromOps adapts a fixed request list to a lane.
func fromOps(ops []op) func() (op, bool) {
	i := 0
	return func() (op, bool) {
		if i >= len(ops) {
			return op{}, false
		}
		i++
		return ops[i-1], true
	}
}
