package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/url"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/server"
)

// newClient returns an HTTP client holding at most conns connections.
func newClient(conns int) *http.Client {
	return &http.Client{
		Timeout: 30 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConns:        conns,
			MaxIdleConnsPerHost: conns,
			IdleConnTimeout:     time.Minute,
		},
	}
}

func drain(resp *http.Response) {
	_, _ = io.Copy(io.Discard, resp.Body) // keep the connection reusable
	resp.Body.Close()
}

// classify buckets a request outcome into cmd/loadgen's error classes;
// the empty string means success.
func classify(code int, err error) string {
	switch {
	case err == nil && code == http.StatusOK:
		return ""
	case err != nil && code != 0:
		return "decode"
	case err != nil:
		var ne net.Error
		switch {
		case errors.Is(err, syscall.ECONNREFUSED):
			return "conn_refused"
		case errors.As(err, &ne) && ne.Timeout():
			return "timeout"
		default:
			return "conn"
		}
	case code == http.StatusServiceUnavailable:
		return "http_503_shed"
	case code >= 500:
		return "http_5xx"
	case code >= 400:
		return "http_4xx"
	default:
		return fmt.Sprintf("http_%d", code)
	}
}

// getJSON fetches url and decodes the body into out.
func getJSON(client *http.Client, url string, out any) (int, error) {
	resp, err := client.Get(url)
	if err != nil {
		return 0, err
	}
	defer drain(resp)
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return resp.StatusCode, err
	}
	return resp.StatusCode, nil
}

// postJSON posts body (nil posts an empty body) and decodes the reply.
func postJSON(client *http.Client, url string, body, out any) (int, error) {
	var buf bytes.Buffer
	if body != nil {
		if err := json.NewEncoder(&buf).Encode(body); err != nil {
			return 0, err
		}
	}
	resp, err := client.Post(url, "application/json", &buf)
	if err != nil {
		return 0, err
	}
	defer drain(resp)
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return resp.StatusCode, err
	}
	return resp.StatusCode, nil
}

// search is one /search exchange as the load generator saw it.
type search struct {
	query string
	due   time.Time // when the request was due to be sent
	sent  time.Time
	done  time.Time
	class string // error class, "wrong" for a failed correctness check; "" = ok
	ids   []string
}

// latency is the request's latency from its due time; a failed request
// misses every latency limit, so it counts as infinitely slow.
func (s *search) latency() float64 {
	if s.class != "" {
		return math.Inf(1)
	}
	return ms(s.done.Sub(s.due))
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// doSearch runs one GET /search and fills in the outcome fields.
func doSearch(client *http.Client, base string, s *search) {
	s.sent = time.Now()
	var sr server.SearchResponse
	code, err := getJSON(client, base+"/search?"+url.Values{"q": {s.query}}.Encode(), &sr)
	s.done = time.Now()
	s.class = classify(code, err)
	if s.class == "" {
		s.ids = make([]string, len(sr.Results))
		for i, r := range sr.Results {
			s.ids[i] = r.ID
		}
	}
}

// phase is the accounting of one load phase.
type phase struct {
	name     string
	searches []*search
	lags     []float64 // open loop: how late the generator dispatched, ms
	wall     time.Duration
}

func (p *phase) attempted() int { return len(p.searches) }

// add appends the searches of a later slice of the same phase.
func (p *phase) add(q *phase) {
	p.searches = append(p.searches, q.searches...)
	p.lags = append(p.lags, q.lags...)
	p.wall += q.wall
}

func (p *phase) failed() int {
	n := 0
	for _, s := range p.searches {
		if s.class != "" {
			n++
		}
	}
	return n
}

// classes counts failures per error class.
func (p *phase) classes() map[string]int {
	out := map[string]int{}
	for _, s := range p.searches {
		if s.class != "" {
			out[s.class]++
		}
	}
	return out
}

func (p *phase) latencies() []float64 {
	out := make([]float64, len(p.searches))
	for i, s := range p.searches {
		out[i] = s.latency()
	}
	return out
}

// openLoop sends queries[i] when it falls due at start + i/rate over at
// most conns connections. A request due while every connection is busy
// waits in the generator, and that wait is part of its latency. check
// runs on every successful response and turns a wrong answer into a
// failure of class "wrong".
func openLoop(client *http.Client, base string, queries []string, rate float64, conns int, check func(*search) error) *phase {
	p := &phase{name: "open", searches: make([]*search, len(queries)), lags: make([]float64, len(queries))}
	// One slot per request, so the dispatcher never blocks and its lag
	// measures only how late its timer woke.
	jobs := make(chan int, len(queries))
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				s := p.searches[i]
				doSearch(client, base, s)
				markWrong(s, check)
			}
		}()
	}
	start := time.Now().Add(5 * time.Millisecond)
	for i, q := range queries {
		due := start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		p.lags[i] = ms(time.Since(due))
		p.searches[i] = &search{query: q, due: due}
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	p.wall = time.Since(start)
	return p
}

// closedLoop runs conns connections back to back over queries, from
// queries[from] on and wrapping around, until d has passed. Each request
// is due when it is sent.
func closedLoop(client *http.Client, base string, queries []string, from int, d time.Duration, conns int, check func(*search) error) *phase {
	p := &phase{name: "closed"}
	var mu sync.Mutex
	var next atomic.Int64
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var mine []*search
			for time.Now().Before(deadline) {
				i := (from + int(next.Add(1)-1)) % len(queries)
				s := &search{query: queries[i], due: time.Now()}
				doSearch(client, base, s)
				markWrong(s, check)
				mine = append(mine, s)
			}
			mu.Lock()
			p.searches = append(p.searches, mine...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	p.wall = time.Since(start)
	return p
}

func markWrong(s *search, check func(*search) error) {
	if s.class != "" || check == nil {
		return
	}
	if err := check(s); err != nil {
		s.class = "wrong"
	}
}

// write is one mutation exchange of the writer.
type write struct {
	mutation
	due, sent, ack time.Time
	class          string
}

// runWriter sends ops one at a time, ops[i] falling due at
// start + i/rate, until ctx ends or the ops run out. Latency is
// acknowledgement time minus due time.
func runWriter(ctx context.Context, client *http.Client, base string, ops []mutation, rate float64) []*write {
	var out []*write
	start := time.Now()
	for i, op := range ops {
		due := start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
		if d := time.Until(due); d > 0 {
			select {
			case <-ctx.Done():
				return out
			case <-time.After(d):
			}
		} else if ctx.Err() != nil {
			return out
		}
		w := &write{mutation: op, due: due, sent: time.Now()}
		var mr server.MutationResponse
		var code int
		var err error
		switch op.kind {
		case "ingest":
			code, err = postJSON(client, base+"/ingest", server.IngestRequest{ID: op.id, Title: op.title, Body: op.body}, &mr)
		case "delete":
			code, err = postJSON(client, base+"/delete", server.DeleteRequest{ID: op.id}, &mr)
		default:
			code, err = postJSON(client, base+"/"+op.kind, nil, &mr)
		}
		w.ack = time.Now()
		w.class = classify(code, err)
		out = append(out, w)
	}
	return out
}

func writeLatencies(ws []*write) []float64 {
	out := make([]float64, len(ws))
	for i, w := range ws {
		if w.class != "" {
			out[i] = math.Inf(1)
		} else {
			out[i] = ms(w.ack.Sub(w.due))
		}
	}
	return out
}

// quantile is the nearest-rank q-quantile of xs (sorted in place).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	return xs[i]
}

func median(xs []float64) float64 {
	ys := append([]float64(nil), xs...)
	sort.Float64s(ys)
	n := len(ys)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return ys[n/2]
	}
	return (ys[n/2-1] + ys[n/2]) / 2
}
