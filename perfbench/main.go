// Command perfbench is the repository's end-to-end benchmark. It builds
// the serving stack in-process the way cmd/serve and cmd/router build it
// with their default flags, serves it on loopback listeners, replays a
// seeded workload through /search over HTTP, checks every answer and
// prints one JSON result line. Run it from the repository root:
//
//	bash perfbench/run.sh --workload head-warm --seed 1 --seconds 54 --trace 0
//
// A run with --trace 0 reports the end-to-end metrics: set-up time
// (median of several start-to-ready set-ups), open-loop latency at the
// workload's fixed arrival rate timed from each request's due time,
// closed-loop capacity over one connection per CPU (the median rate of
// closed slices that alternate with open ones), heap in use after
// set-up and warm-up, and write acknowledgement latency. A run with
// --trace 1 reports the per-layer metrics instead: /stats deltas over
// shorter HTTP phases, plus an in-process replay of the same request
// stream through each layer's public entry points with one span per
// call. Spans and the per-layer self-time table are written under -out.
//
// workload.go defines the workloads and what each stresses and bypasses.
// BENCHMARK.json lists head-warm and router-2shard. tail-cold and
// live-mixed run the same way but are left out of it: on a 2-core box
// their tail metrics (and tail-cold's p50, which straddles its fast and
// queued requests) spread by a third or more between seeds, above the
// largest bound the benchmark may set.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/server"
)

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	out      string // directory for trace dumps
	reps     int    // set-ups per run; setup_s is their median
	sessions int    // query-log sessions of the world
	topics   int    // overrides the workload's topic count when > 0
	// wrap, when non-nil, wraps the front end's handler (tests use it to
	// corrupt responses).
	wrap func(http.Handler) http.Handler
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// Units of every metric the benchmark can report.
var units = map[string]string{
	"setup_s": "s", "search_p50_ms": "ms", "search_p99_ms": "ms", "qps_max": "req/s",
	"heap_mb": "MiB", "write_p50_ms": "ms", "write_p95_ms": "ms",

	"server.encode_ms": "ms", "server.http_overhead_ms": "ms", "server.rejected": "count",
	"cache.hit_ratio": "ratio", "cache.evictions_per_req": "count", "facade.builds_per_req": "count",
	"suggest.detect_ms": "ms", "suggest.ambiguous_ratio": "ratio", "suggest.specs_per_query": "count",
	"engine.search_rq_ms": "ms", "engine.search_rqp_ms": "ms", "engine.results_per_req": "count",
	"engine.surrogate_ms": "ms", "engine.surrogate_rqp_ms": "ms",
	"index.blocks_decoded_per_req": "count", "index.block_skip_ratio": "ratio",
	"core.utility_ms": "ms", "core.select_ms": "ms", "core.candidates": "count", "core.specs": "count",
	"exec.fused_ratio": "ratio",
	"engine.ingest_ms": "ms", "engine.delete_ms": "ms", "engine.flush_ms": "ms", "engine.compact_ms": "ms",
	"engine.epochs_per_s": "1/s", "engine.segments": "count",
	"router.scatter_ms": "ms", "router.wire_overhead_ms": "ms", "router.attempts_per_req": "count",
	"router.hedges": "count", "router.retries": "count", "router.extra_denied": "count",
	"loadgen.lag_p99_ms": "ms", "trace.coverage": "ratio", "trace.overhead_ratio": "ratio",
}

func main() {
	o := options{reps: 5, sessions: 6000}
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload to run: head-warm, tail-cold, live-mixed or router-2shard")
	flag.Int64Var(&o.seed, "seed", 1, "seed of the generated request and mutation streams")
	flag.IntVar(&o.seconds, "seconds", 20, "measured seconds per run")
	flag.IntVar(&trace, "trace", 0, "1 reports the per-layer metrics of a traced run instead of the end-to-end metrics")
	flag.StringVar(&o.out, "out", filepath.Join(".bench_build", "perfbench"), "directory for trace dumps")
	flag.Parse()
	o.trace = trace == 1
	if o.seconds < 1 {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be at least 1")
		os.Exit(2)
	}

	res, err := run(o, os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// Shares of the measured seconds given to each phase.
const (
	openShare     = 0.64 // open-loop latency phase
	closedShare   = 0.36 // closed-loop capacity phase
	traceHTTPOpen = 0.25 // traced run: open-loop phase feeding the /stats deltas
	traceHTTPShut = 0.10 // traced run: closed-loop phase
	closedStream  = 1000 // closed-loop requests generated per second of the phase; the loop wraps around
	cycleSeconds  = 4    // length of one open-plus-closed slice pair of an untraced run
)

// The write probe of the read-only workloads: probeOps operations of the
// writer's mix at probeRate on an otherwise idle node, with flushes in
// place of compactions. A compaction stalls an idle node's writes for a
// few hundred milliseconds, so the probe's percentiles would measure its
// own queue behind that stall; compaction cost shows on live-mixed.
const (
	probeOps  = 200
	probeRate = 100.0
)

func run(o options, log io.Writer) (*result, error) {
	w, err := findWorkload(o.workload)
	if err != nil {
		return nil, err
	}
	if o.reps < 3 {
		return nil, fmt.Errorf("need at least 3 set-ups, got %d", o.reps)
	}
	wd := world{seed: 1, topics: w.topics, sessions: o.sessions}
	if o.topics > 0 {
		wd.topics = o.topics
	}
	conns := runtime.NumCPU()
	ctx := context.Background()
	ctrl := newClient(2)
	load := newClient(conns)
	writes := newClient(1)
	defer func() {
		for _, c := range []*http.Client{ctrl, load, writes} {
			c.CloseIdleConnections()
		}
	}()

	// The discarded set-ups serve the parts of the run that must not
	// touch the measured stack. The first one takes the write probe of
	// the read-only workloads on an otherwise idle node. The second one
	// computes the reference SERPs with Pipeline.Diversify on its own,
	// identically seeded and never mutated world.
	var queries []string
	var refs map[string][]string
	var probe []*write
	muts := mutationStream(o.seed, int(writeRate*float64(o.seconds))+2*probeOps)
	probeMuts := append([]mutation(nil), muts[:probeOps]...)
	for i := range probeMuts {
		if probeMuts[i].kind == "compact" {
			probeMuts[i].kind = "flush"
		}
	}
	each := []func(*stack) error{
		func(st *stack) error {
			var qr server.QueriesResponse
			if code, err := getJSON(ctrl, st.base+"/queries", &qr); err != nil || code != http.StatusOK || len(qr.Queries) == 0 {
				return fmt.Errorf("GET /queries: status %d: %v", code, err)
			}
			queries = qr.Queries
			if !w.writer {
				runtime.GC()
				probe = runWriter(ctx, writes, st.base, probeMuts, probeRate)
			}
			return nil
		},
		func(st *stack) error {
			if !w.writer {
				local := *st.pipe
				local.Searcher = nil
				refs = references(&local, queries, conns)
			}
			return nil
		},
	}
	st, setupS, err := setUp(ctx, ctrl, wd, w, o.reps, o.wrap, each)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	defer st.close()

	// The request streams come from the seed alone.
	secs := float64(o.seconds)
	openFrac, closedFrac := openShare, closedShare
	if o.trace {
		openFrac, closedFrac = traceHTTPOpen, traceHTTPShut
	}
	smp := newSampler(w, queries, o.seed)
	openQ := smp.take(int(math.Ceil(w.rate * openFrac * secs)))
	closedQ := smp.take(int(math.Ceil(closedStream * closedFrac * secs)))
	replayQ := smp.take(20000)
	warmQ := queries
	if !w.warm {
		warmQ = closedQ[len(closedQ)-2*conns:]
	}
	check := liveCheck(st.pipe.Config.K)
	if refs != nil {
		check = exactCheck(refs)
	}

	warm := openLoop(load, st.base, warmQ, math.Inf(1), conns, check)
	warm.name = "warm"
	runtime.GC()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	heapMB := float64(mem.HeapInuse) / (1 << 20)

	// The untraced run alternates open-loop and closed-loop slices over
	// the whole measured time, so both phases sample the same stretch of
	// the host's speed, and qps_max is the median rate of the closed
	// slices: a burst or stall of a shared host then moves one slice, not
	// the run. The traced run keeps one slice of each, so its /stats
	// deltas split by phase.
	cycles := 1
	if !o.trace {
		cycles = max(1, int(math.Round(secs/cycleSeconds)))
	}
	slice := time.Duration(closedFrac * secs / float64(cycles) * float64(time.Second))
	s0, err := scrape(ctrl, st.base, w.router)
	if err != nil {
		return nil, err
	}
	wctx, wcancel := context.WithCancel(ctx)
	defer wcancel()
	wdone := make(chan []*write, 1)
	if w.writer {
		go func() { wdone <- runWriter(wctx, writes, st.base, muts, writeRate) }()
	}
	op, cp := &phase{name: "open"}, &phase{name: "closed"}
	var s1 snapshot
	var openSpans [][2]time.Time // due times of each open slice's first and last request
	var rates []float64          // completed correct searches per second of each closed slice
	for c := 0; c < cycles; c++ {
		part := openLoop(load, st.base, openQ[c*len(openQ)/cycles:(c+1)*len(openQ)/cycles], w.rate, conns, check)
		op.add(part)
		if n := len(part.searches); n > 0 {
			openSpans = append(openSpans, [2]time.Time{part.searches[0].due, part.searches[n-1].due})
		}
		if o.trace {
			if s1, err = scrape(ctrl, st.base, w.router); err != nil {
				return nil, err
			}
		}
		part = closedLoop(load, st.base, closedQ, cp.attempted(), slice, conns, check)
		cp.add(part)
		rates = append(rates, float64(part.attempted()-part.failed())/part.wall.Seconds())
	}
	s2, err := scrape(ctrl, st.base, w.router)
	if err != nil {
		return nil, err
	}
	ws, wsOpen := probe, probe
	if w.writer {
		wcancel()
		ws = <-wdone
		checkDeletes(append(append([]*search(nil), op.searches...), cp.searches...), ws)
		// The writer runs through both phases, but its latency is read
		// at the open loop's operating point, not under saturation:
		// from the writes due while an open slice ran (the first slice
		// from the writer's start).
		wsOpen = nil
		for _, x := range ws {
			for i, sp := range openSpans {
				if (i == 0 || !x.due.Before(sp[0])) && !x.due.After(sp[1]) {
					wsOpen = append(wsOpen, x)
					break
				}
			}
		}
	}

	phases := []*phase{warm, op, cp}
	res := &result{Correct: true, Metrics: map[string]metric{}}
	for _, p := range phases {
		res.Attempted += p.attempted()
		res.Failed += p.failed()
		fmt.Fprintf(log, "%s phase %-6s attempted %5d ok %5d failed %d %v wall %.2fs\n",
			w.name, p.name, p.attempted(), p.attempted()-p.failed(), p.failed(), p.classes(), p.wall.Seconds())
	}
	wfail := 0
	for _, x := range ws {
		if x.class != "" {
			wfail++
		}
	}
	res.Attempted += len(ws)
	res.Failed += wfail
	fmt.Fprintf(log, "%s writes attempted %d failed %d\n", w.name, len(ws), wfail)

	put := func(name string, v float64) { res.Metrics[name] = metric{Value: v, Unit: units[name]} }
	if !o.trace {
		lat := op.latencies()
		wl := writeLatencies(wsOpen)
		put("setup_s", setupS)
		put("search_p50_ms", finite(quantile(lat, 0.50)))
		put("search_p99_ms", finite(quantileOfParts(op.latencies(), 0.99, 3)))
		put("qps_max", median(rates))
		put("heap_mb", heapMB)
		put("write_p50_ms", finite(quantile(wl, 0.50)))
		put("write_p95_ms", finite(quantileOfParts(writeLatencies(wsOpen), 0.95, 5)))
		fmt.Fprintf(log, "%s open-loop samples %d at %.0f req/s (%d beyond the pooled p99 %.3f ms), lag p99 %.3f ms\n",
			w.name, len(lat), w.rate, len(lat)-int(math.Ceil(0.99*float64(len(lat)))), quantile(lat, 0.99), quantile(op.lags, 0.99))
		fmt.Fprintf(log, "%s closed-slice rates %.1f req/s\n", w.name, rates)
		if w.router {
			d := map[string]float64{}
			statsLayers(s0, s2, d)
			fmt.Fprintf(log, "%s router attempts/req %.3f hedges %.0f retries %.0f extra denied %.0f\n",
				w.name, d["router.attempts_per_req"], d["router.hedges"], d["router.retries"], d["router.extra_denied"])
		}
	} else {
		layers := map[string]float64{}
		statsLayers(s0, s2, layers)
		layers["loadgen.lag_p99_ms"] = quantile(op.lags, 0.99)
		// The client's mean round trip from send minus the server's mean
		// handler time over the same requests: the /stats histogram's
		// buckets are too coarse to subtract percentiles.
		var sent float64
		for _, s := range op.searches {
			sent += ms(s.done.Sub(s.sent))
		}
		layers["server.http_overhead_ms"] = sent/float64(len(op.searches)) - searchMeanMs(s0, s1)
		tr, err := traceReplay(st, w, o, warmQ, replayQ, check, muts[probeOps:], secs*(1-openFrac-closedFrac), log)
		if err != nil {
			return nil, err
		}
		res.Attempted += tr.attempted
		res.Failed += tr.failed
		for name, v := range tr.metrics {
			layers[name] = v
		}
		for name, v := range layers {
			put(name, v)
		}
	}
	res.Correct = res.Failed == 0
	return res, nil
}

// quantileOfParts is the median of the q-quantiles of parts equal
// consecutive parts of lat, which is in send order. A phase holds enough
// samples for ten beyond its pooled quantile; a burst of host noise (a
// few hundred milliseconds on a shared box) then sets the pooled tail of
// the whole run, while the median of the parts keeps it to the part it
// fell in.
func quantileOfParts(lat []float64, q float64, parts int) float64 {
	n := len(lat) / parts
	if n == 0 {
		return quantile(lat, q)
	}
	qs := make([]float64, parts)
	for i := range qs {
		end := (i + 1) * n
		if i == parts-1 {
			end = len(lat)
		}
		qs[i] = quantile(lat[i*n:end], q)
	}
	return median(qs)
}

// finite maps the +Inf latency of a failed request to the largest float
// JSON can carry; such a run is reported incorrect anyway.
func finite(v float64) float64 {
	if math.IsInf(v, 1) {
		return math.MaxFloat64
	}
	return v
}

// traceOutcome is what the traced replay contributes to a run.
type traceOutcome struct {
	attempted, failed int
	metrics           map[string]float64
}

// traceReplay replays queries in-process twice over, in alternating
// chunks: through a replayer whose tracer is off and one whose tracer
// records a span per layer call. Each has its own artifact cache of the
// workload's size, warmed like the served one, so both see the same hit
// pattern. The time ratio of the two is the tracing overhead. On
// live-mixed a writer applies the mutation stream to the engine at the
// workload's rate meanwhile, as root spans of their own.
func traceReplay(st *stack, w workload, o options, warm, queries []string, check func(*search) error, muts []mutation, budget float64, log io.Writer) (*traceOutcome, error) {
	plain := newReplayer(st.pipe, w, &tracer{})
	tr := &tracer{on: true, t0: time.Now()}
	traced := newReplayer(st.pipe, w, tr)
	out := &traceOutcome{metrics: map[string]float64{}}
	verify := func(q string, ids []string, err error) {
		out.attempted++
		if err != nil || check(&search{query: q, ids: ids}) != nil {
			out.failed++
		}
	}
	// Warm both caches the way the served cache was warmed. The traced
	// replayer traces its warm-up like the rest of the stream: on a warm
	// workload that is where the miss path (Algorithm 1, the aspect
	// retrieval and its surrogates) runs, once per distinct query.
	var reqID int32
	if w.warm {
		for _, q := range warm {
			ids, err := plain.request(0, q)
			verify(q, ids, err)
			reqID++
			ids, err = traced.request(reqID, q)
			verify(q, ids, err)
		}
	}

	stop := make(chan struct{})
	done := make(chan error, 1)
	if w.writer {
		go func() {
			start := time.Now()
			for i, m := range muts {
				due := start.Add(time.Duration(float64(i) / writeRate * float64(time.Second)))
				select {
				case <-stop:
					done <- nil
					return
				case <-time.After(time.Until(due)):
				}
				if err := mutate(st.pipe.Engine, tr, int32(-1-i), m); err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}()
	} else {
		done <- nil
	}

	const chunk = 16
	var plainT, tracedT time.Duration
	deadline := time.Now().Add(time.Duration(budget * float64(time.Second)))
	for c := 0; (c+1)*chunk <= len(queries) && time.Now().Before(deadline); c++ {
		part := queries[c*chunk : (c+1)*chunk]
		runPlain := func() {
			began := time.Now()
			for _, q := range part {
				ids, err := plain.request(0, q)
				verify(q, ids, err)
			}
			plainT += time.Since(began)
		}
		runTraced := func() {
			began := time.Now()
			for _, q := range part {
				reqID++
				ids, err := traced.request(reqID, q)
				verify(q, ids, err)
			}
			tracedT += time.Since(began)
		}
		// Alternate which side goes first: the second pass over a chunk
		// finds its data in the CPU caches.
		if c%2 == 0 {
			runPlain()
			runTraced()
		} else {
			runTraced()
			runPlain()
		}
	}
	close(stop)
	if err := <-done; err != nil {
		return nil, fmt.Errorf("traced writer: %w", err)
	}
	if !w.writer {
		// Once the replay is done, the read-only workloads put the
		// writer's mix through the engine too, so the live-mutation
		// layer has per-call times on every workload.
		for i, m := range muts[:probeOps] {
			if err := mutate(st.pipe.Engine, tr, int32(-1-i), m); err != nil {
				return nil, fmt.Errorf("traced mutations: %w", err)
			}
		}
	}

	tr.mu.Lock()
	spans := append([]span(nil), tr.spans...)
	tr.mu.Unlock()
	rows, requests, coverage := selfTimes(spans)
	overhead := ratio(tracedT.Seconds(), plainT.Seconds())
	writeTable(log, w, rows, requests, coverage, overhead)
	if err := dumpTrace(filepath.Join(o.out, "trace"), w, o.seed, spans, rows, requests, coverage, overhead); err != nil {
		return nil, fmt.Errorf("trace dump: %w", err)
	}

	m := out.metrics
	perReq := map[string]float64{}
	perCall := map[string]float64{}
	for _, r := range rows {
		perReq[r.name] = r.perReqMs
		perCall[r.name] = ratio(r.totalMs, float64(r.calls))
	}
	n := float64(traced.requests)
	m["server.encode_ms"] = perReq["server.encode"]
	m["facade.builds_per_req"] = ratio(float64(traced.builds), n)
	m["suggest.detect_ms"] = perReq["suggest.detect"]
	m["suggest.specs_per_query"] = ratio(float64(traced.specsDetected), float64(traced.detects))
	m["engine.search_rq_ms"] = perReq["engine.search_rq"]
	m["engine.search_rqp_ms"] = perReq["engine.search_rqp"]
	m["engine.results_per_req"] = ratio(float64(traced.cands), n)
	m["engine.surrogate_ms"] = perReq["engine.surrogate"]
	m["engine.surrogate_rqp_ms"] = perReq["engine.surrogate_rqp"]
	m["core.utility_ms"] = perReq["core.utility"]
	m["core.select_ms"] = perReq["core.select"]
	m["core.candidates"] = ratio(float64(traced.cands), n)
	m["core.specs"] = ratio(float64(traced.specsUsed), n)
	m["engine.ingest_ms"] = perCall["engine.ingest"]
	m["engine.delete_ms"] = perCall["engine.delete"]
	m["engine.flush_ms"] = perCall["engine.flush"]
	m["engine.compact_ms"] = perCall["engine.compact"]
	m["router.scatter_ms"] = perReq["router.scatter"]
	if traced.remote {
		m["router.wire_overhead_ms"] = perReq["router.scatter"] - perReq["engine.search_rq"]
	} else {
		m["router.wire_overhead_ms"] = 0
	}
	m["trace.coverage"] = coverage
	m["trace.overhead_ratio"] = overhead
	return out, nil
}
