package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"time"

	"repro"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/exec"
	"repro/internal/server"
	"repro/internal/suggest"
	"repro/internal/text"
)

// span is one timed call into a layer. Spans of one request share Req;
// a layer span's Parent is its request's root span.
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"` // 0 for a root
	Req    int32  `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory; a disabled tracer records nothing.
type tracer struct {
	on    bool
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func (t *tracer) begin(req, parent int32, name string) int32 {
	if !t.on {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	id := int32(len(t.spans) + 1)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: req, Name: name, Start: now})
	t.mu.Unlock()
	return id
}

func (t *tracer) end(id int32) {
	if !t.on {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// artifacts mirrors what the serving cache keeps per normalized query.
type artifacts struct {
	specs []suggest.Specialization
	lists []core.Specialization
}

// replayer answers requests in-process by calling each layer's public
// entry point in the staged plan's serving order, with a span around
// every call: normalize, artifact cache, Algorithm 1 and the batched
// aspect retrieval on a miss, R_q retrieval, surrogates, utilities,
// selection, JSON encode. On a miss the server overlaps the R_q
// retrieval with the artifact build; the replay runs them in sequence.
type replayer struct {
	pipe   *repro.Pipeline
	search repro.Searcher
	cache  *cache.Cache[*artifacts]
	tr     *tracer
	remote bool // R_q goes through the router; compare against the local engine

	requests, builds, detects       int
	specsDetected, specsUsed, cands int
}

func newReplayer(pipe *repro.Pipeline, w workload, tr *tracer) *replayer {
	r := &replayer{pipe: pipe, search: pipe.Engine, cache: cache.New[*artifacts](w.cacheCap, w.cacheShards), tr: tr}
	if pipe.Searcher != nil {
		r.search, r.remote = pipe.Searcher, true
	}
	return r
}

func (r *replayer) layer(req, parent int32, name string, f func()) {
	id := r.tr.begin(req, parent, name)
	f()
	r.tr.end(id)
}

// request answers one query and returns the SERP's doc IDs.
func (r *replayer) request(req int32, q string) ([]string, error) {
	root := r.tr.begin(req, 0, "request")
	ids, norm, err := r.serve(req, root, q)
	r.tr.end(root)
	if err != nil || !r.remote {
		return ids, err
	}
	// The same R_q retrieval against the router's own local engine,
	// outside the request: the difference is the wire's cost.
	cmp := r.tr.begin(req, 0, "compare")
	r.layer(req, cmp, "engine.search_rq", func() {
		_, err = r.pipe.Engine.SearchBatch(context.Background(), []string{norm}, []int{r.pipe.Config.NumCandidates})
	})
	r.tr.end(cmp)
	return ids, err
}

// serve runs the layers of one request under the root span.
func (r *replayer) serve(req, root int32, q string) ([]string, string, error) {
	ctx := context.Background()
	p := r.pipe
	var norm string
	r.layer(req, root, "normalize", func() { norm = text.NormalizeQuery(q) })
	key := strconv.FormatUint(p.Engine.Epoch(), 10) + "\x00" + norm
	var art *artifacts
	var hit bool
	r.layer(req, root, "cache.get", func() { art, hit = r.cache.Get(key) })
	var err error
	if !hit {
		art = &artifacts{}
		r.layer(req, root, "suggest.detect", func() { art.specs = p.DetectSpecializations(norm) })
		r.builds++
		r.detects++
		r.specsDetected += len(art.specs)
		if len(art.specs) > 0 {
			queries := make([]string, len(art.specs))
			ks := make([]int, len(art.specs))
			for i, s := range art.specs {
				queries[i], ks[i] = s.Query, p.Config.PerSpec
			}
			var lists [][]engine.Result
			name := "engine.search_rqp"
			if r.remote {
				name = "router.scatter_rqp"
			}
			r.layer(req, root, name, func() { lists, err = r.search.SearchBatch(ctx, queries, ks) })
			if err != nil {
				return nil, norm, err
			}
			r.layer(req, root, "engine.surrogate_rqp", func() { art.lists = r.specLists(art.specs, lists) })
		}
		r.layer(req, root, "cache.put", func() { r.cache.Put(key, art) })
	}
	var results []engine.Result
	name := "engine.search_rq"
	if r.remote {
		name = "router.scatter"
	}
	r.layer(req, root, name, func() {
		var lists [][]engine.Result
		lists, err = r.search.SearchBatch(ctx, []string{norm}, []int{p.Config.NumCandidates})
		if err == nil {
			results = lists[0]
		}
	})
	if err != nil {
		return nil, norm, err
	}
	var cands []core.Doc
	r.layer(req, root, "engine.surrogate", func() { cands = r.candidates(results) })
	problem := &core.Problem{
		Query:      norm,
		Candidates: cands,
		Specs:      art.lists,
		K:          p.Config.K,
		Lambda:     p.Config.Lambda,
		Threshold:  p.Config.Threshold,
		Lex:        p.Engine.Lexicon(),
	}
	var sel []core.Selected
	if len(art.specs) == 0 {
		r.layer(req, root, "core.select", func() { sel = core.Baseline(problem) })
	} else {
		var u *core.Utilities
		r.layer(req, root, "core.utility", func() { u = core.ComputeUtilities(problem) })
		r.layer(req, root, "core.select", func() { sel = core.OptSelect(problem, u) })
	}
	r.layer(req, root, "server.encode", func() {
		resp := server.SearchResponse{
			Query: q, NormalizedQuery: norm, Algorithm: string(core.AlgOptSelect), K: p.Config.K,
			Ambiguous: len(art.specs) > 0, CacheHit: hit, Results: make([]server.SearchResult, len(sel)),
		}
		for _, sp := range art.specs {
			resp.Specializations = append(resp.Specializations, server.SpecializationInfo{Query: sp.Query, Prob: sp.Prob})
		}
		for i, s := range sel {
			resp.Results[i] = server.SearchResult{ID: s.ID, Rank: s.Rank, Score: s.Score, Rel: s.Rel}
		}
		_, err = json.Marshal(resp)
	})
	if err != nil {
		return nil, norm, err
	}
	r.requests++
	r.specsUsed += len(art.lists)
	r.cands += len(cands)
	return core.IDs(sel), norm, nil
}

// candidates converts R_q into diversification candidates exactly as the
// facade does: relevance normalized by exec.RelNormalizer, surrogates
// interned from the snippets.
func (r *replayer) candidates(results []engine.Result) []core.Doc {
	out := make([]core.Doc, len(results))
	var rn exec.RelNormalizer
	for i := range results {
		rn.Observe(results[i].Score)
	}
	for i, res := range results {
		out[i] = core.Doc{ID: res.DocID, Rank: res.Rank, Rel: rn.Rel(res.Score), IVec: r.pipe.Engine.IVectorOfText(res.Snippet)}
	}
	return out
}

// specLists converts the aspect retrievals into R_q' surrogate lists.
func (r *replayer) specLists(specs []suggest.Specialization, lists [][]engine.Result) []core.Specialization {
	out := make([]core.Specialization, len(specs))
	for i, s := range specs {
		rs := make([]core.SpecResult, len(lists[i]))
		for j, res := range lists[i] {
			rs[j] = core.SpecResult{ID: res.DocID, Rank: res.Rank, IVec: r.pipe.Engine.IVectorOfText(res.Snippet)}
		}
		out[i] = core.Specialization{Query: s.Query, Prob: s.Prob, Results: rs}
	}
	return out
}

// mutate applies one writer operation to the engine directly, as a root
// span of its own.
func mutate(eng *engine.Engine, tr *tracer, req int32, m mutation) error {
	id := tr.begin(req, 0, "engine."+m.kind)
	defer tr.end(id)
	var err error
	switch m.kind {
	case "ingest":
		_, err = eng.Ingest(engine.Document{ID: m.id, Title: m.title, Body: m.body})
	case "delete":
		eng.Delete(m.id)
	case "flush":
		_, err = eng.Flush()
	case "compact":
		_, err = eng.Compact()
	}
	return err
}

// layerRow is one line of the per-layer self-time table.
type layerRow struct {
	name     string
	calls    int
	p50Ms    float64 // median self time per call
	totalMs  float64 // summed self time
	perReqMs float64 // summed self time per traced request
	share    float64 // of all request root time (request layers only)
}

// selfTimes reduces spans to per-layer self time: a span's duration
// minus the part covered by its child spans. It also returns the
// request count and trace coverage: the mean share of each request root
// span covered by its layer spans.
func selfTimes(spans []span) (rows []layerRow, requests int, coverage float64) {
	childSum := map[int32]int64{}
	for _, s := range spans {
		if s.Parent != 0 {
			childSum[s.Parent] += s.dur()
		}
	}
	self := map[string][]float64{}
	inRequest := map[string]bool{}
	isRequest := map[int32]bool{}
	var rootTotal float64
	for _, s := range spans {
		if s.Parent == 0 && s.Name == "request" {
			isRequest[s.ID] = true
			requests++
			rootTotal += float64(s.dur()) / 1e6
			if d := s.dur(); d > 0 {
				coverage += float64(childSum[s.ID]) / float64(d)
			}
		}
	}
	for _, s := range spans {
		name := s.Name
		if name == "request" {
			name = "request (unattributed)"
		}
		self[name] = append(self[name], float64(s.dur()-childSum[s.ID])/1e6)
		if isRequest[s.Parent] || s.Name == "request" {
			inRequest[name] = true
		}
	}
	if requests > 0 {
		coverage /= float64(requests)
	}
	for name, xs := range self {
		if name == "compare" {
			continue
		}
		row := layerRow{name: name, calls: len(xs), p50Ms: median(xs)}
		for _, x := range xs {
			row.totalMs += x
		}
		if requests > 0 {
			row.perReqMs = row.totalMs / float64(requests)
		}
		if inRequest[name] {
			row.share = ratio(row.totalMs, rootTotal)
		}
		rows = append(rows, row)
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].totalMs > rows[j].totalMs })
	return rows, requests, coverage
}

func writeTable(out io.Writer, w workload, rows []layerRow, requests int, coverage, overhead float64) {
	fmt.Fprintf(out, "workload %s: %s\n", w.name, w.why)
	fmt.Fprintf(out, "  stresses: %v\n  bypasses: %v\n", w.stresses, w.bypasses)
	fmt.Fprintf(out, "  traced requests %d, trace.coverage %.4f, trace.overhead_ratio %.4f\n", requests, coverage, overhead)
	fmt.Fprintf(out, "  %-26s %8s %12s %12s %12s %8s\n", "layer", "calls", "p50_self_ms", "total_ms", "ms_per_req", "share")
	for _, r := range rows {
		fmt.Fprintf(out, "  %-26s %8d %12.4f %12.2f %12.4f %7.1f%%\n", r.name, r.calls, r.p50Ms, r.totalMs, r.perReqMs, 100*r.share)
	}
}

// dumpTrace writes the spans and the per-layer table under dir.
func dumpTrace(dir string, w workload, seed int64, spans []span, rows []layerRow, requests int, coverage, overhead float64) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	stem := filepath.Join(dir, fmt.Sprintf("%s-seed%d", w.name, seed))
	buf, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	if err := os.WriteFile(stem+".spans.json", buf, 0o644); err != nil {
		return err
	}
	f, err := os.Create(stem + ".layers.txt")
	if err != nil {
		return err
	}
	writeTable(f, w, rows, requests, coverage, overhead)
	fmt.Fprintln(f, "\nmetric -> layer map (per-layer metric: end-to-end metric it should move, on which workload)")
	for _, l := range layerMap {
		fmt.Fprintf(f, "  %-28s %s\n", l[0], l[1])
	}
	return f.Close()
}

// layerMap records, before any measurement, which end-to-end metric each
// per-layer metric should move and on which workload.
var layerMap = [][2]string{
	{"server.encode_ms", "search_p50_ms on tail-cold; small elsewhere"},
	{"server.http_overhead_ms", "search_p50_ms on tail-cold; small elsewhere"},
	{"server.rejected", "any failure fails the run"},
	{"cache.hit_ratio", "search_p99_ms on tail-cold and live-mixed; ~1.0 on head-warm, no move"},
	{"cache.evictions_per_req", "search_p99_ms on tail-cold"},
	{"facade.builds_per_req", "search_p99_ms on tail-cold and live-mixed"},
	{"suggest.detect_ms", "search_p99_ms on tail-cold; none on head-warm"},
	{"suggest.ambiguous_ratio", "context for suggest.detect_ms"},
	{"suggest.specs_per_query", "context for engine.search_rqp_ms"},
	{"engine.search_rq_ms", "search_p50_ms and qps_max on head-warm"},
	{"engine.search_rqp_ms", "search_p99_ms on tail-cold"},
	{"engine.results_per_req", "context for engine.search_rq_ms"},
	{"engine.surrogate_ms", "search_p50_ms and qps_max on head-warm (forward-index item)"},
	{"engine.surrogate_rqp_ms", "search_p99_ms on tail-cold"},
	{"index.blocks_decoded_per_req", "qps_max on head-warm"},
	{"index.block_skip_ratio", "qps_max on head-warm"},
	{"core.utility_ms", "no visible move at serving defaults"},
	{"core.select_ms", "no visible move at serving defaults"},
	{"core.candidates", "context for core.utility_ms"},
	{"core.specs", "context for core.utility_ms"},
	{"exec.fused_ratio", "0 today; the one-plan item moves it on head-warm"},
	{"engine.ingest_ms", "write_p50_ms, write_p95_ms, search_p99_ms on live-mixed"},
	{"engine.delete_ms", "write_p50_ms, write_p95_ms on live-mixed"},
	{"engine.flush_ms", "write_p95_ms, search_p99_ms on live-mixed"},
	{"engine.compact_ms", "write_p95_ms, search_p99_ms on live-mixed"},
	{"engine.epochs_per_s", "search_p99_ms on live-mixed"},
	{"engine.segments", "search_p99_ms on live-mixed"},
	{"router.scatter_ms", "search_p50_ms and qps_max on router-2shard"},
	{"router.wire_overhead_ms", "search_p50_ms and qps_max on router-2shard"},
	{"router.attempts_per_req", "search_p50_ms on router-2shard"},
	{"router.hedges", "search_p99_ms on router-2shard"},
	{"router.retries", "search_p99_ms on router-2shard"},
	{"router.extra_denied", "search_p99_ms on router-2shard"},
	{"loadgen.lag_p99_ms", "none: checks the load generator"},
	{"trace.coverage", "none: checks the trace"},
	{"trace.overhead_ratio", "none: checks the trace"},
}
