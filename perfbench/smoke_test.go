package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/server"
)

// benchmarkSpec is the part of ../BENCHMARK.json the smoke test checks.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	buf, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(buf, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// tiny runs a workload on a three-topic world for one second.
func tiny(t *testing.T, workload string, trace bool, wrap func(http.Handler) http.Handler) *result {
	t.Helper()
	o := options{
		workload: workload, seed: 7, seconds: 1, trace: trace,
		out: t.TempDir(), reps: 3, sessions: 600, topics: 3, wrap: wrap,
	}
	res, err := run(o, io.Discard)
	if err != nil {
		t.Fatalf("%s trace=%v: %v", workload, trace, err)
	}
	return res
}

// TestEveryMetricEmitted runs every workload untraced and traced, and
// requires each metric BENCHMARK.json declares, with its declared unit.
func TestEveryMetricEmitted(t *testing.T) {
	spec := loadSpec(t)
	for _, wl := range spec.Workloads {
		if _, err := findWorkload(wl.Name); err != nil {
			t.Errorf("BENCHMARK.json: %v", err)
		}
	}
	for _, wl := range workloads {
		for _, trace := range []bool{false, true} {
			res := tiny(t, wl.name, trace, nil)
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", wl.name, trace, res.Correct, res.Attempted, res.Failed)
			}
			want := spec.EndToEnd
			if trace {
				want = spec.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics emitted, BENCHMARK.json declares %d", wl.name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: metric %s missing", wl.name, trace, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s trace=%v: metric %s unit %q, want %q", wl.name, trace, m.Name, got.Unit, m.Unit)
				case !trace && got.Value <= 0:
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", wl.name, m.Name, got.Value)
				}
			}
		}
	}
}

// corruptOnce rewrites the body of the first /search response with at
// least two results.
func corruptOnce(edit func(*server.SearchResponse)) func(http.Handler) http.Handler {
	var done atomic.Bool
	return func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path != "/search" || done.Load() {
				next.ServeHTTP(w, r)
				return
			}
			rec := httptest.NewRecorder()
			next.ServeHTTP(rec, r)
			var sr server.SearchResponse
			body := rec.Body.Bytes()
			if err := json.Unmarshal(body, &sr); err == nil && len(sr.Results) >= 2 && done.CompareAndSwap(false, true) {
				edit(&sr)
				var buf bytes.Buffer
				if err := json.NewEncoder(&buf).Encode(sr); err != nil {
					panic(err)
				}
				body = buf.Bytes()
			}
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(rec.Code)
			_, _ = w.Write(body)
		})
	}
}

// TestGateRejectsCorruptedResponse corrupts one response per gate and
// requires the run to be reported incorrect.
func TestGateRejectsCorruptedResponse(t *testing.T) {
	swap := func(sr *server.SearchResponse) {
		n := len(sr.Results)
		sr.Results[0], sr.Results[n-1] = sr.Results[n-1], sr.Results[0]
	}
	duplicate := func(sr *server.SearchResponse) {
		sr.Results[1] = sr.Results[0]
	}
	for _, c := range []struct {
		workload string
		edit     func(*server.SearchResponse)
	}{
		{"head-warm", swap},
		{"router-2shard", swap},
		{"live-mixed", duplicate},
	} {
		res := tiny(t, c.workload, false, corruptOnce(c.edit))
		if res.Correct || res.Failed != 1 {
			t.Errorf("%s: corrupted response passed the gate: correct=%v failed=%d", c.workload, res.Correct, res.Failed)
		}
	}
}

// TestDeleteGate checks the live-mixed history rule on hand-made logs.
func TestDeleteGate(t *testing.T) {
	at := func(ms int) time.Time { return time.Unix(0, 0).Add(time.Duration(ms) * time.Millisecond) }
	del := &write{mutation: mutation{kind: "delete", id: "live-1"}, sent: at(10), ack: at(11)}
	reingest := &write{mutation: mutation{kind: "ingest", id: "live-1"}, sent: at(20), ack: at(21)}
	cases := []struct {
		name   string
		writes []*write
		due    int
		done   int
		bad    int
	}{
		{"deleted before due", []*write{del}, 15, 18, 1},
		{"deleted after due", []*write{del}, 5, 18, 0},
		{"re-ingested before done", []*write{del, reingest}, 15, 25, 0},
		{"re-ingested after done", []*write{del, reingest}, 15, 19, 1},
	}
	for _, c := range cases {
		s := &search{query: "q", due: at(c.due), done: at(c.done), ids: []string{"doc-1", "live-1"}}
		if got := checkDeletes([]*search{s}, c.writes); got != c.bad {
			t.Errorf("%s: %d violations, want %d", c.name, got, c.bad)
		}
	}
}
