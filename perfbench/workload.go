package main

import (
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/synth"
)

// workload is one traffic mix of the benchmark. Everything that shapes
// the load is a constant here: the world, the query sampler, the
// open-loop arrival rate (about half of the qps_max measured for the
// workload on the 2-core reference box, never derived from the current
// run) and the writer.
type workload struct {
	name string
	// why the workload exists, and which layers it stresses and bypasses;
	// printed with the per-layer table of a traced run.
	why      string
	stresses []string
	bypasses []string

	topics      int     // ambiguous topics in the synthetic world
	cacheCap    int     // artifact cache entries
	cacheShards int     // artifact cache shards
	zipfS       float64 // Zipf exponent over /queries; 0 samples uniformly
	rate        float64 // open-loop arrivals per second
	warm        bool    // request every distinct query once before timing
	writer      bool    // one writer at writeRate mutations/s during both phases
	router      bool    // serve through internal/router over two shard workers
}

// writeRate is the fixed mutation rate of the live-mixed writer and of
// the write probe the read-only workloads run after their read phases.
const writeRate = 20.0

var workloads = []workload{
	{
		name:        "head-warm",
		why:         "default serve world, Zipf head traffic on a warmed artifact cache: nearly every request is a hit, so a request is R_q retrieval with snippets plus candidate surrogates",
		stresses:    []string{"internal/server", "internal/engine (R_q retrieval + snippets, surrogates)", "internal/index", "internal/core"},
		bypasses:    []string{"internal/suggest (Algorithm 1)", "internal/engine (R_q' retrieval)", "internal/router", "internal/engine (live mutations)"},
		topics:      12,
		cacheCap:    1024,
		cacheShards: 16,
		zipfS:       1.1,
		rate:        40,
		warm:        true,
	},
	{
		name:        "tail-cold",
		why:         "50-topic world, uniform traffic over 250 queries, 8-entry cache: ambiguous misses pay Algorithm 1, batched R_q' retrieval and aspect surrogates",
		stresses:    []string{"internal/cache (misses, evictions)", "internal/suggest (Algorithm 1)", "internal/engine (R_q' retrieval, aspect surrogates)", "internal/server (HTTP + JSON of cheap noise queries)"},
		bypasses:    []string{"internal/router", "internal/engine (live mutations)"},
		topics:      50,
		cacheCap:    8,
		cacheShards: 1,
		rate:        160,
	},
	{
		name:        "live-mixed",
		why:         "head-warm reads plus one writer at 20 mutations/s: every mutation bumps the epoch, so cached artifacts die, searches cross memtable views and compaction stalls the tail",
		stresses:    []string{"internal/engine (ingest, delete, flush, compact, memtable views)", "internal/cache (epoch invalidation)", "internal/suggest", "internal/server (mutation endpoints)"},
		bypasses:    []string{"internal/router", "internal/exec (fused plan never runs on a non-quiescent index)"},
		topics:      12,
		cacheCap:    1024,
		cacheShards: 16,
		zipfS:       1.1,
		rate:        35,
		warm:        true,
		writer:      true,
	},
	{
		name:        "router-2shard",
		why:         "head-warm served through internal/router over two in-process shard workers: scatter, JSON wire encode/decode of R_q with snippets, and merge",
		stresses:    []string{"internal/router (scatter, wire, merge)", "internal/engine (per-shard retrieval in the workers)", "internal/server"},
		bypasses:    []string{"internal/suggest (warm cache)", "internal/engine (live mutations)", "internal/exec (fused plan is local only)"},
		topics:      12,
		cacheCap:    1024,
		cacheShards: 16,
		zipfS:       1.1,
		rate:        35,
		warm:        true,
		router:      true,
	},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// zipfBlock is how many requests one block of a Zipf workload holds.
const zipfBlock = 100

// sampler deals queries from the world's /queries list in blocks whose
// make-up follows the workload's popularity distribution exactly
// (largest-remainder rounding of block size × P(query)); the seed
// shuffles each block. Every seed therefore sends the same query mix in
// another order, so the spread between runs comes from the system and
// not from sampling noise in the mix.
type sampler struct {
	block []string
	rng   *rand.Rand
	deck  []string
}

func newSampler(w workload, queries []string, seed int64) *sampler {
	n := len(queries)
	probs := make([]float64, n)
	size := n // uniform: every query once per block
	if w.zipfS > 0 {
		z := synth.NewZipf(n, w.zipfS)
		for i := range probs {
			probs[i] = z.Prob(i)
		}
		size = zipfBlock
	} else {
		for i := range probs {
			probs[i] = 1 / float64(n)
		}
	}
	counts := make([]int, n)
	rems := make([]int, n)
	left := size
	for i, p := range probs {
		counts[i] = int(p * float64(size))
		left -= counts[i]
		rems[i] = i
	}
	frac := func(i int) float64 { return probs[i]*float64(size) - float64(counts[i]) }
	sort.SliceStable(rems, func(a, b int) bool { return frac(rems[a]) > frac(rems[b]) })
	for _, i := range rems[:left] {
		counts[i]++
	}
	s := &sampler{rng: rand.New(rand.NewSource(seed))}
	for i, c := range counts {
		for ; c > 0; c-- {
			s.block = append(s.block, queries[i])
		}
	}
	return s
}

func (s *sampler) next() string {
	if len(s.deck) == 0 {
		s.deck = append(s.deck[:0], s.block...)
		s.rng.Shuffle(len(s.deck), func(i, j int) { s.deck[i], s.deck[j] = s.deck[j], s.deck[i] })
	}
	q := s.deck[0]
	s.deck = s.deck[1:]
	return q
}

func (s *sampler) take(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = s.next()
	}
	return out
}

// mutation is one operation of the writer's stream.
type mutation struct {
	kind  string // ingest | delete | flush | compact
	id    string
	title string
	body  string
}

// mutationStream follows cmd/loadgen -ingest's mix: ingests (every 4th
// one an update of an earlier document), a delete of an earlier document
// every 7th operation, and a flush or compaction every 25th.
func mutationStream(seed int64, n int) []mutation {
	rng := rand.New(rand.NewSource(seed + 42))
	out := make([]mutation, n)
	for i := range out {
		switch {
		case i%25 == 24 && i%2 == 0:
			out[i] = mutation{kind: "flush"}
		case i%25 == 24:
			out[i] = mutation{kind: "compact"}
		case i%7 == 6 && i > 0:
			out[i] = mutation{kind: "delete", id: fmt.Sprintf("live-%d", rng.Intn(i))}
		default:
			id := fmt.Sprintf("live-%d", i)
			if i%4 == 3 && i > 4 {
				id = fmt.Sprintf("live-%d", rng.Intn(i))
			}
			out[i] = mutation{
				kind:  "ingest",
				id:    id,
				title: fmt.Sprintf("live document %d", i),
				body:  synth.NoiseQuery(i) + " streamed content revision",
			}
		}
	}
	return out
}
