package main

import (
	"fmt"
	"net/http"
	"time"

	"repro/internal/router"
	"repro/internal/server"
)

// snapshot is one scrape of the front end's /stats.
type snapshot struct {
	at      time.Time
	serving server.StatsResponse
	shards  []router.PoolStats // router topology only
	tail    router.TailStats   // router topology only
}

func scrape(client *http.Client, base string, isRouter bool) (snapshot, error) {
	snap := snapshot{at: time.Now()}
	var code int
	var err error
	if isRouter {
		var rs router.RouterStats
		code, err = getJSON(client, base+"/stats", &rs)
		if rs.Serving != nil {
			snap.serving = *rs.Serving
		}
		snap.shards, snap.tail = rs.Shards, rs.Tail
	} else {
		code, err = getJSON(client, base+"/stats", &snap.serving)
	}
	if err == nil && code != http.StatusOK {
		err = fmt.Errorf("status %d", code)
	}
	if err != nil {
		return snap, fmt.Errorf("GET /stats: %w", err)
	}
	return snap, nil
}

// attempts is the total scatter attempts sent to every replica.
func (s snapshot) attempts() int64 {
	var n int64
	for _, p := range s.shards {
		for _, r := range p.Replicas {
			n += r.Requests
		}
	}
	return n
}

// searchMeanMs is the mean time the server spent in its /search
// handler between two snapshots (the histogram's exact sum, not its
// coarse buckets).
func searchMeanMs(a, b snapshot) float64 {
	la, lb := a.serving.Latency["/search"], b.serving.Latency["/search"]
	return ratio(lb.AvgMs*float64(lb.Count)-la.AvgMs*float64(la.Count), float64(lb.Count-la.Count))
}

// ratio is num/den, or 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// statsLayers turns the /stats deltas between two snapshots into the
// per-request layer counters.
func statsLayers(a, b snapshot, m map[string]float64) {
	sa, sb := a.serving, b.serving
	reqs := float64(sb.Searches - sa.Searches)
	hits := float64(sb.Cache.Hits - sa.Cache.Hits)
	misses := float64(sb.Cache.Misses - sa.Cache.Misses)
	decoded := float64(sb.Index.BlocksDecoded - sa.Index.BlocksDecoded)
	skipped := float64(sb.Index.BlocksSkipped - sa.Index.BlocksSkipped)
	fused := float64(sb.Fused.FusedQueries - sa.Fused.FusedQueries)
	staged := float64(sb.Fused.StagedQueries - sa.Fused.StagedQueries)

	m["server.rejected"] = float64(sb.Rejected - sa.Rejected)
	m["cache.hit_ratio"] = ratio(hits, hits+misses)
	m["cache.evictions_per_req"] = ratio(float64(sb.Cache.Evictions-sa.Cache.Evictions), reqs)
	m["suggest.ambiguous_ratio"] = ratio(float64(sb.Ambiguous-sa.Ambiguous), reqs)
	m["index.blocks_decoded_per_req"] = ratio(decoded, reqs)
	m["index.block_skip_ratio"] = ratio(skipped, decoded+skipped)
	m["exec.fused_ratio"] = ratio(fused, fused+staged)
	m["engine.epochs_per_s"] = ratio(float64(sb.Live.Epoch-sa.Live.Epoch), b.at.Sub(a.at).Seconds())
	m["engine.segments"] = float64(sb.Live.Segments)
	m["router.attempts_per_req"] = ratio(float64(b.attempts()-a.attempts()), reqs)
	m["router.hedges"] = float64(b.tail.Hedges - a.tail.Hedges)
	m["router.retries"] = float64(b.tail.Retries - a.tail.Retries)
	m["router.extra_denied"] = float64(b.tail.ExtraDenied - a.tail.ExtraDenied)
}
