package main

import (
	"fmt"
	"strings"
	"sync"

	"repro"
	"repro/internal/core"
	"repro/internal/text"
)

// references computes the reference SERP (doc IDs) of every distinct
// query with Pipeline.Diversify, the repo's sequential reference path,
// on a pipeline of its own. Responses of the read-only workloads must
// match these byte for byte.
func references(pipe *repro.Pipeline, queries []string, workers int) map[string][]string {
	distinct := map[string]bool{}
	var todo []string
	for _, q := range queries {
		if !distinct[q] {
			distinct[q] = true
			todo = append(todo, q)
		}
	}
	refs := make(map[string][]string, len(todo))
	var mu sync.Mutex
	var wg sync.WaitGroup
	next := make(chan string, len(todo))
	for _, q := range todo {
		next <- q
	}
	close(next)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for q := range next {
				sel, _ := pipe.Diversify(text.NormalizeQuery(q), core.AlgOptSelect)
				ids := core.IDs(sel)
				mu.Lock()
				refs[q] = ids
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return refs
}

// exactCheck requires a response to equal its query's reference SERP.
func exactCheck(refs map[string][]string) func(*search) error {
	return func(s *search) error {
		want, ok := refs[s.query]
		if !ok {
			return fmt.Errorf("no reference for %q", s.query)
		}
		if strings.Join(want, "\x00") != strings.Join(s.ids, "\x00") {
			return fmt.Errorf("%q: got %v, want %v", s.query, s.ids, want)
		}
		return nil
	}
}

// liveCheck is the per-response half of the live-mixed gate: at most k
// results, all distinct.
func liveCheck(k int) func(*search) error {
	return func(s *search) error {
		if len(s.ids) > k {
			return fmt.Errorf("%q: %d results, k=%d", s.query, len(s.ids), k)
		}
		seen := make(map[string]bool, len(s.ids))
		for _, id := range s.ids {
			if seen[id] {
				return fmt.Errorf("%q: duplicate result %s", s.query, id)
			}
			seen[id] = true
		}
		return nil
	}
}

// checkDeletes is the history half of the live-mixed gate: no response
// may contain a document whose delete was acknowledged before the search
// was due, unless the writer re-ingested that document after the delete
// and before the response arrived. Violating searches are marked
// "wrong"; the count is returned.
func checkDeletes(searches []*search, writes []*write) int {
	byID := map[string][]*write{}
	for _, w := range writes {
		if w.id != "" && w.class == "" {
			byID[w.id] = append(byID[w.id], w)
		}
	}
	bad := 0
	for _, s := range searches {
		if s.class != "" {
			continue
		}
		for _, id := range s.ids {
			if deletedAt(byID[id], s) {
				s.class = "wrong"
				bad++
				break
			}
		}
	}
	return bad
}

// deletedAt reports whether the document with history ops (in writer
// order) must be absent from search s.
func deletedAt(ops []*write, s *search) bool {
	gone := false
	for _, w := range ops {
		switch {
		case w.kind == "delete" && w.ack.Before(s.due):
			gone = true
		case w.kind == "ingest" && w.sent.Before(s.done):
			gone = false
		}
	}
	return gone
}
