package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sync"
	"time"

	"repro"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/router"
	"repro/internal/server"
	"repro/internal/synth"
)

// world describes the deterministic synthetic world of a workload, with
// the cmd/serve and cmd/router flag defaults for everything else.
type world struct {
	seed     int64
	topics   int
	sessions int
}

// config is the repro.Config cmd/serve builds from its default flags.
func (wd world) config() repro.Config {
	return repro.Config{
		Corpus:        synth.CorpusSpec{Seed: wd.seed, NumTopics: wd.topics},
		Log:           synth.AOLLike(wd.seed+1, wd.sessions),
		NumCandidates: 500,
		PerSpec:       20,
		K:             10,
		Threshold:     0.30,
	}
}

// serverConfig is the server.Config of cmd/serve and cmd/router with
// default flags.
func serverConfig() server.Config {
	return server.Config{
		Workers:      8,
		QueueTimeout: 5 * time.Second,
		DefaultAlg:   core.AlgOptSelect,
		MaxK:         100,
	}
}

// stack is one running serving topology on loopback listeners.
type stack struct {
	base     string // URL of the /search front end
	pipe     *repro.Pipeline
	searcher *router.Searcher // router topology only
	servers  []*http.Server
	wg       sync.WaitGroup
}

// listen serves h on a fresh loopback port with cmd/serve's default
// http.Server timeouts and returns its base URL.
func (s *stack) listen(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", fmt.Errorf("listen: %w", err)
	}
	srv := &http.Server{
		Handler:           h,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      60 * time.Second,
		IdleTimeout:       120 * time.Second,
	}
	s.servers = append(s.servers, srv)
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		_ = srv.Serve(ln) // returns http.ErrServerClosed on close
	}()
	return "http://" + ln.Addr().String(), nil
}

// startServe brings up the single-process topology the way cmd/serve
// does: the listener binds first, then repro.Build, NewServeHandle and
// Publish. wrap, when non-nil, wraps the served handler.
func startServe(wd world, w workload, wrap func(http.Handler) http.Handler) (*stack, error) {
	s := &stack{}
	srv := server.New(nil, serverConfig())
	var h http.Handler = srv.Handler()
	if wrap != nil {
		h = wrap(h)
	}
	base, err := s.listen(h)
	if err != nil {
		return nil, err
	}
	s.base = base
	pipe, err := repro.Build(wd.config())
	if err != nil {
		s.close()
		return nil, err
	}
	s.pipe = pipe
	srv.Publish(pipe.NewServeHandle(w.cacheCap, w.cacheShards))
	return s, nil
}

// startRouter brings up the distributed topology in one process the way
// cmd/serve -worker -shards 2 (twice) and cmd/router with two -shard
// pools do: both workers bind and build concurrently, the router starts
// probing, builds its own pipeline and publishes it.
func startRouter(wd world, w workload, wrap func(http.Handler) http.Handler) (*stack, error) {
	const shards = 2
	s := &stack{}
	cfg := wd.config()
	cfg.Engine = engine.Config{Shards: shards}

	var specs [][]router.ReplicaSpec
	workers := make([]*router.Worker, shards)
	for i := range workers {
		workers[i] = router.NewWorker(nil)
		url, err := s.listen(workers[i].Handler())
		if err != nil {
			s.close()
			return nil, err
		}
		specs = append(specs, []router.ReplicaSpec{{URL: url, Weight: 1}})
	}
	buildErr := make(chan error, shards)
	for _, wk := range workers {
		go func(wk *router.Worker) {
			tb := synth.GenerateTestbed(cfg.Corpus)
			eng, err := engine.Build(tb.Docs, cfg.Engine)
			if err == nil {
				wk.Publish(eng)
			}
			buildErr <- err
		}(wk)
	}

	searcher, err := router.NewSearcher(router.Config{
		Shards:          specs,
		AttemptTimeout:  2 * time.Second,
		HedgeQuantile:   0.95,
		ExtraRatio:      0.2,
		ExtraBurst:      10,
		ScatterFraction: 0.65,
		FailThreshold:   3,
		CooldownBase:    500 * time.Millisecond,
		CooldownMax:     30 * time.Second,
		CooldownJitter:  0.2,
		ProbeInterval:   time.Second,
		ProbeTimeout:    time.Second,
	})
	if err != nil {
		s.close()
		return nil, err
	}
	searcher.Start()
	s.searcher = searcher

	inner := server.New(nil, serverConfig())
	var h http.Handler = router.NewRouter(inner, searcher).Handler()
	if wrap != nil {
		h = wrap(h)
	}
	base, err := s.listen(h)
	if err != nil {
		s.close()
		return nil, err
	}
	s.base = base
	pipe, err := repro.Build(cfg)
	if err != nil {
		s.close()
		return nil, err
	}
	pipe.Searcher = searcher
	s.pipe = pipe
	inner.Publish(pipe.NewServeHandle(w.cacheCap, w.cacheShards))
	for range workers {
		if err := <-buildErr; err != nil {
			s.close()
			return nil, fmt.Errorf("worker build: %w", err)
		}
	}
	return s, nil
}

func startStack(wd world, w workload, wrap func(http.Handler) http.Handler) (*stack, error) {
	if w.router {
		return startRouter(wd, w, wrap)
	}
	return startServe(wd, w, wrap)
}

// waitReady polls GET /readyz until it answers 200.
func waitReady(ctx context.Context, client *http.Client, base string) error {
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/readyz", nil)
		if err != nil {
			return err
		}
		resp, err := client.Do(req)
		if err == nil {
			drain(resp)
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		select {
		case <-ctx.Done():
			return errors.New("stack never became ready")
		case <-time.After(2 * time.Millisecond):
		}
	}
}

// close shuts every listener down and waits for the serve loops and the
// router's probe loop to end.
func (s *stack) close() {
	if s.searcher != nil {
		s.searcher.Close()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for _, srv := range s.servers {
		if err := srv.Shutdown(ctx); err != nil {
			_ = srv.Close() // a stuck connection must not outlive the run
		}
	}
	s.wg.Wait()
}

// setUp starts the workload's stack reps times, each measured from start
// until the front end passes /readyz; every stack but the last is closed
// again. Before a stack closes, and outside the timing, each[i] (when
// present) runs against the i-th stack. It returns the last stack and
// the median set-up time.
func setUp(ctx context.Context, client *http.Client, wd world, w workload, reps int, wrap func(http.Handler) http.Handler, each []func(*stack) error) (*stack, float64, error) {
	times := make([]float64, 0, reps)
	var st *stack
	for i := 0; i < reps; i++ {
		began := time.Now()
		var err error
		st, err = startStack(wd, w, wrap)
		if err != nil {
			return nil, 0, err
		}
		readyCtx, cancel := context.WithTimeout(ctx, 60*time.Second)
		err = waitReady(readyCtx, client, st.base)
		cancel()
		if err != nil {
			st.close()
			return nil, 0, err
		}
		times = append(times, time.Since(began).Seconds())
		if i < len(each) {
			err = each[i](st)
		}
		if i < reps-1 || err != nil {
			st.close()
			client.CloseIdleConnections()
		}
		if err != nil {
			return nil, 0, err
		}
	}
	return st, median(times), nil
}
