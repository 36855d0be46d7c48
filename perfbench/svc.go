package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"slices"
	"sync"
	"time"

	"pmsort"
	"pmsort/internal/svc"
)

// service is a sort-service workload instance: svc.Serve on every rank
// of the mesh, and closed-loop clients that submit raw-key jobs with
// wait:true over HTTP.
type service struct {
	m      *mesh
	url    string
	client *http.Client
	cancel context.CancelFunc
	served sync.WaitGroup
	errs   []error // per rank, from Run/Serve

	inputs, sorted [][]uint64
	nClients       int
	next           []int // per-client input cursor

	stopOnce sync.Once
	stopErr  error
}

// setupService brings up the mesh and the service, generates pool
// inputs of n keys each (cycling kinds), and warms up with a few
// validated jobs per client.
func setupService(seed uint64, traced bool, n, pool, nClients int, kinds []string) (*service, error) {
	m, err := newMesh(traced)
	if err != nil {
		return nil, err
	}
	s := &service{
		m:        m,
		nClients: nClients,
		next:     make([]int, nClients),
		errs:     make([]error, ranks),
		client: &http.Client{
			Transport: &http.Transport{MaxIdleConnsPerHost: nClients},
			Timeout:   60 * time.Second,
		},
	}
	ctx, cancel := context.WithCancel(context.Background())
	s.cancel = cancel
	ready := make(chan string, 1)
	for r, cl := range m.cls {
		s.served.Add(1)
		go func(r int, cl *pmsort.TCPCluster) {
			defer s.served.Done()
			var serveErr error
			_, runErr := cl.Run(func(c pmsort.Communicator) {
				serveErr = svc.Serve(ctx, m.wrap(r, c), svc.Options{
					Ready: func(url string) { ready <- url },
				})
			})
			s.errs[r] = errors.Join(runErr, serveErr)
		}(r, cl)
	}
	select {
	case s.url = <-ready:
	case <-time.After(30 * time.Second):
		_ = s.close()
		return nil, errors.New("service did not come up within 30s")
	}

	g := newRNG(seed)
	for i := 0; i < pool; i++ {
		keys := genKeys(g, kinds[i%len(kinds)], n)
		s.inputs = append(s.inputs, keys)
		s.sorted = append(s.sorted, slices.Sorted(slices.Values(keys)))
	}
	for i := 0; i < 8; i++ {
		for c := 0; c < nClients; c++ {
			if smp := s.op(c, false); smp.err != nil {
				_ = s.close()
				return nil, fmt.Errorf("warm-up job: %w", smp.err)
			}
		}
	}
	return s, nil
}

// genKeys generates n keys of the given kind.
func genKeys(g *rng, kind string, n int) []uint64 {
	keys := make([]uint64, n)
	switch kind {
	case "dup-heavy":
		for i := range keys {
			keys[i] = g.next() % 16
		}
	case "sorted":
		base := g.next() >> 1
		for i := range keys {
			keys[i] = base + uint64(i)
		}
	default:
		for i := range keys {
			keys[i] = g.next()
		}
	}
	return keys
}

func (s *service) clients() int { return s.nClients }

func (s *service) op(c int, plant bool) sample {
	idx := (c + s.next[c]*s.nClients) % len(s.inputs)
	s.next[c]++
	in, want := s.inputs[idx], s.sorted[idx]

	h := time.Now()
	body, err := json.Marshal(svc.JobRequest{Keys: in, Wait: true})
	if err != nil {
		return sample{start: h, latMS: inf, err: fmt.Errorf("encoding job: %w", err)}
	}
	clientMS := msSince(h)

	start := time.Now()
	st, resp, decMS, err := s.submit(body)
	lat := msSince(start)
	smp := sample{start: start, latMS: lat}
	if err != nil {
		smp.err, smp.latMS = err, inf
		return smp
	}

	h = time.Now()
	if plant && len(st.Keys) > 0 {
		st.Keys[0]++
	}
	switch {
	case st.Status != svc.StatusDone:
		smp.err = fmt.Errorf("job %s %s: %s", st.ID, st.Status, st.Error)
	case !slices.Equal(st.Keys, want):
		smp.err = fmt.Errorf("job %s returned keys that are not the sorted input", st.ID)
	}
	smp.clientMS = clientMS + decMS + msSince(h)
	if smp.err != nil {
		smp.latMS = inf
		return smp
	}
	smp.elems = int64(len(in))

	l := map[string]float64{
		"svc.outside_ms":         lat - float64(st.WallNS)/1e6,
		"svc.dispatch_gather_ms": float64(st.WallNS-st.TotalNS) / 1e6,
		"svc.req_kb":             float64(len(body)) / 1024,
		"svc.resp_kb":            float64(resp) / 1024,
		"core.sort_ms":           float64(st.TotalNS) / 1e6,
		"core.outside_ms":        lat - float64(st.TotalNS)/1e6,
	}
	for ph := pmsort.Phase(0); ph < pmsort.NumPhases; ph++ {
		l["core."+phaseKeys[ph]+"_ms"] = float64(st.PhaseNS[ph.String()]) / 1e6
	}
	smp.layers = l
	return smp
}

// submit POSTs one job and decodes the reply. It returns the status,
// the response size, and the time spent decoding it (ms).
func (s *service) submit(body []byte) (svc.JobStatus, int, float64, error) {
	var st svc.JobStatus
	resp, err := s.client.Post(s.url+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return st, 0, 0, fmt.Errorf("POST /jobs: %w", err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return st, 0, 0, fmt.Errorf("reading the job reply: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		return st, len(data), 0, fmt.Errorf("POST /jobs: %s: %s", resp.Status, bytes.TrimSpace(data))
	}
	h := time.Now()
	if err := json.Unmarshal(data, &st); err != nil {
		return st, len(data), 0, fmt.Errorf("decoding the job reply: %w", err)
	}
	return st, len(data), msSince(h), nil
}

// finish books the service's own retry and rejection counters.
func (s *service) finish(w *window) {
	w.latencyIsWall = true
	resp, err := s.client.Get(s.url + "/metrics")
	if err != nil {
		return
	}
	defer resp.Body.Close()
	var met svc.Metrics
	if json.NewDecoder(resp.Body).Decode(&met) == nil {
		w.counts["svc.retried"] = float64(met.Jobs.Retried)
		w.counts["svc.rejected"] = float64(met.Jobs.Rejected)
	}
}

// stop shuts the service down and waits for every rank's Serve to
// return. Idempotent.
func (s *service) stop() error {
	s.stopOnce.Do(func() {
		s.cancel()
		s.served.Wait()
		s.client.CloseIdleConnections()
		s.stopErr = errors.Join(s.errs...)
	})
	return s.stopErr
}

func (s *service) close() error {
	return errors.Join(s.stop(), s.m.close())
}

func (s *service) resetTrace() { s.m.resetTrace() }

func (s *service) collectTrace(w *window) *traceStats {
	ts := s.m.collect(w.ok)
	ts.per.set("seq.less_calls_per_elem", "count", 0)
	ts.per.set("seq.key_calls_per_elem", "count", 0)
	names := []string{"svc.outside_ms", "svc.dispatch_gather_ms", "core.splitter_ms", "core.bucket_ms",
		"core.delivery_ms", "core.localsort_ms", "core.other_ms"}
	rows := make([][]float64, len(w.okOps))
	for k, op := range w.okOps {
		l := op.layers
		rows[k] = []float64{l["svc.outside_ms"], l["svc.dispatch_gather_ms"], l["core.splitter_ms"], l["core.bucket_ms"],
			l["core.delivery_ms"], l["core.localsort_ms"],
			l["core.sort_ms"] - l["core.splitter_ms"] - l["core.bucket_ms"] - l["core.delivery_ms"] - l["core.localsort_ms"]}
	}
	ts.table = bandRows(names, w.okLat(), rows)
	return ts
}

// rungs stops the service first: the rungs need the mesh to themselves.
func (s *service) rungs() (rungResult, error) {
	if err := s.stop(); err != nil {
		return rungResult{}, err
	}
	return runRungs(s.m)
}

// ---- workloads ----

func setupSvcTiny(seed uint64, traced bool) (instance, error) {
	return setupService(seed, traced, 64, 512, 2, []string{"uniform"})
}

func setupSvc8k(seed uint64, traced bool) (instance, error) {
	return setupService(seed, traced, 8192, 48, 2, []string{"uniform", "dup-heavy", "sorted"})
}
