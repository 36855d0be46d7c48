package main

import (
	"errors"
	"fmt"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"pmsort"
	"pmsort/internal/comm"
)

// meshOptions is the configuration people run the TCP mesh with:
// heartbeats and a stall window on. Obs is switched on only for the
// traced half of a -trace 1 run.
func meshOptions(traced bool) pmsort.TCPOptions {
	return pmsort.TCPOptions{
		Obs:               traced,
		RendezvousTimeout: 30 * time.Second,
		HeartbeatInterval: 250 * time.Millisecond,
		StallWindow:       2 * time.Second,
	}
}

// mesh is a p-rank TCP cluster inside this process: one pmsort.TCPCluster
// endpoint per rank on its own loopback port, real sockets in between.
type mesh struct {
	cls    []*pmsort.TCPCluster
	traced bool
	comms  []*commStats // per rank; traced meshes only
}

func newMesh(traced bool) (*mesh, error) {
	addrs, err := loopbackAddrs(ranks)
	if err != nil {
		return nil, err
	}
	m := &mesh{cls: make([]*pmsort.TCPCluster, ranks), traced: traced}
	errs := make([]error, ranks)
	var wg sync.WaitGroup
	for r := range m.cls {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			m.cls[r], errs[r] = pmsort.NewTCPOpts(r, addrs, meshOptions(traced))
		}(r)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		_ = m.close()
		return nil, fmt.Errorf("mesh rendezvous: %w", err)
	}
	if traced {
		m.comms = make([]*commStats, ranks)
		for r := range m.comms {
			m.comms[r] = &commStats{}
		}
	}
	return m, nil
}

// loopbackAddrs picks p free loopback ports by binding ephemeral
// listeners and releasing them; the transport's bind retry absorbs the
// short window before the mesh rebinds them.
func loopbackAddrs(p int) ([]string, error) {
	addrs := make([]string, p)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, fmt.Errorf("reserving a loopback port: %w", err)
		}
		defer ln.Close()
		addrs[i] = ln.Addr().String()
	}
	return addrs, nil
}

// run executes fn as every rank's PE program, collectively, and returns
// the harness wall time from launch until the last rank returned. On a
// traced mesh fn receives the attributing communicator wrapper.
func (m *mesh) run(fn func(rank int, c pmsort.Communicator)) (time.Duration, error) {
	errs := make([]error, ranks)
	var wg sync.WaitGroup
	start := time.Now()
	for r, cl := range m.cls {
		wg.Add(1)
		go func(r int, cl *pmsort.TCPCluster) {
			defer wg.Done()
			_, errs[r] = cl.Run(func(c pmsort.Communicator) {
				fn(r, m.wrap(r, c))
			})
		}(r, cl)
	}
	wg.Wait()
	return time.Since(start), errors.Join(errs...)
}

// wrap returns c unchanged on an untraced mesh, else rank r's
// attributing wrapper around it.
func (m *mesh) wrap(r int, c pmsort.Communicator) pmsort.Communicator {
	if !m.traced {
		return c
	}
	return &tracedComm{inner: c, st: m.comms[r]}
}

// close tears every endpoint down concurrently: Close waits for the
// peers to hang up, so closing them one after another would stall.
func (m *mesh) close() error {
	errs := make([]error, len(m.cls))
	var wg sync.WaitGroup
	for r, cl := range m.cls {
		if cl == nil {
			continue
		}
		wg.Add(1)
		go func(r int, cl *pmsort.TCPCluster) {
			defer wg.Done()
			errs[r] = cl.Close()
		}(r, cl)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// resetTrace zeroes the obs recorders and the wrapper counters, so the
// traced window starts from a clean slate after set-up and warm-up.
func (m *mesh) resetTrace() {
	for r, cl := range m.cls {
		cl.ObsRecorder().Reset()
		m.comms[r].reset()
	}
}

// Tag blocks the program's packages own: the 0x??0000 block of a tag,
// after stripping the service's per-job epoch offset above bit 24.
// blockNames has one more entry than blockIDs: "other", for every tag
// outside the known blocks.
var (
	blockIDs   = []int{0x6c, 0x6d, 0x7a, 0x6f}
	blockNames = [...]string{"coll", "delivery", "svc", "expt", "other"}
)

func blockOf(tag int) int {
	b := (tag & 0xffffff) >> 16
	if i := slices.Index(blockIDs, b); i >= 0 {
		return i
	}
	return len(blockIDs)
}

// commStats is one rank's traffic as seen by its communicator wrapper;
// payload size is the words declared to Send. Jobs of the service run
// concurrently on a rank, so the cells are atomic.
type commStats struct {
	msgs, words, recvWaitNS [len(blockNames)]atomic.Int64
	sendNS, recvs           atomic.Int64
}

func (s *commStats) reset() {
	for i := range s.msgs {
		s.msgs[i].Store(0)
		s.words[i].Store(0)
		s.recvWaitNS[i].Store(0)
	}
	s.sendNS.Store(0)
	s.recvs.Store(0)
}

// tracedComm is the benchmark-side communicator wrapper: it forwards
// every call, attributing messages, bytes and time blocked in Recv to
// the tag block that owns the tag. It also forwards the optional
// interfaces the program looks up on a world communicator — the obs
// recorder and the service's mesh-health surface — so wrapping changes
// what is measured, not what runs.
type tracedComm struct {
	inner pmsort.Communicator
	st    *commStats
}

var _ pmsort.Communicator = (*tracedComm)(nil)

func (t *tracedComm) Size() int            { return t.inner.Size() }
func (t *tracedComm) Rank() int            { return t.inner.Rank() }
func (t *tracedComm) GlobalRank(r int) int { return t.inner.GlobalRank(r) }
func (t *tracedComm) Cost() comm.Cost      { return t.inner.Cost() }

func (t *tracedComm) Send(to, tag int, payload any, words int64) {
	b := blockOf(tag)
	t.st.msgs[b].Add(1)
	t.st.words[b].Add(words)
	start := time.Now()
	t.inner.Send(to, tag, payload, words)
	t.st.sendNS.Add(time.Since(start).Nanoseconds())
}

func (t *tracedComm) Recv(from, tag int) (any, int64) {
	start := time.Now()
	pl, words := t.inner.Recv(from, tag)
	t.st.recvWaitNS[blockOf(tag)].Add(time.Since(start).Nanoseconds())
	t.st.recvs.Add(1)
	return pl, words
}

func (t *tracedComm) SplitEqual(groups int) (pmsort.Communicator, int) {
	c, g := t.inner.SplitEqual(groups)
	return &tracedComm{inner: c, st: t.st}, g
}

func (t *tracedComm) SplitStarts(starts []int) (pmsort.Communicator, int) {
	c, g := t.inner.SplitStarts(starts)
	return &tracedComm{inner: c, st: t.st}, g
}

func (t *tracedComm) SplitModulo(m int) (pmsort.Communicator, int) {
	c, g := t.inner.SplitModulo(m)
	return &tracedComm{inner: c, st: t.st}, g
}

func (t *tracedComm) Subset(lo, hi int) pmsort.Communicator {
	return &tracedComm{inner: t.inner.Subset(lo, hi), st: t.st}
}

// ObsRecorder forwards the obs recorder (obs.Source).
func (t *tracedComm) ObsRecorder() *pmsort.ObsRecorder { return pmsort.RecorderOf(t.inner) }

// meshHealth is the service's fault-tolerance surface on a TCP world.
type meshHealth interface {
	Health() pmsort.MeshHealth
	RetireTagRange(lo, hi int)
}

// Health forwards the mesh's liveness view.
func (t *tracedComm) Health() pmsort.MeshHealth {
	if h, ok := t.inner.(meshHealth); ok {
		return h.Health()
	}
	return pmsort.MeshHealth{}
}

// RetireTagRange forwards job-namespace retirement.
func (t *tracedComm) RetireTagRange(lo, hi int) {
	if h, ok := t.inner.(meshHealth); ok {
		h.RetireTagRange(lo, hi)
	}
}
