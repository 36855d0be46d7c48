package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"

	"pmsort"
)

// benchmarkSpec is the part of BENCHMARK.json the self-test checks.
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
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// quick runs a workload for a few ops and returns the parsed last line
// of its output, its exit code, and the whole output.
func quick(t *testing.T, workload string, trace, plant bool) (result, int, string) {
	t.Helper()
	o := options{workload: workload, seed: 5, seconds: 30, trace: trace, setups: 1,
		traceDir: t.TempDir(), maxOps: 3, plant: plant}
	var out, errOut bytes.Buffer
	code := runOptions(o, &out, &errOut)
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%s: last line is not a result: %v\n%s\n%s", workload, err, out.String(), errOut.String())
	}
	return res, code, out.String()
}

// TestEveryMetricPrinted runs each workload of BENCHMARK.json untraced
// and traced and checks that the result holds exactly the declared
// metrics, each with its declared unit, and that the report shows them.
func TestEveryMetricPrinted(t *testing.T) {
	spec := loadSpec(t)
	for _, wl := range spec.Workloads {
		for _, trace := range []bool{false, true} {
			res, code, out := quick(t, wl.Name, trace, false)
			if code != 0 || !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Fatalf("%s trace=%v: exit %d, result %+v\n%s", wl.Name, trace, code, res, out)
			}
			want := spec.EndToEnd
			if trace {
				want = spec.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics printed, BENCHMARK.json declares %d", wl.Name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: metric %s missing", wl.Name, trace, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s trace=%v: metric %s has unit %q, want %q", wl.Name, trace, m.Name, got.Unit, m.Unit)
				case !strings.Contains(out, "  "+m.Name+" "):
					t.Errorf("%s trace=%v: metric %s not in the report", wl.Name, trace, m.Name)
				}
			}
			if trace && !strings.Contains(out, "unattributed") {
				t.Errorf("%s: traced report has no unattributed row\n%s", wl.Name, out)
			}
		}
	}
}

// TestPlantedFaultIsCaught corrupts one result per workload before
// validation and checks that the run reports it and exits nonzero.
func TestPlantedFaultIsCaught(t *testing.T) {
	for _, name := range workloadNames() {
		res, code, out := quick(t, name, false, true)
		if code == 0 || res.Correct || res.Failed < 1 {
			t.Errorf("%s: planted wrong result not caught: exit %d, result %+v\n%s", name, code, res, out)
		}
	}
}

// TestUnknownTagLandsInOther sends on a tag outside every known block
// through a traced mesh and checks that the traffic is booked and shown
// under "other", and that service job tags keep their block under the
// per-job epoch offset.
func TestUnknownTagLandsInOther(t *testing.T) {
	const unknownTag = 0x550001
	if got := blockNames[blockOf(unknownTag)]; got != "other" {
		t.Fatalf("tag %#x booked under %s, want other", unknownTag, got)
	}
	if got := blockNames[blockOf(3<<24+0x7a0002)]; got != "svc" {
		t.Fatalf("offset svc tag booked under %s, want svc", got)
	}
	m, err := newMesh(true)
	if err != nil {
		t.Fatal(err)
	}
	defer m.close()
	m.resetTrace()
	if _, err := m.run(func(r int, c pmsort.Communicator) {
		switch r {
		case 0:
			c.Send(1, unknownTag, []uint64{1, 2, 3}, 3)
		case 1:
			c.Recv(0, unknownTag)
		}
	}); err != nil {
		t.Fatal(err)
	}
	ts := m.collect(1)
	if got := ts.per["other.msgs"].Value; got != 1 {
		t.Errorf("other.msgs = %v, want 1", got)
	}
	if got := ts.per["other.mb"].Value; got != 24/1e6 {
		t.Errorf("other.mb = %v, want 24 bytes", got)
	}
	var out bytes.Buffer
	ts.per.print(&out, "per-layer:")
	if !strings.Contains(out.String(), "  other.msgs ") {
		t.Errorf("other.msgs not shown:\n%s", out.String())
	}
}

// TestTailIsP90AtAnyCount checks that op_tail_ms takes the same
// percentile whatever the number of ops in the window, so a change that
// completes more sorts in a window reads the same quantile.
func TestTailIsP90AtAnyCount(t *testing.T) {
	for _, n := range []int{1, 10, 11, 15, 19, 50, 100} {
		lat := make([]float64, n)
		for i := range lat {
			lat[n-1-i] = float64(i + 1) // descending: tailOf must sort
		}
		want := float64((9*n + 9) / 10) // ⌈0.9n⌉, the nearest rank
		if got := tailOf(lat); got != want {
			t.Errorf("tailOf of 1..%d = %v, want %v", n, got, want)
		}
	}
}

// TestTailIsMedianOverSlices checks that a burst which slows every op of
// one slice does not move op_tail_ms when the other slices are steady.
func TestTailIsMedianOverSlices(t *testing.T) {
	w := &window{sliceOps: 10}
	for i := 0; i < 30; i++ {
		lat := float64(i%10 + 1) // each slice holds 1..10: its p90 is 9
		if i >= 10 && i < 20 {
			lat *= 100
		}
		w.add(sample{latMS: lat, elems: 1})
	}
	if tail, how := w.tail(); tail != 9 {
		t.Errorf("op_tail_ms = %v (%s), want 9", tail, how)
	}
}
