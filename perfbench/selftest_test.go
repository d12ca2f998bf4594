package main

import (
	"bytes"
	"encoding/json"
	"os"
	"slices"
	"strings"
	"testing"
)

// The benchmark's self-test: short runs of every workload. Run with
//
//	cd perfbench && go test .

type metricSpec struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type resultLine struct {
	Correct   bool  `json:"correct"`
	Attempted int64 `json:"attempted"`
	Failed    int64 `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// runShort runs one short benchmark invocation and parses its result.
func runShort(t *testing.T, extra ...string) (int, resultLine) {
	t.Helper()
	args := append([]string{"--seconds", "1", "--seed", "7", "--workdir", t.TempDir()}, extra...)
	var out, errb bytes.Buffer
	code := run(args, &out, &errb)
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var r resultLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		t.Fatalf("%v: exit %d, no result line (%v); stderr:\n%s", extra, code, err, errb.String())
	}
	return code, r
}

// Every metric BENCHMARK.json names is printed, with its unit, by every
// workload, in both the plain and the traced run.
func TestEveryMetricPrintedWithUnit(t *testing.T) {
	b := loadBenchmarkJSON(t)
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		if w.Name != workloads[i] {
			t.Fatalf("workload %d: BENCHMARK.json says %q, the benchmark %q", i, w.Name, workloads[i])
		}
		for _, tc := range []struct {
			trace string
			want  []metricSpec
		}{{"0", b.EndToEnd}, {"1", b.PerLayer}} {
			code, r := runShort(t, "--workload", w.Name, "--trace", tc.trace)
			if code != 0 || !r.Correct || r.Attempted < 1 {
				t.Fatalf("%s trace=%s: exit %d, correct %v, attempted %d", w.Name, tc.trace, code, r.Correct, r.Attempted)
			}
			if len(r.Metrics) != len(tc.want) {
				t.Errorf("%s trace=%s: %d metrics printed, BENCHMARK.json has %d", w.Name, tc.trace, len(r.Metrics), len(tc.want))
			}
			for _, m := range tc.want {
				got, ok := r.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%s: metric %s printed=%v unit %q, want unit %q", w.Name, tc.trace, m.Name, ok, got.Unit, m.Unit)
				}
			}
			if tc.trace == "1" && r.Metrics["bench.client_conns"].Value != nClients && w.Name != "kernel-ooc" {
				t.Errorf("%s: bench.client_conns = %v, want %d", w.Name, r.Metrics["bench.client_conns"].Value, nClients)
			}
		}
	}
}

// A corrupted payload reaching the checker makes the command fail.
func TestCorruptPayloadFailsTheRun(t *testing.T) {
	for _, w := range workloads {
		code, r := runShort(t, "--workload", w, "--corrupt")
		if code == 0 || r.Correct || r.Failed == 0 {
			t.Errorf("%s: a corrupted payload gave exit %d, correct %v, failed %d", w, code, r.Correct, r.Failed)
		}
	}
}

// The same seed yields the same op stream and inputs; another seed
// does not.
func TestSameSeedSameOpStream(t *testing.T) {
	stream := func(seed int64, tr traffic, client int) []op {
		g := newOpGen(seed, client, tr)
		out := make([]op, 5000)
		for i := range out {
			out[i] = g.next()
		}
		return out
	}
	for _, tr := range []traffic{pointTraffic, durableTraffic} {
		for c := 0; c < nClients; c++ {
			a, b, other := stream(3, tr, c), stream(3, tr, c), stream(4, tr, c)
			same, differs := true, false
			for i := range a {
				same = same && a[i] == b[i]
				differs = differs || a[i] != other[i]
			}
			if !same || !differs {
				t.Errorf("traffic %+v client %d: same seed equal %v, other seed differs %v", tr, c, same, differs)
			}
		}
	}
	k1, err := kernelInputs(3)
	if err != nil {
		t.Fatal(err)
	}
	k2, _ := kernelInputs(3)
	k3, _ := kernelInputs(4)
	for i, kc := range k1 {
		for j, a := range kc.prog.Arrays {
			x := kc.init.Data(a)
			y := k2[i].init.Data(k2[i].prog.Arrays[j])
			z := k3[i].init.Data(k3[i].prog.Arrays[j])
			if !slices.Equal(x, y) || slices.Equal(x, z) {
				t.Errorf("%s array %s: kernel inputs do not follow the seed", kc.k.Name, a.Name)
			}
		}
	}
}
