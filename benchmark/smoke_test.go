package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
	"time"
)

// contract is the part of BENCHMARK.json the benchmark must agree with.
type contract struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []metricDef             `json:"end_to_end"`
	PerLayer  []metricDef             `json:"per_layer"`
}

func readContract(t *testing.T) contract {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var c contract
	if err := json.Unmarshal(b, &c); err != nil {
		t.Fatal(err)
	}
	return c
}

func sameDefs(t *testing.T, what string, listed, emitted []metricDef) {
	t.Helper()
	if len(listed) != len(emitted) {
		t.Fatalf("%s: BENCHMARK.json lists %d metrics, the benchmark emits %d", what, len(listed), len(emitted))
	}
	for i := range listed {
		if listed[i] != emitted[i] {
			t.Errorf("%s metric %d: BENCHMARK.json has %v, the benchmark %v", what, i, listed[i], emitted[i])
		}
	}
}

func TestContractListsWhatIsEmitted(t *testing.T) {
	c := readContract(t)
	sameDefs(t, "end_to_end", c.EndToEnd, endToEnd)
	sameDefs(t, "per_layer", c.PerLayer, perLayer)
	if len(c.Workloads) != len(specs) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(c.Workloads), len(specs))
	}
	for i, w := range c.Workloads {
		if w.Name != specs[i].Name {
			t.Errorf("workload %d: BENCHMARK.json has %q, the benchmark %q", i, w.Name, specs[i].Name)
		}
	}
}

func checkResult(t *testing.T, res *runResult, defs []metricDef) {
	t.Helper()
	if res.Failed != 0 || res.Attempted == 0 {
		t.Errorf("%d of %d ops failed", res.Failed, res.Attempted)
	}
	if len(res.Metrics) != len(defs) {
		t.Errorf("%d metrics emitted, want %d", len(res.Metrics), len(defs))
	}
	for _, d := range defs {
		m, ok := res.Metrics[d.Name]
		switch {
		case !ok:
			t.Errorf("%s not emitted", d.Name)
		case m.Unit != d.Unit || m.Unit == "":
			t.Errorf("%s has unit %q, want %q", d.Name, m.Unit, d.Unit)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			t.Errorf("%s = %v", d.Name, m.Value)
		}
	}
	for _, d := range endToEnd {
		if res.Trace == 0 && res.Metrics[d.Name].Value <= 0 {
			t.Errorf("%s = %v, want a positive measurement", d.Name, res.Metrics[d.Name].Value)
		}
	}
}

// Every workload, untraced and traced, at a hundredth of its size with
// 200 ms of measuring: every metric BENCHMARK.json names comes out,
// finite and with its unit, and no reply fails verification.
func TestSmokeAllWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("builds cmd/memcached and runs servers")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	bin := filepath.Join(t.TempDir(), "memcached")
	if out, err := exec.CommandContext(ctx, "go", "build", "-o", bin, "rphash/cmd/memcached").CombinedOutput(); err != nil {
		t.Fatalf("building cmd/memcached: %v\n%s", err, out)
	}
	r := runner{self: os.Args[0], selfEnv: []string{childEnv + "=1"}, memcached: bin, scale: 0.01}
	for _, sp := range specs {
		t.Run(sp.Name, func(t *testing.T) {
			sp := sp.scaled(r.scale)
			res, err := r.untraced(ctx, sp, 1, 0.2)
			if err != nil {
				t.Fatal(err)
			}
			checkResult(t, res, endToEnd)
			if len(res.SetupS) != roundsPerRun {
				t.Errorf("%d set-ups timed, want %d", len(res.SetupS), roundsPerRun)
			}
			if sp.TCP && len(res.ServerStats) == 0 {
				t.Error("no server stats dump beside the numbers")
			}

			res, spans, err := r.traced(ctx, sp, 1, 0.2)
			if err != nil {
				t.Fatal(err)
			}
			checkResult(t, res, perLayer)
			if len(spans) == 0 {
				t.Error("traced run recorded no spans")
			}
			top := "core.get_ns"
			if sp.TCP {
				top = "socket.get_ns"
			}
			if res.Metrics[top].Value <= 0 {
				t.Errorf("ledger did not reach %s", top)
			}
		})
	}
}
