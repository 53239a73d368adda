package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runResult is one run of one workload, traced or not.
type runResult struct {
	Workload  string            `json:"workload"`
	Seed      uint64            `json:"seed"`
	Trace     int               `json:"trace"`
	Seconds   float64           `json:"seconds"`
	Correct   bool              `json:"correct"`
	Attempted uint64            `json:"attempted"`
	Failed    uint64            `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	// Also holds what an untraced run measured besides the end-to-end
	// metrics; the driver's line leaves it out.
	Also map[string]metric `json:"also,omitempty"`
	// Samples holds the sample count behind a metric where it has one.
	Samples map[string]int `json:"samples,omitempty"`
	SetupS  []float64      `json:"setup_s_each,omitempty"`
	// SliceOpsPerS is every round's saturation window slice by slice;
	// ops_per_s is the mean over rounds of each round's median slice.
	SliceOpsPerS []float64 `json:"slice_ops_per_s,omitempty"`
	Problems     []string  `json:"problems,omitempty"`
	// ServerStats is the cmd/memcached child's final ASCII stats dump.
	ServerStats map[string]string `json:"server_stats,omitempty"`
	WallS       float64           `json:"wall_s"`
}

// envInfo says where the numbers were taken.
type envInfo struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	Kernel     string `json:"kernel"`
	Network    string `json:"network"`
}

func currentEnv() envInfo {
	commit := "unknown"
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	return envInfo{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     commit,
		Kernel:     kernelVersion(),
		Network:    "TCP workloads crossed the host's loopback interface, generator and server on the same cores",
	}
}

// resultFile is what the one command writes and -compare reads.
type resultFile struct {
	Env  envInfo     `json:"env"`
	Runs []runResult `json:"runs"`
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readJSON(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// newResult fills Metrics from vals for every name in defs (absent
// names read 0: the layer does not exist in this workload).
func newResult(sp spec, seed uint64, trace int, seconds float64, defs []metricDef, vals map[string]float64) *runResult {
	r := &runResult{
		Workload: sp.Name, Seed: seed, Trace: trace, Seconds: seconds,
		Metrics: make(map[string]metric, len(defs)),
	}
	for _, d := range defs {
		v := vals[d.Name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			r.Problems = append(r.Problems, fmt.Sprintf("%s is not finite", d.Name))
			v = 0
		}
		r.Metrics[d.Name] = metric{v, d.Unit}
	}
	return r
}

// print writes every metric by name with its unit, one per line.
func (r *runResult) print(w io.Writer) {
	for _, set := range []map[string]metric{r.Metrics, r.Also} {
		names := make([]string, 0, len(set))
		for n := range set {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			m := set[n]
			fmt.Fprintf(w, "%-18s %-28s %14.6g %-6s", r.Workload, n, m.Value, m.Unit)
			if c, ok := r.Samples[n]; ok {
				fmt.Fprintf(w, " (n=%d)", c)
			}
			fmt.Fprintln(w)
		}
	}
	fmt.Fprintf(w, "%-18s %-28s %14d of %d ops\n", r.Workload, "failed", r.Failed, r.Attempted)
	for _, p := range r.Problems {
		fmt.Fprintf(w, "%-18s INVALID: %s\n", r.Workload, p)
	}
}

// driverLine is the one JSON object the driver reads from the last
// line of standard output.
func (r *runResult) driverLine() string {
	b, _ := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted uint64            `json:"attempted"`
		Failed    uint64            `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, r.Metrics})
	return string(b)
}
