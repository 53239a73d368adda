package main

import (
	"fmt"
	"io"
	"slices"
	"text/tabwriter"
)

// bounded is a metric with the share of side a's median by which
// side b may be worse.
type bounded struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// benchmarkJSON is the part of BENCHMARK.json -compare needs.
type benchmarkJSON struct {
	EndToEnd []bounded `json:"end_to_end"`
}

// latencyBounds are the latency percentiles every untraced run
// measures beside the end-to-end metrics, with the bounds the issue
// that defined the benchmark gave them. BENCHMARK.json lists them per
// layer, because an end-to-end metric there must repeat from run to
// run on every workload and these do not (README has the spreads),
// but -compare judges them all the same: a breach where the spread
// allows a verdict fails the comparison, and elsewhere the row says
// unresolved.
var latencyBounds = []bounded{
	{"p50_us", "us", "lower", 0.10},
	{"p99_us", "us", "lower", 0.15},
}

// verdict of one metric on one workload.
const (
	verdictOK         = "ok"
	verdictBreach     = "BREACH"
	verdictUnresolved = "unresolved"
)

// judge compares side b against side a for a metric where better is
// "higher" or "lower". worse is the share of a's median by which b's
// median is worse (negative: better); spread is the wider of the two
// sides' quartile spreads. A spread above the bound cannot resolve a
// difference of the bound's size, so the metric is unresolved, not
// unchanged.
func judge(a, b []float64, better string, bound float64) (medA, medB, worse, spread float64, verdict string) {
	medA, medB = median(a), median(b)
	if medA != 0 {
		worse = (medB - medA) / medA
		if better == "higher" {
			worse = -worse
		}
	}
	spread = max(quartileSpread(a), quartileSpread(b))
	switch {
	case spread > bound:
		verdict = verdictUnresolved
	case worse > bound:
		verdict = verdictBreach
	default:
		verdict = verdictOK
	}
	return
}

// compareFiles prints, per workload and metric (BENCHMARK.json's
// end-to-end metrics, then latencyBounds), both medians, how much
// worse b is, the spread and the bound, and reports whether any metric
// breached its bound or b has more incorrect runs than a.
func compareFiles(aPath, bPath, benchPath string, w io.Writer) (breach bool, err error) {
	var a, b resultFile
	var bench benchmarkJSON
	for path, v := range map[string]any{aPath: &a, bPath: &b, benchPath: &bench} {
		if err := readJSON(path, v); err != nil {
			return false, err
		}
	}
	values := func(f *resultFile, workload, name string) (vals []float64) {
		for _, r := range f.Runs {
			if r.Workload == workload && r.Trace == 0 {
				m, ok := r.Metrics[name]
				if !ok {
					m = r.Also[name]
				}
				vals = append(vals, m.Value)
			}
		}
		return
	}
	incorrect := func(f *resultFile, workload string) (n int) {
		for _, r := range f.Runs {
			if r.Workload == workload && r.Trace == 0 && !r.Correct {
				n++
			}
		}
		return
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "workload\tmetric\ta\tb\tunit\tworse by\tspread\tbound\tverdict\t")
	judged := append(slices.Clip(bench.EndToEnd), latencyBounds...)
	for _, sp := range specs {
		for _, m := range judged {
			va, vb := values(&a, sp.Name, m.Name), values(&b, sp.Name, m.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			medA, medB, worse, spread, verdict := judge(va, vb, m.Better, m.Bound)
			breach = breach || verdict == verdictBreach
			fmt.Fprintf(tw, "%s\t%s\t%.6g\t%.6g\t%s\t%+.2f%%\t%.2f%%\t%.0f%%\t%s\t\n",
				sp.Name, m.Name, medA, medB, m.Unit, 100*worse, 100*spread, 100*m.Bound, verdict)
		}
		if badA, badB := incorrect(&a, sp.Name), incorrect(&b, sp.Name); badB > badA {
			breach = true
			fmt.Fprintf(tw, "%s\tincorrect runs\t%d\t%d\t\t\t\t\t%s\t\n", sp.Name, badA, badB, verdictBreach)
		}
	}
	return breach, tw.Flush()
}
