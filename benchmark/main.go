// Command benchmark is the repository's benchmark: six workloads
// measured from outside (a cmd/memcached child over loopback TCP, the
// public rphash veneer in a fresh process), the end-to-end metrics
// BENCHMARK.json lists for each, and a traced run that prices each
// layer of the stack on the workload's own op stream. See README.md.
//
//	bash benchmark/run.sh                      # every workload untraced, then the layer ledger
//	bash benchmark/run.sh -workload mc-get-1key -seed 7 -seconds 15 -trace 0
//	bash benchmark/run.sh -compare a.json b.json
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"strconv"
	"syscall"
	"time"
)

// runTimeout bounds one workload run, children included.
const runTimeout = 170 * time.Second

const outDir = "out"

// benchmarkJSONPath is where -compare reads the bounds from: the
// benchmark runs from its own directory, one below the repository root.
const benchmarkJSONPath = "../BENCHMARK.json"

func main() { os.Exit(realMain(os.Args[1:])) }

func realMain(args []string) int {
	fs := flag.NewFlagSet("benchmark", flag.ExitOnError)
	var (
		workload  = fs.String("workload", "", "run this one workload and print the driver's JSON line (default: run them all)")
		seed      = fs.Uint64("seed", 1, "workload seed: the same seed gives the same op streams")
		seconds   = fs.Float64("seconds", 15, "measured seconds per run")
		trace     = fs.Int("trace", 0, "0: end-to-end metrics; 1: the layer ledger and per-layer metrics")
		memcached = fs.String("memcached", "", "cmd/memcached binary (default: built from this checkout into out/bin)")
		scale     = fs.Float64("scale", 1, "shrink key counts by this factor (tests)")
		repeat    = fs.Int("repeat", 1, "all-workloads mode: runs per workload, seeds seed, seed+1, ...")
		noLedger  = fs.Bool("no-ledger", false, "all-workloads mode: skip the traced runs")
		out       = fs.String("out", filepath.Join(outDir, "result.json"), "all-workloads mode: result file")
		cmp       = fs.Bool("compare", false, "compare two result files: -compare a.json b.json")
		child     = fs.Bool("child", false, "internal: run a library workload in this process")
	)
	fs.Parse(args)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	fail := func(err error) int {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	if *cmp {
		if fs.NArg() != 2 {
			return fail(errors.New("-compare takes two result files"))
		}
		breach, err := compareFiles(fs.Arg(0), fs.Arg(1), benchmarkJSONPath, os.Stdout)
		if err != nil {
			return fail(err)
		}
		if breach {
			return 1
		}
		return 0
	}
	if *child {
		sp, ok := specByName(*workload)
		if !ok || sp.TCP {
			return fail(fmt.Errorf("no library workload %q", *workload))
		}
		rep, err := libChild(sp.scaled(*scale), *seed, *seconds)
		if err != nil {
			return fail(err)
		}
		if err := json.NewEncoder(os.Stdout).Encode(rep); err != nil {
			return fail(err)
		}
		return 0
	}

	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return fail(err)
	}
	self, err := os.Executable()
	if err != nil {
		return fail(err)
	}
	r := runner{self: self, memcached: *memcached, scale: *scale}
	if r.memcached == "" {
		if r.memcached, err = buildMemcached(ctx); err != nil {
			return fail(err)
		}
	}

	if *workload != "" {
		sp, ok := specByName(*workload)
		if !ok {
			return fail(fmt.Errorf("no workload %q", *workload))
		}
		res, err := r.runOne(ctx, sp, *seed, *seconds, *trace)
		if err != nil {
			return fail(err)
		}
		res.print(os.Stdout)
		fmt.Println(res.driverLine())
		if !res.Correct {
			return 1
		}
		return 0
	}
	ok, err := r.runAll(ctx, suiteConfig{
		seed: *seed, seconds: *seconds, repeat: *repeat, ledger: !*noLedger, out: *out,
	})
	if err != nil {
		return fail(err)
	}
	if !ok {
		return 1
	}
	return 0
}

// buildMemcached compiles the server under test from the checkout
// this module sits in. The working directory must be benchmark/.
func buildMemcached(ctx context.Context) (string, error) {
	bin, err := filepath.Abs(filepath.Join(outDir, "bin", "memcached"))
	if err != nil {
		return "", err
	}
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin, "rphash/cmd/memcached")
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("building cmd/memcached (run from benchmark/, inside the repository): %w\n%s", err, out)
	}
	return bin, nil
}

func runFile(workload string, trace int) string {
	return filepath.Join(outDir, fmt.Sprintf("run-%s-trace%d.json", workload, trace))
}

func traceFile(workload string) string {
	return filepath.Join(outDir, "trace-"+workload+".jsonl")
}

// runOne runs one workload once in the mode the driver asks for and
// leaves the full record (and, traced, the spans) under out/.
func (r runner) runOne(ctx context.Context, sp spec, seed uint64, seconds float64, trace int) (*runResult, error) {
	ctx, cancel := context.WithTimeout(ctx, runTimeout)
	defer cancel()
	sp = sp.scaled(r.scale)
	var res *runResult
	var err error
	if trace == 0 {
		res, err = r.untraced(ctx, sp, seed, seconds)
	} else {
		var spans []span
		if res, spans, err = r.traced(ctx, sp, seed, seconds); err == nil {
			err = writeSpans(traceFile(sp.Name), spans)
		}
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", sp.Name, err)
	}
	return res, writeJSON(runFile(sp.Name, trace), res)
}

func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

type suiteConfig struct {
	seed    uint64
	seconds float64
	repeat  int
	ledger  bool
	out     string
}

// runAll is the one command: every workload untraced, each in a fresh
// process, then the traced run of each; one result file, one trace
// file. It reports whether every run was correct.
func (r runner) runAll(ctx context.Context, cfg suiteConfig) (bool, error) {
	file := resultFile{Env: currentEnv()}
	fmt.Printf("nproc=%d GOMAXPROCS=%d %s commit=%s kernel=%s seed=%d\n%s\n",
		file.Env.NProc, file.Env.GOMAXPROCS, file.Env.GoVersion, file.Env.Commit, file.Env.Kernel, cfg.seed, file.Env.Network)

	traces := []int{0}
	if cfg.ledger {
		traces = append(traces, 1)
	}
	allOK := true
	for _, trace := range traces {
		for rep := 0; rep < cfg.repeat; rep++ {
			for _, sp := range specs {
				seed := cfg.seed + uint64(rep)
				cmd := exec.CommandContext(ctx, r.self,
					"-workload", sp.Name, "-seed", strconv.FormatUint(seed, 10),
					"-seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64),
					"-trace", strconv.Itoa(trace),
					"-scale", strconv.FormatFloat(r.scale, 'g', -1, 64),
					"-memcached", r.memcached)
				cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
				cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
				// An incorrect run exits non-zero but still records
				// itself; only a run that left no record is an error.
				os.Remove(runFile(sp.Name, trace))
				runErr := cmd.Run()
				if ctx.Err() != nil {
					return false, ctx.Err()
				}
				var res runResult
				if err := readJSON(runFile(sp.Name, trace), &res); err != nil {
					return false, fmt.Errorf("%s (trace %d, seed %d) did not complete: %v", sp.Name, trace, seed, runErr)
				}
				allOK = allOK && res.Correct
				file.Runs = append(file.Runs, res)
			}
		}
	}
	if cfg.ledger {
		if err := concatTraces(filepath.Join(outDir, "trace.jsonl")); err != nil {
			return false, err
		}
	}
	if err := writeJSON(cfg.out, file); err != nil {
		return false, err
	}
	fmt.Printf("wrote %s\n", cfg.out)
	return allOK, nil
}

func concatTraces(path string) error {
	dst, err := os.Create(path)
	if err != nil {
		return err
	}
	for _, sp := range specs {
		src, err := os.Open(traceFile(sp.Name))
		if err != nil {
			dst.Close()
			return err
		}
		_, err = io.Copy(dst, src)
		src.Close()
		if err != nil {
			dst.Close()
			return err
		}
	}
	return dst.Close()
}
