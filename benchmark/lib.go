package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"rphash"
	"rphash/internal/rcu"
)

// u64Table is what the library workloads need of a table; both the
// veneer's Table and Map (and, in the ledger, the layers under them)
// provide it.
type u64Table interface {
	Get(k uint64) (uint64, bool)
	Insert(k, v uint64) bool
	Delete(k uint64) bool
}

// sampleEvery is the latency sampling period of the library
// workloads: one op in 256 is timed, so the clock reads cost the
// other 255 nothing.
const sampleEvery = 256

// libWarmChunks is each library worker's warm-up before the first
// measured op, in chunks of sampleEvery ops.
const libWarmChunks = 1024

// libWorker is one goroutine's share of a library workload: a
// pre-generated stream and the little state that makes every op's
// legal outcome known.
type libWorker struct {
	t      u64Table
	stream []uint32
	pos    int
	one    func() (kind uint8, bad uint64) // readOne or churnOne

	// Readers: keys below preloaded were stored and must hit with
	// their value; the rest were never stored and must miss.
	preloaded uint64

	// Churn: the live keys are exactly [tail, head).
	tail, head uint64
}

func (w *libWorker) next() uint32 {
	v := w.stream[w.pos]
	if w.pos++; w.pos == len(w.stream) {
		w.pos = 0
	}
	return v
}

// readOne looks one key up and returns 1 if the answer is wrong.
func (w *libWorker) readOne() (uint8, uint64) {
	k := uint64(w.next())
	v, ok := w.t.Get(k)
	if k < w.preloaded {
		if !ok || v != libValue(k) {
			return opGet, 1
		}
	} else if ok {
		return opGet, 1
	}
	return opGet, 0
}

// churnOne performs the stream's next op on the FIFO window.
func (w *libWorker) churnOne() (uint8, uint64) {
	word := w.next()
	switch kind := uint8(word & 3); kind {
	case opSet:
		k := w.head
		w.head++
		if !w.t.Insert(k, libValue(k)) {
			return kind, 1
		}
		return kind, 0
	case opDel:
		k := w.tail
		w.tail++
		if !w.t.Delete(k) {
			return kind, 1
		}
		return kind, 0
	default:
		k := w.tail + uint64(word>>2)*(w.head-w.tail)>>30
		if v, ok := w.t.Get(k); !ok || v != libValue(k) {
			return opGet, 1
		}
		return opGet, 0
	}
}

// chunk runs sampleEvery ops, timing the first and saying what kind
// it was.
func (w *libWorker) chunk() (kind uint8, lat int64, bad uint64) {
	t0 := time.Now()
	kind, bad = w.one()
	lat = int64(time.Since(t0))
	for i := 1; i < sampleEvery; i++ {
		_, b := w.one()
		bad += b
	}
	return kind, lat, bad
}

// runChunks drives one worker for slices×per from start and records
// ops, span and sampled latencies per slice.
func runChunks(w *libWorker, start time.Time, slices int, per time.Duration) (window, uint64) {
	win := window{lat: make([][]int64, 1, slices)}
	sliceStart := start
	var ops, bad uint64
	for {
		kind, lat, b := w.chunk()
		bad += b
		ops += sampleEvery
		if kind == opGet { // latency is the lookups', as in the TCP workloads
			cur := len(win.lat) - 1
			win.lat[cur] = append(win.lat[cur], lat)
		}
		now := time.Now()
		if now.Sub(start) >= time.Duration(len(win.ops)+1)*per {
			win.ops = append(win.ops, ops)
			win.span = append(win.span, now.Sub(sliceStart))
			sliceStart, ops = now, 0
			if len(win.ops) == slices {
				return win, bad
			}
			win.lat = append(win.lat, nil)
		}
	}
}

// libReport is what a library child prints for its parent.
type libReport struct {
	HarnessNS     int64 // spent generating streams and in hugePages: the harness's work, not the program's set-up
	FirstOpWallNS int64 // wall clock at the first measured op
	M             measured
}

// libInstance is a constructed, preloaded workload ready to measure.
type libInstance struct {
	workers  []*libWorker
	side     func(stop *atomic.Bool, wg *sync.WaitGroup) // optional background goroutine (the resizer)
	counters func(elapsed time.Duration) map[string]float64
	close    func()
}

// libChild runs one library workload in this (fresh) process.
func libChild(sp spec, seed uint64, seconds float64) (*libReport, error) {
	rep := &libReport{}
	t0 := time.Now()
	streams := genLibStreams(sp, seed)
	rep.HarnessNS = int64(time.Since(t0))

	inst, err := buildLib(sp, streams)
	if err != nil {
		return nil, err
	}
	defer inst.close()
	t0 = time.Now()
	rep.M.HugeMB = hugePages()
	rep.HarnessNS += int64(time.Since(t0))

	var wg sync.WaitGroup
	for _, w := range inst.workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for c := 0; c < libWarmChunks; c++ {
				w.chunk()
			}
		}()
	}
	wg.Wait()
	rep.FirstOpWallNS = time.Now().UnixNano()

	var stop atomic.Bool
	var sideWG sync.WaitGroup
	if inst.side != nil {
		inst.side(&stop, &sideWG)
	}
	per := time.Duration(seconds / satSlices * float64(time.Second))
	wins := make([]window, len(inst.workers))
	bads := make([]uint64, len(inst.workers))
	cpu0, err := procCPU(os.Getpid())
	if err != nil {
		return nil, err
	}
	start := time.Now()
	for i, w := range inst.workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			wins[i], bads[i] = runChunks(w, start, satSlices, per)
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	cpu1, err := procCPU(os.Getpid())
	if err != nil {
		return nil, err
	}
	stop.Store(true)
	sideWG.Wait()

	m := &rep.M
	m.SliceOpsPerS = sliceRates(wins)
	m.OpsPerS = median(m.SliceOpsPerS)
	for i, w := range wins {
		for _, n := range w.ops {
			m.Attempted += n
		}
		m.Failed += bads[i]
	}
	m.P50US, m.P99US, m.P50Samples, m.P99Supported = latencySummary(mergeLat(wins))
	m.P99Samples = m.P50Samples
	m.CPUUSPerOp = float64((cpu1 - cpu0).Microseconds()) / float64(m.Attempted)
	m.Counters = inst.counters(elapsed)
	if m.PeakRSSMB, err = procPeakRSS(os.Getpid()); err != nil {
		return nil, err
	}
	return rep, nil
}

// genLibStreams draws one stream per goroutine.
func genLibStreams(sp spec, seed uint64) [][]uint32 {
	switch sp.Name {
	case "lib-read-resize":
		return [][]uint32{genReadStream(sp.Keys, 1<<20, subSeed(seed, 0))}
	case "lib-read-big-flat":
		// 90% of the draws land on stored keys.
		space := sp.Keys * 10 / 9
		out := make([][]uint32, conns)
		for i := range out {
			out[i] = genReadStream(space, 1<<21, subSeed(seed, i))
		}
		return out
	default: // lib-churn
		out := make([][]uint32, conns)
		for i := range out {
			out[i] = genChurnStream(sp.LowKeys/conns, sp.Keys/conns, subSeed(seed, i))
		}
		return out
	}
}

// flatGroups sizes lib-read-big-flat's table once and for all: four
// keys per eight-cell group (the table rounds up to a power of two), so
// the workload never resizes and few groups spill.
func flatGroups(sp spec) uint64 { return uint64(sp.Keys) / 4 }

// churnBase separates the goroutines' key ranges: each inserts
// upward from its own base and never meets the other.
func churnBase(worker int) uint64 { return uint64(worker) << 40 }

func domainCounters(d *rcu.Domain, out map[string]float64) {
	ds := d.Stats()
	out["rcu.grace_periods"] = float64(ds.GracePeriods)
	out["rcu.deferred_backlog"] = float64(ds.Deferred - ds.DeferredRan)
}

func tableCounters(st rphash.Stats, out map[string]float64) {
	out["core.expands"] = float64(st.Expands)
	out["core.shrinks"] = float64(st.Shrinks)
	out["core.unzip_passes"] = float64(st.UnzipPasses)
	out["core.auto_grows"] = float64(st.AutoGrows)
	out["core.auto_shrinks"] = float64(st.AutoShrinks)
	out["core.max_chain"] = float64(st.MaxChain)
	out["core.load_factor"] = st.LoadFactor
	out["core.flat_spill_ratio"] = st.FlatSpillRatio()
	if n := st.CASFastInserts + st.CASFallbacks; n > 0 {
		out["core.cas_fallback_ratio"] = float64(st.CASFallbacks) / float64(n)
	}
	if st.StripeAcquires > 0 {
		out["core.stripe_contended_ratio"] = float64(st.StripeContended) / float64(st.StripeAcquires)
	}
}

// buildLib constructs and preloads the workload through the public
// veneer, exactly as a caller of the library would.
func buildLib(sp spec, streams [][]uint32) (*libInstance, error) {
	switch sp.Name {
	case "lib-read-resize":
		t := rphash.NewUint64[uint64](rphash.WithInitialBuckets(sp.Buckets))
		for k := uint64(0); k < uint64(sp.Preload); k++ {
			t.Set(k, libValue(k))
		}
		w := &libWorker{t: t, stream: streams[0], preloaded: uint64(sp.Preload)}
		w.one = w.readOne
		var resizeNS []float64
		return &libInstance{
			workers: []*libWorker{w},
			// The resizer flips the table between Buckets and 2×Buckets
			// without pause, so lookups run beside an unzip or a zip for
			// the whole window.
			side: func(stop *atomic.Bool, wg *sync.WaitGroup) {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for big := true; !stop.Load(); big = !big {
						n := sp.Buckets
						if big {
							n *= 2
						}
						t0 := time.Now()
						t.Resize(n)
						resizeNS = append(resizeNS, float64(time.Since(t0)))
					}
				}()
			},
			counters: func(elapsed time.Duration) map[string]float64 {
				out := map[string]float64{
					"core.resize_ms":     median(resizeNS) / 1e6,
					"core.resizes_per_s": float64(len(resizeNS)) / elapsed.Seconds(),
				}
				tableCounters(t.Stats(), out)
				domainCounters(t.Domain(), out)
				return out
			},
			close: t.Close,
		}, nil

	case "lib-read-big-flat":
		t := rphash.NewUint64[uint64](rphash.WithEngine(rphash.EngineFlat), rphash.WithInitialBuckets(flatGroups(sp)))
		for k := uint64(0); k < uint64(sp.Preload); k++ {
			t.Set(k, libValue(k))
		}
		inst := &libInstance{
			counters: func(time.Duration) map[string]float64 {
				out := map[string]float64{}
				tableCounters(t.Stats(), out)
				domainCounters(t.Domain(), out)
				return out
			},
			close: t.Close,
		}
		for _, s := range streams {
			w := &libWorker{t: t, stream: s, preloaded: uint64(sp.Preload)}
			w.one = w.readOne
			inst.workers = append(inst.workers, w)
		}
		return inst, nil

	case "lib-churn":
		// A Map has no resize policy unless given one; the workload is
		// about auto-grow and auto-shrink, so it installs the default.
		m := rphash.NewMapUint64[uint64](rphash.WithMapPolicy(rphash.DefaultPolicy()))
		inst := &libInstance{
			counters: func(time.Duration) map[string]float64 {
				out := map[string]float64{}
				tableCounters(m.Stats(), out)
				domainCounters(m.Domain(), out)
				return out
			},
			close: m.Close,
		}
		for i, s := range streams {
			w := &libWorker{t: m, stream: s, tail: churnBase(i), head: churnBase(i)}
			for n := 0; n < sp.LowKeys/conns; n++ {
				m.Insert(w.head, libValue(w.head))
				w.head++
			}
			w.one = w.churnOne
			inst.workers = append(inst.workers, w)
		}
		return inst, nil
	}
	return nil, fmt.Errorf("no library workload %q", sp.Name)
}

// runner knows how to start the two programs a run needs: this binary
// again (library children) and the server under test.
type runner struct {
	self      string   // path that re-executes this program
	selfEnv   []string // extra environment for it (tests mark the child through it)
	memcached string
	scale     float64
}

// runLib measures one library workload in rounds, each an equal share
// of seconds in a fresh process, so that no GC state or resident
// memory is inherited.
func (r runner) runLib(ctx context.Context, sp spec, seed uint64, seconds float64, rounds int) (*measured, error) {
	ms := make([]*measured, rounds)
	for k := range ms {
		cmd := exec.CommandContext(ctx, r.self,
			"-child", "-workload", sp.Name, "-seed", strconv.FormatUint(seed, 10),
			"-seconds", strconv.FormatFloat(seconds/float64(rounds), 'g', -1, 64),
			"-scale", strconv.FormatFloat(r.scale, 'g', -1, 64))
		cmd.Env = append(os.Environ(), r.selfEnv...)
		cmd.Stderr = os.Stderr
		cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
		spawned := time.Now().UnixNano()
		out, err := cmd.Output()
		if err != nil {
			return nil, fmt.Errorf("%s child: %w", sp.Name, err)
		}
		rep := &libReport{}
		if err := json.Unmarshal(out, rep); err != nil {
			return nil, fmt.Errorf("%s child: bad report: %w", sp.Name, err)
		}
		// Process start to first measured op, less the time the child
		// spent on the harness's own work.
		rep.M.SetupS = []float64{float64(rep.FirstOpWallNS-spawned-rep.HarnessNS) / 1e9}
		ms[k] = &rep.M
	}
	return combine(ms), nil
}
