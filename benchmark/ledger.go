package main

import (
	"fmt"
	"io"
	"net"
	"runtime"
	"sync/atomic"
	"time"

	"rphash/internal/cache"
	"rphash/internal/core"
	"rphash/internal/hashfn"
	"rphash/internal/memcache"
	"rphash/internal/rcu"
	"rphash/internal/shard"
)

// The layer ledger replays the head of a workload's own op stream,
// single-threaded and pre-generated, through each layer the workload
// touches, bottom up, timing the calls into the layer's public API
// from here. A layer's cost is cumulative (everything below it runs
// too); its self time is its cost minus the cost of the layer below.

// span is one sampled op at one layer. The same op_id at every layer
// is the same op of the same stream.
type span struct {
	Workload string `json:"workload"`
	Layer    string `json:"layer"`
	Op       string `json:"op"`
	OpID     int    `json:"op_id"`
	StartNS  int64  `json:"start_ns"` // from the start of the layer's replay
	DurNS    int64  `json:"dur_ns"`
}

// Cost classes: lookups, and everything that writes (set, insert,
// delete), reported as get_* and set_*.
const (
	classGet = iota
	classSet
)

func classOf(kind uint8) int {
	if kind == opGet {
		return classGet
	}
	return classSet
}

var opNames = [...]string{opGet: "get", opSet: "set", opDel: "delete"}

// generatorStep is the replay that prices the benchmark's own client;
// it is not a layer of the program, and the wire layers are reported
// net of it.
const generatorStep = "generator"

// layerCost is one layer's replay, by class.
type layerCost struct {
	ns     [2]time.Duration // summed time, clock reads included
	calls  [2]uint64        // clock reads included in ns
	keys   [2]uint64        // ops: a multi-get of MultiGet keys is MultiGet ops
	allocs uint64
	bytes  uint64
	failed uint64
}

// perOp is the class's cost per op with the clock reads taken out.
func (c *layerCost) perOp(class int, tick time.Duration) float64 {
	if c.keys[class] == 0 {
		return 0
	}
	return float64(c.ns[class]-time.Duration(c.calls[class])*tick) / float64(c.keys[class])
}

type ledger struct {
	workload string
	maxOps   int           // requests replayed per layer, at most
	budget   time.Duration // wall time per layer, at most
	tick     time.Duration // cost of one clock read
	spans    []span
	cost     map[string]*layerCost
	hashNS   float64            // hashfn step, per key
	hugeMB   float64            // library: what hugePages converted before the topmost layer's replay
	extra    map[string]float64 // counters read from the layers after their replay
}

// hashSink receives the hashfn steps' results so the compiler cannot
// drop the hashing.
var hashSink uint64

// ledgerMaxOps is how much of the stream each layer replays when its
// time budget allows.
const ledgerMaxOps = 1_000_000

func newLedger(workload string, layers int, seconds float64) *ledger {
	return &ledger{
		workload: workload,
		maxOps:   ledgerMaxOps,
		budget:   time.Duration(seconds / float64(layers) * float64(time.Second)),
		tick:     clockReadCost(),
		spans:    make([]span, 0, layers*(ledgerMaxOps/sampleEvery+1)),
		cost:     map[string]*layerCost{},
		extra:    map[string]float64{},
	}
}

// clockReadCost measures one time.Since, the per-call overhead replay
// subtracts.
func clockReadCost() time.Duration {
	const n = 1 << 16
	base := time.Now()
	t0 := time.Since(base)
	for i := 0; i < n; i++ {
		time.Since(base)
	}
	return (time.Since(base) - t0) / n
}

// replay runs do(i) for i = 0, 1, ... until the stream head or the
// layer's budget is used up, and charges the time to the class of
// kindOf(i). The clock is read only where the kind changes and around
// every sampleEvery-th op (whose span is recorded): a run of lookups
// is timed as a whole, because a clock read between two lookups would
// stop the processor overlapping their cache misses, which a real
// caller's loop enjoys.
func (l *ledger) replay(layer string, maxOps int, kindOf func(i int) uint8, do func(i int) (keys int, bad uint64)) {
	c := &layerCost{}
	l.cost[layer] = c
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	base := time.Now()
	var prev time.Duration // the last clock read
	var run uint8          // kind of the ops since then
	charge := func(now time.Duration) {
		c.ns[classOf(run)] += now - prev
		c.calls[classOf(run)]++
		prev = now
	}
	for i := 0; i < maxOps; i++ {
		kind := kindOf(i)
		sampled := i%sampleEvery == 0
		if i > 0 && (kind != run || sampled) {
			charge(time.Since(base))
		}
		run = kind
		keys, bad := do(i)
		c.keys[classOf(kind)] += uint64(keys)
		c.failed += bad
		if sampled {
			now := time.Since(base)
			l.spans = append(l.spans, span{l.workload, layer, opNames[kind], i, int64(prev), int64(now - prev)})
			charge(now)
			if now > l.budget {
				break
			}
		}
	}
	charge(time.Since(base))
	runtime.ReadMemStats(&m1)
	c.allocs = m1.Mallocs - m0.Mallocs
	c.bytes = m1.TotalAlloc - m0.TotalAlloc
}

// totals sums what the replays attempted and got wrong.
func (l *ledger) totals() (attempted, failed uint64) {
	for _, c := range l.cost {
		attempted += c.keys[classGet] + c.keys[classSet]
		failed += c.failed
	}
	return
}

// metrics writes the stacked timings. hashName is the hashfn metric
// this workload's key type fills. The protocol and socket steps run
// the benchmark's client as well as the program; the generator step's
// cost is taken out of both.
func (l *ledger) metrics(hashName string, out map[string]float64) {
	out[hashName] = l.hashNS
	cum := [2][]float64{{l.hashNS}, {l.hashNS}}
	for _, name := range ledgerLayers {
		c := l.cost[name]
		if c == nil {
			c = &layerCost{}
		}
		for cl := range cum {
			v := c.perOp(cl, l.tick)
			if gen := l.cost[generatorStep]; gen != nil && (name == "protocol" || name == "socket") {
				v -= gen.perOp(cl, l.tick)
			}
			cum[cl] = append(cum[cl], v)
		}
		if n := c.keys[classGet] + c.keys[classSet]; n > 0 {
			out[name+".allocs_per_op"] = float64(c.allocs) / float64(n)
			out[name+".bytes_per_op"] = float64(c.bytes) / float64(n)
		}
	}
	for cl, suffix := range []string{"get", "set"} {
		self := selfTimes(cum[cl])
		for i, name := range ledgerLayers {
			out[name+"."+suffix+"_ns"] = cum[cl][i+1]
			out[name+"."+suffix+"_self_ns"] = self[i+1]
		}
	}
	if gen := l.cost[generatorStep]; gen != nil {
		out["gen.get_ns"] = gen.perOp(classGet, l.tick)
		out["gen.set_ns"] = gen.perOp(classSet, l.tick)
	}
	for k, v := range l.extra {
		out[k] = v
	}
}

// heapDelta reports how much live heap fn left behind.
func heapDelta(fn func()) float64 {
	var a, b runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&a)
	fn()
	runtime.GC()
	runtime.ReadMemStats(&b)
	return float64(b.HeapAlloc) - float64(a.HeapAlloc)
}

// synchronizeCost is the median of up to 1000 Synchronize calls on a
// fresh domain with one reader entering and leaving sections as fast
// as it can, in µs.
func synchronizeCost() float64 {
	d := rcu.NewDomain()
	defer d.Close()
	var stop atomic.Bool
	done := make(chan struct{})
	go func() {
		defer close(done)
		r := d.Register()
		defer r.Close()
		for !stop.Load() {
			r.Lock()
			r.Unlock()
		}
	}()
	var us []float64
	for begin := time.Now(); len(us) < 1000 && time.Since(begin) < time.Second; {
		t0 := time.Now()
		d.Synchronize()
		us = append(us, float64(time.Since(t0))/1e3)
	}
	stop.Store(true)
	<-done
	return median(us)
}

// storePolicy is the resize policy RPStore gives its cache; the
// ledger's lower layers use the same so that every layer resizes at
// the same points of the stream.
var storePolicy = core.Policy{MaxLoad: 2, MinLoad: 0.125, MinBuckets: 1024}

// itemLayer is one in-process layer of a TCP workload's stack, as the
// layer above it would call it.
type itemLayer struct {
	get1  func(key string) (*memcache.Item, bool)
	getN  func(keys []string, out []*memcache.Item) // nil: the layer has no batch lookup
	set   func(it *memcache.Item)
	after func(out map[string]float64) // optional: counters to read before close
	close func()
}

// mcLedger is the state the TCP workloads' replays share.
type mcLedger struct {
	*ledger
	sp     spec
	stream *mcStream
	tab    []byte
	keys   []string
	// pre[k] is key k's preloaded item (value version 0), shared by
	// every step. cur[k] is the item the current step stored last
	// under k: in process, a hit must return exactly that pointer.
	pre, cur []*memcache.Item
}

func (x *mcLedger) kindOf(i int) uint8 { return x.stream.kind[i%x.stream.len()] }

func (x *mcLedger) judge(k uint32, it *memcache.Item, ok bool) uint64 {
	if !ok {
		if x.sp.MissLegal || x.cur[k] == nil {
			return 0
		}
		return 1
	}
	if it != x.cur[k] {
		return 1
	}
	return 0
}

// inproc preloads a layer and replays the stream through it.
func (x *mcLedger) inproc(name string, L itemLayer) {
	defer L.close()
	clear(x.cur)
	load := func() {
		for k := 0; k < x.sp.Preload; k++ {
			x.cur[k] = x.pre[k]
			L.set(x.pre[k])
		}
	}
	if name == "core" {
		// The items exist already, so what preload adds to the heap is
		// the table's own structure.
		x.extra["core.bytes_per_item"] = heapDelta(load) / float64(x.sp.Preload)
	} else {
		load()
	}
	ks := make([]string, x.sp.MultiGet)
	out := make([]*memcache.Item, x.sp.MultiGet)
	x.replay(name, x.maxOps, x.kindOf, func(i int) (int, uint64) {
		kind, keys := x.stream.req(i)
		if kind == opSet {
			k := keys[0]
			it := &memcache.Item{Key: x.keys[k], Value: make([]byte, x.sp.ValueSize)}
			x.cur[k] = it
			L.set(it)
			return 1, 0
		}
		var bad uint64
		if L.getN == nil || len(keys) == 1 {
			for _, k := range keys {
				it, ok := L.get1(x.keys[k])
				bad += x.judge(k, it, ok)
			}
		} else {
			for j, k := range keys {
				ks[j] = x.keys[k]
			}
			L.getN(ks, out)
			for j, k := range keys {
				bad += x.judge(k, out[j], out[j] != nil)
			}
		}
		return len(keys), bad
	})
	if L.after != nil {
		L.after(x.extra)
	}
}

// serve starts a memcache.Server over a preloaded RPStore on ln and
// returns the function that stops it and waits for it.
func (x *mcLedger) serve(ln net.Listener) (stop func()) {
	store := memcache.NewRPStore(x.sp.MaxBytes)
	for k := 0; k < x.sp.Preload; k++ {
		store.Set(x.pre[k])
	}
	srv := memcache.NewServer(store, 0)
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	return func() {
		srv.Close() // closes the store and the connections, and waits for the handlers
		ln.Close()  // already closed unless Close won the race with Serve
		<-served
	}
}

// clientDo replays the stream through one generator connection,
// verifying replies as the TCP workloads do.
func (x *mcLedger) clientDo(name string, maxOps int, c *mcConn) error {
	var stepErr error
	x.replay(name, maxOps, x.kindOf, func(i int) (int, uint64) {
		kind, keys := x.stream.req(i)
		if stepErr != nil {
			return 0, 0
		}
		before := c.Failed
		if stepErr = c.do(kind, keys); stepErr != nil {
			return len(keys), uint64(len(keys))
		}
		return len(keys), c.Failed - before
	})
	if stepErr != nil {
		return fmt.Errorf("ledger %s: %w", name, stepErr)
	}
	return nil
}

// wire serves a preloaded RPStore on ln and replays the stream over
// one client connection.
func (x *mcLedger) wire(name string, ln net.Listener, dial func() (net.Conn, error)) error {
	defer x.serve(ln)()
	nc, err := dial()
	if err != nil {
		return err
	}
	defer nc.Close()
	return x.clientDo(name, x.maxOps, newMCConn(0, &x.sp, nc, x.tab))
}

// The generator step records the server's replies to the head of the
// stream, at most this many bytes of them and for at most this long.
const (
	recordBytes = 32 << 20
	recordFor   = 500 * time.Millisecond
)

// generator prices the benchmark's own client: it records a server's
// replies to the head of the stream, then replays that head through a
// fresh client whose connection hands the recorded bytes back and
// discards what is written. What this step costs is the client's
// rendering, parsing and verification; the protocol and socket steps
// run the same client code, and their figures are reported net of it.
func (x *mcLedger) generator() error {
	ln := newMemListener()
	stop := x.serve(ln)
	nc, err := ln.Dial()
	if err != nil {
		stop()
		return err
	}
	rec := &recordingConn{Conn: nc, replies: make([]byte, 0, recordBytes+(1<<20))}
	c := newMCConn(0, &x.sp, rec, x.tab)
	n := 0
	for begin := time.Now(); err == nil && n < x.maxOps && len(rec.replies) < recordBytes && time.Since(begin) < recordFor; n++ {
		kind, keys := x.stream.req(n)
		err = c.do(kind, keys)
	}
	nc.Close()
	stop()
	if err != nil {
		return fmt.Errorf("ledger generator: recording: %w", err)
	}
	return x.clientDo(generatorStep, n, newMCConn(0, &x.sp, &cannedConn{replies: rec.replies}, x.tab))
}

// recordingConn keeps a copy of everything read from Conn.
type recordingConn struct {
	net.Conn
	replies []byte
}

func (c *recordingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.replies = append(c.replies, p[:n]...)
	return n, err
}

// cannedConn is the client end of a connection to nobody: reads
// return the recorded replies in order, writes are discarded. Only
// Read and Write are ever called on it.
type cannedConn struct {
	net.Conn
	replies []byte
}

func (c *cannedConn) Read(p []byte) (int, error) {
	if len(c.replies) == 0 {
		return 0, io.EOF
	}
	n := copy(p, c.replies)
	c.replies = c.replies[n:]
	return n, nil
}

func (c *cannedConn) Write(p []byte) (int, error) { return len(p), nil }

// ledgerMC runs the seven steps of a TCP workload's stack.
func ledgerMC(sp spec, seed uint64, seconds float64) (*ledger, error) {
	x := &mcLedger{
		ledger: newLedger(sp.Name, 1+len(ledgerLayers), seconds),
		sp:     sp,
		stream: genMCStream(sp, seed, 0),
		tab:    renderKeys(sp.Keys),
		keys:   make([]string, sp.Keys),
		pre:    make([]*memcache.Item, sp.Preload),
		cur:    make([]*memcache.Item, sp.Keys),
	}
	for k := range x.keys {
		x.keys[k] = string(x.tab[k*keyLen : (k+1)*keyLen])
	}
	slab := make([]byte, sp.Preload*sp.ValueSize)
	items := make([]memcache.Item, sp.Preload)
	for k := range items {
		v := slab[k*sp.ValueSize : (k+1)*sp.ValueSize : (k+1)*sp.ValueSize]
		fillValue(v, uint32(k), 0)
		items[k] = memcache.Item{Key: x.keys[k], Value: v}
		x.pre[k] = &items[k]
	}

	// hashfn: every key of the stream head through the string hash.
	var h uint64
	var hashed int
	t0 := time.Now()
	for i := 0; i < min(x.maxOps, x.stream.len()); i++ {
		_, keys := x.stream.req(i)
		for _, k := range keys {
			h ^= hashfn.String(x.keys[k], 0)
		}
		hashed += len(keys)
	}
	x.hashNS = float64(time.Since(t0)) / float64(max(hashed, 1))
	hashSink = h

	t := core.NewString[*memcache.Item](core.WithInitialBuckets(storePolicy.MinBuckets), core.WithPolicy(storePolicy))
	x.inproc("core", itemLayer{
		get1:  t.Get,
		set:   func(it *memcache.Item) { t.Set(it.Key, it) },
		close: t.Close,
	})

	m := shard.NewString[*memcache.Item](shard.WithInitialBuckets(storePolicy.MinBuckets), shard.WithPolicy(storePolicy))
	oks := make([]bool, sp.MultiGet)
	x.inproc("shard", itemLayer{
		get1:  m.Get,
		getN:  func(ks []string, out []*memcache.Item) { m.GetBatch(ks, out, oks[:len(ks)]) },
		set:   func(it *memcache.Item) { m.Set(it.Key, it) },
		close: m.Close,
	})

	c := cache.NewString[*memcache.Item](cache.WithMaxCost(sp.MaxBytes),
		cache.WithInitialBuckets(storePolicy.MinBuckets), cache.WithPolicy(storePolicy),
		cache.WithSweepInterval(100*time.Millisecond))
	cget, crelease := c.NewGetter()
	x.inproc("cache", itemLayer{
		get1: cget,
		getN: func(ks []string, out []*memcache.Item) { c.GetMulti(ks, out, nil) },
		set:  func(it *memcache.Item) { c.SetExpiresAt(it.Key, it, time.Time{}, it.Size()) },
		// The table counters of a TCP workload come from here: the
		// cache is the topmost layer that exposes its map and domain.
		after: func(out map[string]float64) {
			tableCounters(c.Stats().Map.Stats, out)
			domainCounters(c.Domain(), out)
		},
		close: func() { crelease(); c.Close() },
	})

	s := memcache.NewRPStore(sp.MaxBytes)
	sget, srelease := s.NewGetter()
	x.inproc("rpstore", itemLayer{
		get1:  sget,
		getN:  s.GetMulti,
		set:   s.Set,
		close: func() { srelease(); s.Close() },
	})

	if err := x.generator(); err != nil {
		return nil, err
	}
	mem := newMemListener()
	if err := x.wire("protocol", mem, mem.Dial); err != nil {
		return nil, err
	}
	tcp, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := tcp.Addr().String()
	if err := x.wire("socket", tcp, func() (net.Conn, error) { return net.Dial("tcp", addr) }); err != nil {
		return nil, err
	}
	return x.ledger, nil
}

// ledgerLib runs a library workload's stream through hashfn, the core
// table and, for lib-churn, the sharded map above it.
func ledgerLib(sp spec, seed uint64, seconds float64) *ledger {
	stream := genLibStreams(sp, seed)[0]
	layers := 2
	if sp.Name == "lib-churn" {
		layers = 3
	}
	l := newLedger(sp.Name, layers, seconds)

	var h uint64
	n := min(l.maxOps, len(stream))
	t0 := time.Now()
	for _, w := range stream[:n] {
		h ^= hashfn.Uint64(uint64(w), 0)
	}
	l.hashNS = float64(time.Since(t0)) / float64(n)
	hashSink = h

	run := func(name string, t u64Table, closeFn func()) {
		defer closeFn()
		w := &libWorker{t: t, stream: stream}
		w.one = w.readOne
		kindOf := func(int) uint8 { return opGet }
		load := func() {
			for k := uint64(0); k < uint64(sp.Preload); k++ {
				t.Insert(k, libValue(k))
			}
			w.preloaded = uint64(sp.Preload)
		}
		if sp.Name == "lib-churn" {
			w.one = w.churnOne
			kindOf = func(int) uint8 { return uint8(w.stream[w.pos] & 3) }
			load = func() {
				for ; w.head < uint64(sp.LowKeys/conns); w.head++ {
					t.Insert(w.head, libValue(w.head))
				}
			}
		}
		if name == "core" {
			grew := heapDelta(load)
			l.extra["core.bytes_per_item"] = grew / float64(max(w.preloaded, w.head))
		} else {
			load()
		}
		l.hugeMB = hugePages() // as the library children do before they measure
		l.replay(name, l.maxOps, kindOf, func(int) (int, uint64) {
			_, bad := w.one()
			return 1, bad
		})
	}

	var t *core.Table[uint64, uint64]
	switch sp.Name {
	case "lib-read-resize":
		t = core.NewUint64[uint64](core.WithInitialBuckets(sp.Buckets))
	case "lib-read-big-flat":
		t = core.NewUint64[uint64](core.WithEngine(core.EngineFlat), core.WithInitialBuckets(flatGroups(sp)))
	default:
		t = core.NewUint64[uint64](core.WithPolicy(core.DefaultPolicy()))
	}
	run("core", t, t.Close)
	if sp.Name == "lib-churn" {
		m := shard.NewUint64[uint64](shard.WithPolicy(core.DefaultPolicy()))
		run("shard", m, m.Close)
	}
	return l
}
