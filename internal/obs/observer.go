package obs

// CmdClass buckets memcached commands into latency classes so the
// per-command service-time histograms stay a small fixed array.
type CmdClass uint8

const (
	CmdGet    CmdClass = iota // get, gets (and multi-key forms)
	CmdStore                  // set, add, replace, append, prepend, cas
	CmdDelete                 // delete
	CmdArith                  // incr, decr
	CmdTouch                  // touch
	CmdOther                  // stats, version, flush_all, ...
	NumCmdClasses
)

func (c CmdClass) String() string {
	switch c {
	case CmdGet:
		return "get"
	case CmdStore:
		return "store"
	case CmdDelete:
		return "delete"
	case CmdArith:
		return "arith"
	case CmdTouch:
		return "touch"
	}
	return "other"
}

// Observer is the per-process observability hub: every layer that is
// instrumented records into one of these. A nil *Observer disables
// all instrumentation — call sites guard with a single pointer check
// — and the histograms themselves are nil-safe for partial wiring.
//
// The histograms are embedded by value so an Observer is one
// allocation and records touch no further pointers.
type Observer struct {
	// GraceWait measures rcu.Domain.Synchronize wall time: how long
	// writers and resizes wait for pre-existing readers to drain.
	GraceWait Histogram
	// StripeWait measures writer stripe-lock acquisition wait, and
	// only on the contended path — uncontended TryLock successes
	// record nothing and cost nothing.
	StripeWait Histogram
	// CacheLoad measures cache.GetOrLoad loader execution time
	// (leader flights only; followers ride the leader's result).
	CacheLoad Histogram
	// Cmd measures memcached per-command service latency (parse to
	// response-buffer write) by command class.
	Cmd [NumCmdClasses]Histogram
	// Events is the resize lifecycle ring.
	Events *Ring
	// Ops is the sampled per-operation flight recorder; nil (the
	// default) disables it at the cost of one pointer compare per
	// write.
	Ops *Recorder
}

// ObserverOption customizes NewObserver.
type ObserverOption func(*Observer)

// WithFlightRecorder attaches a flight recorder sampling 1 in
// sampleEvery write operations into perStripe retained slots per ring
// stripe (<= 0 picks the defaults for either).
func WithFlightRecorder(sampleEvery, perStripe int) ObserverOption {
	return func(o *Observer) { o.Ops = NewRecorder(sampleEvery, perStripe) }
}

// NewObserver returns an Observer with a default-capacity event ring.
func NewObserver(opts ...ObserverOption) *Observer {
	o := &Observer{Events: NewRing(0)}
	for _, opt := range opts {
		opt(o)
	}
	return o
}

// ObserverSnapshot is a point-in-time copy of every Observer metric.
type ObserverSnapshot struct {
	GraceWait  HistogramSnapshot
	StripeWait HistogramSnapshot
	CacheLoad  HistogramSnapshot
	Cmd        [NumCmdClasses]HistogramSnapshot
	Events     []Event
	Ops        []OpRecord
}

// Snapshot captures all histograms and the event ring.
func (o *Observer) Snapshot() ObserverSnapshot {
	var s ObserverSnapshot
	if o == nil {
		return s
	}
	s.GraceWait = o.GraceWait.Snapshot()
	s.StripeWait = o.StripeWait.Snapshot()
	s.CacheLoad = o.CacheLoad.Snapshot()
	for i := range o.Cmd {
		s.Cmd[i] = o.Cmd[i].Snapshot()
	}
	s.Events = o.Events.Snapshot()
	s.Ops = o.Ops.Snapshot()
	return s
}

// Register adds the observer's histograms to a Registry under the
// rphash_* namespace.
func (o *Observer) Register(r *Registry) {
	if o == nil || r == nil {
		return
	}
	r.Histogram("rphash_grace_wait_seconds",
		"RCU grace-period wait latency (Synchronize wall time).", &o.GraceWait)
	r.Histogram("rphash_stripe_wait_seconds",
		"Writer stripe-lock acquisition wait (contended acquisitions only).", &o.StripeWait)
	r.Histogram("rphash_cache_load_seconds",
		"Cache GetOrLoad loader execution latency (leader flights).", &o.CacheLoad)
	for i := CmdClass(0); i < NumCmdClasses; i++ {
		h := &o.Cmd[i]
		r.Histogram("rphash_cmd_"+i.String()+"_seconds",
			"memcached per-command service latency, class "+i.String()+".", h)
	}
	r.Gauge("rphash_events_total",
		"Lifecycle events recorded (monotone; ring retains the last "+
			"capacity of them).", func() float64 { return float64(o.Events.Len()) })
	r.Counter("rphash_events_overwritten_total",
		"Lifecycle events rotated out of the ring before being read; "+
			"nonzero means the ring is too small for the scrape interval.",
		o.Events.Overwritten)
	o.Ops.Register(r)
}
