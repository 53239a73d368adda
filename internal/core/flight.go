package core

// Flight-recorder wiring for the table's write paths.
//
// Sampling decisions and timestamps live OUTSIDE read-side sections
// and stripe critical sections wherever possible: opStart runs before
// the operation touches the table, opRecord after every lock is
// released. The lock-free read path (lookupHashed) is never
// instrumented — the recorder observes writers only, so the paper's
// wait-free readers stay exactly as cheap with the recorder on as
// off.
//
// Cost model: with no observer or no recorder the probe is one or two
// pointer compares and a zero opProbe. With the recorder on, the
// unsampled case adds one per-stripe atomic increment (the sampling
// ticket); only sampled operations (1 in N) pay for two time.Now
// calls and one seqlock slot publish.

import (
	"time"

	"rphash/internal/obs"
)

// opProbe carries one sampled operation's start state from opStart to
// opRecord. The zero value means "not sampled" and makes opRecord a
// single nil compare.
type opProbe struct {
	rec *obs.Recorder
	t0  time.Time
}

// opStart makes the sampling decision for one write operation keyed
// by hash h. Nil-safe at every level: no observer, no recorder, or an
// unsampled ticket all return the zero probe.
func (t *Table[K, V]) opStart(h uint64) opProbe {
	if o := t.obsv; o != nil {
		if r := o.Ops; r != nil && r.Sample(h) {
			return opProbe{rec: r, t0: time.Now()}
		}
	}
	return opProbe{}
}

// opRecord publishes a sampled operation's record. Callers invoke it
// after releasing every lock the operation took, so the recorded
// latency covers the full operation but the recording itself never
// extends a critical section.
func (t *Table[K, V]) opRecord(p opProbe, h uint64, class obs.OpClass, path obs.OpPath, out obs.OpOutcome) {
	if p.rec == nil {
		return
	}
	lat := time.Since(p.t0).Nanoseconds()
	stripe := int(h & t.stripes.mask.Load())
	p.rec.Record(h, class, path, out, t.eng.name() == EngineFlat, t.obsShard, stripe, lat)
}

// flatOpPath classifies a flat-engine write: an operation that first
// migrated its unit is a migration assist; one that walked a group
// whose overflow chain was populated took the spill path; everything
// else is the plain striped path.
func flatOpPath(assisted, spilled bool) obs.OpPath {
	switch {
	case assisted:
		return obs.PathMigrationAssist
	case spilled:
		return obs.PathSpill
	default:
		return obs.PathStriped
	}
}

func outIf(inserted bool) obs.OpOutcome {
	if inserted {
		return obs.OutInserted
	}
	return obs.OutReplaced
}
