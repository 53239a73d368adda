// Package rcu implements the relativistic-programming synchronization
// primitives the paper's hash table is built on, as a userspace
// epoch-based read-copy-update (RCU) runtime.
//
// The paper ("Resizable, Scalable, Concurrent Hash Tables via
// Relativistic Programming", Triplett, McKenney, Walpole, USENIX
// ATC'11) relies on exactly three primitives, all provided here:
//
//   - Delimited readers: a reader brackets each traversal with
//     Reader.Lock / Reader.Unlock. These are notifications, not
//     permission requests — they never block, never spin on shared
//     state, and never execute an atomic read-modify-write. A read
//     section costs two uncontended atomic stores on a cache line
//     private to the reader, so lookups scale linearly with cores.
//
//   - Pointer publication: writers initialize an object completely and
//     then publish a pointer to it. In Go, sync/atomic loads and
//     stores are sequentially consistent, so an atomic.Pointer store
//     is (more than) the release/acquire pair rcu_assign_pointer /
//     rcu_dereference provide in the kernel. Callers use
//     atomic.Pointer directly; this package documents the contract.
//
//   - Wait-for-readers: Domain.Synchronize returns only after every
//     reader critical section that had begun before the call has
//     finished. Sections that begin after the call may still be in
//     flight — exactly the RCU grace-period contract. Domain.Defer
//     schedules a callback to run after a future grace period
//     (the analogue of call_rcu), batched by a reclaimer goroutine.
//
// # Epoch scheme
//
// A Domain maintains a global epoch counter that is always even.
// Each registered Reader owns a padded state word: 0 when quiescent,
// or epoch|1 captured at section entry. Entry stores the captured
// epoch and then re-reads the global epoch, republishing if it moved.
// Synchronize adds 2 to the epoch and waits for every registered
// reader to be observed either quiescent or carrying a state newer
// than the new epoch.
//
// The entry re-check closes the classic race between a reader storing
// an old epoch and a synchronizer scanning concurrently: with
// sequentially consistent atomics, either the synchronizer's scan
// observes the reader's store (and waits for it), or the reader's
// re-read observes the bumped epoch (and republishes a state the
// synchronizer will not wait for — which is safe, because a section
// that observes the new epoch also observes every store the writer
// made before calling Synchronize).
//
// # Memory reclamation
//
// Go's garbage collector frees unlinked nodes once no reader can
// reach them, so unlike C implementations this package is not needed
// to prevent use-after-free, and a structure whose unlinked nodes are
// simply dropped needs nothing from it on delete: the chain hash
// table's point writes call neither Synchronize nor Defer. Grace
// periods remain algorithmically essential: the hash table's unzip
// operation uses Synchronize to guarantee no reader is mid-traversal
// across a link it is about to redirect. Defer is for memory that is
// reused in place rather than dropped, which in this repository means
// the flat bucket engine's cells: a deleted cell's retire (release its
// value, then let writers refill it) and the one-time clear of a
// cell's inline value slot after the first replace moves the value
// into a heap box. Both run only once no reader can still be looking
// at the old contents.
package rcu
