//! Epoch-based snapshot hot-swap: lock-free reads, rare-path publishes.
//!
//! The query path must never take a lock: a publish (rebuilding an HNSW
//! index takes milliseconds to seconds) stalling every in-flight query
//! would defeat the point of serving. The classic answer is `ArcSwap`;
//! under the zero-external-dependency rule this module hand-rolls the same
//! guarantee from `Arc` + atomics:
//!
//! * The cell holds the current `Arc<Snapshot>` behind a mutex **plus** a
//!   monotonically increasing epoch in an `AtomicU64`.
//! * Every reader thread keeps a thread-local `(epoch, Arc)` pair per
//!   cell. The steady-state read is one atomic load + a thread-local
//!   compare — no locks, no reference-count contention, nothing shared
//!   written at all.
//! * Only when the epoch moved does a reader touch the mutex, clone the
//!   new `Arc` once, and cache it. Each swap therefore costs each reader
//!   thread one brief lock acquisition, amortized over every query until
//!   the next swap.
//!
//! Readers hold a full `Arc` for the duration of a query, so a snapshot is
//! torn-free by construction: the publisher can never free or mutate what
//! a reader is using, and the old snapshot dies when the last in-flight
//! query (or stale thread cache) drops it.

use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use crate::snapshot::Snapshot;

/// Process-wide unique ids so thread-local caches can serve many cells.
static NEXT_CELL_ID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    /// Per-thread `(cell id, epoch, snapshot)` cache. A plain Vec: a
    /// process holds a handful of engines, so a linear scan beats hashing.
    static READER_CACHE: RefCell<Vec<(u64, u64, Arc<Snapshot>)>> = const { RefCell::new(Vec::new()) };
}

/// A hot-swappable slot holding the currently served [`Snapshot`].
pub struct SnapshotCell {
    id: u64,
    /// Epoch of the snapshot in `slot`; written only while `slot`'s lock
    /// is held, so `(epoch, slot)` pairs read under the lock are coherent.
    epoch: AtomicU64,
    slot: Mutex<Arc<Snapshot>>,
}

impl SnapshotCell {
    /// A cell initially serving `snapshot`.
    pub fn new(snapshot: Arc<Snapshot>) -> Self {
        Self {
            id: NEXT_CELL_ID.fetch_add(1, Ordering::Relaxed),
            epoch: AtomicU64::new(snapshot.epoch()),
            slot: Mutex::new(snapshot),
        }
    }

    /// Locks the slot. Poisoning is ignored: the guarded `Arc` is replaced
    /// in one store, so a panicking holder cannot leave it torn.
    fn slot(&self) -> MutexGuard<'_, Arc<Snapshot>> {
        self.slot.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Epoch of the currently published snapshot.
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// The current snapshot. Lock-free in the steady state (atomic load +
    /// thread-local hit); takes the publish mutex once per thread per
    /// swap to refresh the cache.
    pub fn load(&self) -> Arc<Snapshot> {
        let now = self.epoch.load(Ordering::Acquire);
        READER_CACHE.with(|cache| {
            let mut cache = cache.borrow_mut();
            if let Some(entry) = cache.iter_mut().find(|(id, _, _)| *id == self.id) {
                if entry.1 == now {
                    return entry.2.clone();
                }
                // Stale: refresh under the lock. Reading the epoch while
                // holding the lock keeps the cached pair coherent even if
                // another publish raced in between.
                let guard = self.slot();
                let fresh = guard.clone();
                let epoch = self.epoch.load(Ordering::Acquire);
                drop(guard);
                entry.1 = epoch;
                entry.2 = fresh.clone();
                return fresh;
            }
            let guard = self.slot();
            let fresh = guard.clone();
            let epoch = self.epoch.load(Ordering::Acquire);
            drop(guard);
            cache.push((self.id, epoch, fresh.clone()));
            fresh
        })
    }

    /// Publishes `snapshot` (whose epoch must exceed the current one) and
    /// makes it visible to all subsequent `load`s. In-flight readers keep
    /// the snapshot they already hold.
    pub fn store(&self, snapshot: Arc<Snapshot>) {
        let mut guard = self.slot();
        debug_assert!(
            snapshot.epoch() > self.epoch.load(Ordering::Relaxed),
            "epochs must increase monotonically"
        );
        self.epoch.store(snapshot.epoch(), Ordering::Release);
        *guard = snapshot;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::IndexParams;
    use actor_core::ActorConfig;
    use mobility::synth::{generate, DatasetPreset};
    use mobility::{CorpusSplit, SplitSpec};

    fn fitted_model() -> actor_core::TrainedModel {
        let (corpus, _) = generate(DatasetPreset::Foursquare.small_config(41)).unwrap();
        let split = CorpusSplit::new(&corpus, SplitSpec::default()).unwrap();
        actor_core::fit(&corpus, &split.train, &ActorConfig::fast())
            .unwrap()
            .0
    }

    #[test]
    fn load_returns_the_published_snapshot() {
        let model = fitted_model();
        let a = Arc::new(Snapshot::build(&model, &IndexParams::default(), 1));
        let cell = SnapshotCell::new(a.clone());
        assert!(Arc::ptr_eq(&cell.load(), &a));
        assert_eq!(cell.epoch(), 1);

        let b = Arc::new(Snapshot::build(&model, &IndexParams::default(), 2));
        cell.store(b.clone());
        assert!(Arc::ptr_eq(&cell.load(), &b));
        assert_eq!(cell.epoch(), 2);
    }

    #[test]
    fn concurrent_readers_always_see_a_whole_snapshot() {
        let model = fitted_model();
        let base = Arc::new(Snapshot::build(&model, &IndexParams::default(), 1));
        let cell = Arc::new(SnapshotCell::new(base));
        let stop = Arc::new(AtomicU64::new(0));
        std::thread::scope(|s| {
            for _ in 0..4 {
                let cell = cell.clone();
                let stop = stop.clone();
                s.spawn(move || {
                    let mut last_epoch = 0;
                    while stop.load(Ordering::Relaxed) == 0 {
                        let snap = cell.load();
                        // The pair (epoch tag, contents) is immutable once
                        // built; epochs observed never go backwards.
                        assert!(snap.epoch() >= last_epoch);
                        last_epoch = snap.epoch();
                    }
                });
            }
            let publisher = {
                let cell = cell.clone();
                let model = &model;
                s.spawn(move || {
                    for epoch in 2..40 {
                        let snap = Snapshot::build(model, &IndexParams::default(), epoch);
                        cell.store(Arc::new(snap));
                    }
                })
            };
            publisher.join().unwrap();
            stop.store(1, Ordering::Relaxed);
        });
        assert_eq!(cell.epoch(), 39);
    }
}
