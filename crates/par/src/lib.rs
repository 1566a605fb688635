//! `actor-par` — deterministic scoped-thread data parallelism: the one
//! runtime that spawns sharded work in this workspace.
//!
//! Two kinds of caller share it. The preprocessing stages — hotspot
//! detection, co-occurrence counting, alias/negative-table construction,
//! meta-graph instance counting — shard their *items* across [`threads`]
//! workers. Hogwild training (`embed::hogwild`) splits a *sample budget*
//! over an explicit worker count through [`par_budget`]. Both get:
//!
//! * **Deterministic shard boundaries** — [`shards`] cuts `len` items into
//!   contiguous ranges whose sizes differ by at most one
//!   (`base + (s < extra)`).
//! * **Per-shard seeds** — [`shard_seed`] is the golden-ratio stream
//!   derivation, so sharded randomized work keeps seed-stable streams per
//!   shard.
//! * **`ACTOR_THREADS` override** — [`threads`] resolves the worker count
//!   from the programmatic override, then the `ACTOR_THREADS` environment
//!   variable, then the machine's available parallelism.
//!
//! The central correctness requirement of the parallel front-end is that
//! **parallel output is bit-identical to serial output** for any thread
//! count: callers must combine per-shard results with an order-canonical
//! merge (shard 0 first, then shard 1, …), never first-writer-wins. The
//! combinators here hand results back in shard order to make that the
//! path of least resistance; `tests/parallel_determinism.rs` at the
//! workspace root holds the pipeline to it.
//!
//! All spawning uses `std::thread::scope`, so borrowed inputs need no
//! `'static` bounds. Shard 0 runs on the calling thread; when any shard of
//! a multi-shard region panics, the others are still joined and the lowest
//! failing shard is re-raised on the caller with the shard named.

use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard};

/// Environment variable overriding the preprocessing thread count.
pub const ENV_THREADS: &str = "ACTOR_THREADS";

/// Golden-ratio multiplier of the per-shard seed derivation.
const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;

/// Programmatic thread-count override (0 = unset). Takes precedence over
/// the environment; set through [`override_threads`] only.
static OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Serializes override holders so concurrently running tests/benches
/// cannot observe each other's thread counts.
static OVERRIDE_LOCK: Mutex<()> = Mutex::new(());

/// Worker threads for parallel preprocessing: the [`override_threads`]
/// guard if one is live, else a positive integer `ACTOR_THREADS`, else the
/// machine's available parallelism (1 when unknown).
pub fn threads() -> usize {
    let forced = OVERRIDE.load(Ordering::Relaxed);
    if forced > 0 {
        return forced;
    }
    if let Ok(v) = std::env::var(ENV_THREADS) {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n > 0 {
                return n;
            }
        }
    }
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// RAII guard of a programmatic thread-count override; dropping it
/// restores the previous value. See [`override_threads`].
pub struct ThreadsOverride {
    prev: usize,
    _lock: MutexGuard<'static, ()>,
}

impl Drop for ThreadsOverride {
    fn drop(&mut self) {
        OVERRIDE.store(self.prev, Ordering::Relaxed);
    }
}

/// Forces [`threads`] to return `n` until the guard drops. Guards are
/// process-global and serialized by an internal lock, so two tests that
/// both override block one another instead of racing; keep the guard's
/// scope tight. Panics if `n == 0`.
pub fn override_threads(n: usize) -> ThreadsOverride {
    assert!(n > 0, "thread override must be positive");
    let lock = OVERRIDE_LOCK
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner());
    let prev = OVERRIDE.swap(n, Ordering::Relaxed);
    ThreadsOverride { prev, _lock: lock }
}

/// Cuts `0..len` into at most `n_shards` contiguous ranges whose sizes
/// differ by at most one.
/// Empty trailing shards are not emitted: `shards(3, 8)` is three ranges
/// of one item each. `shards(0, n)` is empty. Panics if `n_shards == 0`.
pub fn shards(len: usize, n_shards: usize) -> Vec<Range<usize>> {
    assert!(n_shards > 0, "need at least one shard");
    let n = n_shards.min(len);
    let mut out = Vec::with_capacity(n);
    if len == 0 {
        return out;
    }
    let base = len / n;
    let extra = len % n;
    let mut start = 0;
    for s in 0..n {
        let size = base + usize::from(s < extra);
        out.push(start..start + size);
        start += size;
    }
    debug_assert_eq!(start, len);
    out
}

/// The deterministic RNG seed of `shard` under base `seed`: shards derived
/// from one seed stay decorrelated yet exactly reproducible. Hogwild
/// worker `t` of a multi-worker run draws from `shard_seed(seed, t)`.
#[inline]
pub fn shard_seed(seed: u64, shard: usize) -> u64 {
    seed ^ GOLDEN.wrapping_mul(shard as u64 + 1)
}

/// Runs `f(shard_index, range)` once per shard of `0..len` across
/// [`threads`] workers and returns the results in shard order.
fn run_sharded<R, F>(len: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize, Range<usize>) -> R + Sync,
{
    run_ranges(shards(len, threads()), f)
}

/// Runs `f(shard_index, range)` once per range and returns the results in
/// shard order.
///
/// Shard 0 runs on the calling thread (a one-shard region spawns nothing
/// and lets a panic through untouched). In a multi-shard region every
/// shard is joined even when one panics; the lowest failing shard is then
/// re-raised here, named.
fn run_ranges<R, F>(ranges: Vec<Range<usize>>, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize, Range<usize>) -> R + Sync,
{
    let n = ranges.len();
    obs::counter("par.regions").incr();
    obs::histogram("par.shards").record(n as u64);
    let mut ranges = ranges.into_iter();
    let Some(first) = ranges.next() else {
        return Vec::new();
    };
    if n == 1 {
        return vec![f(0, first)];
    }
    std::thread::scope(|scope| {
        let f = &f;
        let handles: Vec<_> = ranges
            .enumerate()
            .map(|(i, r)| scope.spawn(move || f(i + 1, r)))
            .collect();
        let inline = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(0, first)));
        let joined = std::iter::once(inline).chain(handles.into_iter().map(|h| h.join()));
        let mut out = Vec::with_capacity(n);
        let mut failed = None;
        for (s, result) in joined.enumerate() {
            match result {
                Ok(v) => out.push(v),
                Err(payload) => {
                    failed.get_or_insert((s, payload));
                }
            }
        }
        if let Some((s, payload)) = failed {
            let detail = payload
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| payload.downcast_ref::<&'static str>().copied())
                .unwrap_or("<non-string panic payload>");
            panic!("par shard {s} of {n} panicked: {detail}");
        }
        out
    })
}

/// Splits a budget of `budget` units (samples, rounds, walks) over
/// `workers` workers and runs `f(shard, units)` once per non-empty shard,
/// returning the results in shard order. Shard sizes are those of
/// [`shards`]`(budget, workers)`: they differ by at most one and a budget
/// smaller than `workers` invokes only `budget` shards of one unit.
///
/// The worker count is the caller's (a training run's configured threads),
/// not [`threads`]. Panics if `workers == 0`, and re-raises a shard's
/// panic like the other combinators.
pub fn par_budget<R, F>(workers: usize, budget: u64, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize, u64) -> R + Sync,
{
    let len = usize::try_from(budget).expect("budget exceeds the address space");
    run_ranges(shards(len, workers), |s, range| f(s, range.len() as u64))
}

/// Maps contiguous chunks of `items` in parallel: `f(shard_index, chunk)`
/// runs once per shard, results return in shard order. The chunk of shard
/// `s` is exactly `&items[shards(items.len(), k)[s]]` for the resolved
/// shard count `k` — deterministic boundaries, order-canonical results.
pub fn par_map_chunks<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &[T]) -> R + Sync,
{
    run_sharded(items.len(), |s, range| f(s, &items[range]))
}

/// Maps every item of `items` in parallel, preserving item order:
/// `out[i] == f(i, &items[i])`. A convenience over [`par_map_chunks`] for
/// small lists of independent heavyweight jobs (per-edge-type CSR, alias
/// and negative tables).
pub fn par_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    run_sharded(items.len(), |_, range| {
        range
            .map(|i| f(i, &items[i]))
            .collect::<Vec<R>>()
    })
    .into_iter()
    .flatten()
    .collect()
}

/// Runs `f(shard_index, range)` for each shard of `0..len` concurrently,
/// for side-effecting work over disjoint index ranges (e.g. filling
/// disjoint slices of a pre-allocated buffer).
pub fn par_for_shards<F>(len: usize, f: F)
where
    F: Fn(usize, Range<usize>) + Sync,
{
    run_sharded(len, f);
}

/// Sharded accumulate-then-merge reduction: each shard folds its items
/// into a fresh accumulator from `init`, then the per-shard accumulators
/// are merged **in shard order** on the calling thread.
///
/// This is the order-canonical replacement for a mutex-guarded shared
/// accumulator: as long as `merge` is associative over the values `fold`
/// produces (integer-valued `f64` co-occurrence counts are — their
/// addition is exact), the result is bit-identical for every thread
/// count, including 1.
pub fn par_accumulate<T, A, I, F, M>(items: &[T], init: I, fold: F, mut merge: M) -> A
where
    T: Sync,
    A: Send,
    I: Fn() -> A + Sync,
    F: Fn(&mut A, usize, &T) + Sync,
    M: FnMut(&mut A, A),
{
    let mut accs = run_sharded(items.len(), |_, range| {
        let mut acc = init();
        for i in range {
            fold(&mut acc, i, &items[i]);
        }
        acc
    })
    .into_iter();
    let mut total = accs.next().unwrap_or_else(&init);
    for acc in accs {
        merge(&mut total, acc);
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;
    use std::sync::atomic::{AtomicU64, AtomicUsize};

    #[test]
    fn shards_cover_and_balance() {
        for len in [0usize, 1, 2, 7, 8, 9, 100, 1003] {
            for n in [1usize, 2, 3, 8, 64] {
                let s = shards(len, n);
                assert!(s.len() <= n);
                let total: usize = s.iter().map(|r| r.len()).sum();
                assert_eq!(total, len, "len={len} n={n}");
                // Contiguous and ascending.
                let mut expect = 0;
                for r in &s {
                    assert_eq!(r.start, expect);
                    assert!(!r.is_empty());
                    expect = r.end;
                }
                // Balanced to within one item.
                if let (Some(max), Some(min)) =
                    (s.iter().map(|r| r.len()).max(), s.iter().map(|r| r.len()).min())
                {
                    assert!(max - min <= 1);
                }
            }
        }
    }

    #[test]
    fn par_budget_covers_the_budget_in_shard_order() {
        // 1003 samples over 4 workers: base=250, extra=3.
        let sizes = par_budget(4, 1003, |s, n| (s, n));
        assert_eq!(sizes, vec![(0, 251), (1, 251), (2, 251), (3, 250)]);
        assert_eq!(par_budget(1, 17, |s, n| (s, n)), vec![(0, 17)]);
        // No shard is invoked for an empty budget.
        assert!(par_budget(4, 0, |_, _| panic!("must not run")).is_empty());
    }

    #[test]
    fn par_budget_below_the_worker_count_runs_only_full_shards() {
        // 3 samples over 8 workers: shards 0..3 of one sample each; shard
        // ids stay positional, so no stream moves with the budget.
        let calls = AtomicUsize::new(0);
        let sizes = par_budget(8, 3, |s, n| {
            calls.fetch_add(1, Ordering::Relaxed);
            (s, n)
        });
        assert_eq!(calls.load(Ordering::Relaxed), 3);
        assert_eq!(sizes, vec![(0, 1), (1, 1), (2, 1)]);
    }

    #[test]
    #[should_panic(expected = "need at least one shard")]
    fn par_budget_rejects_zero_workers() {
        par_budget(0, 10, |_, _| ());
    }

    #[test]
    #[should_panic]
    fn zero_shards_rejected() {
        shards(10, 0);
    }

    #[test]
    fn shard_seeds_are_distinct_and_stable() {
        let seeds: Vec<u64> = (0..16).map(|s| shard_seed(42, s)).collect();
        let mut sorted = seeds.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 16);
        assert_eq!(seeds, (0..16).map(|s| shard_seed(42, s)).collect::<Vec<u64>>());
    }

    #[test]
    fn par_map_chunks_is_order_canonical() {
        let _guard = override_threads(4);
        let items: Vec<u32> = (0..100).collect();
        let sums = par_map_chunks(&items, |_, chunk| chunk.iter().sum::<u32>());
        assert_eq!(sums.len(), 4);
        assert_eq!(sums.iter().sum::<u32>(), (0..100).sum::<u32>());
        // Shard order: shard 0 holds the smallest items.
        assert!(sums[0] < sums[3]);
    }

    #[test]
    fn par_map_preserves_item_order() {
        let _guard = override_threads(3);
        let items: Vec<usize> = (0..17).collect();
        let doubled = par_map(&items, |i, &x| {
            assert_eq!(i, x);
            x * 2
        });
        assert_eq!(doubled, (0..17).map(|x| x * 2).collect::<Vec<usize>>());
    }

    #[test]
    fn par_for_shards_covers_every_index_once() {
        let _guard = override_threads(4);
        let hits: Vec<AtomicU64> = (0..50).map(|_| AtomicU64::new(0)).collect();
        par_for_shards(50, |_, range| {
            for i in range {
                hits[i].fetch_add(1, Ordering::Relaxed);
            }
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn par_accumulate_merges_in_shard_order() {
        let items: Vec<u64> = (0..1000).collect();
        let count = |n_threads: usize| -> HashMap<u64, f64> {
            let _guard = override_threads(n_threads);
            par_accumulate(
                &items,
                HashMap::new,
                |acc, _, &x| *acc.entry(x % 7).or_insert(0.0) += 1.0,
                |total, acc| {
                    for (k, v) in acc {
                        *total.entry(k).or_insert(0.0) += v;
                    }
                },
            )
        };
        let serial = count(1);
        for n in [2, 3, 8] {
            assert_eq!(count(n), serial, "{n} threads");
        }
    }

    #[test]
    fn empty_input_yields_empty_or_init() {
        let empty: [u8; 0] = [];
        assert!(par_map_chunks(&empty, |_, c: &[u8]| c.len()).is_empty());
        assert!(par_map(&empty, |_, &x| x).is_empty());
        par_for_shards(0, |_, _| panic!("must not run"));
        let acc = par_accumulate(&empty, || 7u32, |_, _, _| {}, |a, b| *a += b);
        assert_eq!(acc, 7);
    }

    #[test]
    fn override_guard_restores_previous_value() {
        {
            let _a = override_threads(5);
            assert_eq!(threads(), 5);
        }
        // Guard dropped: back to the environment/machine default, which is
        // at least 1 and not necessarily 5.
        assert!(threads() >= 1);
    }

    #[test]
    fn shard_panic_is_reraised_with_context() {
        let result = std::panic::catch_unwind(|| {
            let _guard = override_threads(4);
            par_for_shards(100, |s, _| {
                if s == 2 {
                    panic!("shard data corrupt");
                }
            });
        });
        let msg = panic_message(result.unwrap_err());
        assert!(msg.contains("par shard 2 of 4 panicked"), "{msg}");
        assert!(msg.contains("shard data corrupt"), "{msg}");
    }

    #[test]
    fn inline_shard_zero_panic_is_named_too() {
        let result = std::panic::catch_unwind(|| {
            let _guard = override_threads(4);
            par_for_shards(100, |s, _| {
                if s == 0 {
                    panic!("shard zero corrupt");
                }
            });
        });
        let msg = panic_message(result.unwrap_err());
        assert!(msg.contains("par shard 0 of 4 panicked"), "{msg}");
        assert!(msg.contains("shard zero corrupt"), "{msg}");
    }

    #[test]
    fn concurrent_shard_panics_report_the_lowest_shard() {
        use std::sync::Barrier;
        // Shards 1 and 3 panic together; the re-raise must name shard 1
        // whichever of them finishes unwinding first.
        let barrier = Barrier::new(2);
        let result = std::panic::catch_unwind(|| {
            let _guard = override_threads(4);
            par_for_shards(100, |s, _| {
                if s == 1 || s == 3 {
                    barrier.wait();
                    panic!("shard {s} corrupt");
                }
            });
        });
        let msg = panic_message(result.unwrap_err());
        assert!(msg.contains("par shard 1 of 4 panicked"), "{msg}");
        assert!(msg.contains("shard 1 corrupt"), "{msg}");
    }

    fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
        payload.downcast_ref::<String>().cloned().unwrap_or_default()
    }
}
