//! Hogwild training streams over the `actor-par` runtime.
//!
//! Splits a sample budget across worker threads, each running the caller's
//! closure with its own deterministic RNG stream. Used by LINE
//! pre-training, the ACTOR trainer, the walk-based baselines and the
//! scalability experiments of Fig. 12. Sharding, spawning and panic
//! reporting are [`par::par_budget`]'s; this module owns only the seeding
//! rule.

use rand::{rngs::StdRng, SeedableRng};

/// Runs `total_samples` of work across `n_threads` workers and returns
/// each worker's result in worker order.
///
/// `work(worker, rng, n_samples)` processes its shard; shards are those of
/// [`par::shards`] and differ by at most one sample. A one-worker run
/// seeds its RNG with `seed` itself and is exactly reproducible per seed;
/// worker `t` of a multi-worker run seeds with [`par::shard_seed`]`(seed,
/// t)`, and the workers race benignly on the embedding matrices (by design
/// — see the Hogwild contract in [`crate::store::Matrix`]).
///
/// With fewer samples than workers only the first `total_samples` workers
/// run, one sample each; worker ids are positional, so no worker's stream
/// depends on the budget. An empty budget runs nothing.
///
/// # Panics
///
/// Panics if `n_threads == 0`, or if a worker closure panics: the lowest
/// failing worker is re-raised on the caller, named (e.g. ``par shard 3 of
/// 8 panicked: …``), after every other worker has finished.
pub fn run<R, W>(n_threads: usize, total_samples: u64, seed: u64, work: W) -> Vec<R>
where
    R: Send,
    W: Fn(usize, &mut StdRng, u64) -> R + Sync,
{
    par::par_budget(n_threads, total_samples, |t, n| {
        let stream = if n_threads == 1 {
            seed
        } else {
            par::shard_seed(seed, t)
        };
        work(t, &mut StdRng::seed_from_u64(stream), n)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn single_worker_gets_everything_from_the_base_seed() {
        let draws = run(1, 17, 2, |t, rng, n| (t, n, rng.random::<u64>()));
        let expect = StdRng::seed_from_u64(2).random::<u64>();
        assert_eq!(draws, vec![(0, 17, expect)]);
    }

    #[test]
    fn workers_draw_from_their_shard_seed_streams() {
        let seed = 7;
        let draws = run(3, 1003, seed, |_, rng, _| rng.random::<u64>());
        let expect: Vec<u64> = (0..3)
            .map(|t| StdRng::seed_from_u64(par::shard_seed(seed, t)).random::<u64>())
            .collect();
        assert_eq!(draws, expect);
        assert_ne!(draws[0], draws[1]);
        assert_ne!(draws[1], draws[2]);
    }
}
