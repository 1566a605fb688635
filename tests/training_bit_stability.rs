//! Single-threaded training is pinned bit for bit: a fixed fit and a fixed
//! LINE run must produce exactly the embedding bytes recorded here. The
//! other determinism tests compare the code with itself, so they cannot
//! see a moved RNG stream or a reordered update; these constants can.
//! Change them only together with a deliberate change to the training
//! streams, and say so in the change log.

use actor_st::embed::{LineOrder, LineParams, LineTrainer};
use actor_st::prelude::*;
use actor_st::resilience::crc32;

/// CRC-32 of `store().to_bytes()` after the 1-thread fast fit below.
const FIT_STORE_CRC: u32 = 0xcfc4_dcd4;
/// CRC-32 of `to_bytes()` of the 1-thread LINE stores below, first and
/// second order.
const LINE_FIRST_CRC: u32 = 0x09b1_6bb5;
const LINE_SECOND_CRC: u32 = 0xac78_9834;

#[test]
fn single_thread_fit_matches_the_recorded_store() {
    let (corpus, _) = generate(DatasetPreset::Utgeo2011.small_config(5)).unwrap();
    let split = CorpusSplit::new(&corpus, SplitSpec::default()).unwrap();
    let mut config = ActorConfig::fast();
    config.threads = 1;
    let (model, _) = fit(&corpus, &split.train, &config).unwrap();
    let crc = crc32(&model.store().to_bytes());
    assert_eq!(crc, FIT_STORE_CRC, "fit store CRC {crc:#010x}");
}

#[test]
fn single_thread_line_matches_the_recorded_stores() {
    // A ring with chords: connected, uneven degrees, 300 vertices.
    let n = 300u32;
    let edges: Vec<(u32, u32, f64)> = (0..n)
        .flat_map(|i| {
            [
                (i, (i + 1) % n, 1.0),
                (i, (i * 7 + 3) % n, 0.5 + f64::from(i % 5)),
            ]
        })
        .filter(|&(a, b, _)| a != b)
        .collect();
    let trainer = LineTrainer::new(n as usize, &edges).unwrap();
    for (order, expect) in [
        (LineOrder::First, LINE_FIRST_CRC),
        (LineOrder::Second, LINE_SECOND_CRC),
    ] {
        let store = trainer.train(LineParams {
            dim: 16,
            samples: 60_000,
            threads: 1,
            order,
            seed: 0x5EED,
            ..LineParams::default()
        });
        let crc = crc32(&store.to_bytes());
        assert_eq!(crc, expect, "LINE {order:?} store CRC {crc:#010x}");
    }
}
