//! Seeded inputs: the training corpus, a second corpus of the same preset
//! under another seed (query and stream records), and the Zipf-skewed
//! query mix drawn from it. The same seed always gives the same inputs.

use mobility::synth::{generate, DatasetPreset};
use mobility::{Corpus, CorpusSplit, KeywordId, Record, SplitSpec, Vocabulary};
use serve::QueryRequest;

/// Results requested per query (the §6.2.1 top-k).
pub const K: usize = 10;

/// Offset between the training-corpus seed and the seed of the corpus
/// queries and streamed records come from; odd, so the two never match.
const SECOND_CORPUS_OFFSET: u64 = 0x9E37_79B9_7F4A_7C15;

/// Background-vocabulary size of the `serve` corpus: enough that the
/// word modality (~3.8k units) crosses `IndexParams::ann_threshold`.
pub const RICH_BACKGROUND_WORDS: usize = 3000;

/// SplitMix64: a small, fast, seedable generator for input sampling.
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_f64() * n as f64) as usize
    }
}

/// The UTGEO-like preset under `seed`, optionally with a different
/// background vocabulary.
fn preset_corpus(seed: u64, background_words: Option<usize>) -> Corpus {
    let mut config = DatasetPreset::Utgeo2011.config(seed);
    if let Some(n) = background_words {
        config.n_background_words = n;
    }
    generate(config).expect("preset configs are valid").0
}

/// The training corpus and its default split.
pub fn training_corpus(seed: u64, background_words: Option<usize>) -> (Corpus, CorpusSplit) {
    let corpus = preset_corpus(seed, background_words);
    let split = CorpusSplit::new(&corpus, SplitSpec::default()).expect("default split is valid");
    (corpus, split)
}

/// The corpus queries and streamed records come from: same preset,
/// different seed from the training corpus.
pub fn second_corpus(seed: u64, background_words: Option<usize>) -> Corpus {
    preset_corpus(seed.wrapping_add(SECOND_CORPUS_OFFSET), background_words)
}

/// `record`'s keywords re-expressed in `to`'s ids; words `to` does not
/// know are dropped.
pub fn in_vocab_words(record: &Record, from: &Vocabulary, to: &Vocabulary) -> Vec<KeywordId> {
    record
        .keywords
        .iter()
        .filter_map(|&k| to.get(from.word(k)))
        .collect()
}

/// The four query kinds of the §6.2.1 what/where/when queries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Spatial,
    Temporal,
    Keyword,
    Composite,
}

impl Kind {
    pub const ALL: [Kind; 4] = [
        Kind::Spatial,
        Kind::Temporal,
        Kind::Keyword,
        Kind::Composite,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Kind::Spatial => "spatial",
            Kind::Temporal => "temporal",
            Kind::Keyword => "keyword",
            Kind::Composite => "composite",
        }
    }

    pub fn index(self) -> usize {
        self as usize
    }
}

/// Share of each kind in the query pool, in [`Kind::ALL`] order. Spatial
/// and temporal queries resolve to one of a few hundred hotspot vectors
/// and almost always hit the cache once it is warm, so they get small
/// shares; keyword and composite queries carry the search load.
const KIND_SHARES: [f64; 4] = [0.05, 0.05, 0.20, 0.70];

/// One pooled query.
pub struct PooledQuery {
    pub kind: Kind,
    pub request: QueryRequest,
}

/// Builds a query pool from `source` records: each record becomes one
/// query of a kind drawn by [`KIND_SHARES`], using only words the model's
/// vocabulary knows (a record with none becomes a spatial query).
pub fn query_pool(
    source: &Corpus,
    model_vocab: &Vocabulary,
    size: usize,
    seed: u64,
) -> Vec<PooledQuery> {
    let mut rng = SplitMix::new(seed ^ 0x0051_E7C0);
    source
        .records()
        .iter()
        .take(size)
        .map(|r| {
            let words: Vec<String> = in_vocab_words(r, source.vocab(), model_vocab)
                .into_iter()
                .map(|k| model_vocab.word(k).to_string())
                .collect();
            let mut u = rng.next_f64();
            let mut kind = Kind::Composite;
            for k in Kind::ALL {
                if u < KIND_SHARES[k.index()] {
                    kind = k;
                    break;
                }
                u -= KIND_SHARES[k.index()];
            }
            if words.is_empty() && matches!(kind, Kind::Keyword | Kind::Composite) {
                kind = Kind::Spatial;
            }
            let second = mobility::types::second_of_day(r.timestamp);
            let request = match kind {
                Kind::Spatial => QueryRequest::spatial(r.location, K),
                Kind::Temporal => QueryRequest::temporal(second, K),
                Kind::Keyword => QueryRequest::keyword(words[rng.below(words.len())].clone(), K),
                Kind::Composite => QueryRequest::composite(Some(second), Some(r.location), words),
            };
            PooledQuery {
                kind,
                request: request.with_k(K),
            }
        })
        .collect()
}

/// Zipf(`s`) over pool ranks `0..n` (rank 0 most popular), by inverse CDF.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Self {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (1..=n)
            .map(|r| {
                acc += (r as f64).powf(-s);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Self { cdf }
    }

    pub fn sample(&self, rng: &mut SplitMix) -> usize {
        let u = rng.next_f64();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_rank_zero_is_most_popular_and_in_range() {
        let z = Zipf::new(100, 1.0);
        let mut rng = SplitMix::new(1);
        let mut hist = [0usize; 100];
        for _ in 0..20_000 {
            hist[z.sample(&mut rng)] += 1;
        }
        assert!(hist[0] > hist[1] && hist[1] > hist[10] && hist[10] > hist[99]);
    }

    #[test]
    fn splitmix_is_seeded() {
        let a: Vec<u64> = (0..4)
            .map({
                let mut r = SplitMix::new(9);
                move |_| r.next_u64()
            })
            .collect();
        let b: Vec<u64> = (0..4)
            .map({
                let mut r = SplitMix::new(9);
                move |_| r.next_u64()
            })
            .collect();
        assert_eq!(a, b);
        assert!((0..1000).all({
            let mut r = SplitMix::new(3);
            move |_| r.below(7) < 7
        }));
    }
}
