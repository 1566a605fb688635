//! `serve`: read-only query load. Set-up fits the preset with a richer
//! background vocabulary (so the word modality crosses the ANN threshold)
//! and builds a `QueryEngine`; `nproc` closed-loop clients then send a
//! Zipf-skewed mix of spatial, temporal, keyword and composite queries
//! built from a second corpus. No training and no publishes.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use actor_core::{fit, ActorConfig, FitReport, TrainedModel};
use mobility::{Corpus, CorpusSplit};
use serve::{EngineParams, QueryEngine, Snapshot};
use stgraph::NodeType;

use crate::fit::{emit_eval, evaluate, mean_mrr};
use crate::inputs::{
    query_pool, second_corpus, training_corpus, PooledQuery, Zipf, RICH_BACKGROUND_WORDS,
};
use crate::layers::replicate;
use crate::queries::{self, client, merge, unit_vector, Better, ClientResults, Expect};
use crate::report::Report;
use crate::stats::median;
use crate::stream;
use crate::trace::Tracer;
use crate::Ctx;

/// Queries in the pool (one per second-corpus record).
pub const POOL_SIZE: usize = 30_000;
/// Zipf exponent over pool ranks, chosen so the cache answers about a
/// third of the queries: far from 0 and 1, and below one half so that the
/// median query is a search rather than a cache hit.
pub const ZIPF_S: f64 = 0.3;
/// Unmeasured queries per client before the window opens (fills the
/// cache to its steady state).
const WARMUP_QUERIES: usize = 1_500;
/// Pool queries whose answers are checked against the snapshot.
const CHECKED_QUERIES: usize = 300;
/// Miss-set vectors used for the top-k timings and the recall estimate.
const MISS_SAMPLE: usize = 2_000;
/// Minimum word recall@10 of the HNSW index against the exact scan.
const MIN_RECALL: f64 = 0.9;
/// SGD epochs of the set-up fit of `serve` and `stream` (the default is
/// 100). The served model only has to have the preset's shape, and three
/// set-ups per run at the full budget would not fit the benchmark's time
/// budget; the `fit` workload measures the default training run.
const SETUP_FIT_EPOCHS: usize = 25;

/// The first half of a set-up: the generated corpus and the set-up fit.
pub struct Fitted {
    pub corpus: Corpus,
    pub split: CorpusSplit,
    pub config: ActorConfig,
    pub report: FitReport,
    pub model: TrainedModel,
    /// Seconds spent generating and splitting the corpus.
    pub generate_s: f64,
}

/// What a whole set-up builds, besides the model.
pub struct Served {
    pub corpus: Corpus,
    pub split: CorpusSplit,
    pub config: ActorConfig,
    pub report: FitReport,
    pub engine: Arc<QueryEngine>,
    pub engine_build_s: f64,
}

/// Generates the training corpus of `seed` and fits it: the first half of
/// the `serve` and `stream` set-ups.
pub fn fit_setup(ctx: &Ctx, seed: u64, background_words: Option<usize>) -> Fitted {
    let started = Instant::now();
    let (corpus, split) = training_corpus(seed, background_words);
    let generate_s = started.elapsed().as_secs_f64();
    let config = ActorConfig {
        threads: ctx.threads,
        max_epochs: SETUP_FIT_EPOCHS,
        ..ActorConfig::default()
    };
    let (model, report) = fit(&corpus, &split.train, &config).expect("the preset fits");
    Fitted {
        corpus,
        split,
        config,
        report,
        model,
        generate_s,
    }
}

/// Builds the query engine over a fitted model: the second half.
pub fn build_engine(f: Fitted) -> (Served, TrainedModel) {
    let started = Instant::now();
    let engine = Arc::new(QueryEngine::new(&f.model, EngineParams::default()));
    let served = Served {
        corpus: f.corpus,
        split: f.split,
        config: f.config,
        report: f.report,
        engine,
        engine_build_s: started.elapsed().as_secs_f64(),
    };
    (served, f.model)
}

/// Set-up metrics of the engine workloads' traced runs: corpus
/// generation (median of `generate_s`), the replicated fit layers of the
/// last set-up `s`, and its engine.
pub fn emit_setup_layers(
    ctx: &Ctx,
    s: &Served,
    generate_s: &[f64],
    build_s: &[f64],
    out: &mut Report,
) {
    out.metric(
        "mobility.generate_s",
        median(generate_s),
        "s",
        format!("corpus generation + split, median of {}", generate_s.len()),
    );
    let layers = replicate(&s.corpus, &s.split.train, &s.config, &ctx.tracer);
    layers.check(&s.report, out);
    layers.emit(&s.report, out);
    emit_engine_layers(s, build_s, out);
}

/// `QueryEngine::new` time (median of `build_s`) and the rows under an
/// HNSW index per modality of `s`'s engine.
pub fn emit_engine_layers(s: &Served, build_s: &[f64], out: &mut Report) {
    out.metric(
        "serve.engine_build_s",
        median(build_s),
        "s",
        format!("QueryEngine::new, median of {}", build_s.len()),
    );
    let snap = s.engine.snapshot();
    let space = *snap.artifacts().space();
    for (ty, name) in [
        (NodeType::Word, "word"),
        (NodeType::Location, "location"),
        (NodeType::Time, "time"),
        (NodeType::User, "user"),
    ] {
        let rows = if snap.is_ann(ty) { space.count(ty) } else { 0 };
        out.metric(
            &format!("serve.ann_rows.{name}"),
            rows as f64,
            "count",
            "rows under an HNSW index",
        );
    }
}

/// `Snapshot::top_k` timings per searched modality and word recall@10
/// over the miss-set vectors `units`.
pub fn emit_search_layers(snap: &Snapshot, units: &[Vec<f32>], tracer: &Tracer, out: &mut Report) {
    queries::emit_topk(snap, units, tracer, out);
    let mode = if snap.is_ann(NodeType::Word) {
        "hnsw"
    } else {
        "exact"
    };
    out.metric(
        "serve.ann_recall_at_10",
        queries::word_recall(snap, units),
        "ratio",
        format!(
            "word top_k ({mode}) vs top_k_exact over {} vectors",
            units.len()
        ),
    );
}

/// Distinct miss-set unit vectors, at most [`MISS_SAMPLE`].
pub fn miss_units(snap: &Snapshot, pool: &[PooledQuery], missed: &[u32]) -> Vec<Vec<f32>> {
    let mut units: Vec<Vec<f32>> = missed
        .iter()
        .filter_map(|&i| unit_vector(snap, &pool[i as usize].request))
        .collect();
    units.sort_by(|a, b| {
        a.iter()
            .map(|x| x.to_bits())
            .cmp(b.iter().map(|x| x.to_bits()))
    });
    units.dedup();
    let stride = units.len().div_ceil(MISS_SAMPLE).max(1);
    units.into_iter().step_by(stride).collect()
}

/// What one measured window of clients saw.
pub struct Window {
    pub res: ClientResults,
    /// Cache hits and queries over the window, from `EngineStats`.
    pub hits: u64,
    pub queries: u64,
    pub elapsed_s: f64,
}

impl Window {
    pub fn qps(&self) -> f64 {
        self.res.queries as f64 / self.elapsed_s
    }
}

/// One measured window of `nproc` closed-loop clients.
fn window(
    ctx: &Ctx,
    engine: &QueryEngine,
    pool: &[PooledQuery],
    zipf: &Zipf,
    tracer: &Tracer,
    salt: u64,
    len: Duration,
) -> Window {
    let expect = Expect::of(&engine.snapshot());
    let stop = AtomicBool::new(false);
    let start = Barrier::new(ctx.threads + 1);
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..ctx.threads)
            .map(|t| {
                let seed = salt ^ ((t as u64 + 1) << 32);
                let (stop, start) = (&stop, &start);
                s.spawn(move || {
                    client(
                        engine,
                        pool,
                        zipf,
                        seed,
                        WARMUP_QUERIES,
                        start,
                        stop,
                        expect,
                        tracer,
                    )
                })
            })
            .collect();
        start.wait();
        let before = engine.stats();
        start.wait();
        let t0 = Instant::now();
        std::thread::sleep(len);
        stop.store(true, Ordering::Relaxed);
        let res = merge(
            handles
                .into_iter()
                .map(|h| h.join().expect("query client panicked")),
        );
        let elapsed_s = t0.elapsed().as_secs_f64();
        let after = engine.stats();
        Window {
            res,
            hits: after.cache_hits - before.cache_hits,
            queries: after.queries - before.queries,
            elapsed_s,
        }
    })
}

/// Checks every window's responses and counts its operations.
pub fn check_windows<'a>(
    name: &str,
    windows: impl IntoIterator<Item = &'a ClientResults>,
    out: &mut Report,
) {
    let (mut queries, mut errors, mut bad, mut first) = (0, 0, 0, None);
    for r in windows {
        queries += r.queries;
        errors += r.errors;
        bad += r.bad_shapes;
        first = first.or_else(|| r.first_problem.clone());
    }
    out.attempted += queries;
    out.failed += errors;
    out.check(
        name,
        errors == 0 && bad == 0 && queries > 0,
        format!(
            "{queries} queries, {errors} errors, {bad} malformed{}",
            first.map_or(String::new(), |p| format!("; first: {p}"))
        ),
    );
}

pub fn run(ctx: &Ctx) -> Report {
    let mut out = Report::default();
    let zipf = Zipf::new(POOL_SIZE, ZIPF_S);
    let untraced = Tracer::new(false);
    let (mut generate_s, mut build_s, mut mrrs) = (Vec::new(), Vec::new(), Vec::new());
    let mut salt = ctx.rep_seed(0);
    let (((served, model), pool), setup, windows) = ctx.interleaved(
        |seed| fit_setup(ctx, seed, Some(RICH_BACKGROUND_WORDS)),
        |fitted| {
            generate_s.push(fitted.generate_s);
            let (served, model) = build_engine(fitted);
            build_s.push(served.engine_build_s);
            (served, model)
        },
        |seed, (served, model)| {
            mrrs.push(mean_mrr(&evaluate(model, &served.corpus, &served.split)));
            let queries_corpus = second_corpus(seed, Some(RICH_BACKGROUND_WORDS));
            let vocab = served.engine.snapshot().artifacts().vocab().clone();
            query_pool(&queries_corpus, &vocab, POOL_SIZE, seed)
        },
        |(served, _), pool| {
            salt = salt.wrapping_add(1 << 40);
            window(
                ctx,
                &served.engine,
                pool,
                &zipf,
                &untraced,
                salt,
                ctx.window(),
            )
        },
    );
    let engine = &*served.engine;
    let traced = ctx.tracer.enabled().then(|| {
        let salt = ctx.rep_seed(0) ^ 0x7ACE;
        window(
            ctx,
            engine,
            &pool,
            &zipf,
            &ctx.tracer,
            salt,
            ctx.traced_window(),
        )
    });

    // Output checks.
    check_windows(
        "serve.responses_well_formed",
        windows.iter().chain(&traced).map(|w| &w.res),
        &mut out,
    );
    let missed = &windows.last().expect("at least one window").res.missed;
    let sample: Vec<u32> = missed
        .iter()
        .copied()
        .step_by(missed.len().div_ceil(CHECKED_QUERIES).max(1))
        .chain(0..50)
        .collect();
    queries::check_answers(engine, &pool, &sample, &mut out);
    let snap = engine.snapshot();
    let units = miss_units(&snap, &pool, missed);
    let recall = queries::word_recall(&snap, &units);
    out.check(
        "serve.word_ann_recall",
        snap.is_ann(NodeType::Word) && recall >= MIN_RECALL,
        format!(
            "word modality under HNSW: {}; recall@10 {recall:.4} over {} miss-set vectors (min {MIN_RECALL})",
            snap.is_ann(NodeType::Word),
            units.len()
        ),
    );

    if let Some(t) = &traced {
        emit_setup_layers(ctx, &served, &generate_s, &build_s, &mut out);
        let mrr = evaluate(&model, &served.corpus, &served.split);
        emit_eval(&mrr, "served set-up model", &mut out);
        queries::emit_query_layers(&t.res, t.hits, t.queries, "EngineStats", &mut out);
        emit_search_layers(&snap, &units, &ctx.tracer, &mut out);
        let untraced = windows.last().expect("at least one window");
        ctx.overhead(
            &mut out,
            "time per query",
            1.0 / untraced.qps(),
            1.0 / t.qps(),
        );
        // Last: the writer-side layers, on a `stream` set-up of this
        // run's seed (default vocabulary, so the streamed publishes are
        // the ones `stream` measures).
        drop((served, model));
        let (streamed, model) = build_engine(fit_setup(ctx, ctx.seed, None));
        stream::probe(ctx, streamed, model, ctx.seed, &mut out);
    } else {
        out.metric(
            "setup_s",
            median(&setup),
            "s",
            format!(
                "generate + fit + QueryEngine::new, median of {}",
                setup.len()
            ),
        );
        let qps: Vec<(f64, String)> = windows
            .iter()
            .map(|w| {
                let basis = format!(
                    "{} queries, {} of {} cache hits",
                    w.res.queries, w.hits, w.queries
                );
                (w.qps(), basis)
            })
            .collect();
        queries::emit_best(&mut out, "throughput_per_s", "1/s", Better::Higher, &qps);
        let ms: Vec<Vec<f64>> = windows
            .iter()
            .map(|w| w.res.all_us().iter().map(|us| us * 1e-3).collect())
            .collect();
        let tails = queries::window_tails(ms.iter().map(Vec::as_slice), 50.0);
        queries::emit_best(&mut out, "latency_ms", "ms", Better::Lower, &tails);
        out.metric(
            "mrr",
            median(&mrrs),
            "mrr",
            format!(
                "mean test MRR of each set-up's served model, median of {}",
                mrrs.len()
            ),
        );
    }
    out
}
