//! `stream`: writes beside reads. Set-up fits the default-vocabulary
//! preset, builds an engine and attaches it to an `OnlineActor` with a
//! delta-publish cadence. One writer thread feeds second-corpus records
//! into `observe` as fast as it can while one closed-loop reader queries
//! the engine. Every queried modality is below the ANN threshold, so
//! this workload exercises delta publishes and cache clears but no ANN
//! search.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier, Mutex};
use std::time::{Duration, Instant};

use actor_core::{ModelSink, OnlineActor, OnlineParams, StoreDelta, TrainedModel};
use mobility::Record;
use serve::{IndexParams, QueryEngine, SearchScratch, Snapshot};
use stgraph::{NodeSpace, NodeType};

use crate::fit::{emit_eval, evaluate, mean_mrr};
use crate::inputs::{in_vocab_words, query_pool, second_corpus, PooledQuery, Zipf, K};
use crate::queries::{self, client, merge, ClientResults, Expect, SEARCHED};
use crate::report::Report;
use crate::serve_load::{
    build_engine, check_windows, emit_search_layers, emit_setup_layers, fit_setup, miss_units,
    Served, POOL_SIZE, ZIPF_S,
};
use crate::stats::median;
use crate::trace::Tracer;
use crate::Ctx;

/// Observed records between delta publishes.
const CADENCE: u64 = 200;
/// Delta publishes a traced window waits for, so that the publish
/// latency median rests on enough samples (see `stats::percentile`).
const TRACED_PUBLISHES: usize = 30;
/// Largest score difference allowed between the served snapshot and a
/// fresh build of the final model.
const SCORE_TOLERANCE: f64 = 1e-6;

/// One delta publish as the forwarding sink saw it.
struct Publish {
    start: Instant,
    end: Instant,
    /// Dirty center rows per modality, in `NodeType::ALL` order.
    rows: [usize; 4],
    panicked: bool,
}

/// Forwards every publish to the engine, timing delta publishes and
/// counting their rows per modality. A panicking publish is caught and
/// counted as a failure.
struct TimedSink {
    engine: Arc<QueryEngine>,
    space: NodeSpace,
    log: Mutex<Vec<Publish>>,
}

impl TimedSink {
    fn len(&self) -> usize {
        self.log.lock().expect("sink log").len()
    }
}

impl ModelSink for TimedSink {
    fn publish(&self, model: &TrainedModel) {
        self.engine.publish(model);
    }

    fn publish_delta(&self, model: &TrainedModel, delta: &StoreDelta) {
        let start = Instant::now();
        let panicked =
            catch_unwind(AssertUnwindSafe(|| self.engine.publish_delta(model, delta))).is_err();
        let end = Instant::now();
        let mut rows = [0usize; 4];
        for &r in &delta.centers {
            rows[self.space.type_of(stgraph::NodeId(r)).index()] += 1;
        }
        self.log.lock().expect("sink log").push(Publish {
            start,
            end,
            rows,
            panicked,
        });
    }
}

/// One `stream` set-up: the engine and the online actor publishing
/// into it.
pub struct Setup {
    pub served: Served,
    pub engine: Arc<QueryEngine>,
    sink: Arc<TimedSink>,
    online: OnlineActor,
}

/// What the writer saw in one window.
#[derive(Default)]
struct WriterResults {
    calls: u64,
    skipped: u64,
    /// Self time of each observe call (the call minus the publish it
    /// triggered), µs.
    observe_self_us: Vec<f64>,
    /// Observe-return to served, ms, per accepted record.
    freshness_ms: Vec<f64>,
    /// Delta publishes completed in the window, and how many panicked.
    publishes: u64,
    panicked: u64,
    elapsed_s: f64,
}

/// Feeds records until `stop` is raised and the last accepted record has
/// been published, so that the served snapshot ends equal to the model.
fn writer(
    online: &mut OnlineActor,
    sink: &TimedSink,
    records: &[Record],
    next: &mut usize,
    start: &Barrier,
    stop: &AtomicBool,
    tracer: &Tracer,
) -> WriterResults {
    start.wait();
    start.wait();
    let t_start = Instant::now();
    let first_publish = sink.len();
    let mut out = WriterResults::default();
    // (return time, publishes completed before the call, during it).
    let mut accepted: Vec<(Instant, usize, bool)> = Vec::new();
    loop {
        let record = &records[*next % records.len()];
        *next += 1;
        let before = sink.len();
        let t0 = Instant::now();
        let ok = online.observe(record);
        let t1 = Instant::now();
        tracer.record("core.observe", None, t0, t1);
        let after = sink.len();
        out.calls += 1;
        let mut self_time = t1 - t0;
        if after > before {
            let log = sink.log.lock().expect("sink log");
            let p = &log[after - 1];
            tracer.record("serve.publish_delta", None, p.start, p.end);
            self_time = self_time.saturating_sub(p.end - p.start);
        }
        out.observe_self_us.push(self_time.as_nanos() as f64 * 1e-3);
        if ok {
            accepted.push((t1, before, after > before));
        } else {
            out.skipped += 1;
        }
        if stop.load(Ordering::Relaxed) && online.observed().is_multiple_of(CADENCE) {
            break;
        }
    }
    out.elapsed_s = t_start.elapsed().as_secs_f64();
    let log = sink.log.lock().expect("sink log");
    out.publishes = (log.len() - first_publish) as u64;
    out.panicked = log[first_publish..].iter().filter(|p| p.panicked).count() as u64;
    for (ret, before, published_inside) in accepted {
        // A record becomes visible when the next publish after its
        // observe call completes; one published inside its own call is
        // already served when the call returns.
        let ms = if published_inside {
            0.0
        } else {
            match log.get(before) {
                Some(p) => p.end.saturating_duration_since(ret).as_secs_f64() * 1e3,
                None => continue,
            }
        };
        out.freshness_ms.push(ms);
    }
    out
}

/// One window: writer and reader together for `len`, and longer if need
/// be (up to three times `len`) until `min_publishes` delta publishes have
/// completed in it. The writer resumes the feed where the previous window
/// of this set-up stopped.
fn window(
    st: &mut Setup,
    feed: &mut Feed,
    zipf: &Zipf,
    tracer: &Tracer,
    salt: u64,
    len: Duration,
    min_publishes: usize,
) -> (WriterResults, ClientResults) {
    let Feed {
        records,
        pool,
        next,
    } = feed;
    let (records, pool) = (records.as_slice(), pool.as_slice());
    let stop = AtomicBool::new(false);
    let start = Barrier::new(3);
    let expect = Expect::of(&st.engine.snapshot());
    let (engine, sink, online) = (&*st.engine, &*st.sink, &mut st.online);
    std::thread::scope(|s| {
        let (stop, start) = (&stop, &start);
        let w = s.spawn(move || writer(online, sink, records, next, start, stop, tracer));
        let r = s.spawn(move || client(engine, pool, zipf, salt, 0, start, stop, expect, tracer));
        start.wait();
        let (opened, first) = (Instant::now(), sink.len());
        start.wait();
        std::thread::sleep(len);
        while sink.len() < first + min_publishes && opened.elapsed() < 3 * len {
            std::thread::sleep(Duration::from_millis(20));
        }
        stop.store(true, Ordering::Relaxed);
        let reader = r.join().expect("reader panicked");
        (w.join().expect("writer panicked"), merge([reader]))
    })
}

/// Compares the served snapshot with a fresh exact-mode build of the
/// model: same ids and scores within [`SCORE_TOLERANCE`], per modality.
fn check_final_snapshot(
    engine: &QueryEngine,
    model: &TrainedModel,
    units: &[Vec<f32>],
    out: &mut Report,
) {
    let served = engine.snapshot();
    let exact = IndexParams {
        ann_threshold: usize::MAX,
        ..IndexParams::default()
    };
    let fresh = Snapshot::build(model, &exact, 0);
    let mut scratch = SearchScratch::new();
    let (mut bad, mut compared, mut worst) = (0usize, 0usize, 0.0f64);
    for u in units {
        for ty in NodeType::ALL {
            let a = served.top_k_exact(ty, u, K, &mut scratch);
            let b = fresh.top_k_exact(ty, u, K, &mut scratch);
            let same_ids = a.len() == b.len() && a.iter().zip(&b).all(|(x, y)| x.0 == y.0);
            let diff = a
                .iter()
                .zip(&b)
                .map(|(x, y)| (x.1 - y.1).abs())
                .fold(0.0, f64::max);
            worst = worst.max(diff);
            if !same_ids || diff > SCORE_TOLERANCE {
                bad += 1;
            }
            compared += 1;
        }
    }
    out.check(
        "stream.served_equals_fresh_build",
        bad == 0 && compared > 0,
        format!("{compared} (query, modality) pairs, {bad} differ, max score diff {worst:.2e}"),
    );
}

/// Attaches `model` to `served`'s engine through an online actor behind
/// the timing sink (one full publish, then a delta every [`CADENCE`]
/// observed records).
pub fn attach(served: Served, model: TrainedModel) -> Setup {
    let engine = Arc::clone(&served.engine);
    let sink = Arc::new(TimedSink {
        engine: Arc::clone(&engine),
        space: *model.space(),
        log: Mutex::new(Vec::new()),
    });
    let mut online = OnlineActor::new(model, OnlineParams::default());
    online.attach_sink(sink.clone(), CADENCE);
    Setup {
        served,
        engine,
        sink,
        online,
    }
}

/// Streamed records (keywords re-expressed in the model's vocabulary,
/// unknown words dropped) and the reader's query pool, both from the
/// second corpus of `seed`.
pub struct Feed {
    records: Vec<Record>,
    pool: Vec<PooledQuery>,
    /// Index of the next record to observe (wraps around).
    next: usize,
}

fn stream_inputs(seed: u64, st: &Setup) -> Feed {
    let source = second_corpus(seed, None);
    let vocab = st.online.model().vocab();
    let records = source
        .records()
        .iter()
        .map(|r| Record {
            keywords: in_vocab_words(r, source.vocab(), vocab),
            ..r.clone()
        })
        .collect();
    Feed {
        records,
        pool: query_pool(&source, vocab, POOL_SIZE, seed ^ 1),
        next: 0,
    }
}

/// The vectors the served snapshot is compared on: the miss set of the
/// reader's last window plus every 97th node's own row.
fn final_units(snap: &Snapshot, pool: &[PooledQuery], missed: &[u32]) -> Vec<Vec<f32>> {
    let mut units = miss_units(snap, pool, missed);
    let space = *snap.artifacts().space();
    units.extend(
        (0..space.len())
            .step_by(97)
            .map(|i| snap.normalized().row(i).to_vec()),
    );
    units
}

/// Counts the writer's operations over `windows` and checks the stream's
/// outcome: no publish panicked, the epoch advanced once per publish, and
/// the served snapshot equals a fresh exact-mode build of the model.
fn check_stream<'a>(
    st: &Setup,
    windows: impl IntoIterator<Item = &'a WriterResults>,
    units: &[Vec<f32>],
    out: &mut Report,
) {
    let (mut writes, mut panics) = (0, 0);
    for w in windows {
        writes += w.calls + w.publishes;
        panics += w.panicked;
    }
    out.attempted += writes;
    out.failed += panics;
    out.check(
        "stream.no_publish_panics",
        panics == 0,
        format!("{panics} delta publishes panicked"),
    );
    let deltas = st.sink.len() as u64;
    let stats = st.engine.stats();
    out.check(
        "stream.epoch_per_publish",
        stats.epoch == 2 + deltas && stats.publishes == 1 + deltas && deltas > 0,
        format!(
            "epoch {} publishes {} after 1 build + 1 attach + {deltas} deltas",
            stats.epoch, stats.publishes
        ),
    );
    check_final_snapshot(&st.engine, st.online.model(), units, out);
}

/// The writer-side layers of `st` and its traced window `tw`: observe
/// self time, skipped records, delta publish latency, count and rows, and
/// the freshness tail.
fn emit_stream_layers(st: &Setup, tw: &WriterResults, out: &mut Report) {
    queries::emit_tail(out, "core.observe_us.p50", &tw.observe_self_us, 50.0, "us");
    queries::emit_tail(out, "core.observe_us.p99", &tw.observe_self_us, 99.0, "us");
    out.metric(
        "core.online_skipped",
        tw.skipped as f64,
        "count",
        format!("observe returned false, of {} calls", tw.calls),
    );
    let log = st.sink.log.lock().expect("sink log");
    let ms: Vec<f64> = log
        .iter()
        .map(|p| (p.end - p.start).as_secs_f64() * 1e3)
        .collect();
    queries::emit_tail(out, "serve.publish_delta_ms.p50", &ms, 50.0, "ms");
    queries::emit_tail(out, "serve.publish_delta_ms.p99", &ms, 99.0, "ms");
    out.metric(
        "serve.publishes",
        log.len() as f64,
        "count",
        "delta publishes of the last set-up",
    );
    for ty in NodeType::ALL {
        let mean =
            log.iter().map(|p| p.rows[ty.index()]).sum::<usize>() as f64 / log.len().max(1) as f64;
        let name = ["time", "location", "word", "user"][ty.index()];
        out.metric(
            &format!("serve.delta_rows.{name}"),
            mean,
            "count",
            "mean dirty center rows per publish",
        );
    }
    queries::emit_tail(out, "serve.freshness_ms.p90", &tw.freshness_ms, 90.0, "ms");
}

/// What [`probe`] leaves: the streamed set-up, the reader's query pool
/// and what the reader saw.
pub struct Probe {
    pub st: Setup,
    pub pool: Vec<PooledQuery>,
    pub reader: ClientResults,
}

/// A stream pass the traced runs of `fit` and `serve` make on their own
/// model, so that every traced run reports the writer-side layers too:
/// attaches `model` to `served`'s engine, streams second-corpus records
/// of `seed` beside one reader for one traced window, checks the outcome
/// and reports the writer-side layers.
pub fn probe(ctx: &Ctx, served: Served, model: TrainedModel, seed: u64, out: &mut Report) -> Probe {
    let zipf = Zipf::new(POOL_SIZE, ZIPF_S);
    let mut st = attach(served, model);
    let mut feed = stream_inputs(seed, &st);
    let salt = ctx.rep_seed(0) ^ 0x960B;
    let (tw, tr) = window(
        &mut st,
        &mut feed,
        &zipf,
        &ctx.tracer,
        salt,
        ctx.traced_window(),
        TRACED_PUBLISHES,
    );
    check_windows("stream.responses_well_formed", [&tr], out);
    let units = final_units(&st.engine.snapshot(), &feed.pool, &tr.missed);
    check_stream(&st, [&tw], &units, out);
    emit_stream_layers(&st, &tw, out);
    Probe {
        st,
        pool: feed.pool,
        reader: tr,
    }
}

pub fn run(ctx: &Ctx) -> Report {
    let mut out = Report::default();
    let zipf = Zipf::new(POOL_SIZE, ZIPF_S);
    let untraced = Tracer::new(false);
    let (mut generate_s, mut build_s, mut mrrs) = (Vec::new(), Vec::new(), Vec::new());
    let mut salt = ctx.rep_seed(0);
    let ((mut st, mut feed), setup, windows) = ctx.interleaved(
        |seed| fit_setup(ctx, seed, None),
        |fitted| {
            generate_s.push(fitted.generate_s);
            let (served, model) = build_engine(fitted);
            build_s.push(served.engine_build_s);
            attach(served, model)
        },
        stream_inputs,
        |st, feed| {
            salt = salt.wrapping_add(1 << 40);
            let w = window(st, feed, &zipf, &untraced, salt, ctx.window(), 0);
            let s = &st.served;
            mrrs.push(mean_mrr(&evaluate(st.online.model(), &s.corpus, &s.split)));
            w
        },
    );
    let traced = ctx.tracer.enabled().then(|| {
        let salt = ctx.rep_seed(0) ^ 0x7ACE;
        window(
            &mut st,
            &mut feed,
            &zipf,
            &ctx.tracer,
            salt,
            ctx.traced_window(),
            TRACED_PUBLISHES,
        )
    });
    let pool = &feed.pool;

    // Output checks. Publishes of the earlier set-ups were checked as
    // they ran: a panic is counted in their windows.
    check_windows(
        "stream.responses_well_formed",
        windows.iter().chain(&traced).map(|w| &w.1),
        &mut out,
    );
    let snap = st.engine.snapshot();
    let bypass = SEARCHED.iter().all(|&(ty, _)| !snap.is_ann(ty));
    out.check(
        "stream.queried_modalities_exact",
        bypass,
        "word, location and time below the ANN threshold",
    );
    let missed = &windows.last().expect("at least one window").1.missed;
    let units = final_units(&snap, pool, missed);
    check_stream(
        &st,
        windows.iter().chain(&traced).map(|w| &w.0),
        &units,
        &mut out,
    );
    let sample: Vec<u32> = (0..200).collect();
    queries::check_answers(&st.engine, pool, &sample, &mut out);

    if let Some((tw, tr)) = &traced {
        emit_setup_layers(ctx, &st.served, &generate_s, &build_s, &mut out);
        let s = &st.served;
        let mrr = evaluate(st.online.model(), &s.corpus, &s.split);
        emit_eval(&mrr, "online model after streaming", &mut out);
        emit_stream_layers(&st, tw, &mut out);
        queries::emit_query_layers(tr, tr.hits, tr.queries, "reader responses", &mut out);
        emit_search_layers(&snap, &units, &ctx.tracer, &mut out);
        let untraced = &windows.last().expect("at least one window").0;
        ctx.overhead(
            &mut out,
            "time per ingested record",
            untraced.elapsed_s / untraced.calls as f64,
            tw.elapsed_s / tw.calls as f64,
        );
    } else {
        out.metric(
            "setup_s",
            median(&setup),
            "s",
            format!(
                "generate + fit + QueryEngine::new + attach_sink, median of {}",
                setup.len()
            ),
        );
        // The writer's figures are set by publish cycles, of which one
        // window holds only three or four: per-window values mostly show
        // which publishes fell into the window, so they are pooled over
        // the run's ~20 cycles.
        let calls: u64 = windows.iter().map(|w| w.0.calls).sum();
        let writer_s: f64 = windows.iter().map(|w| w.0.elapsed_s).sum();
        out.metric(
            "throughput_per_s",
            calls as f64 / writer_s,
            "1/s",
            format!(
                "records ingested: {calls} observe calls over {} windows ({writer_s:.2} s)",
                windows.len()
            ),
        );
        let fresh: Vec<f64> = windows
            .iter()
            .flat_map(|w| w.0.freshness_ms.iter().copied())
            .collect();
        // The mean, not the median: a record's freshness is about the
        // duration of the publish that carries it, and the run's ~20
        // publishes fall into the host's fast and slow spells, so their
        // median jumps between the two speeds from run to run where the
        // mean moves with the share of slow time.
        out.metric(
            "latency_ms",
            fresh.iter().sum::<f64>() / fresh.len().max(1) as f64,
            "ms",
            format!("mean freshness of n={} accepted records", fresh.len()),
        );
        out.metric(
            "mrr",
            median(&mrrs),
            "mrr",
            format!(
                "mean test MRR of the online model after each window, median of {}",
                mrrs.len()
            ),
        );
    }
    out
}
