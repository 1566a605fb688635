//! The closed-loop query clients and the query-side output checks shared
//! by the `serve` and `stream` workloads.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;
use std::time::Instant;

use embed::math::normalize_into;
use mobility::GeoPoint;
use serve::{QueryEngine, QueryKind, QueryRequest, QueryResponse, SearchScratch, Snapshot};
use stgraph::NodeType;

use crate::inputs::{Kind, PooledQuery, SplitMix, Zipf, K};
use crate::report::Report;
use crate::stats::{median, percentile};
use crate::trace::Tracer;

const QUERY_SPANS: [&str; 4] = [
    "serve.query.spatial",
    "serve.query.temporal",
    "serve.query.keyword",
    "serve.query.composite",
];

/// The searched modalities and the names they are reported under.
pub const SEARCHED: [(NodeType, &str); 3] = [
    (NodeType::Word, "word"),
    (NodeType::Location, "location"),
    (NodeType::Time, "time"),
];

/// What the clients of one measured window saw.
#[derive(Default)]
pub struct ClientResults {
    /// Latency per query, µs, by kind in [`Kind::ALL`] order.
    pub by_kind: [Vec<f64>; 4],
    pub queries: u64,
    pub hits: u64,
    pub errors: u64,
    pub bad_shapes: u64,
    pub first_problem: Option<String>,
    /// Pool indexes answered by a search (cache misses), deduplicated.
    pub missed: Vec<u32>,
}

impl ClientResults {
    pub fn all_us(&self) -> Vec<f64> {
        self.by_kind.iter().flatten().copied().collect()
    }

    fn merge(&mut self, other: ClientResults) {
        for (mine, theirs) in self.by_kind.iter_mut().zip(other.by_kind) {
            mine.extend(theirs);
        }
        self.queries += other.queries;
        self.hits += other.hits;
        self.errors += other.errors;
        self.bad_shapes += other.bad_shapes;
        if self.first_problem.is_none() {
            self.first_problem = other.first_problem;
        }
        self.missed.extend(other.missed);
    }
}

/// Modality sizes a full answer is checked against.
#[derive(Clone, Copy)]
pub struct Expect {
    pub words: usize,
    pub times: usize,
    pub places: usize,
}

impl Expect {
    pub fn of(snap: &Snapshot) -> Self {
        let space = snap.artifacts().space();
        Self {
            words: space.n_word as usize,
            times: space.n_time as usize,
            places: space.n_location as usize,
        }
    }
}

fn sorted_finite(scores: impl Iterator<Item = f64>) -> bool {
    let mut prev = f64::INFINITY;
    scores.into_iter().all(|s| {
        let ok = s.is_finite() && s <= prev;
        prev = s;
        ok
    })
}

/// A response carries min(k, modality size) results per modality, each
/// list sorted by score and finite.
pub fn shape_ok(r: &QueryResponse, e: Expect) -> bool {
    r.words.len() == K.min(e.words)
        && r.times.len() == K.min(e.times)
        && r.places.len() == K.min(e.places)
        && sorted_finite(r.words.iter().map(|w| w.1))
        && sorted_finite(r.times.iter().map(|t| t.1))
        && sorted_finite(r.places.iter().map(|p| p.1))
}

/// One closed-loop client: `warmup` unmeasured queries, then the two
/// start barriers, then queries until `stop` is raised. Each query is
/// timed; with tracing on it is also recorded as a span.
#[allow(clippy::too_many_arguments)]
pub fn client(
    engine: &QueryEngine,
    pool: &[PooledQuery],
    zipf: &Zipf,
    seed: u64,
    warmup: usize,
    start: &Barrier,
    stop: &AtomicBool,
    expect: Expect,
    tracer: &Tracer,
) -> ClientResults {
    let mut rng = SplitMix::new(seed);
    for _ in 0..warmup {
        let _ = engine.query(&pool[zipf.sample(&mut rng)].request);
    }
    start.wait();
    start.wait();
    let mut out = ClientResults::default();
    while !stop.load(Ordering::Relaxed) {
        let i = zipf.sample(&mut rng);
        let q = &pool[i];
        let t0 = Instant::now();
        let result = engine.query(&q.request);
        let t1 = Instant::now();
        tracer.record(QUERY_SPANS[q.kind.index()], None, t0, t1);
        out.queries += 1;
        match result {
            Ok(resp) => {
                out.by_kind[q.kind.index()].push((t1 - t0).as_nanos() as f64 * 1e-3);
                if resp.from_cache {
                    out.hits += 1;
                } else {
                    out.missed.push(i as u32);
                }
                if !shape_ok(&resp, expect) {
                    out.bad_shapes += 1;
                    out.first_problem.get_or_insert_with(|| {
                        format!(
                            "bad shape ({} words, {} times, {} places) for {:?}",
                            resp.words.len(),
                            resp.times.len(),
                            resp.places.len(),
                            q.request
                        )
                    });
                }
            }
            Err(e) => {
                out.errors += 1;
                out.first_problem
                    .get_or_insert_with(|| format!("{e} for {:?}", q.request));
            }
        }
    }
    out
}

/// Joins client results; `missed` comes back sorted and deduplicated.
pub fn merge(parts: impl IntoIterator<Item = ClientResults>) -> ClientResults {
    let mut all = ClientResults::default();
    for p in parts {
        all.merge(p);
    }
    all.missed.sort_unstable();
    all.missed.dedup();
    all
}

/// The unit query vector the engine plans for `req` (§6.2.1: the mean of
/// the observed modalities' raw vectors, normalized), rebuilt from the
/// snapshot's public rows; `None` for a word the vocabulary lacks.
pub fn unit_vector(snap: &Snapshot, req: &QueryRequest) -> Option<Vec<f32>> {
    let arts = snap.artifacts();
    let raw: Vec<f32> = match &req.kind {
        QueryKind::Spatial(p) => snap.vector(arts.location_node(*p)).to_vec(),
        QueryKind::Temporal(s) => snap.vector(arts.time_of_day_node(*s)).to_vec(),
        QueryKind::Keyword(w) => snap.vector(arts.word_node(arts.vocab().get(w)?)).to_vec(),
        QueryKind::Composite {
            second_of_day,
            point,
            words,
        } => {
            let kws = words
                .iter()
                .map(|w| arts.vocab().get(w))
                .collect::<Option<Vec<_>>>()?;
            let mut parts: Vec<Vec<f32>> = Vec::new();
            if let Some(s) = second_of_day {
                parts.push(snap.vector(arts.time_of_day_node(*s)).to_vec());
            }
            if let Some(p) = point {
                parts.push(snap.vector(arts.location_node(*p)).to_vec());
            }
            if !kws.is_empty() {
                parts.push(snap.text_vector(&kws));
            }
            let views: Vec<&[f32]> = parts.iter().map(Vec::as_slice).collect();
            snap.query_vector(&views)
        }
    };
    let mut unit = vec![0.0; raw.len()];
    normalize_into(&raw, &mut unit);
    Some(unit)
}

type Answer = (Vec<(String, f64)>, Vec<(f64, f64)>, Vec<(GeoPoint, f64)>);

/// The answer to `unit` computed straight from the snapshot's indexes,
/// bypassing planner and cache.
fn reference_answer(snap: &Snapshot, unit: &[f32], scratch: &mut SearchScratch) -> Answer {
    let arts = snap.artifacts();
    let space = arts.space();
    let words = snap
        .top_k(NodeType::Word, unit, K, None, scratch)
        .into_iter()
        .map(|(n, s)| {
            (
                arts.vocab()
                    .word(mobility::KeywordId(space.local_of(n)))
                    .to_string(),
                s,
            )
        })
        .collect();
    let times = snap
        .top_k(NodeType::Time, unit, K, None, scratch)
        .into_iter()
        .map(|(n, s)| {
            (
                arts.temporal_hotspots()
                    .center(hotspot::TemporalHotspotId(space.local_of(n))),
                s,
            )
        })
        .collect();
    let places = snap
        .top_k(NodeType::Location, unit, K, None, scratch)
        .into_iter()
        .map(|(n, s)| {
            (
                arts.spatial_hotspots()
                    .center(hotspot::SpatialHotspotId(space.local_of(n))),
                s,
            )
        })
        .collect();
    (words, times, places)
}

/// With the engine idle: for each sampled pool query, the engine's answer
/// (asked twice, so the second comes from the cache) must equal the
/// answer computed from the snapshot directly, and every exactly-scanned
/// modality must match `top_k_exact`.
pub fn check_answers(engine: &QueryEngine, pool: &[PooledQuery], sample: &[u32], out: &mut Report) {
    let snap = engine.snapshot();
    let mut scratch = SearchScratch::new();
    let (mut mismatches, mut cached_seen, mut exact_bad, mut checked) = (0, 0, 0, 0);
    let mut first = None;
    for &i in sample {
        let req = &pool[i as usize].request;
        let Some(unit) = unit_vector(&snap, req) else {
            continue;
        };
        let reference = reference_answer(&snap, &unit, &mut scratch);
        for _ in 0..2 {
            match engine.query(req) {
                Ok(r) => {
                    cached_seen += r.from_cache as usize;
                    if (r.words.clone(), r.times.clone(), r.places.clone()) != reference {
                        mismatches += 1;
                        first.get_or_insert_with(|| {
                            format!("{req:?} (from_cache {})", r.from_cache)
                        });
                    }
                }
                Err(e) => {
                    mismatches += 1;
                    first.get_or_insert_with(|| format!("{e}"));
                }
            }
        }
        for (ty, _) in SEARCHED {
            if !snap.is_ann(ty)
                && snap.top_k(ty, &unit, K, None, &mut scratch)
                    != snap.top_k_exact(ty, &unit, K, &mut scratch)
            {
                exact_bad += 1;
            }
        }
        checked += 1;
    }
    out.check(
        "serve.cached_equals_uncached",
        mismatches == 0 && cached_seen >= checked && checked > 0,
        format!(
            "{checked} queries x2, {cached_seen} from cache, {mismatches} differ from the snapshot's own answer{}",
            first.map_or(String::new(), |f| format!("; first: {f}"))
        ),
    );
    out.check(
        "serve.exact_modalities_match_top_k_exact",
        exact_bad == 0,
        format!("{exact_bad} mismatches over {checked} queries"),
    );
}

/// Word recall@10 of `top_k` against `top_k_exact` over the vectors.
pub fn word_recall(snap: &Snapshot, units: &[Vec<f32>]) -> f64 {
    let mut scratch = SearchScratch::new();
    let (mut found, mut total) = (0usize, 0usize);
    for u in units {
        let exact = snap.top_k_exact(NodeType::Word, u, K, &mut scratch);
        let got = snap.top_k(NodeType::Word, u, K, None, &mut scratch);
        found += exact
            .iter()
            .filter(|(n, _)| got.iter().any(|(m, _)| m == n))
            .count();
        total += exact.len();
    }
    found as f64 / total.max(1) as f64
}

/// Times `Snapshot::top_k` per searched modality over `units` and reports
/// `serve.topk_us.<modality>` (p50) and `.p99`.
pub fn emit_topk(snap: &Snapshot, units: &[Vec<f32>], tracer: &Tracer, out: &mut Report) {
    const SPANS: [&str; 3] = [
        "serve.top_k.word",
        "serve.top_k.location",
        "serve.top_k.time",
    ];
    let mut scratch = SearchScratch::new();
    for ((ty, name), span) in SEARCHED.into_iter().zip(SPANS) {
        let mut us = Vec::with_capacity(units.len());
        for u in units {
            let t0 = Instant::now();
            std::hint::black_box(snap.top_k(ty, u, K, None, &mut scratch));
            let t1 = Instant::now();
            tracer.record(span, None, t0, t1);
            us.push((t1 - t0).as_nanos() as f64 * 1e-3);
        }
        let mode = if snap.is_ann(ty) { "hnsw" } else { "exact" };
        out.metric(
            &format!("serve.topk_us.{name}"),
            median(&us),
            "us",
            format!("p50 of n={} ({mode})", us.len()),
        );
        emit_tail(out, &format!("serve.topk_us.{name}.p99"), &us, 99.0, "us");
    }
}

/// Reports the `wanted` percentile of `xs` under the ten-beyond rule,
/// noting the percentile actually taken and the sample count.
pub fn emit_tail(out: &mut Report, name: &str, xs: &[f64], wanted: f64, unit: &'static str) {
    match percentile(xs, wanted) {
        Some(p) => out.metric(name, p.value, unit, p.describe(wanted)),
        None => out.metric(name, f64::NAN, unit, format!("only {} samples", xs.len())),
    }
}

/// Which way a per-window figure improves.
#[derive(Clone, Copy, PartialEq)]
pub enum Better {
    Lower,
    Higher,
}

/// Reports the best of per-window figures: the lowest latency or the
/// highest rate. Each window follows its own set-up, so the windows sit
/// apart in time; interference from other tenants of the host comes and
/// goes over seconds and only ever slows a window down, so the best window
/// is the one least disturbed by it. The note lists every window.
pub fn emit_best(
    out: &mut Report,
    name: &str,
    unit: &'static str,
    better: Better,
    windows: &[(f64, String)],
) {
    let pick = |a: f64, b: f64| match better {
        Better::Lower => a.min(b),
        Better::Higher => a.max(b),
    };
    let best = windows.iter().map(|w| w.0).reduce(pick).unwrap_or(f64::NAN);
    let each: Vec<String> = windows
        .iter()
        .map(|(v, basis)| format!("{v:.3} ({basis})"))
        .collect();
    out.metric(
        name,
        best,
        unit,
        format!("best of {} windows: {}", windows.len(), each.join("; ")),
    );
}

/// Per-window `wanted` percentiles of `samples` under the ten-beyond rule,
/// ready for [`emit_best`]; a window with too few samples reads `NaN`.
pub fn window_tails<'a>(
    samples: impl Iterator<Item = &'a [f64]>,
    wanted: f64,
) -> Vec<(f64, String)> {
    samples
        .map(|xs| match percentile(xs, wanted) {
            Some(p) => (p.value, p.describe(wanted)),
            None => (f64::NAN, format!("only {} samples", xs.len())),
        })
        .collect()
}

/// Per-kind query latency p50/p99 plus the cache hit ratio and its base.
pub fn emit_query_layers(
    res: &ClientResults,
    hits: u64,
    queries: u64,
    source: &str,
    out: &mut Report,
) {
    for k in Kind::ALL {
        let xs = &res.by_kind[k.index()];
        emit_tail(
            out,
            &format!("serve.query_us.{}.p50", k.name()),
            xs,
            50.0,
            "us",
        );
        emit_tail(
            out,
            &format!("serve.query_us.{}.p99", k.name()),
            xs,
            99.0,
            "us",
        );
    }
    emit_tail(out, "serve.query_us.all.p99", &res.all_us(), 99.0, "us");
    out.metric(
        "serve.cache_hit_ratio",
        hits as f64 / queries.max(1) as f64,
        "ratio",
        format!("{hits} hits of {queries} queries ({source})"),
    );
    out.metric(
        "serve.cache_queries",
        queries as f64,
        "count",
        "base of serve.cache_hit_ratio",
    );
}
