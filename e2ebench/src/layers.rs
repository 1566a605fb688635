//! The fit path replicated layer by layer from outside: the same public
//! calls `actor_core::fit` makes for Algorithm-1 lines 1–3 and its
//! samplers, on the same inputs, each timed on its own. The counts they
//! produce must equal the ones the fit reports.

use actor_core::{ActorConfig, FitReport};
use embed::{LineOrder, LineParams, LineTrainer};
use hotspot::{MeanShiftParams, SpatialHotspots, TemporalHotspots};
use mobility::{Corpus, GeoPoint, RecordId};
use stgraph::{
    ActivityGraphBuilder, BuildOptions, EdgeSampler, EdgeType, NegativeTable, UserGraph,
};

use crate::report::Report;
use crate::trace::Tracer;

/// Timings and counts of one replicated pass.
pub struct FitLayers {
    pub spatial_s: f64,
    pub temporal_s: f64,
    pub spatial_count: usize,
    pub temporal_count: usize,
    pub activity_build_s: f64,
    pub user_build_s: f64,
    pub samplers_s: f64,
    pub nodes: usize,
    pub edges: usize,
    pub user_edges: usize,
    pub line_s: f64,
}

/// Runs the replicated layer calls under a `replicate` span.
pub fn replicate(
    corpus: &Corpus,
    train: &[RecordId],
    config: &ActorConfig,
    tracer: &Tracer,
) -> FitLayers {
    let root = tracer.open("bench.replicate", None);
    let parent = root.id();
    let points: Vec<GeoPoint> = train.iter().map(|&id| corpus.record(id).location).collect();
    let seconds: Vec<f64> = train
        .iter()
        .map(|&id| (corpus.record(id).timestamp as f64).rem_euclid(config.temporal_period))
        .collect();

    let span = tracer.open("hotspot.spatial", parent);
    let spatial = SpatialHotspots::detect(
        &points,
        MeanShiftParams::with_bandwidth(config.spatial_bandwidth),
        config.min_hotspot_support,
    );
    let spatial_s = span.close().as_secs_f64();
    let span = tracer.open("hotspot.temporal", parent);
    let temporal = TemporalHotspots::detect_with_period(
        &seconds,
        config.temporal_period,
        MeanShiftParams::with_bandwidth(config.temporal_bandwidth),
        config.min_hotspot_support,
    );
    let temporal_s = span.close().as_secs_f64();

    let span = tracer.open("stgraph.activity_build", parent);
    let builder = ActivityGraphBuilder::new(
        corpus,
        &spatial,
        &temporal,
        BuildOptions {
            include_users: true,
            include_mentioned_users: config.include_mentioned_users,
        },
    );
    let (graph, _units) = builder.build(train);
    let activity_build_s = span.close().as_secs_f64();
    let span = tracer.open("stgraph.user_build", parent);
    let user_graph = UserGraph::build(corpus, train);
    let user_build_s = span.close().as_secs_f64();

    let span = tracer.open("stgraph.samplers", parent);
    for ty in EdgeType::ALL {
        std::hint::black_box(EdgeSampler::new(&graph, ty));
        let (a, b) = ty.endpoints();
        for side in [a, b] {
            std::hint::black_box(NegativeTable::with_power(
                &graph,
                ty,
                side,
                config.negative_power,
            ));
        }
    }
    let samplers_s = span.close().as_secs_f64();

    let span = tracer.open("embed.line", parent);
    let edges: Vec<(u32, u32, f64)> = user_graph
        .edges()
        .iter()
        .map(|&(a, b, w)| (a.0, b.0, w))
        .collect();
    if let Some(line) = LineTrainer::new(user_graph.n_users() as usize, &edges) {
        let samples = config
            .pretrain_samples
            .min(100 * user_graph.n_edges() as u64);
        std::hint::black_box(line.train(LineParams {
            dim: config.dim,
            samples,
            threads: config.threads,
            sgd: config.sgd(),
            order: LineOrder::Second,
            seed: config.seed ^ 0x11E,
        }));
    }
    let line_s = span.close().as_secs_f64();
    root.close();

    FitLayers {
        spatial_s,
        temporal_s,
        spatial_count: spatial.len(),
        temporal_count: temporal.len(),
        activity_build_s,
        user_build_s,
        samplers_s,
        nodes: graph.n_nodes(),
        edges: graph.n_edges(),
        user_edges: user_graph.n_edges(),
        line_s,
    }
}

/// `core.train.updates` of one fit, read from the telemetry it returns.
pub fn train_updates(report: &FitReport) -> u64 {
    report
        .telemetry
        .counters
        .iter()
        .find(|c| c.name == "core.train.updates")
        .map_or(0, |c| c.value)
}

impl FitLayers {
    /// The replicated preprocessing is deterministic at any thread count,
    /// so its counts must equal the fit's exactly.
    pub fn check(&self, fit: &FitReport, out: &mut Report) {
        let ours = (
            self.spatial_count,
            self.temporal_count,
            self.nodes,
            self.edges,
            self.user_edges,
        );
        let theirs = (
            fit.n_spatial,
            fit.n_temporal,
            fit.n_nodes,
            fit.n_edges,
            fit.n_user_edges,
        );
        out.check(
            "layers.counts_match_fit",
            ours == theirs,
            format!(
                "(spatial, temporal, nodes, edges, user edges) replicated {ours:?} fit {theirs:?}"
            ),
        );
    }

    /// The per-layer metrics of the replicated pass plus the fit's own
    /// training figures.
    pub fn emit(&self, fit: &FitReport, out: &mut Report) {
        out.metric(
            "hotspot.spatial_s",
            self.spatial_s,
            "s",
            "SpatialHotspots::detect",
        );
        out.metric(
            "hotspot.temporal_s",
            self.temporal_s,
            "s",
            "TemporalHotspots::detect_with_period",
        );
        out.metric(
            "hotspot.spatial_count",
            self.spatial_count as f64,
            "count",
            "",
        );
        out.metric(
            "hotspot.temporal_count",
            self.temporal_count as f64,
            "count",
            "",
        );
        out.metric(
            "stgraph.activity_build_s",
            self.activity_build_s,
            "s",
            "ActivityGraphBuilder::build",
        );
        out.metric(
            "stgraph.user_build_s",
            self.user_build_s,
            "s",
            "UserGraph::build",
        );
        out.metric(
            "stgraph.samplers_s",
            self.samplers_s,
            "s",
            "EdgeSampler + NegativeTable over EdgeType::ALL",
        );
        out.metric("stgraph.nodes", self.nodes as f64, "count", "");
        out.metric("stgraph.edges", self.edges as f64, "count", "");
        out.metric(
            "embed.line_s",
            self.line_s,
            "s",
            "LineTrainer::train, the fit's parameters",
        );
        out.metric(
            "core.train_s",
            fit.train_seconds,
            "s",
            "FitReport.train_seconds",
        );
        out.metric(
            "core.train_updates",
            train_updates(fit) as f64,
            "count",
            "core.train.updates",
        );
    }
}
