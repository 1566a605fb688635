//! `fit`: the offline batch path. Fits the UTGEO-like preset with
//! `ActorConfig::default()` at `nproc` threads, back to back for the
//! measured window. `core` training and `hotspot` detection do nearly all
//! the work; the `serve` crate is idle.

use std::time::Instant;

use actor_core::{fit, ActorConfig, FitReport, TrainedModel};
use evalkit::{evaluate_all, EvalParams, PredictionTask, TaskSummary};

use crate::inputs::training_corpus;
use crate::layers::{replicate, train_updates};
use crate::queries;
use crate::report::Report;
use crate::serve_load::{build_engine, emit_engine_layers, emit_search_layers, miss_units, Fitted};
use crate::stats::median;
use crate::stream;
use crate::trace::Tracer;
use crate::Ctx;

/// MRR of a random ranking of 11 candidates: H(11) / 11.
const RANDOM_MRR: f64 = 0.2745;

/// How far above [`RANDOM_MRR`] each task's test MRR must land: one
/// standard deviation (0.0105) of a random ranker's MRR over the 600 test
/// queries. Measured on ten seeds of the unchanged code (1–5, 7, 31–34),
/// the weakest task, Time, scored 0.312–0.343 (mean 0.325, sd 0.009), so
/// the floor of 0.2845 sits 4.5 seed-to-seed deviations below its mean;
/// Text and Location score 0.62–0.71.
const MRR_MARGIN: f64 = 0.010;

/// `core.train.updates` of the default fit at seed 7 (exact: the sample
/// budget per round does not depend on the thread count or on Hogwild
/// interleaving).
const SEED7_TRAIN_UPDATES: u64 = 7_648_144;

/// SGD epochs of the warm-up fit in the `fit` set-up. Generating the
/// corpus alone takes 20–40 ms on one thread, and on the 2-vCPU host the
/// benchmark was sized on, one thread's speed depends for minutes on which
/// vCPU it lands on (one run's median moved 27% between sets of runs). A
/// short two-thread warm-up fit makes the set-up long and parallel enough
/// to time steadily, and lets allocator and page cache settle before the
/// measured fits.
const WARMUP_EPOCHS: usize = 5;

struct OneFit {
    wall_s: f64,
    report: FitReport,
    mrr: TaskSummary,
    model: TrainedModel,
}

/// Fits back to back for about `--seconds`; failed fits are counted.
fn measure(
    ctx: &Ctx,
    corpus: &mobility::Corpus,
    split: &mobility::CorpusSplit,
    config: &ActorConfig,
    tracer: &Tracer,
    out: &mut Report,
) -> Vec<OneFit> {
    let started = Instant::now();
    let mut fits = Vec::new();
    loop {
        out.attempted += 1;
        let span = tracer.open("core.fit", None);
        let result = fit(corpus, &split.train, config);
        let wall_s = span.close().as_secs_f64();
        match result {
            Ok((model, report)) => {
                let span = tracer.open("eval.evaluate_all", None);
                let mrr = evaluate(&model, corpus, split);
                span.close();
                fits.push(OneFit {
                    wall_s,
                    report,
                    mrr,
                    model,
                });
            }
            Err(e) => {
                out.failed += 1;
                eprintln!("fit failed: {e}");
            }
        }
        // Stop once another fit would end more than half a fit past the
        // window, so that a fit a little shorter than the window does not
        // double the run.
        if started.elapsed().as_secs_f64() + 0.5 * wall_s >= ctx.seconds {
            return fits;
        }
    }
}

/// Test-split MRR of `model` on the three prediction tasks.
pub fn evaluate(
    model: &TrainedModel,
    corpus: &mobility::Corpus,
    split: &mobility::CorpusSplit,
) -> TaskSummary {
    evaluate_all(model, corpus, &split.test, &EvalParams::default())
}

/// Mean test MRR over Text, Location and Time: the `mrr` metric.
pub fn mean_mrr(s: &TaskSummary) -> f64 {
    (s.text + s.location + s.time.unwrap_or(0.0)) / 3.0
}

/// Reports the per-task MRRs of `s`, which evaluated `what`.
pub fn emit_eval(s: &TaskSummary, what: &str, out: &mut Report) {
    let note = format!("test split, {what}");
    out.metric("eval.mrr_text", s.text, "mrr", note.clone());
    out.metric("eval.mrr_location", s.location, "mrr", note.clone());
    out.metric("eval.mrr_time", s.time.unwrap_or(0.0), "mrr", note);
}

pub fn run(ctx: &Ctx) -> Report {
    let mut out = Report::default();
    let config = ActorConfig {
        threads: ctx.threads,
        ..ActorConfig::default()
    };
    let warmup = ActorConfig {
        max_epochs: WARMUP_EPOCHS,
        ..config.clone()
    };
    let (mut setup, mut generate) = (Vec::new(), Vec::new());
    let mut inputs = None;
    for _ in 0..crate::SETUP_REPS {
        drop(inputs.take());
        let started = Instant::now();
        let (corpus, split) = training_corpus(ctx.seed, None);
        generate.push(started.elapsed().as_secs_f64());
        fit(&corpus, &split.train, &warmup).expect("the preset fits");
        setup.push(started.elapsed().as_secs_f64());
        inputs = Some((corpus, split));
    }
    let (corpus, split) = inputs.expect("at least one set-up");

    let untraced = Tracer::new(false);
    let mut fits = measure(ctx, &corpus, &split, &config, &untraced, &mut out);
    let fit_s = median(&fits.iter().map(|f| f.wall_s).collect::<Vec<_>>());
    let traced = ctx
        .tracer
        .enabled()
        .then(|| measure(ctx, &corpus, &split, &config, &ctx.tracer, &mut out));

    // Output checks, on every fit of the run.
    let all: Vec<&OneFit> = fits.iter().chain(traced.iter().flatten()).collect();
    out.check(
        "fit.completed",
        !all.is_empty(),
        format!("{} fits", all.len()),
    );
    let updates: Vec<u64> = all.iter().map(|f| train_updates(&f.report)).collect();
    let repeat =
        updates.windows(2).all(|w| w[0] == w[1]) && updates.first().is_some_and(|&u| u > 0);
    out.check(
        "fit.train_updates_exact",
        repeat,
        format!("core.train.updates per fit {updates:?}"),
    );
    if ctx.seed == 7 {
        let pinned = updates.iter().all(|&u| u == SEED7_TRAIN_UPDATES);
        out.check(
            "fit.train_updates_seed7",
            pinned,
            format!("expected {SEED7_TRAIN_UPDATES}"),
        );
    }
    let decreasing = all.iter().all(|f| {
        let t = &f.report.loss_trace;
        t.iter().all(|x| x.is_finite()) && t.len() >= 2 && t[t.len() - 1] < t[0]
    });
    let traces: Vec<(f64, f64)> = all
        .iter()
        .map(|f| {
            (
                f.report.loss_trace[0],
                *f.report.loss_trace.last().expect("non-empty trace"),
            )
        })
        .collect();
    out.check(
        "fit.loss_decreases",
        decreasing,
        format!("(first, last) bucket loss {traces:.4?}"),
    );
    let floor = RANDOM_MRR + MRR_MARGIN;
    for task in PredictionTask::ALL {
        let mrrs: Vec<f64> = all.iter().map(|f| f.mrr.get(task).unwrap_or(0.0)).collect();
        out.check(
            &format!("fit.mrr_{}_above_random", task.label().to_lowercase()),
            mrrs.iter().all(|&m| m >= floor),
            format!("test MRR {mrrs:.4?} vs floor {floor:.4}"),
        );
    }
    let last = &all.last().expect("checked above").report;
    let layers = replicate(&corpus, &split.train, &config, &ctx.tracer);
    layers.check(last, &mut out);

    if let Some(traced) = &traced {
        let traced_fit_s = median(&traced.iter().map(|f| f.wall_s).collect::<Vec<_>>());
        out.metric(
            "mobility.generate_s",
            median(&generate),
            "s",
            format!("corpus generation + split, median of {}", generate.len()),
        );
        layers.emit(last, &mut out);
        emit_eval(
            &all.last().expect("checked above").mrr,
            "last fit",
            &mut out,
        );
        ctx.overhead(&mut out, "fit wall time", fit_s, traced_fit_s);
    } else {
        out.metric(
            "setup_s",
            median(&setup),
            "s",
            format!(
                "corpus generation + split + {WARMUP_EPOCHS}-epoch warm-up fit, median of {}",
                setup.len()
            ),
        );
        out.metric(
            "latency_ms",
            fit_s * 1e3,
            "ms",
            format!("wall time of fit, median of {} fits", fits.len()),
        );
        let rates: Vec<f64> = fits
            .iter()
            .map(|f| train_updates(&f.report) as f64 / f.report.train_seconds)
            .collect();
        out.metric(
            "throughput_per_s",
            median(&rates),
            "1/s",
            format!(
                "core.train.updates / FitReport.train_seconds, median of {}",
                rates.len()
            ),
        );
        let mrrs: Vec<f64> = fits.iter().map(|f| mean_mrr(&f.mrr)).collect();
        out.metric(
            "mrr",
            median(&mrrs),
            "mrr",
            "mean test MRR over Text/Location/Time",
        );
    }
    // Last, in the traced run: the serve- and writer-side layers, on an
    // engine over the last fitted model with second-corpus records
    // streamed into it.
    if let Some(OneFit { report, model, .. }) =
        traced.and_then(|mut t| t.pop().or_else(|| fits.pop()))
    {
        let fitted = Fitted {
            corpus,
            split,
            config,
            report,
            model,
            generate_s: median(&generate),
        };
        let (served, model) = build_engine(fitted);
        emit_engine_layers(&served, &[served.engine_build_s], &mut out);
        let p = stream::probe(ctx, served, model, ctx.seed, &mut out);
        let r = &p.reader;
        queries::emit_query_layers(r, r.hits, r.queries, "stream reader responses", &mut out);
        let snap = p.st.engine.snapshot();
        let units = miss_units(&snap, &p.pool, &r.missed);
        emit_search_layers(&snap, &units, &ctx.tracer, &mut out);
    }
    out
}
