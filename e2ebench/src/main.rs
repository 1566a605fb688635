//! End-to-end and per-layer benchmark of actor-st's two user paths: the
//! offline fit (Algorithm 1) and the online query engine, read-only and
//! under streaming delta publishes.
//!
//! ```text
//! cargo run --release --offline --manifest-path e2ebench/Cargo.toml -- \
//!     --workload fit|serve|stream --seed N --seconds S --trace 0|1
//! ```
//!
//! `--trace 0` reports the end-to-end metrics; `--trace 1` does the same
//! work, measures once more with tracing on, reports the per-layer
//! metrics plus the tracing overhead, and writes the spans to
//! `e2ebench/out/`. Every run checks the program's outputs; the last line
//! of standard output is the JSON result. See `e2ebench/README.md`.

mod fit;
mod inputs;
mod layers;
mod queries;
mod report;
mod serve_load;
mod stats;
mod stream;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use report::Report;
use trace::Tracer;

/// Set-ups per run of `serve` and `stream`; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Measured windows per run of `serve` and `stream` (see
/// [`Ctx::interleaved`]).
const WINDOWS: usize = 2 * SETUP_REPS;

/// Run parameters shared by the workloads.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    /// Worker threads: the fit's Hogwild threads and the serve clients.
    pub threads: usize,
    pub tracer: Tracer,
}

impl Ctx {
    /// Input seed of set-up `rep`. Each set-up of `serve` and `stream`
    /// draws its own corpora, so one run averages over several models
    /// instead of repeating one model's quirks; distinct for distinct
    /// `(seed, rep)`.
    pub fn rep_seed(&self, rep: usize) -> u64 {
        self.seed
            .wrapping_mul(SETUP_REPS as u64)
            .wrapping_add(rep as u64)
    }

    /// Length of one measured window: the run's `--seconds` split evenly
    /// over the [`WINDOWS`] windows of [`Ctx::interleaved`].
    pub fn window(&self) -> std::time::Duration {
        std::time::Duration::from_secs_f64(self.seconds / WINDOWS as f64)
    }

    /// Runs the [`SETUP_REPS`] set-ups of an engine workload with measured
    /// windows spread between them. Set-up `rep` is `first` (generate and
    /// fit) then `second` (build what serves), both timed; `inputs` makes
    /// its query and stream inputs untimed. A window on the previous
    /// set-up runs between the two halves, one on the new set-up after
    /// them, and one more at the end: [`WINDOWS`] windows at distinct
    /// moments, so that slow spells of the host hit only some of them.
    /// Returns the last set-up and its inputs, every set-up time, and the
    /// windows in the order they ran.
    pub fn interleaved<F, S, I, W>(
        &self,
        mut first: impl FnMut(u64) -> F,
        mut second: impl FnMut(F) -> S,
        mut inputs: impl FnMut(u64, &S) -> I,
        mut measure: impl FnMut(&mut S, &mut I) -> W,
    ) -> ((S, I), Vec<f64>, Vec<W>) {
        let mut setup = Vec::with_capacity(SETUP_REPS);
        let mut windows = Vec::with_capacity(WINDOWS);
        let mut prev: Option<(S, I)> = None;
        for rep in 0..SETUP_REPS {
            let seed = self.rep_seed(rep);
            let started = Instant::now();
            let fitted = first(seed);
            let first_s = started.elapsed().as_secs_f64();
            if let Some((s, i)) = prev.as_mut() {
                windows.push(measure(s, i));
            }
            drop(prev.take());
            let started = Instant::now();
            let mut state = second(fitted);
            setup.push(first_s + started.elapsed().as_secs_f64());
            let mut input = inputs(seed, &state);
            windows.push(measure(&mut state, &mut input));
            prev = Some((state, input));
        }
        let (mut state, mut input) = prev.expect("at least one set-up");
        windows.push(measure(&mut state, &mut input));
        ((state, input), setup, windows)
    }

    /// Length of the traced window: the whole `--seconds`, so that the
    /// per-layer tails (publish latency above all) get enough samples.
    pub fn traced_window(&self) -> std::time::Duration {
        std::time::Duration::from_secs_f64(self.seconds)
    }

    /// Reports the tracing overhead: the traced pass's `metric` against
    /// the untraced pass's, as a percentage (positive = traced is worse
    /// when lower is better).
    pub fn overhead(&self, out: &mut Report, metric: &str, untraced: f64, traced: f64) {
        let pct = 100.0 * (traced - untraced) / untraced;
        out.metric(
            "trace.overhead_pct",
            pct,
            "%",
            format!("{metric}: untraced {untraced:.6} traced {traced:.6}"),
        );
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !seconds.is_finite() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    let workload = workload.ok_or("--workload fit|serve|stream is required")?;
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// First line of a command's standard output, or `unknown`.
fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".into())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            return ExitCode::from(2);
        }
    };
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        threads: cores,
        tracer: Tracer::new(args.trace),
    };
    let rustc = command_line("rustc", &["--version"]);
    let git = command_line("git", &["rev-parse", "--short", "HEAD"]);
    let provenance = format!(
        "workload={} seed={} seconds={} trace={} cores={cores} threads={} rustc=\"{rustc}\" git={git}",
        args.workload, args.seed, args.seconds, args.trace as u8, ctx.threads
    );
    println!("# e2ebench {provenance}");

    let started = Instant::now();
    let report = match args.workload.as_str() {
        "fit" => fit::run(&ctx),
        "serve" => serve_load::run(&ctx),
        "stream" => stream::run(&ctx),
        other => {
            eprintln!("e2ebench: unknown workload {other} (fit, serve, stream)");
            return ExitCode::from(2);
        }
    };
    if ctx.tracer.enabled() {
        let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("trace-{}-seed{}.json", args.workload, args.seed));
        let header = format!(
            "\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"cores\":{cores},\"threads\":{},\"rustc\":\"{rustc}\",\"git\":\"{git}\"",
            args.workload, args.seed, args.seconds, ctx.threads
        );
        if let Err(e) = ctx.tracer.finish(&path, &header) {
            eprintln!("e2ebench: writing {}: {e}", path.display());
        }
    }
    println!("# run wall {:.3}s", started.elapsed().as_secs_f64());
    report.print(&args.workload);
    ExitCode::SUCCESS
}
