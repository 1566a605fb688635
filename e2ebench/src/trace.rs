//! Benchmark-owned spans. The traced run wraps its calls into each crate
//! in spans (name, start, end, parent), keeps them in memory, and writes
//! them out when the run ends together with the self time per layer. The
//! program under test is not instrumented by this module.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use crate::stats::{self_times, Interval};

/// Span recorder; a disabled tracer records nothing and costs one branch.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Interval>>,
}

/// A span that is open until [`Open::close`].
pub struct Open<'a> {
    tracer: &'a Tracer,
    name: &'static str,
    parent: Option<u64>,
    id: u64,
    start: Instant,
}

impl Open<'_> {
    /// The id to pass as `parent` to spans opened inside this one.
    pub fn id(&self) -> Option<u64> {
        self.tracer.enabled.then_some(self.id)
    }

    /// Closes the span and returns its duration (measured in both modes).
    pub fn close(self) -> Duration {
        let end = Instant::now();
        self.tracer
            .push(self.id, self.parent, self.name, self.start, end);
        end - self.start
    }
}

/// Per-name totals of a trace.
pub struct LayerTime {
    pub count: u64,
    pub total_s: f64,
    pub self_s: f64,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            origin: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Opens a span named `name` under `parent`.
    pub fn open(&self, name: &'static str, parent: Option<u64>) -> Open<'_> {
        Open {
            tracer: self,
            name,
            parent,
            id: self.next_id.fetch_add(1, Ordering::Relaxed),
            start: Instant::now(),
        }
    }

    /// Records a span the caller timed itself (the query and observe
    /// loops time every call in both modes and add the span when traced).
    pub fn record(&self, name: &'static str, parent: Option<u64>, start: Instant, end: Instant) {
        if self.enabled {
            let id = self.next_id.fetch_add(1, Ordering::Relaxed);
            self.push(id, parent, name, start, end);
        }
    }

    fn push(&self, id: u64, parent: Option<u64>, name: &'static str, start: Instant, end: Instant) {
        if !self.enabled {
            return;
        }
        let ns = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        self.spans
            .lock()
            .expect("no span recorder panics while holding the lock")
            .push(Interval {
                id,
                parent,
                name: name.to_string(),
                start_ns: ns(start),
                end_ns: ns(end),
            });
    }

    fn take(&self) -> Vec<Interval> {
        std::mem::take(&mut *self.spans.lock().expect("span lock"))
    }

    /// Count, total and self time per span name.
    fn layers(spans: &[Interval]) -> BTreeMap<String, LayerTime> {
        let selfs = self_times(spans);
        let mut out: BTreeMap<String, LayerTime> = BTreeMap::new();
        for (s, self_ns) in spans.iter().zip(selfs) {
            let e = out.entry(s.name.clone()).or_insert(LayerTime {
                count: 0,
                total_s: 0.0,
                self_s: 0.0,
            });
            e.count += 1;
            e.total_s += (s.end_ns - s.start_ns) as f64 * 1e-9;
            e.self_s += self_ns as f64 * 1e-9;
        }
        out
    }

    /// Drains the recorded spans, prints the per-layer self-time table to
    /// stdout and writes spans plus table as JSON to `path`.
    pub fn finish(&self, path: &std::path::Path, header: &str) -> std::io::Result<()> {
        let spans = self.take();
        let layers = Self::layers(&spans);
        println!("# trace: {} spans -> {}", spans.len(), path.display());
        println!(
            "# {:<34} {:>9} {:>11} {:>11}",
            "span", "count", "total_s", "self_s"
        );
        for (name, l) in &layers {
            println!(
                "# {:<34} {:>9} {:>11.6} {:>11.6}",
                name, l.count, l.total_s, l.self_s
            );
        }

        let mut json = String::with_capacity(64 * spans.len() + 1024);
        let _ = write!(json, "{{{header},\"layers\":[");
        for (i, (name, l)) in layers.iter().enumerate() {
            let sep = if i > 0 { "," } else { "" };
            let _ = write!(
                json,
                "{sep}{{\"name\":\"{name}\",\"count\":{},\"total_s\":{},\"self_s\":{}}}",
                l.count, l.total_s, l.self_s
            );
        }
        json.push_str("],\"spans\":[");
        for (i, s) in spans.iter().enumerate() {
            let sep = if i > 0 { "," } else { "" };
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                json,
                "{sep}{{\"id\":{},\"parent\":{parent},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.name, s.start_ns, s.end_ns
            );
        }
        json.push_str("]}\n");
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, json)
    }
}
