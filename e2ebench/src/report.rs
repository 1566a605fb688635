//! What one run reports: named metrics with units, operations attempted
//! and failed, and the output checks. Printed as a readable table followed
//! by one JSON line, the last line of standard output.

use std::fmt::Write as _;

/// One metric as printed.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// How the value was obtained (sample count, percentile taken, base).
    pub note: String,
}

/// One output check.
pub struct Check {
    pub name: String,
    pub passed: bool,
    pub detail: String,
}

#[derive(Default)]
pub struct Report {
    pub metrics: Vec<Metric>,
    pub checks: Vec<Check>,
    pub attempted: u64,
    pub failed: u64,
}

impl Report {
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str, note: impl Into<String>) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
            note: note.into(),
        });
    }

    pub fn check(&mut self, name: &str, passed: bool, detail: impl Into<String>) {
        self.checks.push(Check {
            name: name.to_string(),
            passed,
            detail: detail.into(),
        });
    }

    /// Something ran, every check passed and every metric is finite.
    pub fn correct(&self) -> bool {
        self.attempted > 0
            && self.checks.iter().all(|c| c.passed)
            && self.metrics.iter().all(|m| m.value.is_finite())
    }

    /// Prints the readable table, then the JSON result line.
    pub fn print(&self, workload: &str) {
        println!(
            "# workload {workload}: attempted {} failed {}",
            self.attempted, self.failed
        );
        for c in &self.checks {
            let verdict = if c.passed { "ok  " } else { "FAIL" };
            println!("# check {verdict} {:<36} {}", c.name, c.detail);
        }
        for m in &self.metrics {
            println!(
                "# metric {:<32} {:>16.6} {:<6} {}",
                m.name, m.value, m.unit, m.note
            );
        }
        println!("{}", self.json());
    }

    fn json(&self) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted,
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i > 0 { ", " } else { "" };
            // JSON has no NaN; a non-finite value already fails `correct`.
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            let _ = write!(
                out,
                "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            );
        }
        out.push_str("}}");
        out
    }
}
