//! Order statistics and span self time, under the reporting rule the
//! benchmark follows: a tail latency is reported at the highest requested
//! percentile that still leaves at least [`MIN_BEYOND`] samples above it,
//! together with the sample count it rests on.

/// Samples that must lie beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// The median of `xs` (mean of the two middle values for even counts).
/// Returns `NaN` for an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// The nearest-rank `pct` percentile of an ascending slice.
fn nearest_rank(sorted: &[f64], pct: f64) -> f64 {
    let n = sorted.len();
    let rank = ((pct / 100.0) * n as f64).ceil() as usize;
    sorted[rank.clamp(1, n) - 1]
}

/// The highest percentile, at most `wanted`, that leaves at least
/// [`MIN_BEYOND`] of `n` samples strictly above its nearest rank; `None`
/// when even the median is out of reach. The result is floored to one
/// decimal so that it names a real rank.
pub fn supported_percentile(n: usize, wanted: f64) -> Option<f64> {
    if n < 2 * MIN_BEYOND {
        return None;
    }
    let ceiling = 100.0 * (n - MIN_BEYOND) as f64 / n as f64;
    let pct = (wanted.min(ceiling) * 10.0).floor() / 10.0;
    (pct >= 50.0).then_some(pct)
}

/// A percentile as reported: the value, the percentile it was actually
/// taken at, and the sample count behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pctl {
    pub value: f64,
    pub pct: f64,
    pub n: usize,
}

impl Pctl {
    /// The basis of the value, e.g. `p99 of n=41234`.
    pub fn describe(&self, wanted: f64) -> String {
        if self.pct == wanted {
            format!("p{} of n={}", self.pct, self.n)
        } else {
            format!(
                "p{} of n={} (p{wanted} needs more samples)",
                self.pct, self.n
            )
        }
    }
}

/// The `wanted` percentile of `xs` under the ten-beyond rule, or `None`
/// when fewer than twenty samples exist.
pub fn percentile(xs: &[f64], wanted: f64) -> Option<Pctl> {
    let pct = supported_percentile(xs.len(), wanted)?;
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    Some(Pctl {
        value: nearest_rank(&v, pct),
        pct,
        n: v.len(),
    })
}

/// One closed interval of a trace, in nanoseconds since a common origin.
#[derive(Debug, Clone, PartialEq)]
pub struct Interval {
    pub id: u64,
    pub parent: Option<u64>,
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Self time per span: its duration minus the part of its interval that
/// its children cover. Children may overlap one another (parallel work
/// under one parent) and may spill past the parent; only the covered
/// union inside the parent is subtracted. Returned in input order.
pub fn self_times(spans: &[Interval]) -> Vec<u64> {
    let mut children: std::collections::HashMap<u64, Vec<(u64, u64)>> =
        std::collections::HashMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let dur = s.end_ns.saturating_sub(s.start_ns);
            let Some(kids) = children.get_mut(&s.id) else {
                return dur;
            };
            kids.sort_unstable();
            let mut covered = 0;
            let mut cursor = s.start_ns;
            for &(a, b) in kids.iter() {
                let a = a.max(cursor);
                let b = b.min(s.end_ns);
                if b > a {
                    covered += b - a;
                    cursor = b;
                }
            }
            dur - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        // p99 needs 1000 samples; with 500 the best is p98 (10 above).
        assert_eq!(supported_percentile(1000, 99.0), Some(99.0));
        assert_eq!(supported_percentile(500, 99.0), Some(98.0));
        assert_eq!(supported_percentile(100, 90.0), Some(90.0));
        assert_eq!(supported_percentile(60, 90.0), Some(83.3));
        assert_eq!(supported_percentile(20, 99.0), Some(50.0));
        assert_eq!(supported_percentile(19, 50.0), None);
    }

    #[test]
    fn reported_percentile_leaves_ten_samples_above() {
        for n in [20usize, 37, 100, 500, 999, 1000, 12345] {
            let xs: Vec<f64> = (0..n).map(|i| i as f64).collect();
            let p = percentile(&xs, 99.0).expect("enough samples");
            let above = xs.iter().filter(|&&x| x > p.value).count();
            assert!(above >= MIN_BEYOND, "n={n} p{} leaves {above}", p.pct);
            assert_eq!(p.n, n);
        }
        assert!(percentile(&[1.0; 19], 50.0).is_none());
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let xs: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
        let p = percentile(&xs, 99.0).unwrap();
        assert_eq!((p.value, p.pct), (990.0, 99.0));
        assert_eq!(percentile(&xs, 50.0).unwrap().value, 500.0);
    }

    fn iv(id: u64, parent: Option<u64>, start_ns: u64, end_ns: u64) -> Interval {
        Interval {
            id,
            parent,
            name: format!("s{id}"),
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = [
            iv(1, None, 0, 100),
            iv(2, Some(1), 10, 30),
            iv(3, Some(1), 50, 60),
        ];
        assert_eq!(self_times(&spans), vec![70, 20, 10]);
    }

    #[test]
    fn self_time_counts_overlapping_children_once() {
        // Two parallel children covering [10, 50) and [30, 70): union 60.
        let spans = [
            iv(1, None, 0, 100),
            iv(2, Some(1), 10, 50),
            iv(3, Some(1), 30, 70),
        ];
        assert_eq!(self_times(&spans)[0], 40);
    }

    #[test]
    fn self_time_clips_children_to_parent() {
        let spans = [
            iv(1, None, 10, 20),
            iv(2, Some(1), 0, 15),
            iv(3, Some(1), 18, 40),
        ];
        assert_eq!(self_times(&spans)[0], 3);
        // Grandchildren only reduce their own parent.
        let nested = [
            iv(1, None, 0, 100),
            iv(2, Some(1), 0, 50),
            iv(3, Some(2), 0, 50),
        ];
        assert_eq!(self_times(&nested), vec![50, 0, 50]);
    }
}
