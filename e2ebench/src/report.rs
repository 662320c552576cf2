//! Metric records, summary statistics and span aggregation.

use std::collections::BTreeMap;

use crate::trace::{Layer, Span};

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Value as measured.
    pub value: f64,
    /// Unit (`ms`, `s`, `count`, ...).
    pub unit: &'static str,
    /// How many samples the value summarises.
    pub samples: u64,
}

/// The outcome of one pass over one workload.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// End-to-end metrics (untraced pass) or per-layer metrics (traced).
    pub metrics: BTreeMap<&'static str, Metric>,
    /// Operations attempted (site-frames or datagrams).
    pub attempted: u64,
    /// Operations that failed a correctness check.
    pub failed: u64,
    /// Human-readable descriptions of the first failures.
    pub problems: Vec<String>,
    /// Extra facts about the run (for the facts line).
    pub facts: BTreeMap<&'static str, String>,
    /// Spans of a traced pass.
    pub spans: Vec<Span>,
}

impl Outcome {
    /// Records a metric.
    pub fn put(&mut self, name: &'static str, unit: &'static str, value: f64, samples: u64) {
        self.metrics.insert(
            name,
            Metric {
                value,
                unit,
                samples,
            },
        );
    }

    /// Keeps a description of a failure (the first few only).
    pub fn note(&mut self, why: String) {
        if self.problems.len() < 8 {
            self.problems.push(why);
        }
    }

    /// The value of a recorded metric, or 0.
    pub fn value(&self, name: &str) -> f64 {
        self.metrics.get(name).map_or(0.0, |m| m.value)
    }
}

/// The `p`-quantile (0..=1) of `v` by nearest rank; 0 for an empty slice.
pub fn quantile(v: &[f64], p: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = (p * s.len() as f64).ceil() as usize;
    s[rank.clamp(1, s.len()) - 1]
}

/// Median of `v`; 0 for an empty slice.
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Latency metrics from per-round samples (ms), pooled over the rounds.
pub fn latency_metrics(out: &mut Outcome, rounds: &[Vec<f64>]) {
    let pooled: Vec<f64> = rounds.iter().flatten().copied().collect();
    let n = pooled.len() as u64;
    out.put(
        "latency_mean_ms",
        "ms",
        ratio(pooled.iter().sum(), n as f64),
        n,
    );
    out.put("latency_p50_ms", "ms", quantile(&pooled, 0.5), n);
    out.put("latency_p90_ms", "ms", quantile(&pooled, 0.9), n);
    out.put("latency_p99_ms", "ms", quantile(&pooled, 0.99), n);
}

/// `a / b`, or 0 when `b` is 0.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Per-layer totals over a set of spans.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerTotals {
    /// Spans recorded.
    pub count: u64,
    /// Summed duration, ns.
    pub dur_ns: u64,
    /// Summed self time, ns.
    pub self_ns: u64,
    /// Summed `val`.
    pub val: u64,
    /// Spans with a non-zero `val`.
    pub nonzero: u64,
}

impl LayerTotals {
    /// Mean duration per span, ns.
    pub fn mean_ns(&self) -> f64 {
        ratio(self.dur_ns as f64, self.count as f64)
    }
}

/// Sums spans per layer.
pub fn totals(spans: &[Span]) -> BTreeMap<Layer, LayerTotals> {
    let mut out: BTreeMap<Layer, LayerTotals> = BTreeMap::new();
    for s in spans {
        let t = out.entry(s.layer).or_default();
        t.count += 1;
        t.dur_ns += s.dur_ns();
        t.self_ns += s.self_ns();
        t.val += s.val;
        t.nonzero += u64::from(s.val != 0);
    }
    out
}

/// Renders a JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Renders a finite JSON number with all its digits (non-finite → 0).
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert_eq!(quantile(&v, 1.0), 100.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0, 10.0]), 2.5);
    }

    #[test]
    fn json_rendering() {
        assert_eq!(json_str("a\"b"), "\"a\\\"b\"");
        assert_eq!(json_num(1.5), "1.5");
        assert_eq!(json_num(f64::NAN), "0.0");
    }
}
