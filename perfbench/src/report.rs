//! Sample statistics and the result line every run prints last.

use std::fmt::Write as _;
use std::time::Duration;

/// Timing samples of one quantity, in the unit they are reported in.
#[derive(Debug, Clone, Default)]
pub struct Samples(Vec<f64>);

impl Samples {
    /// Adds one sample.
    pub fn push(&mut self, v: f64) {
        self.0.push(v);
    }

    /// Adds a duration in milliseconds.
    pub fn push_ms(&mut self, d: Duration) {
        self.0.push(d.as_secs_f64() * 1e3);
    }

    /// Folds another worker's samples in.
    pub fn extend(&mut self, other: Samples) {
        self.0.extend(other.0);
    }

    /// Sample count.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// True when no sample was taken.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Arithmetic mean (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.0.is_empty() {
            return 0.0;
        }
        self.0.iter().sum::<f64>() / self.0.len() as f64
    }

    /// Nearest-rank quantile `q` in `[0, 1]` (0 when empty).
    pub fn quantile(&self, q: f64) -> f64 {
        let mut sorted = self.0.clone();
        sorted.sort_by(f64::total_cmp);
        match rank(sorted.len(), q) {
            Some(r) => sorted[r],
            None => 0.0,
        }
    }

    /// Median.
    pub fn p50(&self) -> f64 {
        self.quantile(0.50)
    }

    /// 99th percentile.
    pub fn p99(&self) -> f64 {
        self.quantile(0.99)
    }

    /// How many samples lie strictly beyond the rank of quantile `q`:
    /// the tail that figure rests on.
    pub fn beyond(&self, q: f64) -> usize {
        rank(self.0.len(), q).map_or(0, |r| self.0.len() - r - 1)
    }
}

/// Zero-based nearest-rank index of quantile `q` among `n` samples.
fn rank(n: usize, q: f64) -> Option<usize> {
    if n == 0 {
        return None;
    }
    let r = (q * n as f64).ceil() as usize;
    Some(r.clamp(1, n) - 1)
}

/// Throughput as the median over consecutive windows of `window`
/// seconds: ops completed in each window divided by its length, given
/// every op's completion time. A median of windows rides out the short
/// slow phases of a shared machine that a whole-run mean absorbs.
/// Falls back to the whole-run rate when the run is shorter than three
/// windows.
pub fn window_rate(ends: &[f64], wall: f64, window: f64) -> f64 {
    let n = (wall / window).floor() as usize;
    if n < 3 {
        return ends.len() as f64 / wall;
    }
    let mut counts = vec![0usize; n];
    for &t in ends {
        if let Some(c) = counts.get_mut((t / window) as usize) {
            *c += 1;
        }
    }
    let mut rates = Samples::default();
    counts.iter().for_each(|&c| rates.push(c as f64 / window));
    rates.p50()
}

/// Window length of `items_per_s` (seconds).
pub const RATE_WINDOW_S: f64 = 0.5;

/// Samples a p99 needs so that at least ten lie beyond it.
pub const P99_MIN_SAMPLES: usize = 1_100;

/// One named metric with its unit.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: String,
    /// The measured value, all digits kept.
    pub value: f64,
    /// Unit string.
    pub unit: &'static str,
}

/// Everything one run reports.
#[derive(Debug, Clone, Default)]
pub struct RunResult {
    /// Every output check passed and no op failed.
    pub correct: bool,
    /// Ops attempted.
    pub attempted: u64,
    /// Ops whose output check failed.
    pub failed: u64,
    /// The metrics, in print order.
    pub metrics: Vec<Metric>,
    /// Run facts printed before the result line (worker count, ops per
    /// run, samples beyond each p99, failure details).
    pub notes: Vec<String>,
}

impl RunResult {
    /// Appends a metric.
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    /// Appends a note line.
    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// The value of a metric, if present.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// The single-line JSON result object.
    pub fn json(&self) -> String {
        let mut s = String::new();
        let _ = write!(
            s,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            let _ = write!(
                s,
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            );
        }
        s.push_str("}}");
        s
    }
}

/// A finite JSON number (non-finite values print as 0).
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_string()
    }
}

/// Peak resident set size of this process in MB (`VmHWM`), 0 when the
/// platform does not expose it.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The end-to-end metrics every workload prints, in `BENCHMARK.json`
/// order, plus a note with the item latency p50 and tail (p90 and p99
/// with the samples beyond each). The p50 is a note, not a metric: with
/// one closed-loop client `items_per_s` already gives the central
/// tendency, and the multi-modal fuzz latency made its median jump 20 %
/// between seeds.
pub fn end_to_end(
    result: &mut RunResult,
    setup_s: f64,
    items_per_s: f64,
    item: &Samples,
    quality: f64,
) {
    result.note(format!(
        "item_ms: {} samples; p50 {}; p90 {} ({} beyond); p99 {} ({} beyond)",
        item.len(),
        item.p50(),
        item.quantile(0.9),
        item.beyond(0.9),
        item.p99(),
        item.beyond(0.99)
    ));
    result.metric("setup_s", setup_s, "s");
    result.metric("peak_rss_mb", peak_rss_mb(), "MB");
    result.metric("items_per_s", items_per_s, "1/s");
    result.metric("item_ms.p90", item.quantile(0.9), "ms");
    result.metric("quality_ratio", quality, "ratio");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let mut s = Samples::default();
        for v in 1..=1000 {
            s.push(v as f64);
        }
        assert_eq!(s.p50(), 500.0);
        assert_eq!(s.p99(), 990.0);
        assert_eq!(s.beyond(0.99), 10);
        assert_eq!(s.quantile(0.9), 900.0);
        assert_eq!(Samples::default().p99(), 0.0);
    }

    #[test]
    fn window_rate_is_the_median_window() {
        // 10 ops/s for 4 s, then a stalled second.
        let ends: Vec<f64> = (0..40).map(|i| i as f64 * 0.1 + 0.05).collect();
        assert_eq!(window_rate(&ends, 5.0, 1.0), 10.0);
        assert_eq!(window_rate(&ends, 2.0, 1.0), 20.0);
    }

    #[test]
    fn result_line_is_one_json_object() {
        let mut r = RunResult {
            correct: true,
            attempted: 3,
            ..RunResult::default()
        };
        r.metric("setup_s", 0.25, "s");
        assert_eq!(
            r.json(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}}"
        );
    }
}
