//! The result line every run ends with, and the statistics behind it.

use selfstab_json::{Json, ToJson};

/// One run's verdict and metrics, printed as the last line of stdout.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations the run attempted (repetitions, requests or probe steps).
    pub attempted: u64,
    /// Operations that failed or never completed.
    pub failed: u64,
    /// `(name, value, unit)` in print order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Output checks that did not hold; the run is correct iff empty.
    pub problems: Vec<String>,
}

impl Report {
    /// Record a metric.
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push((name, value, unit));
    }

    /// Record an output check; a failing one makes the run incorrect.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(what());
        }
    }

    /// Count one attempted operation, failed unless `ok`.
    pub fn op(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    /// The end-to-end metrics every untraced run reports, in
    /// `BENCHMARK.json` order: the median set-up, per-operation latency
    /// (median and tail), and peak RSS.
    pub fn end_to_end(
        &mut self,
        setups_s: &[f64],
        latency_ms: &[f64],
        peak_rss: Result<f64, String>,
    ) {
        self.metric("setup_s", quantile(setups_s, 0.5), "s");
        self.metric("latency_p50_ms", quantile(latency_ms, 0.5), "ms");
        let tail = quantile(latency_ms, tail_q(latency_ms.len()));
        self.metric("latency_tail_ms", tail, "ms");
        match peak_rss {
            Ok(mb) => self.metric("peak_rss_mb", mb, "MB"),
            Err(e) => self.check(false, || format!("peak RSS unreadable: {e}")),
        }
    }

    /// Whether every output check held.
    pub fn correct(&self) -> bool {
        self.problems.is_empty() && self.failed == 0
    }

    /// The result object.
    pub fn to_json(&self) -> Json {
        let metrics = self
            .metrics
            .iter()
            .map(|&(name, value, unit)| {
                let body = Json::obj([("value", value.to_json()), ("unit", unit.to_json())]);
                (name.to_string(), body)
            })
            .collect();
        Json::obj([
            ("correct", self.correct().to_json()),
            ("attempted", self.attempted.to_json()),
            ("failed", self.failed.to_json()),
            ("metrics", Json::Object(metrics)),
        ])
    }

    /// Print every metric with its unit, any failed check, then the result
    /// object as the last line of stdout.
    pub fn print(&self) {
        for (name, value, unit) in &self.metrics {
            println!("{name:<28} {value:>16.6} {unit}");
        }
        for problem in &self.problems {
            println!("CHECK FAILED: {problem}");
        }
        println!("{}", self.to_json());
    }
}

/// The `q`-quantile of `values` by linear interpolation between order
/// statistics (NaN for an empty sample).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The highest quantile a sample of `len` supports: ten samples beyond it,
/// and at most p99 (p99 from 1000 samples on, the median below 20).
fn tail_q(len: usize) -> f64 {
    (1.0 - 10.0 / len as f64).clamp(0.5, 0.99)
}

/// Arithmetic mean (NaN for an empty sample).
pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len() as f64
}

/// Peak resident set size (`VmHWM`) of a process, in MiB.
pub fn peak_rss_mb(pid: u32) -> Result<f64, String> {
    let path = format!("/proc/{pid}/status");
    let status = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| format!("{path}: no VmHWM line"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_order_statistics() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 0.5), 2.5);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert!(quantile(&[], 0.5).is_nan());
        assert_eq!(mean(&v), 2.5);
        assert_eq!(tail_q(1000), 0.99);
        assert_eq!(tail_q(40), 0.75);
        assert_eq!(tail_q(5), 0.5);
    }

    #[test]
    fn result_line_has_the_documented_shape() {
        let mut r = Report::default();
        r.op(true);
        r.metric("setup_s", 0.5, "s");
        let line = r.to_json().to_string();
        let back = Json::parse(&line).expect("result line is JSON");
        assert_eq!(back.get("correct").and_then(Json::as_bool), Some(true));
        assert_eq!(back.get("attempted").and_then(Json::as_u64), Some(1));
        let setup = back.get("metrics").and_then(|m| m.get("setup_s"));
        assert_eq!(
            setup.and_then(|s| s.get("unit")).and_then(Json::as_str),
            Some("s")
        );
        r.op(false);
        assert!(!r.correct());
    }
}
