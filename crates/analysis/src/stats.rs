//! Descriptive statistics over experiment samples.

use selfstab_json::{FromJson, Json, JsonError, ToJson};

/// Summary statistics of a sample.
#[derive(Clone, Debug, PartialEq)]
pub struct Summary {
    /// Sample size.
    pub n: usize,
    /// Arithmetic mean (NaN for empty samples).
    pub mean: f64,
    /// Population standard deviation.
    pub std: f64,
    /// Minimum.
    pub min: f64,
    /// Maximum.
    pub max: f64,
    /// Median (mean of middle pair for even sizes).
    pub median: f64,
    /// 95th percentile (nearest-rank).
    pub p95: f64,
}

impl ToJson for Summary {
    fn to_json(&self) -> Json {
        Json::obj([
            ("n", self.n.to_json()),
            ("mean", self.mean.to_json()),
            ("std", self.std.to_json()),
            ("min", self.min.to_json()),
            ("max", self.max.to_json()),
            ("median", self.median.to_json()),
            ("p95", self.p95.to_json()),
        ])
    }
}

impl FromJson for Summary {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        Ok(Summary {
            n: value.parse_field("n")?,
            mean: value.parse_field("mean")?,
            std: value.parse_field("std")?,
            min: value.parse_field("min")?,
            max: value.parse_field("max")?,
            median: value.parse_field("median")?,
            p95: value.parse_field("p95")?,
        })
    }
}

impl Summary {
    /// Summarize a sample (empty samples yield NaN fields and `n = 0`).
    pub fn of(samples: &[f64]) -> Summary {
        let n = samples.len();
        if n == 0 {
            return Summary {
                n: 0,
                mean: f64::NAN,
                std: f64::NAN,
                min: f64::NAN,
                max: f64::NAN,
                median: f64::NAN,
                p95: f64::NAN,
            };
        }
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        let mut sorted = samples.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("no NaNs in samples"));
        let median = if n % 2 == 1 {
            sorted[n / 2]
        } else {
            (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
        };
        let p95_idx = ((0.95 * n as f64).ceil() as usize).clamp(1, n) - 1;
        Summary {
            n,
            mean,
            std: var.sqrt(),
            min: sorted[0],
            max: sorted[n - 1],
            median,
            p95: sorted[p95_idx],
        }
    }

    /// Summarize integer samples.
    pub fn of_usize(samples: impl IntoIterator<Item = usize>) -> Summary {
        let v: Vec<f64> = samples.into_iter().map(|x| x as f64).collect();
        Summary::of(&v)
    }

    /// `mean ± std` with two decimals, for tables.
    pub fn mean_pm_std(&self) -> String {
        format!("{:.2} ± {:.2}", self.mean, self.std)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_summary() {
        let s = Summary::of(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(s.n, 4);
        assert_eq!(s.mean, 2.5);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 4.0);
        assert_eq!(s.median, 2.5);
        assert!((s.std - (1.25f64).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn odd_median_and_p95() {
        let s = Summary::of(&[5.0, 1.0, 3.0]);
        assert_eq!(s.median, 3.0);
        assert_eq!(s.p95, 5.0);
        let s = Summary::of_usize(1..=100);
        assert_eq!(s.p95, 95.0);
        assert_eq!(s.median, 50.5);
    }

    #[test]
    fn empty_and_singleton() {
        let s = Summary::of(&[]);
        assert_eq!(s.n, 0);
        assert!(s.mean.is_nan());
        let s = Summary::of(&[7.0]);
        assert_eq!(s.mean, 7.0);
        assert_eq!(s.std, 0.0);
        assert_eq!(s.median, 7.0);
        assert_eq!(s.p95, 7.0);
    }

    #[test]
    fn json_roundtrip() {
        let s = Summary::of(&[5.0, 3.0, 1.0, 4.0, 2.0]);
        let back = Summary::from_json(&s.to_json()).unwrap();
        assert_eq!(back, s);
    }

    #[test]
    fn formatting() {
        let s = Summary::of(&[2.0, 2.0]);
        assert_eq!(s.mean_pm_std(), "2.00 ± 0.00");
    }
}
