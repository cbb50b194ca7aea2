//! Rolling-window sample statistics for live telemetry.
//!
//! A resident service cannot report whole-run aggregates — "p99 recovery
//! latency since boot three days ago" hides this hour's regression. The
//! types here keep a bounded ring of the most recent samples and answer
//! windowed and recency-decayed quantiles over it, plus a timestamp ring
//! for event rates. Everything is `std`-only, allocation-bounded by the
//! window capacity, and deterministic given the sample sequence, so the
//! sim environment can proptest telemetry output exactly.

#![deny(missing_docs)]

use std::collections::VecDeque;

/// A bounded ring of the most recent `u64` samples with windowed and
/// recency-decayed quantiles.
///
/// `push` evicts the oldest sample once the window is full, so memory is
/// fixed at the capacity chosen at construction. Quantile queries sort a
/// copy of the window — `O(W log W)` where `W` is the (small) capacity —
/// which keeps the *recording* path to a ring write and leaves the
/// sorting cost on the scrape path, where it belongs.
#[derive(Clone, Debug)]
pub struct RollingWindow {
    cap: usize,
    samples: VecDeque<u64>,
    pushed: u64,
}

impl RollingWindow {
    /// A window retaining the last `cap` samples (`cap` is clamped to at
    /// least 1).
    pub fn new(cap: usize) -> Self {
        let cap = cap.max(1);
        RollingWindow {
            cap,
            samples: VecDeque::with_capacity(cap),
            pushed: 0,
        }
    }

    /// Record a sample, evicting the oldest if the window is full.
    pub fn push(&mut self, value: u64) {
        if self.samples.len() == self.cap {
            self.samples.pop_front();
        }
        self.samples.push_back(value);
        self.pushed = self.pushed.saturating_add(1);
    }

    /// Lifetime count of samples ever pushed (monotone; survives eviction).
    pub fn pushed(&self) -> u64 {
        self.pushed
    }

    /// The largest retained sample, if any.
    pub fn max(&self) -> Option<u64> {
        self.samples.iter().max().copied()
    }

    /// The smallest retained sample `v` such that at least `q` of the
    /// window is `≤ v` (inverse CDF; `q` clamped to `[0, 1]`). `None`
    /// when empty.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.samples.is_empty() {
            return None;
        }
        let mut sorted: Vec<u64> = self.samples.iter().copied().collect();
        sorted.sort_unstable();
        let need = (q.clamp(0.0, 1.0) * sorted.len() as f64).ceil().max(1.0) as usize;
        Some(sorted[need.min(sorted.len()) - 1])
    }

    /// Quantile with samples weighted by recency: the newest sample has
    /// weight 1 and weights halve every `half_life` positions back, so a
    /// burst of recent slow events moves the decayed p99 long before it
    /// would shift the uniform one. `half_life` is clamped to ≥ 1 sample;
    /// `None` when empty.
    pub fn decayed_quantile(&self, q: f64, half_life: f64) -> Option<u64> {
        if self.samples.is_empty() {
            return None;
        }
        let half_life = if half_life.is_finite() && half_life >= 1.0 {
            half_life
        } else {
            1.0
        };
        let newest = self.samples.len() - 1;
        let mut weighted: Vec<(u64, f64)> = self
            .samples
            .iter()
            .enumerate()
            .map(|(i, &v)| (v, 0.5f64.powf((newest - i) as f64 / half_life)))
            .collect();
        weighted.sort_unstable_by_key(|&(v, _)| v);
        let total: f64 = weighted.iter().map(|&(_, w)| w).sum();
        let need = q.clamp(0.0, 1.0) * total;
        let mut seen = 0.0;
        for &(v, w) in &weighted {
            seen += w;
            if seen >= need {
                return Some(v);
            }
        }
        weighted.last().map(|&(v, _)| v)
    }
}

/// A bounded ring of event timestamps answering "events per second as of
/// now", computed over the retained window.
#[derive(Clone, Debug)]
pub struct RateWindow {
    cap: usize,
    stamps: VecDeque<u64>,
    total: u64,
}

impl RateWindow {
    /// A window retaining the last `cap` event timestamps (clamped ≥ 1).
    pub fn new(cap: usize) -> Self {
        let cap = cap.max(1);
        RateWindow {
            cap,
            stamps: VecDeque::with_capacity(cap),
            total: 0,
        }
    }

    /// Record an event at `now_micros` (monotone timestamps expected; a
    /// regression is tolerated and simply shortens the measured span).
    pub fn mark(&mut self, now_micros: u64) {
        if self.stamps.len() == self.cap {
            self.stamps.pop_front();
        }
        self.stamps.push_back(now_micros);
        self.total = self.total.saturating_add(1);
    }

    /// Lifetime count of events ever marked (monotone).
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Events per second over the retained window, evaluated at
    /// `now_micros`. Defined as retained-count divided by the span from
    /// the oldest retained stamp to `now` (span clamped to ≥ 1 µs), so
    /// the result is finite — 0.0 when no events are retained, never NaN.
    pub fn per_sec(&self, now_micros: u64) -> f64 {
        let Some(&oldest) = self.stamps.front() else {
            return 0.0;
        };
        let span = now_micros.saturating_sub(oldest).max(1);
        self.stamps.len() as f64 * 1_000_000.0 / span as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_evicts_oldest_and_counts_lifetime() {
        let mut w = RollingWindow::new(3);
        assert_eq!(w.quantile(0.5), None);
        for v in 1..=5 {
            w.push(v);
        }
        assert_eq!(w.pushed(), 5);
        assert_eq!(w.max(), Some(5));
        // Window holds {3, 4, 5}.
        assert_eq!(w.quantile(0.0), Some(3));
        assert_eq!(w.quantile(0.5), Some(4));
        assert_eq!(w.quantile(1.0), Some(5));
    }

    #[test]
    fn zero_capacity_clamps_to_one() {
        let mut w = RollingWindow::new(0);
        w.push(7);
        w.push(9);
        // Only the newest sample is retained.
        assert_eq!(w.quantile(0.0), Some(9));
        assert_eq!(w.quantile(0.5), Some(9));
    }

    #[test]
    fn decayed_quantile_favors_recent_samples() {
        // 16 old slow samples, then 16 recent fast ones. The uniform
        // median straddles both popuations; a 4-sample half-life decays
        // the old block to negligible weight, so the decayed median (and
        // even the decayed p99) sits in the recent fast block.
        let mut w = RollingWindow::new(32);
        for _ in 0..16 {
            w.push(1000);
        }
        for _ in 0..16 {
            w.push(10);
        }
        assert_eq!(w.quantile(0.99), Some(1000));
        assert_eq!(w.decayed_quantile(0.5, 4.0), Some(10));
        assert!(w.decayed_quantile(0.99, 4.0).unwrap() <= 1000);
        // Degenerate half-life clamps instead of producing NaN weights.
        assert!(w.decayed_quantile(0.5, f64::NAN).is_some());
        assert!(RollingWindow::new(4).decayed_quantile(0.5, 4.0).is_none());
    }

    #[test]
    fn rate_window_is_finite() {
        let mut r = RateWindow::new(8);
        assert_eq!(r.per_sec(123), 0.0);
        for i in 0..4 {
            r.mark(i * 1_000_000);
        }
        assert_eq!(r.total(), 4);
        // 4 events retained, oldest at t=0, now=4s → 1 events/sec.
        assert!((r.per_sec(4_000_000) - 1.0).abs() < 1e-9);
        // Clock regression: span clamps to 1 µs, stays finite.
        assert!(r.per_sec(0).is_finite());
        // Eviction: window forgets the oldest stamps.
        for i in 4..20 {
            r.mark(i * 1_000_000);
        }
        assert_eq!(r.total(), 20);
        assert!((r.per_sec(20_000_000) - 1.0).abs() < 0.25);
    }
}
