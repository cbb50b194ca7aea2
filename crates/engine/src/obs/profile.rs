//! Intra-round phase profiling: the span taxonomy and per-shard profiles.
//!
//! Since the sharded runtime landed, a "round" is no longer one atomic
//! sweep: each worker pipelines guard evaluation, delta-beacon encoding,
//! mailbox sends, mailbox waits, and two barrier rendezvous. A slow shard,
//! a peer late with its batch, or a chaos-induced rebroadcast storm all used
//! to collapse into one opaque [`RoundStats::duration_micros`]. The types
//! here attribute that time: each executor lane (a shard worker, or the
//! single lane of an in-process executor) accumulates **span sums and
//! counts** per [`Phase`] into a [`ShardProfile`], and the per-round
//! [`RoundProfile`] carried by [`RoundStats::profile`] exposes the skew
//! quantities that decide where optimization effort goes — the straggler
//! lane, the max/mean round-time ratio, and the barrier-wait share.
//!
//! Like every other observation, profiles ride behind the zero-cost
//! [`Observer::ENABLED`] guard: the unobserved path never reads a clock.
//!
//! [`RoundStats::duration_micros`]: super::RoundStats::duration_micros
//! [`RoundStats::profile`]: super::RoundStats::profile
//! [`Observer::ENABLED`]: super::Observer::ENABLED

/// One phase of an executor round. The first six are the sharded runtime's
/// worker pipeline; the last three are the in-process executors' serial
/// loop, so a single schema covers every executor.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Phase {
    /// Guard evaluation + move computation over the worker's owned nodes.
    Compute,
    /// Encoding boundary states into per-target beacon frame batches.
    Encode,
    /// Pushing encoded batches into the peers' mailboxes (a push never
    /// blocks: mailboxes are unbounded).
    Send,
    /// Blocked on the mailbox until the batches the round expects have
    /// arrived, plus decoding them.
    RecvWait,
    /// Blocked on the round barrier (both rendezvous of the handshake).
    BarrierWait,
    /// Crash-restart state rehydration (chaos injection only).
    Rehydrate,
    /// Guard evaluation + move computation (in-process executors).
    GuardEval,
    /// Move application, excluding observer hooks (in-process executors).
    Apply,
    /// Observer-hook time — gauge evaluation, census counting, trace
    /// assembly — measured so the observation overhead itself is visible
    /// (in-process executors).
    Gauges,
}

/// Every phase, in canonical (pipeline) order.
pub const PHASES: [Phase; Phase::COUNT] = [
    Phase::Compute,
    Phase::Encode,
    Phase::Send,
    Phase::RecvWait,
    Phase::BarrierWait,
    Phase::Rehydrate,
    Phase::GuardEval,
    Phase::Apply,
    Phase::Gauges,
];

impl Phase {
    /// Number of phases in the taxonomy.
    pub const COUNT: usize = 9;

    /// The stable snake_case label used in JSONL artifacts, Chrome traces,
    /// and `analyze` reports.
    pub fn label(self) -> &'static str {
        match self {
            Phase::Compute => "compute",
            Phase::Encode => "encode",
            Phase::Send => "send",
            Phase::RecvWait => "recv_wait",
            Phase::BarrierWait => "barrier_wait",
            Phase::Rehydrate => "rehydrate",
            Phase::GuardEval => "guard_eval",
            Phase::Apply => "apply",
            Phase::Gauges => "gauges",
        }
    }

    /// Inverse of [`Phase::label`], for artifact readers.
    pub fn from_label(label: &str) -> Option<Phase> {
        PHASES.into_iter().find(|p| p.label() == label)
    }

    fn index(self) -> usize {
        PHASES
            .iter()
            .position(|&p| p == self)
            .expect("phase in PHASES")
    }
}

/// Accumulated span sums and counts, one slot per [`Phase`].
///
/// Spans accumulate in nanoseconds (a single guard evaluation on a small
/// shard is far below a microsecond; truncating per-add would report zero)
/// but are exposed in microseconds, the unit every artifact uses.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PhaseSpans {
    nanos: [u64; Phase::COUNT],
    counts: [u64; Phase::COUNT],
}

impl PhaseSpans {
    /// An empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one span of `nanos` nanoseconds in `phase`.
    pub fn add_nanos(&mut self, phase: Phase, nanos: u64) {
        let i = phase.index();
        self.nanos[i] += nanos;
        self.counts[i] += 1;
    }

    /// Record a pre-aggregated span sum (used by artifact readers and
    /// tests; `micros` is converted back to the internal resolution).
    pub fn add_micros(&mut self, phase: Phase, micros: u64, count: u64) {
        let i = phase.index();
        self.nanos[i] += micros * 1_000;
        self.counts[i] += count;
    }

    /// Total time spent in `phase`, microseconds.
    pub fn micros(&self, phase: Phase) -> u64 {
        self.nanos[phase.index()] / 1_000
    }

    /// Number of spans recorded in `phase`.
    pub fn count(&self, phase: Phase) -> u64 {
        self.counts[phase.index()]
    }

    /// Sum of all phase spans, microseconds.
    pub fn total_micros(&self) -> u64 {
        self.nanos.iter().sum::<u64>() / 1_000
    }

    /// Whether any span was recorded at all.
    pub fn is_empty(&self) -> bool {
        self.counts.iter().all(|&c| c == 0)
    }

    /// Fold another accumulator into this one.
    pub fn merge(&mut self, other: &PhaseSpans) {
        for i in 0..Phase::COUNT {
            self.nanos[i] += other.nanos[i];
            self.counts[i] += other.counts[i];
        }
    }

    /// The phases that recorded at least one span, in canonical order,
    /// as `(phase, micros, count)`.
    pub fn recorded(&self) -> impl Iterator<Item = (Phase, u64, u64)> + '_ {
        PHASES
            .into_iter()
            .filter(|&p| self.count(p) > 0)
            .map(|p| (p, self.micros(p), self.count(p)))
    }
}

/// One executor lane's intra-round profile: where its wall-clock went and
/// how deep its inbound mailbox got.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ShardProfile {
    /// The lane: a shard id under the sharded runtime, always 0 for the
    /// single lane of an in-process executor.
    pub shard: usize,
    /// Phase span sums + counts for this round.
    pub spans: PhaseSpans,
    /// Whole-round wall-clock for this lane, microseconds.
    pub round_micros: u64,
    /// The deepest this lane's inbound mailbox got during the round. The
    /// runtime consumes-and-resets the mailbox's high-water mark at every
    /// round boundary (`Receiver::take_max_depth`), so this gauge is the
    /// round's own peak, not a cumulative maximum; it never exceeds the
    /// number of neighbouring shards. Always 0 for in-process lanes, which
    /// have no mailbox.
    pub inbox_max_depth: u64,
    /// Mailbox depth after the round's exchange finished draining — frames
    /// already queued for a *future* round. Normally 0.
    pub inbox_depth: u64,
}

/// The per-round profile carried by [`super::RoundStats::profile`]: one
/// [`ShardProfile`] per executor lane.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RoundProfile {
    /// One entry per lane, indexed by position (not necessarily sorted by
    /// shard id; use the `shard` field).
    pub shards: Vec<ShardProfile>,
}

impl RoundProfile {
    /// The straggler: the lane whose round took longest. `None` when the
    /// profile is empty.
    pub fn straggler(&self) -> Option<&ShardProfile> {
        self.shards.iter().max_by_key(|s| (s.round_micros, s.shard))
    }

    /// Longest lane round time, microseconds.
    pub fn max_round_micros(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.round_micros)
            .max()
            .unwrap_or(0)
    }

    /// Mean lane round time, microseconds.
    pub fn mean_round_micros(&self) -> f64 {
        if self.shards.is_empty() {
            return 0.0;
        }
        let sum: u64 = self.shards.iter().map(|s| s.round_micros).sum();
        sum as f64 / self.shards.len() as f64
    }

    /// Skew: max/mean lane round time. 1.0 means perfectly balanced; the
    /// excess over 1.0 is wall-clock lost to the slowest lane. Returns 1.0
    /// for an empty or all-zero profile.
    pub fn skew(&self) -> f64 {
        let mean = self.mean_round_micros();
        if mean <= 0.0 {
            return 1.0;
        }
        self.max_round_micros() as f64 / mean
    }

    /// Fraction of total lane time spent blocked on the round barrier —
    /// the aggregate cost of lane imbalance. 0.0 when nothing was recorded.
    pub fn barrier_wait_share(&self) -> f64 {
        let total: u64 = self.shards.iter().map(|s| s.round_micros).sum();
        if total == 0 {
            return 0.0;
        }
        let barrier: u64 = self
            .shards
            .iter()
            .map(|s| s.spans.micros(Phase::BarrierWait))
            .sum();
        barrier as f64 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_round_trip() {
        for p in PHASES {
            assert_eq!(Phase::from_label(p.label()), Some(p));
        }
        assert_eq!(Phase::from_label("no_such_phase"), None);
    }

    #[test]
    fn spans_accumulate_nanos_and_report_micros() {
        let mut s = PhaseSpans::new();
        assert!(s.is_empty());
        // 600ns + 600ns: individually below a microsecond, together 1µs —
        // the reason accumulation is in nanoseconds.
        s.add_nanos(Phase::Compute, 600);
        s.add_nanos(Phase::Compute, 600);
        s.add_nanos(Phase::Send, 2_500);
        assert_eq!(s.micros(Phase::Compute), 1);
        assert_eq!(s.count(Phase::Compute), 2);
        assert_eq!(s.micros(Phase::Send), 2);
        assert_eq!(s.total_micros(), 3);
        assert!(!s.is_empty());
        let recorded: Vec<_> = s.recorded().map(|(p, _, _)| p).collect();
        assert_eq!(recorded, vec![Phase::Compute, Phase::Send]);

        let mut other = PhaseSpans::new();
        other.add_micros(Phase::Compute, 4, 3);
        s.merge(&other);
        assert_eq!(s.micros(Phase::Compute), 5);
        assert_eq!(s.count(Phase::Compute), 5);
    }

    #[test]
    fn round_profile_skew_metrics() {
        let lane = |shard: usize, round: u64, barrier: u64| {
            let mut spans = PhaseSpans::new();
            spans.add_micros(Phase::BarrierWait, barrier, 2);
            ShardProfile {
                shard,
                spans,
                round_micros: round,
                inbox_max_depth: 0,
                inbox_depth: 0,
            }
        };
        let p = RoundProfile {
            shards: vec![lane(0, 100, 10), lane(1, 300, 90), lane(2, 200, 50)],
        };
        assert_eq!(p.straggler().unwrap().shard, 1);
        assert_eq!(p.max_round_micros(), 300);
        assert!((p.mean_round_micros() - 200.0).abs() < 1e-9);
        assert!((p.skew() - 1.5).abs() < 1e-9);
        assert!((p.barrier_wait_share() - 0.25).abs() < 1e-9);

        let empty = RoundProfile::default();
        assert!(empty.straggler().is_none());
        assert_eq!(empty.skew(), 1.0);
        assert_eq!(empty.barrier_wait_share(), 0.0);
    }
}
