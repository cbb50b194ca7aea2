//! Deterministic chaos injection for the sharded runtime.
//!
//! A [`FaultPlan`] describes an adversary acting on the live execution: it
//! drops, duplicates, delays, or bit-corrupts beacon frames at the channel
//! boundary, and crashes shard workers mid-run (the worker loses *all* of
//! its state and rehydrates every entry — owned and ghost — from
//! [`Protocol::arbitrary_state`]).
//! Stale cached beacons, garbage restart states, and re-ordered deliveries
//! are exactly the transient faults the paper's self-stabilization theorems
//! tolerate, so a legitimate run must re-converge from any of them.
//!
//! **Every decision is a pure hash.** The fate of a frame is a
//! splitmix64-style hash of `(seed, round, node, target shard)` mapped to
//! `[0, 1)` and partitioned into `[drop][dup][delay][corrupt][clean]`
//! bands. No RNG state is threaded through the workers, so the injected
//! fault sequence is identical regardless of thread interleaving, and a
//! run with the same plan is reproducible frame for frame. When no plan is
//! installed the executor never consults this module — the clean hot path
//! is byte-for-byte the non-chaos executor.
//!
//! **Why the runtime still terminates correctly.** Under a plan, each
//! sender tracks the value each receiver's ghost actually holds (it can:
//! fates are sender-side and deterministic). A boundary beacon is sent
//! whenever that model disagrees with the node's current state, so a
//! dropped or corrupted frame is automatically re-broadcast until it
//! lands, and the run is not allowed to report `Stabilized` while any
//! ghost is known-stale, any delayed frame is still buffered, or any crash
//! is still scheduled. See `DESIGN.md` §9.

use selfstab_core::partition::Partition;
use selfstab_engine::active::Schedule;
use selfstab_engine::adversary::{splitmix64, AsymPlan, ByzPlan, ByzStrategy};
use selfstab_engine::chaos::{ChaosRun, ChurnSchedule};
use selfstab_engine::obs::{Observer, RoundStats};
use selfstab_engine::protocol::{InitialState, Protocol, WireState};
use selfstab_engine::sync::{Outcome, Run};
use selfstab_graph::{Graph, Node};

use crate::executor::{RuntimeError, RuntimeExecutor};

/// What the chaos layer decided to do with one outbound beacon frame.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum FrameFate {
    /// Deliver normally.
    Deliver,
    /// Do not send; the receiver keeps its cached ghost.
    Drop,
    /// Send two identical copies.
    Duplicate,
    /// Buffer sender-side; deliver `delay_rounds` rounds later (tagged with
    /// the delivery round, so the round-tag invariant still holds).
    Delay,
    /// Flip the version byte and XOR the payload; the receiver's strict
    /// decode detects and discards the frame.
    Corrupt,
}

/// One scheduled worker crash: at the start of round `round` (0-based, the
/// same clock as `max_rounds`), shard `shard`'s worker loses its state and
/// restarts with arbitrary rehydration.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct CrashSpec {
    /// Shard whose worker crashes.
    pub shard: usize,
    /// Round at which the crash fires.
    pub round: usize,
}

impl CrashSpec {
    /// Parse the CLI form `SHARD@ROUND`, e.g. `1@5`.
    pub fn parse(spec: &str) -> Result<CrashSpec, String> {
        let (shard, round) = spec
            .split_once('@')
            .ok_or_else(|| format!("bad crash spec '{spec}' (expected SHARD@ROUND, e.g. 1@5)"))?;
        let shard = shard
            .parse::<usize>()
            .map_err(|_| format!("bad crash shard '{shard}' (expected a shard index)"))?;
        let round = round
            .parse::<usize>()
            .map_err(|_| format!("bad crash round '{round}' (expected a round number)"))?;
        Ok(CrashSpec { shard, round })
    }
}

/// A rejected chaos spec: what was wrong and where.
///
/// [`FaultPlan::parse_spec`] is strict — duplicate keys and unknown keys are
/// hard errors rather than last-write-wins or silently ignored, so a typo'd
/// benchmark spec fails loudly instead of measuring the wrong adversary.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SpecError {
    /// The spec string was empty.
    Empty,
    /// An item was not of the form `key=value`.
    BadItem(String),
    /// The same key appeared twice.
    DuplicateKey(String),
    /// The key is not one this parser knows.
    UnknownKey(String),
    /// The value could not be parsed for its key.
    BadValue {
        /// The key whose value was rejected.
        key: String,
        /// The offending value text.
        value: String,
    },
    /// The items parsed individually but the plan is semantically invalid
    /// (probability bands, cross-key requirements).
    Invalid(String),
}

impl std::fmt::Display for SpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SpecError::Empty => {
                write!(f, "empty chaos spec (try e.g. drop=0.1,dup=0.02,delay=2)")
            }
            SpecError::BadItem(item) => {
                write!(f, "bad chaos spec item '{item}' (expected key=value)")
            }
            SpecError::DuplicateKey(key) => {
                write!(f, "duplicate chaos key '{key}' (each key may appear once)")
            }
            SpecError::UnknownKey(key) => write!(
                f,
                "unknown chaos key '{key}' \
                 (expected drop|dup|delay|delayp|corrupt|until|byz|strat|asym)"
            ),
            SpecError::BadValue { key, value } => {
                write!(f, "bad chaos value '{value}' for '{key}'")
            }
            SpecError::Invalid(reason) => write!(f, "invalid chaos spec: {reason}"),
        }
    }
}

impl std::error::Error for SpecError {}

/// A deterministic, seeded description of the faults to inject into a run.
///
/// Probabilities are per-frame; `drop + dup + delay_p + corrupt` must not
/// exceed 1. All round fields are in absolute rounds on the executor's
/// clock (round 0 evaluates the initial states).
#[derive(Clone, Debug, PartialEq)]
pub struct FaultPlan {
    /// Per-frame probability of [`FrameFate::Drop`].
    pub drop: f64,
    /// Per-frame probability of [`FrameFate::Duplicate`].
    pub dup: f64,
    /// Per-frame probability of [`FrameFate::Delay`].
    pub delay_p: f64,
    /// How many rounds a delayed frame is buffered before delivery.
    pub delay_rounds: usize,
    /// Per-frame probability of [`FrameFate::Corrupt`].
    pub corrupt: f64,
    /// Frame chaos applies only while `round <= until`; `None` means the
    /// whole run. (Crashes fire at their own rounds regardless.) The
    /// Byzantine and asymmetric-link adversaries share this window.
    pub until: Option<usize>,
    /// Scheduled worker crash-restarts.
    pub crashes: Vec<CrashSpec>,
    /// Byzantine nodes (sorted, deduplicated): each hot round their states
    /// are rewritten with [`ByzStrategy`]-chosen adversarial values, which
    /// then ride the normal beacon machinery to every reader. See
    /// [`selfstab_engine::adversary::ByzPlan`].
    pub byz: Vec<Node>,
    /// How Byzantine nodes pick their advertised states.
    pub byz_strategy: ByzStrategy,
    /// Per-*direction*, per-round link-down probability: a link can pass
    /// `u → v` while dropping `v → u`. See
    /// [`selfstab_engine::adversary::AsymPlan`].
    pub asym: f64,
    /// Seed mixed into every per-frame fate hash and every restart RNG.
    pub seed: u64,
    /// Added to relative rounds before hashing — composition hook for
    /// drivers that run the plan in segments (mid-run churn rebuilds the
    /// executor; the plan's clock must keep counting absolute rounds).
    round_offset: usize,
}

impl FaultPlan {
    /// A plan that injects nothing (builder starting point).
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            drop: 0.0,
            dup: 0.0,
            delay_p: 0.0,
            delay_rounds: 0,
            corrupt: 0.0,
            until: None,
            crashes: Vec::new(),
            byz: Vec::new(),
            byz_strategy: ByzStrategy::RandomPointer,
            asym: 0.0,
            seed,
            round_offset: 0,
        }
    }

    /// Set the per-frame drop probability.
    pub fn with_drop(mut self, p: f64) -> Self {
        self.drop = p;
        self
    }

    /// Set the per-frame duplication probability.
    pub fn with_dup(mut self, p: f64) -> Self {
        self.dup = p;
        self
    }

    /// Set the per-frame delay probability and the delay length in rounds.
    pub fn with_delay(mut self, p: f64, rounds: usize) -> Self {
        self.delay_p = p;
        self.delay_rounds = rounds;
        self
    }

    /// Set the per-frame corruption probability.
    pub fn with_corrupt(mut self, p: f64) -> Self {
        self.corrupt = p;
        self
    }

    /// Stop injecting frame chaos after round `until` (inclusive).
    pub fn with_until(mut self, until: usize) -> Self {
        self.until = Some(until);
        self
    }

    /// Schedule a worker crash-restart.
    pub fn with_crash(mut self, shard: usize, round: usize) -> Self {
        self.crashes.push(CrashSpec { shard, round });
        self
    }

    /// Mark `nodes` as Byzantine with the given state-rewriting strategy.
    pub fn with_byz(mut self, mut nodes: Vec<Node>, strategy: ByzStrategy) -> Self {
        nodes.sort_unstable();
        nodes.dedup();
        self.byz = nodes;
        self.byz_strategy = strategy;
        self
    }

    /// Set the per-direction, per-round link-down probability.
    pub fn with_asym(mut self, p: f64) -> Self {
        self.asym = p;
        self
    }

    /// The Byzantine sub-plan, on the plan's clock and window, or `None`
    /// when no node is compromised.
    pub fn byz_plan(&self) -> Option<ByzPlan> {
        if self.byz.is_empty() {
            return None;
        }
        let mut p = ByzPlan::new(self.byz.clone(), self.byz_strategy, self.seed)
            .with_round_offset(self.round_offset);
        if let Some(u) = self.until {
            p = p.with_until(u);
        }
        Some(p)
    }

    /// The asymmetric-link sub-plan, on the plan's clock and window, or
    /// `None` when `asym == 0`.
    pub fn asym_plan(&self) -> Option<AsymPlan> {
        if self.asym <= 0.0 {
            return None;
        }
        let mut p = AsymPlan::new(self.asym, self.seed).with_round_offset(self.round_offset);
        if let Some(u) = self.until {
            p = p.with_until(u);
        }
        Some(p)
    }

    /// Whether the plan carries a Byzantine or asymmetric-link adversary.
    pub fn has_adversary(&self) -> bool {
        !self.byz.is_empty() || self.asym > 0.0
    }

    /// Shift the plan's round clock: a driver running the plan in segments
    /// (e.g. mid-run churn, which rebuilds the executor per epoch) passes
    /// the segment's starting absolute round so hashes, `until`, and crash
    /// rounds stay on the global clock.
    pub fn with_round_offset(mut self, offset: usize) -> Self {
        self.round_offset = offset;
        self
    }

    /// Parse the CLI spec `key=value[,key=value...]` with keys `drop`,
    /// `dup`, `delay` (rounds; enables delaying with probability 0.1 unless
    /// `delayp` overrides it), `delayp`, `corrupt`, `until`,
    /// `byz` (`+`-separated node ids, e.g. `byz=3+17+42`),
    /// `strat` (`random|mimic|oscillate`; requires `byz`), and `asym`
    /// (per-direction link-down probability).
    ///
    /// Strict: duplicate keys and unknown keys are [`SpecError`]s, never
    /// last-write-wins or silently ignored.
    pub fn parse_spec(spec: &str, seed: u64) -> Result<FaultPlan, SpecError> {
        let mut plan = FaultPlan::new(seed);
        let mut delay_p_explicit = false;
        let mut strat: Option<ByzStrategy> = None;
        if spec.trim().is_empty() {
            return Err(SpecError::Empty);
        }
        let mut seen: Vec<&str> = Vec::new();
        for part in spec.split(',') {
            let (key, value) = part
                .split_once('=')
                .ok_or_else(|| SpecError::BadItem(part.to_string()))?;
            let key = key.trim();
            if seen.contains(&key) {
                return Err(SpecError::DuplicateKey(key.to_string()));
            }
            seen.push(key);
            let bad = || SpecError::BadValue {
                key: key.to_string(),
                value: value.to_string(),
            };
            let fprob = || value.parse::<f64>().map_err(|_| bad());
            match key {
                "drop" => plan.drop = fprob()?,
                "dup" => plan.dup = fprob()?,
                "corrupt" => plan.corrupt = fprob()?,
                "asym" => plan.asym = fprob()?,
                "delayp" => {
                    plan.delay_p = fprob()?;
                    delay_p_explicit = true;
                }
                "delay" => {
                    plan.delay_rounds = value.parse::<usize>().map_err(|_| bad())?;
                }
                "until" => {
                    plan.until = Some(value.parse::<usize>().map_err(|_| bad())?);
                }
                "byz" => {
                    let mut nodes = Vec::new();
                    for id in value.split('+') {
                        nodes.push(Node(id.trim().parse::<u32>().map_err(|_| bad())?));
                    }
                    nodes.sort_unstable();
                    nodes.dedup();
                    plan.byz = nodes;
                }
                "strat" => strat = Some(ByzStrategy::parse(value.trim()).map_err(|_| bad())?),
                other => return Err(SpecError::UnknownKey(other.to_string())),
            }
        }
        if let Some(s) = strat {
            if plan.byz.is_empty() {
                return Err(SpecError::Invalid(
                    "strat=... requires byz=ID+ID+... (no Byzantine nodes named)".into(),
                ));
            }
            plan.byz_strategy = s;
        }
        if plan.delay_rounds > 0 && !delay_p_explicit {
            plan.delay_p = 0.1;
        }
        plan.check_probabilities().map_err(SpecError::Invalid)?;
        Ok(plan)
    }

    /// Validate probability bands. Shard bounds are checked by the executor
    /// (which knows its shard count).
    pub fn check_probabilities(&self) -> Result<(), String> {
        for (name, p) in [
            ("drop", self.drop),
            ("dup", self.dup),
            ("delayp", self.delay_p),
            ("corrupt", self.corrupt),
        ] {
            if !p.is_finite() || !(0.0..=1.0).contains(&p) {
                return Err(format!("chaos probability {name}={p} is not in [0, 1]"));
            }
        }
        let total = self.drop + self.dup + self.delay_p + self.corrupt;
        if total > 1.0 {
            return Err(format!(
                "chaos probabilities sum to {total} > 1 (drop + dup + delayp + corrupt)"
            ));
        }
        if self.delay_p > 0.0 && self.delay_rounds == 0 {
            return Err("chaos delayp > 0 requires delay=K rounds (K >= 1)".into());
        }
        // Per-direction, drawn independently of the frame-fate bands, so it
        // is bounded alone rather than summed into them.
        if !self.asym.is_finite() || !(0.0..=1.0).contains(&self.asym) {
            return Err(format!(
                "chaos probability asym={} is not in [0, 1]",
                self.asym
            ));
        }
        Ok(())
    }

    /// Whether any per-frame fault has nonzero probability.
    pub fn has_frame_chaos(&self) -> bool {
        self.drop > 0.0 || self.dup > 0.0 || self.delay_p > 0.0 || self.corrupt > 0.0
    }

    /// Whether frame chaos applies in (relative) round `round`.
    pub fn frames_hot(&self, round: usize) -> bool {
        self.has_frame_chaos() && self.until.is_none_or(|u| round + self.round_offset <= u)
    }

    /// The fate of the beacon `node` sends toward shard `target` in
    /// (relative) round `round`. Pure in its inputs and the plan seed.
    pub fn fate(&self, round: usize, node: Node, target: usize) -> FrameFate {
        if !self.frames_hot(round) {
            return FrameFate::Deliver;
        }
        let h = self.frame_hash(round, node, target);
        // 53 uniform mantissa bits; the same draw is partitioned into the
        // fault bands so band boundaries move smoothly with the rates.
        let u = (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        if u < self.drop {
            FrameFate::Drop
        } else if u < self.drop + self.dup {
            FrameFate::Duplicate
        } else if u < self.drop + self.dup + self.delay_p {
            FrameFate::Delay
        } else if u < self.drop + self.dup + self.delay_p + self.corrupt {
            FrameFate::Corrupt
        } else {
            FrameFate::Deliver
        }
    }

    /// Corrupt an encoded frame in place: flip the version byte (so the
    /// strict decode *must* reject the frame as [`WireError::Header`])
    /// and XOR the payload with hash bytes for realism. The length field is
    /// left intact so a chaos-aware receiver can skip the frame and keep
    /// walking the batch (see [`crate::wire::frame_extent`]).
    ///
    /// [`WireError::Header`]: selfstab_engine::protocol::WireError::Header
    pub fn corrupt_frame(&self, round: usize, node: Node, frame: &mut [u8]) {
        debug_assert!(frame.len() >= crate::wire::HEADER_LEN);
        frame[0] ^= 0xA5;
        let mut h = self.frame_hash(round, node, usize::MAX);
        for b in frame.iter_mut().skip(crate::wire::HEADER_LEN) {
            *b ^= (h & 0xFF) as u8;
            h = h.rotate_right(8);
        }
    }

    /// Shards whose workers crash at (relative) round `round`.
    pub fn crashes_at(&self, round: usize) -> impl Iterator<Item = usize> + '_ {
        let abs = round + self.round_offset;
        self.crashes
            .iter()
            .filter(move |c| c.round == abs)
            .map(|c| c.shard)
    }

    /// Whether any crash is scheduled strictly after (relative) round
    /// `round` — such a crash must keep the run alive even if the protocol
    /// has already quiesced, so the fault actually fires.
    pub fn crash_pending(&self, round: usize) -> bool {
        let abs = round + self.round_offset;
        self.crashes.iter().any(|c| c.round > abs)
    }

    /// Deterministic seed for shard `shard`'s arbitrary-state rehydration
    /// after a crash at (relative) round `round`.
    pub fn restart_seed(&self, shard: usize, round: usize) -> u64 {
        let mut h = splitmix64(self.seed ^ 0xC3A5_C85C_97CB_3127);
        h = splitmix64(h ^ (round + self.round_offset) as u64);
        splitmix64(h ^ shard as u64)
    }

    fn frame_hash(&self, round: usize, node: Node, target: usize) -> u64 {
        let mut h = splitmix64(self.seed);
        h = splitmix64(h ^ (round + self.round_offset) as u64);
        h = splitmix64(h ^ u64::from(node.0));
        splitmix64(h ^ target as u64)
    }
}

/// Forwards observer hooks with the round index shifted by the absolute
/// round of the current convergence wave, and swallows per-wave
/// `on_finish` calls (the driver fires the real one once, at the end).
struct OffsetObserver<'a, O> {
    inner: &'a mut O,
    base: usize,
}

impl<S, O: Observer<S>> Observer<S> for OffsetObserver<'_, O> {
    const ENABLED: bool = O::ENABLED;

    fn on_round_start(&mut self, round: usize, states: &[S]) {
        self.inner.on_round_start(self.base + round, states);
    }

    fn on_move(&mut self, node: Node, rule: usize, next: &S) {
        self.inner.on_move(node, rule, next);
    }

    fn on_round_end(&mut self, stats: &RoundStats, states: &[S]) {
        let mut shifted = stats.clone();
        shifted.round += self.base;
        self.inner.on_round_end(&shifted, states);
    }

    fn on_finish(&mut self, _outcome: &Outcome, _states: &[S]) {}
}

/// Sharded execution under live topology churn (and, optionally, a frame/
/// crash [`FaultPlan`] on top).
///
/// The run is segmented at churn boundaries pulled from the schedule's
/// [`ChurnFeed`] cursor: each segment is one convergence wave of a fresh
/// [`RuntimeExecutor`]. The graph, the states and the partition stay
/// resident across waves: the partition is computed once, because the
/// node→shard map depends on node identity only and edge churn on a fixed
/// node set never invalidates it. The fault plan's round offset and the
/// observer's round indices advance on the absolute clock, so the waves
/// report one continuous timeline. Between waves the feed's
/// connectivity-preserving [`TopologyEvent`]s mutate the graph; every wave
/// starts from a full active worklist, a sound superset of the churned
/// endpoints' closed neighborhoods.
///
/// Semantics (outcome, rounds, final states) match the serial reference
/// [`selfstab_engine::chaos::run_churned_serial`] exactly when no fault
/// plan is installed — asserted by tests at 1–8 shards.
///
/// [`ChurnFeed`]: selfstab_engine::chaos::ChurnFeed
/// [`TopologyEvent`]: selfstab_graph::mutate::TopologyEvent
#[allow(clippy::too_many_arguments)]
pub fn run_churned_sharded<P: Protocol, O: Observer<P::State>>(
    graph: &Graph,
    proto: &P,
    shards: usize,
    schedule: Schedule,
    fault: Option<&FaultPlan>,
    churn: &ChurnSchedule,
    init: InitialState<P::State>,
    max_rounds: usize,
    obs: &mut O,
) -> Result<ChaosRun<P::State>, RuntimeError>
where
    P::State: WireState,
{
    let mut feed = churn
        .feed()
        .map_err(|reason| RuntimeError::InvalidPlan { reason })?;
    let mut graph = graph.clone();
    let mut states = init.materialize(&graph, proto);
    let partition = Partition::coarsened(&graph, shards);
    let mut moves_per_rule = vec![0u64; proto.rule_names().len()];
    let mut clock = 0usize;

    let outcome = loop {
        let remaining = max_rounds - clock;
        let budget = match feed.next_boundary() {
            Some(b) => (b - clock).min(remaining),
            None => remaining,
        };
        let mut exec = RuntimeExecutor::from_partition(&graph, proto, partition.clone())
            .with_schedule(schedule);
        if let Some(f) = fault {
            exec = exec.with_chaos(f.clone().with_round_offset(clock));
        }
        let mut wave_obs = OffsetObserver {
            inner: obs,
            base: clock,
        };
        let run = exec.run_observed(InitialState::Explicit(states), budget, &mut wave_obs)?;
        for (acc, &m) in moves_per_rule.iter_mut().zip(&run.moves_per_rule) {
            *acc += m;
        }
        states = run.final_states;
        clock += run.rounds;
        let outcome = run.outcome;

        let boundary = match feed.next_boundary() {
            // Final stretch, or the next boundary is beyond the budget: the
            // wave outcome is the run outcome (a RoundLimit here is a real
            // one — the absolute budget is exhausted).
            None => break outcome,
            Some(b) if b > max_rounds => break outcome,
            Some(b) => b,
        };
        // Advance to the churn boundary. A stabilized wave fast-forwards
        // the quiescent gap (those rounds are move-free by definition); a
        // budget-capped RoundLimit simply reached the boundary with moves
        // still pending.
        debug_assert!(boundary >= clock, "the round clock only advances");
        clock = boundary;
        feed.next_events(boundary, &mut graph);
    };
    obs.on_finish(&outcome, &states);
    let last_fault_round = feed.last_fault_round();
    Ok(ChaosRun {
        run: Run {
            final_states: states,
            rounds: clock,
            moves_per_rule,
            outcome,
            trace: None,
        },
        graph,
        events: feed.into_events(),
        last_fault_round,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::{frame_extent, Beacon, HEADER_LEN};
    use selfstab_engine::protocol::WireError;

    #[test]
    fn parse_spec_full_form() {
        let p = FaultPlan::parse_spec("drop=0.1,dup=0.02,delay=2,corrupt=0.01,until=40", 7)
            .expect("valid spec");
        assert_eq!(p.drop, 0.1);
        assert_eq!(p.dup, 0.02);
        assert_eq!(p.delay_rounds, 2);
        assert_eq!(p.delay_p, 0.1, "delay=K implies delayp=0.1 by default");
        assert_eq!(p.corrupt, 0.01);
        assert_eq!(p.until, Some(40));
        assert_eq!(p.seed, 7);
        let q = FaultPlan::parse_spec("delay=3,delayp=0.5", 0).expect("valid spec");
        assert_eq!((q.delay_p, q.delay_rounds), (0.5, 3));
    }

    #[test]
    fn parse_spec_adversarial_keys() {
        let p = FaultPlan::parse_spec("byz=17+3+17,strat=mimic,asym=0.2,until=30", 9)
            .expect("valid spec");
        assert_eq!(p.byz, vec![Node(3), Node(17)], "sorted and deduplicated");
        assert_eq!(p.byz_strategy, ByzStrategy::MimicNeighbor);
        assert_eq!(p.asym, 0.2);
        assert!(p.has_adversary());
        let byz = p.byz_plan().expect("byz sub-plan");
        assert_eq!(byz.nodes, vec![Node(3), Node(17)]);
        assert_eq!(byz.until, Some(30));
        let asym = p.asym_plan().expect("asym sub-plan");
        assert_eq!((asym.p, asym.until), (0.2, Some(30)));

        let q = FaultPlan::parse_spec("byz=4", 9).expect("strategy defaults to random");
        assert_eq!(q.byz_strategy, ByzStrategy::RandomPointer);
        assert!(q.asym_plan().is_none(), "asym=0 means no sub-plan");
        assert!(!FaultPlan::new(0).has_adversary());
    }

    #[test]
    fn parse_spec_rejects_malformed() {
        assert_eq!(FaultPlan::parse_spec("", 0), Err(SpecError::Empty));
        assert_eq!(
            FaultPlan::parse_spec("drop", 0),
            Err(SpecError::BadItem("drop".into()))
        );
        assert_eq!(
            FaultPlan::parse_spec("drop=x", 0),
            Err(SpecError::BadValue {
                key: "drop".into(),
                value: "x".into()
            })
        );
        assert_eq!(
            FaultPlan::parse_spec("warp=0.1", 0),
            Err(SpecError::UnknownKey("warp".into()))
        );
        assert!(matches!(
            FaultPlan::parse_spec("drop=1.5", 0),
            Err(SpecError::Invalid(_))
        ));
        assert!(matches!(
            FaultPlan::parse_spec("drop=0.6,dup=0.6", 0),
            Err(SpecError::Invalid(_))
        ));
        assert!(
            matches!(
                FaultPlan::parse_spec("delayp=0.1", 0),
                Err(SpecError::Invalid(_))
            ),
            "delayp without delay rounds"
        );
    }

    #[test]
    fn parse_spec_rejects_duplicate_keys() {
        // Last-write-wins would silently measure drop=0.3; reject instead.
        assert_eq!(
            FaultPlan::parse_spec("drop=0.1,drop=0.3", 0),
            Err(SpecError::DuplicateKey("drop".into()))
        );
        assert_eq!(
            FaultPlan::parse_spec("byz=1,asym=0.1,byz=2", 0),
            Err(SpecError::DuplicateKey("byz".into()))
        );
    }

    #[test]
    fn parse_spec_rejects_bad_adversarial_values() {
        assert_eq!(
            FaultPlan::parse_spec("byz=1+x", 0),
            Err(SpecError::BadValue {
                key: "byz".into(),
                value: "1+x".into()
            })
        );
        assert_eq!(
            FaultPlan::parse_spec("byz=1,strat=chaotic", 0),
            Err(SpecError::BadValue {
                key: "strat".into(),
                value: "chaotic".into()
            })
        );
        assert!(
            matches!(
                FaultPlan::parse_spec("strat=mimic", 0),
                Err(SpecError::Invalid(_))
            ),
            "strat without byz"
        );
        assert!(matches!(
            FaultPlan::parse_spec("asym=1.5", 0),
            Err(SpecError::Invalid(_))
        ));
    }

    #[test]
    fn crash_spec_parses() {
        assert_eq!(
            CrashSpec::parse("1@5"),
            Ok(CrashSpec { shard: 1, round: 5 })
        );
        assert!(CrashSpec::parse("15").is_err());
        assert!(CrashSpec::parse("a@5").is_err());
        assert!(CrashSpec::parse("1@b").is_err());
    }

    #[test]
    fn fates_are_deterministic_and_respect_until() {
        let p = FaultPlan::new(42).with_drop(0.5).with_until(10);
        let a: Vec<_> = (0..64).map(|r| p.fate(r, Node(3), 1)).collect();
        let b: Vec<_> = (0..64).map(|r| p.fate(r, Node(3), 1)).collect();
        assert_eq!(a, b, "pure hash: same inputs, same fates");
        assert!(a[..11].contains(&FrameFate::Drop), "50% drop hits");
        assert!(
            a[11..].iter().all(|f| *f == FrameFate::Deliver),
            "no chaos after until"
        );
        // The offset shifts the clock: relative round 0 at offset 11 is
        // absolute round 11, past `until`.
        let shifted = p.clone().with_round_offset(11);
        assert_eq!(shifted.fate(0, Node(3), 1), FrameFate::Deliver);
        assert_eq!(
            shifted.clone().with_round_offset(4).fate(2, Node(3), 1),
            p.fate(6, Node(3), 1)
        );
    }

    #[test]
    fn band_partition_covers_all_fates() {
        let p = FaultPlan::new(1)
            .with_drop(0.25)
            .with_dup(0.25)
            .with_delay(0.25, 2)
            .with_corrupt(0.2);
        let mut seen = [0usize; 5];
        for r in 0..400 {
            let idx = match p.fate(r, Node(0), 0) {
                FrameFate::Drop => 0,
                FrameFate::Duplicate => 1,
                FrameFate::Delay => 2,
                FrameFate::Corrupt => 3,
                FrameFate::Deliver => 4,
            };
            seen[idx] += 1;
        }
        assert!(seen.iter().all(|&c| c > 0), "all bands drawn: {seen:?}");
    }

    #[test]
    fn corrupt_frame_is_detected_and_skippable() {
        let beacon = Beacon {
            round: 3,
            node: Node(9),
            state: 0xDEAD_BEEFu32,
        };
        let mut bytes = beacon.encode().unwrap();
        let clean_len = bytes.len();
        let p = FaultPlan::new(5).with_corrupt(1.0);
        p.corrupt_frame(3, Node(9), &mut bytes);
        // The strict decode rejects the frame through the Wire error path.
        assert_eq!(
            Beacon::<u32>::decode_prefix(&bytes),
            Err(WireError::Header("version"))
        );
        // But the length field is intact, so a batch walker can skip it.
        assert_eq!(frame_extent(&bytes), Some(clean_len));
        assert!(bytes[HEADER_LEN..] != beacon.encode().unwrap()[HEADER_LEN..]);
    }

    #[test]
    fn crash_queries() {
        let p = FaultPlan::new(0).with_crash(1, 5).with_crash(0, 9);
        assert_eq!(p.crashes_at(5).collect::<Vec<_>>(), vec![1]);
        assert_eq!(p.crashes_at(4).count(), 0);
        assert!(p.crash_pending(5), "crash at 9 still pending");
        assert!(!p.crash_pending(9));
        let shifted = p.with_round_offset(4);
        assert_eq!(shifted.crashes_at(1).collect::<Vec<_>>(), vec![1]);
        assert_eq!(
            shifted.restart_seed(1, 1),
            FaultPlan::new(0).restart_seed(1, 5),
            "restart seeds are on the absolute clock"
        );
    }
}
