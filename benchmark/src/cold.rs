//! The cold-start workload: SMM from a seeded arbitrary state to a verified
//! maximal matching on seeded unit-disk networks, through the serial
//! `SyncExecutor` under the active schedule (the paper's Theorem 1 path).
//!
//! The window cycles through [`NETWORKS`] networks; each visit builds the
//! network from its seed (set-up) and cold-starts it. Contention from other
//! tenants of the host only ever slows a build or a start down, and comes
//! and goes over seconds, so each network keeps its fastest build and its
//! fastest start, and the run reports the medians over the networks.

use std::time::Instant;

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use selfstab_core::Smm;
use selfstab_engine::{InitialState, Protocol, Schedule, SyncExecutor};

use crate::instance;
use crate::report::{peak_rss_mb, Report};

/// Networks per run: enough that a run's median does not hang on one draw's
/// round count, few enough that each is visited several times.
const NETWORKS: usize = 8;

/// The seeds of a run's networks (each seeds a graph and an initial state).
pub fn network_seeds(seed: u64) -> Vec<u64> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..NETWORKS).map(|_| rng.random::<u64>()).collect()
}

/// Run the cold workload for `seconds` and report its end-to-end metrics.
pub fn run(n: usize, seed: u64, seconds: f64) -> Report {
    let mut report = Report::default();
    let seeds = network_seeds(seed);
    let mut rounds: Vec<Option<usize>> = vec![None; NETWORKS];
    let mut best_build_s = vec![f64::INFINITY; NETWORKS];
    let mut best_start_ms = vec![f64::INFINITY; NETWORKS];
    // One untimed warm-up visit: a fresh process pays page faults for
    // buffers that later starts reuse. Then every network at least once,
    // round-robin until the window closes.
    visit(&mut report, n, seeds[0], &mut rounds[0]);
    let window = Instant::now();
    let mut visits = 0;
    while visits < NETWORKS || window.elapsed().as_secs_f64() < seconds {
        let k = visits % NETWORKS;
        let (build_s, start_ms) = visit(&mut report, n, seeds[k], &mut rounds[k]);
        best_build_s[k] = best_build_s[k].min(build_s);
        best_start_ms[k] = best_start_ms[k].min(start_ms);
        visits += 1;
    }
    report.end_to_end(
        &best_build_s,
        &best_start_ms,
        peak_rss_mb(std::process::id()),
    );
    report
}

/// Build one network (timed, s) and cold-start it (timed, ms), checking the
/// outcome: a fixpoint, a maximal matching, and the same round count as the
/// network's first start (the execution is deterministic in the seed).
fn visit(report: &mut Report, n: usize, seed: u64, rounds: &mut Option<usize>) -> (f64, f64) {
    let t = Instant::now();
    let (g, ids) = instance::unit_disk(n, seed);
    let build_s = t.elapsed().as_secs_f64();
    let smm = Smm::paper(ids);
    let t = Instant::now();
    let run = SyncExecutor::new(&g, &smm)
        .with_schedule(Schedule::Active)
        .run(InitialState::Random { seed }, g.n() + 2);
    let start_ms = t.elapsed().as_secs_f64() * 1e3;
    let first = *rounds.get_or_insert(run.rounds);
    let stabilized = run.stabilized();
    let legitimate = smm.is_legitimate(&g, &run.final_states);
    report.check(stabilized, || format!("ended {:?}", run.outcome));
    report.check(legitimate, || {
        "final state is not a maximal matching".into()
    });
    report.check(run.rounds == first, || {
        format!("rounds changed between starts: {first} then {}", run.rounds)
    });
    report.op(stabilized && legitimate && run.rounds == first);
    (build_s, start_ms)
}
