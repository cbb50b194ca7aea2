//! E20 (extension) — in-flight chaos resilience: beacon loss × live churn
//! on random geometric graphs, plus a shard crash-restart recovery demo.
//!
//! The chaos layer (`selfstab_runtime::FaultPlan`) perturbs the *live*
//! sharded execution: beacon frames are dropped at the channel boundary
//! (receivers keep evaluating against the last cached beacon and senders
//! re-broadcast until the ghost is confirmed up to date), and a
//! `ChurnSchedule` rewires the topology mid-run. Self-stabilization says
//! the protocols must converge *through* the faults to a configuration
//! that is legitimate on the final topology — this experiment measures the
//! price (round slowdown vs the clean run) across drop rates and churn.

use super::e18_runtime_scaling::geometric_radius;
use super::Report;
use rand::rngs::StdRng;
use rand::SeedableRng;
use selfstab_analysis::Table;
use selfstab_core::smm::Smm;
use selfstab_core::Smi;
use selfstab_engine::active::Schedule;
use selfstab_engine::chaos::ChurnSchedule;
use selfstab_engine::obs::MetricsCollector;
use selfstab_engine::protocol::{InitialState, Protocol, WireState};
use selfstab_graph::{generators, Graph, Ids};
use selfstab_runtime::{run_churned_sharded, FaultPlan, RuntimeExecutor};

const SHARDS: usize = 4;

struct Cell {
    rounds: usize,
    legitimate: bool,
    dropped: u64,
    recovery: Option<usize>,
}

fn sum_counter<S>(
    m: &MetricsCollector<S>,
    f: impl Fn(&selfstab_engine::RuntimeCounters) -> u64,
) -> u64 {
    m.rounds()
        .iter()
        .filter_map(|r| r.runtime.as_ref())
        .map(f)
        .sum()
}

fn run_cell<P: Protocol>(
    g: &Graph,
    proto: &P,
    plan: Option<FaultPlan>,
    churn: Option<&ChurnSchedule>,
    max_rounds: usize,
) -> Cell
where
    P::State: WireState,
{
    let mut m = MetricsCollector::new();
    let init = InitialState::Random { seed: 20 };
    match churn {
        Some(sched) => {
            let out = run_churned_sharded(
                g,
                proto,
                SHARDS,
                Schedule::Active,
                plan.as_ref(),
                sched,
                init,
                max_rounds,
                &mut m,
            )
            .expect("churned chaos run failed");
            Cell {
                rounds: out.run.rounds(),
                legitimate: out.run.stabilized()
                    && proto.is_legitimate(&out.graph, &out.run.final_states),
                dropped: sum_counter(&m, |rt| rt.frames_dropped),
                recovery: out.recovery_rounds(),
            }
        }
        None => {
            let mut exec = RuntimeExecutor::new(g, proto, SHARDS);
            if let Some(p) = plan {
                exec = exec.with_chaos(p);
            }
            let run = exec
                .run_observed(init, max_rounds, &mut m)
                .expect("chaos run failed");
            Cell {
                rounds: run.rounds(),
                legitimate: run.stabilized() && proto.is_legitimate(g, &run.final_states),
                dropped: sum_counter(&m, |rt| rt.frames_dropped),
                recovery: m.recovery_rounds(),
            }
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn sweep<P: Protocol>(
    table: &mut Table,
    g: &Graph,
    proto: &P,
    name: &str,
    drops: &[f64],
    churn_intervals: &[usize],
    max_rounds: usize,
) where
    P::State: WireState,
{
    let mut clean_rounds: Option<usize> = None;
    for &every in churn_intervals {
        let churn = (every > 0).then(|| {
            ChurnSchedule::new(every, 0xe20)
                .with_events(2)
                .with_epochs(2)
        });
        for &drop in drops {
            let plan = (drop > 0.0).then(|| {
                let mut p = FaultPlan::new(20);
                p.drop = drop;
                p
            });
            let cell = run_cell(g, proto, plan, churn.as_ref(), max_rounds);
            assert!(
                cell.legitimate,
                "{name} must re-stabilize legitimately (n={}, drop={drop}, churn-every={every})",
                g.n()
            );
            let clean = *clean_rounds.get_or_insert(cell.rounds);
            table.row_strings(vec![
                format!("{}", g.n()),
                name.into(),
                format!("{drop:.1}"),
                if every == 0 {
                    "—".into()
                } else {
                    format!("2 edges @ every {every}")
                },
                format!("{}", cell.rounds),
                format!("{:.2}×", cell.rounds as f64 / clean.max(1) as f64),
                format!("{}", cell.dropped),
                cell.recovery
                    .map(|r| format!("{r}"))
                    .unwrap_or_else(|| "—".into()),
                format!("{}", cell.legitimate),
            ]);
        }
    }
}

/// Run E20: the drop-rate × churn sweep for SMM and SMI, then the
/// crash-restart demo on the smallest size.
pub fn run(sizes: &[usize], drops: &[f64], churn_intervals: &[usize]) -> Report {
    let mut table = Table::new(&[
        "n",
        "protocol",
        "drop",
        "churn",
        "rounds",
        "× clean",
        "frames dropped",
        "recovery",
        "legitimate",
    ]);
    for &n in sizes {
        let g = generators::random_geometric_connected(
            n,
            geometric_radius(n),
            &mut StdRng::seed_from_u64(0xe20),
        );
        let max_rounds = 4 * g.n() + 16;
        let smm = Smm::paper(Ids::identity(g.n()));
        sweep(
            &mut table,
            &g,
            &smm,
            "SMM",
            drops,
            churn_intervals,
            max_rounds,
        );
        let smi = Smi::new(Ids::identity(g.n()));
        sweep(
            &mut table,
            &g,
            &smi,
            "SMI",
            drops,
            churn_intervals,
            max_rounds,
        );
    }

    // Crash-restart: kill worker 1 entering round 3; it respawns with
    // arbitrary (adversarial) states for every node and the run must still
    // end legitimate.
    let n = sizes[0];
    let g = generators::random_geometric_connected(
        n,
        geometric_radius(n),
        &mut StdRng::seed_from_u64(0xe20),
    );
    let smm = Smm::paper(Ids::identity(g.n()));
    let mut m = MetricsCollector::new();
    let run = RuntimeExecutor::new(&g, &smm, SHARDS)
        .with_chaos(FaultPlan::new(21).with_crash(1, 3))
        .run_observed(InitialState::Random { seed: 20 }, 4 * g.n() + 16, &mut m)
        .expect("crash-restart run failed");
    let restarts = sum_counter(&m, |rt| rt.restarts);
    let crash_legit = run.stabilized() && smm.is_legitimate(&g, &run.final_states);
    assert_eq!(restarts, 1, "exactly one injected restart");
    assert!(crash_legit, "crash-restart must recover to legitimacy");

    let body = format!(
        "SMM and SMI on a connected random geometric graph per size (radius ≈\n\
         1.4·connectivity threshold), {SHARDS} shards, active schedule, budget 4n+16\n\
         rounds. `drop` is the per-frame beacon loss probability at the shard\n\
         channel boundary; `churn` applies 2 connectivity-preserving edge events\n\
         per epoch for 2 epochs at the given interval, and legitimacy is judged\n\
         on the final mutated topology. `× clean` is the round count relative to\n\
         the fault-free cell of the same sweep; `recovery` is rounds from the\n\
         last injected fault to stabilization (churned cells). Every cell is\n\
         asserted to end in a legitimate configuration.\n\n{}\n\n\
         Crash-restart (n={n}, SMM): worker 1 killed entering round 3 and\n\
         respawned with arbitrary states for all of its nodes — {restarts} restart,\n\
         stabilized after {} rounds, final configuration legitimate: {crash_legit}.\n\
         Lossy chaos also *breaks* synchronous livelocks: the clockwise-C4\n\
         counterexample oscillates forever under value-preserving chaos (dup)\n\
         but a dropped frame desynchronizes the lockstep and lets it escape —\n\
         see `crates/runtime/tests/chaos.rs`.",
        table.to_markdown(),
        run.rounds(),
    );
    Report {
        id: "E20",
        title: "Extension: in-flight chaos — beacon loss, live churn, crash-restart",
        body,
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn e20_cells_all_legitimate() {
        // run() asserts legitimacy of every cell and the crash-restart demo;
        // surviving a small sweep is the test.
        let r = super::run(&[300], &[0.0, 0.2], &[0, 6]);
        assert!(r.body.contains("frames dropped"), "{}", r.body);
        assert!(r.body.contains("1 restart"), "{}", r.body);
    }
}
