//! E21 (extension) — shard skew under profiling: how evenly the coarsened
//! partition spreads per-round work, and what the imbalance costs.
//!
//! E18 measures end-to-end throughput; E21 opens the round up. Every
//! sharded run is observed with a [`MetricsCollector`], whose per-round
//! [`RoundProfile`] carries one lane per worker (phase span sums, round
//! time, inbox high-water mark). Folding the lanes through the analysis
//! crate's [`SkewAccumulator`] yields the quantities the offline `analyze`
//! report prints — mean skew (slowest lane / mean lane per round), the
//! overall straggler lane, and the deepest inbox — and the table puts them
//! next to the partition-quality numbers (cut edges, size balance) that
//! explain them. Random geometric graphs again: the paper's ad-hoc model,
//! and the topology a coarsening partition is built for.
//!
//! [`RoundProfile`]: selfstab_engine::obs::RoundProfile

use super::e18_runtime_scaling::geometric_radius;
use super::Report;
use rand::rngs::StdRng;
use rand::SeedableRng;
use selfstab_analysis::{SkewAccumulator, Table};
use selfstab_core::smm::Smm;
use selfstab_engine::obs::MetricsCollector;
use selfstab_engine::protocol::InitialState;
use selfstab_graph::{generators, Ids};
use selfstab_runtime::RuntimeExecutor;

/// Run E21: for each graph size and shard count, profile a sharded run and
/// report skew, straggler, barrier share, and partition quality.
pub fn run(sizes: &[usize], shard_counts: &[usize]) -> Report {
    let mut table = Table::new(&[
        "n",
        "edges",
        "shards",
        "cut edges",
        "max/ideal lane",
        "rounds",
        "mean skew",
        "straggler",
        "barrier share",
        "peak inbox",
    ]);
    for &n in sizes {
        let radius = geometric_radius(n);
        let g =
            generators::random_geometric_connected(n, radius, &mut StdRng::seed_from_u64(0xe21));
        let smm = Smm::paper(Ids::identity(g.n()));
        let init = InitialState::Random { seed: 21 };
        let max_rounds = g.n() + 2;

        for &k in shard_counts {
            let exec = RuntimeExecutor::new(&g, &smm, k);
            let part = exec.partition();
            let cut = part.cut_edges(&g).len();
            let balance = part.max_shard_size() as f64 / (g.n() as f64 / k as f64);
            let mut metrics = MetricsCollector::new();
            let run = exec
                .run_observed(init.clone(), max_rounds, &mut metrics)
                .expect("sharded run failed");
            assert!(
                run.stabilized(),
                "profiled run must stabilize (n={n}, k={k})"
            );

            let mut acc = SkewAccumulator::new();
            let mut barrier_share_sum = 0.0;
            let mut profiled = 0usize;
            for (r, rec) in metrics.rounds().iter().enumerate() {
                let Some(p) = rec.profile.as_ref() else {
                    continue;
                };
                let samples: Vec<(usize, u64, u64)> = p
                    .shards
                    .iter()
                    .map(|s| (s.shard, s.round_micros, s.inbox_max_depth))
                    .collect();
                acc.record_round(r + 1, &samples);
                barrier_share_sum += p.barrier_wait_share();
                profiled += 1;
            }
            assert_eq!(profiled, run.rounds(), "every round must carry a profile");
            let straggler = acc
                .straggler()
                .map_or_else(|| "—".into(), |s| format!("lane {s}"));
            let peak = acc.hot_channels().first().map_or_else(
                || "0".into(),
                |&(lane, depth, round)| format!("{depth} (lane {lane}, r{round})"),
            );
            table.row_strings(vec![
                format!("{}", g.n()),
                format!("{}", g.m()),
                format!("{k}"),
                format!("{cut}"),
                format!("{balance:.2}"),
                format!("{}", run.rounds()),
                format!("{:.2}", acc.mean_skew()),
                straggler,
                format!("{:.2}", barrier_share_sum / profiled.max(1) as f64),
                peak,
            ]);
        }
    }
    let body = format!(
        "SMM (min-id policies) on connected random geometric graphs, one seeded graph\n\
         and initial state per size, observed with the profiling stack (phase spans on\n\
         every worker). `mean skew` is the per-round slowest-lane/mean-lane time ratio\n\
         averaged over rounds (1.00 = perfectly balanced); `straggler` is the lane that\n\
         was slowest most often; `barrier share` is the fraction of summed lane time\n\
         spent blocked on the round barrier — the price of the skew, since every lane\n\
         waits for the straggler. `max/ideal lane` (partition balance) and `cut edges`\n\
         are the partition-quality inputs that drive both.\n\n{}",
        table.to_markdown()
    );
    Report {
        id: "E21",
        title: "Extension: shard skew and mailbox depth under the profiling stack",
        body,
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn e21_profiles_every_round_and_names_a_straggler() {
        // run() asserts per-round profiles internally; the table must name
        // a straggler lane and a finite skew for a real multi-shard run.
        let r = super::run(&[200], &[2, 4]);
        assert!(r.body.contains("lane "), "{}", r.body);
        assert!(r.body.contains("mean skew"), "{}", r.body);
    }
}
