//! The sharded message-passing runtime: Section 2's beacons as actual
//! messages between shard workers, with the paper's round semantics intact.
//!
//! A random geometric graph (the ad hoc network model) is partitioned by
//! multilevel heavy-edge coarsening; one mailbox worker per shard owns its
//! nodes' SMM states, and boundary states cross shards as encoded beacon
//! frames, one batch per neighbouring shard per round, into each shard's
//! mailbox. The run is state-for-state identical to the serial executor —
//! while the observer's wire counters show the messages that made it so.
//!
//! ```text
//! cargo run --example runtime_shards
//! ```

use selfstab::core::smm::Smm;
use selfstab::engine::obs::{Observer, RoundStats};
use selfstab::engine::sync::SyncExecutor;
use selfstab::engine::InitialState;
use selfstab::graph::{generators, predicates, Ids};
use selfstab::runtime::RuntimeExecutor;

/// Sums the runtime's wire counters over the run.
#[derive(Default)]
struct WireTotals {
    frames: u64,
    bytes: u64,
    max_depth: u64,
}

impl<S> Observer<S> for WireTotals {
    fn on_round_end(&mut self, stats: &RoundStats, _states: &[S]) {
        if let Some(rt) = &stats.runtime {
            self.frames += rt.frames;
            self.bytes += rt.bytes_on_wire;
            self.max_depth = self.max_depth.max(rt.max_channel_depth);
        }
    }
}

fn main() {
    let n = 2_000;
    let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(42);
    let g = generators::random_geometric_connected(n, 0.045, &mut rng);
    let smm = Smm::paper(Ids::identity(g.n()));
    let init = InitialState::Random { seed: 7 };
    println!("random geometric graph: n={}, m={}", g.n(), g.m());

    let serial = SyncExecutor::new(&g, &smm).run(init.clone(), g.n() + 1);
    assert!(serial.stabilized(), "Theorem 1");
    println!(
        "serial executor: stabilized in {} rounds\n",
        serial.rounds()
    );

    for shards in [1, 2, 4, 8] {
        let exec = RuntimeExecutor::new(&g, &smm, shards);
        let cut = exec.partition().cut_edges(&g).len();
        let mut wire = WireTotals::default();
        let run = exec
            .run_observed(init.clone(), g.n() + 1, &mut wire)
            .expect("sharded run failed");

        // The barrier is the paper's round: identical result, any shard count.
        assert_eq!(run.rounds(), serial.rounds());
        assert_eq!(run.final_states, serial.final_states);
        let matching = Smm::matched_edges(&g, &run.final_states);
        assert!(predicates::is_maximal_matching(&g, &matching));

        println!(
            "{shards} shard(s): {} rounds (identical), cut {cut}/{} edges, \
             {} beacon frames / {} bytes on wire, max channel depth {}",
            run.rounds(),
            g.m(),
            wire.frames,
            wire.bytes,
            wire.max_depth,
        );
    }
    println!("\nsame fixpoint through a real message fabric — no shared state crossed a shard.");
}
