//! E7 runtime bench — executor throughput: serial vs the sharded mailbox
//! runtime at 1/2/4/8 shards.
//!
//! Both executors are round-for-round identical (asserted in the bodies),
//! so this measures pure execution cost: the runtime pays per-round
//! barriers plus beacon serialization across the partition cut in exchange
//! for parallel guard evaluation. Besides the criterion output, each
//! configuration emits one machine-readable `BENCH {...}` JSON line on
//! stdout for trend tracking — the same schema-versioned record the
//! `selfstab bench` observatory writes into `BENCH_<pr>.json`, produced by
//! the same [`measure_record`] runner.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use selfstab_bench::observatory::{measure_record, ExecKind, SCHEMA, SHARD_COUNTS};
use selfstab_core::smm::Smm;
use selfstab_engine::active::Schedule;
use selfstab_engine::protocol::InitialState;
use selfstab_engine::sync::SyncExecutor;
use selfstab_graph::{generators, Graph, Ids};
use selfstab_json::ToJson;
use selfstab_runtime::RuntimeExecutor;
use std::hint::black_box;

fn init() -> InitialState<selfstab_core::smm::Pointer> {
    InitialState::Random { seed: 7 }
}

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("e7_runtime_throughput");
    group.sample_size(10);
    let g = generators::grid(96, 96);
    let n = g.n();
    let smm = Smm::paper(Ids::identity(n));
    group.throughput(Throughput::Elements(n as u64));

    let serial = SyncExecutor::new(&g, &smm);
    group.bench_with_input(BenchmarkId::new("serial", n), &n, |b, &n| {
        b.iter(|| {
            let run = serial.run(init(), n + 2);
            assert!(run.stabilized());
            black_box(run.rounds())
        });
    });

    let reference_rounds = serial.run(init(), n + 2).rounds();
    for shards in SHARD_COUNTS {
        let rt = RuntimeExecutor::new(&g, &smm, shards);
        let label = format!("runtime-{shards}shard");
        group.bench_with_input(BenchmarkId::new(label, n), &n, |b, &n| {
            b.iter(|| {
                let run = rt.run(init(), n + 2).expect("sharded run failed");
                assert_eq!(run.rounds(), reference_rounds);
                black_box(run.rounds())
            });
        });
    }
    group.finish();

    emit_bench_points(&g, &smm);
}

/// Print one `BENCH {...}` JSON line per executor configuration (skipped in
/// `cargo test` smoke mode, where cargo passes `--test`). Each line is a
/// [`selfstab_bench::observatory::BenchRecord`] in the `BENCH_<pr>.json`
/// schema, so e7's trend lines and `selfstab bench` artifacts are the one
/// bench record format in the repo.
fn emit_bench_points(g: &Graph, smm: &Smm) {
    if std::env::args().any(|a| a == "--test") {
        return;
    }
    println!("BENCH-SCHEMA {SCHEMA}");
    for exec in ExecKind::all() {
        let record = measure_record(
            g,
            smm,
            "smm",
            "grid",
            exec,
            Schedule::Active,
            7,
            g.n() + 2,
            3,
        );
        println!("BENCH {}", record.to_json());
    }
}

criterion_group!(benches, bench);
criterion_main!(benches);
