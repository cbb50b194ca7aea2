//! Telemetry-plane invariants the acceptance criteria pin:
//!
//! 1. **Unobserved drains take no clock.** With no observer and no
//!    telemetry registry attached, a drain performs zero `now_micros`
//!    calls — observation must be free when it is off.
//! 2. **Telemetry is observation, not behavior.** A service with a
//!    registry attached produces byte-identical states, rounds, and event
//!    records to one without.
//! 3. **The snapshot scheduler is deterministic under the sim clock**:
//!    written-count is a pure function of the event/advance script, in
//!    both cadence units (proptested for the event cadence).
//! 4. **Crash-resume works**: a daemon killed after a background snapshot
//!    reloads it and re-stabilizes within the Theorem 1/2 budget — in
//!    zero rounds when the snapshot was legitimate.

use std::cell::Cell;

use proptest::prelude::*;
use selfstab_core::{Pointer, Smm};
use selfstab_engine::protocol::InitialState;
use selfstab_engine::Protocol;
use selfstab_graph::{generators, Ids};
use selfstab_json::Json;
use selfstab_service::{
    Clock, Mutation, OverlayService, SimClock, Snapshot, SnapshotCadence, SnapshotScheduler,
    Telemetry,
};
use std::sync::Arc;

/// A sim clock that counts `now_micros` reads, pinning the
/// no-clock-on-the-unobserved-path guarantee.
#[derive(Default)]
struct CountingClock {
    inner: SimClock,
    reads: Cell<u64>,
}

impl Clock for CountingClock {
    fn now_micros(&self) -> u64 {
        self.reads.set(self.reads.get() + 1);
        self.inner.now_micros()
    }

    fn sleep_micros(&self, micros: u64) {
        self.inner.sleep_micros(micros);
    }
}

fn churn_script(n: usize) -> Vec<Mutation> {
    vec![
        Mutation::EdgeDown {
            a: n / 2,
            b: n / 2 + 1,
        },
        Mutation::EdgeUp { a: 0, b: n - 1 },
        Mutation::NodeLeave { v: 1 },
        Mutation::NodeJoin {
            v: 1,
            attach: vec![0, 2],
        },
        Mutation::EdgeDown { a: 0, b: n - 1 },
    ]
}

#[test]
fn unobserved_drain_reads_no_clock() {
    let n = 12;
    let smm = Smm::paper(Ids::identity(n));
    let clock = CountingClock::default();
    let mut svc = OverlayService::new(generators::path(n), &smm, InitialState::Default, 0);
    svc.stabilize(&clock, &mut ());
    for m in churn_script(n) {
        svc.enqueue(m);
    }
    let records = svc.drain(&clock, &mut ());
    assert!(records.iter().all(|r| r.is_ok()));
    svc.settle(&mut ());
    assert_eq!(
        clock.reads.get(),
        0,
        "unobserved bootstrap + drain + settle must not read the clock"
    );

    // Attaching a registry is exactly what turns clock reads on.
    let smm2 = Smm::paper(Ids::identity(n));
    let clock2 = CountingClock::default();
    let mut observed = OverlayService::new(generators::path(n), &smm2, InitialState::Default, 0)
        .with_telemetry(Arc::new(Telemetry::new()));
    observed.stabilize(&clock2, &mut ());
    observed.enqueue(Mutation::EdgeDown { a: 3, b: 4 });
    observed.drain(&clock2, &mut ()).pop().unwrap().unwrap();
    assert!(
        clock2.reads.get() > 0,
        "telemetry-attached drain times its backend latency"
    );
}

#[test]
fn telemetry_attachment_is_behaviorally_invisible() {
    let n = 16;
    let smm_a = Smm::paper(Ids::identity(n));
    let smm_b = Smm::paper(Ids::identity(n));
    let clock = SimClock::new();
    let registry = Arc::new(Telemetry::new());
    let mut plain = OverlayService::new(generators::path(n), &smm_a, InitialState::Default, 0);
    let mut observed = OverlayService::new(generators::path(n), &smm_b, InitialState::Default, 0)
        .with_telemetry(registry.clone());
    plain.stabilize(&clock, &mut ());
    observed.stabilize(&clock, &mut ());
    for m in churn_script(n) {
        plain.enqueue(m.clone());
        observed.enqueue(m);
    }
    let ra = plain.drain(&clock, &mut ());
    let rb = observed.drain(&clock, &mut ());
    assert_eq!(ra.len(), rb.len());
    for (a, b) in ra.iter().zip(&rb) {
        let (a, b) = (a.as_ref().unwrap(), b.as_ref().unwrap());
        assert_eq!(
            (a.seq, a.recovery_rounds, a.moves, a.perturbed, a.converged),
            (b.seq, b.recovery_rounds, b.moves, b.perturbed, b.converged),
        );
    }
    assert_eq!(plain.states(), observed.states());
    assert_eq!(plain.clock_rounds(), observed.clock_rounds());
    // And the registry actually recorded the drained events.
    assert_eq!(registry.events_total(), ra.len() as u64);
    let json = registry.to_json();
    assert_eq!(
        json.get("events").and_then(Json::as_u64),
        Some(ra.len() as u64)
    );
}

#[test]
fn time_cadence_fires_on_the_sim_clock_deterministically() {
    let n = 6;
    let smm = Smm::paper(Ids::identity(n));
    let clock = SimClock::new();
    let mut svc = OverlayService::new(generators::path(n), &smm, InitialState::Default, 0);
    svc.stabilize(&clock, &mut ());
    let mut sched = SnapshotScheduler::in_memory(SnapshotCadence::parse("1ms").unwrap());
    // t = 0: not due (no 1ms elapsed since the epoch mark).
    assert!(!sched.tick(&svc, &clock, None).unwrap());
    clock.advance(500);
    assert!(!sched.tick(&svc, &clock, None).unwrap());
    clock.advance(500); // t = 1000 µs
    assert!(sched.tick(&svc, &clock, None).unwrap());
    clock.advance(999);
    assert!(!sched.tick(&svc, &clock, None).unwrap());
    clock.advance(1); // t = 2000 µs
    assert!(sched.tick(&svc, &clock, None).unwrap());
    assert_eq!(sched.written(), 2);
    for doc in sched.documents() {
        let snap = Snapshot::parse(doc).unwrap();
        assert_eq!(snap.protocol, "smm");
        assert_eq!(snap.n, n);
    }
}

#[test]
fn cadence_parse_accepts_events_seconds_millis_and_rejects_junk() {
    assert_eq!(
        SnapshotCadence::parse("250").unwrap(),
        SnapshotCadence::Events(250)
    );
    assert_eq!(
        SnapshotCadence::parse("30s").unwrap(),
        SnapshotCadence::Micros(30_000_000)
    );
    assert_eq!(
        SnapshotCadence::parse("500ms").unwrap(),
        SnapshotCadence::Micros(500_000)
    );
    for bad in [
        "0",
        "0s",
        "",
        "s",
        "ms",
        "-3",
        "1.5s",
        "99999999999999999999s",
    ] {
        assert!(SnapshotCadence::parse(bad).is_err(), "{bad}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Event-cadence determinism: after `toggles` valid events with a tick
    /// after each, exactly `toggles / k` snapshots exist, every one a
    /// parseable legitimate document.
    #[test]
    fn event_cadence_writes_exactly_floor_events_over_k(k in 1u64..5, toggles in 0usize..20) {
        let n = 6;
        let smm = Smm::paper(Ids::identity(n));
        let clock = SimClock::new();
        let mut svc = OverlayService::new(generators::path(n), &smm, InitialState::Default, 0);
        svc.stabilize(&clock, &mut ());
        let mut sched = SnapshotScheduler::in_memory(SnapshotCadence::Events(k));
        prop_assert!(!sched.tick(&svc, &clock, None).unwrap(), "not due at 0 events");
        for i in 0..toggles {
            let (a, b) = (2, 3);
            svc.enqueue(if i % 2 == 0 {
                Mutation::EdgeDown { a, b }
            } else {
                Mutation::EdgeUp { a, b }
            });
            for r in svc.drain(&clock, &mut ()) {
                r.unwrap();
            }
            sched.tick(&svc, &clock, None).unwrap();
        }
        prop_assert_eq!(sched.written(), toggles as u64 / k);
        for doc in sched.documents() {
            let snap = Snapshot::parse(doc).unwrap();
            prop_assert_eq!(snap.n, n);
            prop_assert_eq!(snap.decode_states::<Pointer>().unwrap().len(), n);
        }
    }
}

#[test]
fn kill_and_reload_resumes_from_the_background_snapshot() {
    let n = 24;
    let dir = std::env::temp_dir();
    let path = dir.join(format!("selfstab-test-snap-{}.json", std::process::id()));
    let _ = std::fs::remove_file(&path);

    // Phase 1: a service under churn with a background every-event
    // scheduler, killed without any graceful settle (the scheduler's file
    // is all that survives).
    {
        let smm = Smm::paper(Ids::identity(n));
        let clock = SimClock::new();
        let registry = Arc::new(Telemetry::new());
        let mut svc = OverlayService::new(generators::path(n), &smm, InitialState::Default, 0)
            .with_telemetry(registry.clone());
        svc.stabilize(&clock, &mut ());
        let mut sched = SnapshotScheduler::to_file(SnapshotCadence::Events(1), &path);
        for m in churn_script(n) {
            svc.enqueue(m);
            for r in svc.drain(&clock, &mut ()) {
                r.unwrap();
            }
            clock.advance(100);
            sched.tick(&svc, &clock, Some(&*registry)).unwrap();
        }
        assert_eq!(sched.written(), 5);
        assert_eq!(registry.snapshots_total(), 5);
        // Kill: svc dropped here, no settle, no explicit snapshot.
    }

    // Phase 2: resurrect from the file. The snapshot was taken at a
    // converged instant (full per-event budget), so the reload converges
    // in zero rounds — self-stabilization applied to process restarts.
    let doc = std::fs::read_to_string(&path).unwrap();
    let snap = Snapshot::parse(&doc).unwrap();
    assert_eq!(snap.protocol, "smm");
    let states = snap.decode_states::<Pointer>().unwrap();
    let smm = Smm::paper(Ids::identity(n));
    let clock = SimClock::new();
    let mut revived = OverlayService::new(snap.graph(), &smm, InitialState::Explicit(states), 0)
        .with_clock_rounds(snap.clock_rounds);
    let boot = revived.stabilize(&clock, &mut ());
    assert!(boot.converged);
    assert_eq!(
        boot.recovery_rounds, 0,
        "legitimate snapshot reloads in 0 rounds"
    );
    assert!(revived
        .proto()
        .is_legitimate(revived.graph(), revived.states()));
    assert!(revived.clock_rounds() >= snap.clock_rounds);
    assert!(!path.with_extension("tmp").exists(), "tmp renamed away");
    let _ = std::fs::remove_file(&path);
}

#[test]
fn mid_repair_snapshot_still_recovers_within_budget() {
    // A tight per-event budget leaves carried-over dirty work, so the
    // background snapshot captures a *non*-legitimate configuration. The
    // reload must still re-stabilize — in more than zero rounds, but
    // within the Theorem 1/2 budget. This is the arbitrary-initial-state
    // guarantee doing real work at restart time.
    let n = 24;
    let smm = Smm::paper(Ids::identity(n));
    let clock = SimClock::new();
    let mut svc = OverlayService::new(generators::path(n), &smm, InitialState::Default, 1);
    svc.stabilize(&clock, &mut ());
    let mut sched = SnapshotScheduler::in_memory(SnapshotCadence::Events(1));
    svc.enqueue(Mutation::EdgeDown {
        a: n / 2,
        b: n / 2 + 1,
    });
    svc.enqueue(Mutation::EdgeUp { a: 0, b: n - 1 });
    for r in svc.drain(&clock, &mut ()) {
        r.unwrap();
    }
    sched.tick(&svc, &clock, None).unwrap();
    assert_eq!(sched.written(), 1);

    let snap = Snapshot::parse(&sched.documents()[0]).unwrap();
    let states = snap.decode_states::<Pointer>().unwrap();
    let smm2 = Smm::paper(Ids::identity(n));
    let mut revived = OverlayService::new(snap.graph(), &smm2, InitialState::Explicit(states), 0);
    let boot = revived.stabilize(&clock, &mut ());
    assert!(boot.converged);
    assert!(
        boot.recovery_rounds <= n + 2,
        "reload within the convergence budget, got {}",
        boot.recovery_rounds
    );
    assert!(revived
        .proto()
        .is_legitimate(revived.graph(), revived.states()));
}
