//! A reusable barrier that can be *poisoned*.
//!
//! `std::sync::Barrier` has no failure path: if one worker exits its loop
//! early (a wire decode error, a mismatched round tag), every peer parked
//! on the barrier waits forever and the process hangs. [`PoisonBarrier`]
//! adds exactly one capability — [`PoisonBarrier::poison`] wakes every
//! current and future waiter with [`Poisoned`] — so a failing shard worker
//! can tear the whole runtime down instead of deadlocking it.
//!
//! The happy path is the classic generation-counting condvar barrier:
//! `wait` returns `Ok(true)` for exactly one caller per crossing (the
//! "leader", used to reset shared per-round accumulators), `Ok(false)` for
//! the rest.

use std::sync::{Condvar, Mutex};

/// Error returned by [`PoisonBarrier::wait`] once the barrier is poisoned.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Poisoned;

impl std::fmt::Display for Poisoned {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("barrier poisoned: a peer worker failed")
    }
}

impl std::error::Error for Poisoned {}

struct State {
    arrived: usize,
    generation: u64,
    poisoned: bool,
}

/// A reusable counting barrier with a poison switch.
pub struct PoisonBarrier {
    state: Mutex<State>,
    cv: Condvar,
    count: usize,
}

impl PoisonBarrier {
    /// A barrier releasing every `count` waiters.
    ///
    /// # Panics
    /// Panics if `count == 0`.
    pub fn new(count: usize) -> Self {
        assert!(count > 0, "barrier needs at least one participant");
        PoisonBarrier {
            state: Mutex::new(State {
                arrived: 0,
                generation: 0,
                poisoned: false,
            }),
            cv: Condvar::new(),
            count,
        }
    }

    /// Block until `count` threads have called `wait` (or the barrier is
    /// poisoned). Exactly one caller per crossing gets `Ok(true)`.
    pub fn wait(&self) -> Result<bool, Poisoned> {
        let mut s = self.state.lock().expect("barrier mutex");
        if s.poisoned {
            return Err(Poisoned);
        }
        s.arrived += 1;
        if s.arrived == self.count {
            s.arrived = 0;
            s.generation += 1;
            drop(s);
            self.cv.notify_all();
            return Ok(true);
        }
        let gen = s.generation;
        while s.generation == gen && !s.poisoned {
            s = self.cv.wait(s).expect("barrier mutex");
        }
        if s.generation == gen {
            // Only poisoning can have ended the wait.
            return Err(Poisoned);
        }
        Ok(false)
    }

    /// Poison the barrier: every parked waiter wakes with [`Poisoned`], and
    /// every future [`PoisonBarrier::wait`] fails immediately.
    pub fn poison(&self) {
        self.state.lock().expect("barrier mutex").poisoned = true;
        self.cv.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;
    use std::thread;

    #[test]
    fn releases_all_with_one_leader_per_crossing() {
        let barrier = Arc::new(PoisonBarrier::new(4));
        let leaders = Arc::new(AtomicUsize::new(0));
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let barrier = Arc::clone(&barrier);
                let leaders = Arc::clone(&leaders);
                thread::spawn(move || {
                    for _ in 0..50 {
                        if barrier.wait().expect("no poison") {
                            leaders.fetch_add(1, Ordering::SeqCst);
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(leaders.load(Ordering::SeqCst), 50);
    }

    #[test]
    fn poison_wakes_parked_waiters_and_fails_future_waits() {
        let barrier = Arc::new(PoisonBarrier::new(3));
        let handles: Vec<_> = (0..2)
            .map(|_| {
                let barrier = Arc::clone(&barrier);
                thread::spawn(move || barrier.wait())
            })
            .collect();
        // Give both threads time to park, then poison instead of arriving.
        thread::sleep(std::time::Duration::from_millis(20));
        barrier.poison();
        for h in handles {
            assert_eq!(h.join().unwrap(), Err(Poisoned));
        }
        assert_eq!(barrier.wait(), Err(Poisoned));
    }

    #[test]
    #[should_panic(expected = "at least one participant")]
    fn zero_count_panics() {
        let _ = PoisonBarrier::new(0);
    }
}
