//! Unbounded MPSC mailboxes for cross-shard beacon traffic.
//!
//! A deliberately small primitive: a `Mutex<VecDeque>`, one condvar and a
//! high-water mark. There is no capacity. The runtime bounds every mailbox
//! by construction — one batch per neighbouring shard per round, at most
//! one round in flight (see [`crate::executor`]) — so a shard's mailbox
//! never holds more than the `expected_in ≤ K − 1` batches it waits for,
//! and [`Sender::send`] never blocks.
//!
//! A mailbox is *closed* by [`Sender::close`] or by dropping its
//! [`Receiver`]. Closing wakes a receiver blocked in [`Receiver::recv`],
//! which then returns `None`, and fails every later send. That is how a
//! failing worker releases peers waiting for a batch it will never send.

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex, PoisonError};

struct Shared<T> {
    queue: Mutex<Inner<T>>,
    ready: Condvar,
}

struct Inner<T> {
    items: VecDeque<T>,
    /// Deepest the queue got since the last [`Receiver::take_max_depth`].
    max_depth: usize,
    closed: bool,
}

/// The sending half; producers share it by reference.
pub struct Sender<T> {
    shared: Arc<Shared<T>>,
}

/// The receiving half; exactly one per mailbox.
pub struct Receiver<T> {
    shared: Arc<Shared<T>>,
}

/// Create an open, empty mailbox.
pub fn mailbox<T>() -> (Sender<T>, Receiver<T>) {
    let shared = Arc::new(Shared {
        queue: Mutex::new(Inner {
            items: VecDeque::new(),
            max_depth: 0,
            closed: false,
        }),
        ready: Condvar::new(),
    });
    (
        Sender {
            shared: Arc::clone(&shared),
        },
        Receiver { shared },
    )
}

impl<T> Shared<T> {
    fn close(&self) {
        // Runs in `Drop` and in a failing worker's guard, so it must not
        // panic. Every update leaves the queue valid, so a lock poisoned by
        // a panicking peer is safe to take over.
        self.queue
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .closed = true;
        self.ready.notify_all();
    }
}

impl<T> Sender<T> {
    /// Enqueue without blocking and return the queue depth after the push;
    /// hands the value back once the mailbox is closed.
    pub fn send(&self, value: T) -> Result<usize, T> {
        let mut q = self.shared.queue.lock().expect("mailbox mutex");
        if q.closed {
            return Err(value);
        }
        q.items.push_back(value);
        let depth = q.items.len();
        q.max_depth = q.max_depth.max(depth);
        drop(q);
        self.shared.ready.notify_one();
        Ok(depth)
    }

    /// Close the mailbox: a blocked [`Receiver::recv`] wakes with `None`
    /// and every later send fails.
    pub fn close(&self) {
        self.shared.close();
    }
}

impl<T> Receiver<T> {
    /// Dequeue, blocking while the mailbox is empty; `None` once it is
    /// closed.
    pub fn recv(&self) -> Option<T> {
        let mut q = self.shared.queue.lock().expect("mailbox mutex");
        loop {
            if q.closed {
                return None;
            }
            if let Some(item) = q.items.pop_front() {
                return Some(item);
            }
            q = self.shared.ready.wait(q).expect("mailbox mutex");
        }
    }

    /// Current queue depth (racy; for gauges only).
    pub fn depth(&self) -> usize {
        self.shared.queue.lock().expect("mailbox mutex").items.len()
    }

    /// Read *and reset* the high-water mark: returns the deepest the queue
    /// got since the last call (or creation), then re-arms the mark at the
    /// current depth, so each round's gauge reflects that round alone.
    pub fn take_max_depth(&self) -> usize {
        let mut q = self.shared.queue.lock().expect("mailbox mutex");
        let max = q.max_depth;
        q.max_depth = q.items.len();
        max
    }
}

impl<T> Drop for Receiver<T> {
    fn drop(&mut self) {
        self.shared.close();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;
    use std::thread;
    use std::time::Duration;

    /// Run `f` on its own thread and fail if it has not finished in 30 s,
    /// so a lost wake-up fails the test instead of hanging the suite.
    fn within_deadline<R: Send + 'static>(f: impl FnOnce() -> R + Send + 'static) -> R {
        let (done, result) = mpsc::channel();
        let worker = thread::spawn(move || done.send(f()).expect("watchdog alive"));
        let out = result
            .recv_timeout(Duration::from_secs(30))
            .expect("watchdog: no result within 30 s");
        worker.join().unwrap();
        out
    }

    #[test]
    fn fifo_order_and_depth_after_each_push() {
        let (tx, rx) = mailbox();
        for i in 0..4 {
            assert_eq!(tx.send(i), Ok(i + 1));
        }
        assert_eq!(rx.depth(), 4);
        assert_eq!(
            (0..4).map(|_| rx.recv().unwrap()).collect::<Vec<_>>(),
            vec![0, 1, 2, 3]
        );
        assert_eq!(rx.depth(), 0);
    }

    #[test]
    fn take_max_depth_resets_the_high_water_mark() {
        let (tx, rx) = mailbox();
        for i in 0..4 {
            tx.send(i).unwrap();
        }
        for _ in 0..4 {
            rx.recv().unwrap();
        }
        // The first take sees the burst; the second starts from a clean
        // mark, so one early burst never shadows a later round.
        assert_eq!(rx.take_max_depth(), 4);
        assert_eq!(rx.take_max_depth(), 0);
        tx.send(9).unwrap();
        tx.send(10).unwrap();
        assert_eq!(rx.take_max_depth(), 2);
        // Re-armed at the *current* depth, not zero: the two queued items
        // are still the deepest the next window has seen.
        assert_eq!(rx.take_max_depth(), 2);
    }

    #[test]
    fn recv_wakes_on_every_send_from_many_threads() {
        let got = within_deadline(|| {
            let (tx, rx) = mailbox();
            thread::scope(|s| {
                for p in 0..4 {
                    let tx = &tx;
                    s.spawn(move || {
                        for i in 0..25 {
                            tx.send(p * 100 + i).unwrap();
                        }
                    });
                }
                (0..100).map(|_| rx.recv().unwrap()).collect::<Vec<i32>>()
            })
        });
        let mut sorted = got.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 100, "no duplicates, nothing lost");
        for p in 0..4 {
            let lane: Vec<i32> = got.iter().copied().filter(|v| v / 100 == p).collect();
            assert!(lane.windows(2).all(|w| w[0] < w[1]), "FIFO per producer");
        }
    }

    #[test]
    fn close_wakes_a_blocked_recv() {
        let (tx, rx) = mailbox::<u8>();
        let (receiving, go) = mpsc::channel();
        let closer = thread::spawn(move || {
            // Close once the receiver is about to block. A close that lands
            // before the recv must return `None` all the same.
            go.recv().unwrap();
            tx.close();
        });
        let got = within_deadline(move || {
            receiving.send(()).unwrap();
            rx.recv()
        });
        assert_eq!(got, None);
        closer.join().unwrap();
    }

    #[test]
    fn send_fails_after_a_close() {
        let (tx, rx) = mailbox::<u8>();
        tx.close();
        assert_eq!(tx.send(1), Err(1));
        assert_eq!(rx.recv(), None);

        let (tx, rx) = mailbox::<u8>();
        drop(rx);
        assert_eq!(tx.send(2), Err(2), "dropping the receiver closes it too");
    }
}
