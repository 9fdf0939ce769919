//! Cross-thread task injection into the reactor loop.
//!
//! [`PeerHandle`](crate::reactor::PeerHandle)s live on arbitrary user
//! threads; the reactor runs everything on one loop thread. The
//! [`Injector`] is the single shared-mutable-state handoff between them:
//! handles push `Task`s, the loop drains them at
//! the top of each iteration. (Waking the loop is the caller's job — the
//! handle writes a byte into the reactor's wake pipe after a successful
//! push; the injector itself is IO-free.)
//!
//! Contract, model-checked by `tests/loom_reactor.rs` under
//! `RUSTFLAGS="--cfg loom"`:
//!
//! * Every push that returns `Ok` is observed *exactly once* — by a
//!   `drain` or by the terminal `close`.
//! * After `close` wins the race, every subsequent push returns `Err`
//!   (the reactor is gone; the caller must not assume delivery).
//!
//! Under `RUSTFLAGS="--cfg loom"` the mutex is loom's, so the model
//! checker explores interleavings over the exact code that ships.

#[cfg(loom)]
use loom::sync::Mutex;
use std::collections::VecDeque;
#[cfg(not(loom))]
use std::sync::Mutex;
use std::sync::PoisonError;

struct Inner<T> {
    queue: VecDeque<T>,
    closed: bool,
}

/// A closable MPSC task queue: many handle threads push, the one reactor
/// thread drains.
pub struct Injector<T> {
    inner: Mutex<Inner<T>>,
}

impl<T> Default for Injector<T> {
    fn default() -> Injector<T> {
        Injector::new()
    }
}

impl<T> Injector<T> {
    /// An empty, open injector.
    pub fn new() -> Injector<T> {
        Injector {
            inner: Mutex::new(Inner {
                queue: VecDeque::new(),
                closed: false,
            }),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner<T>> {
        // A poisoned queue is still structurally valid; shutdown must be
        // able to drain it even if a pusher panicked.
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Enqueues `task`, or returns it to the caller if the injector has
    /// been closed (the reactor will never look again).
    pub fn push(&self, task: T) -> Result<(), T> {
        let mut inner = self.lock();
        if inner.closed {
            return Err(task);
        }
        inner.queue.push_back(task);
        Ok(())
    }

    /// Moves every pending task into `out`, preserving push order.
    pub fn drain(&self, out: &mut Vec<T>) {
        let mut inner = self.lock();
        out.extend(inner.queue.drain(..));
    }

    /// Closes the injector and returns whatever was still pending. After
    /// this, every push fails. Idempotent (later calls return empty).
    pub fn close(&self) -> Vec<T> {
        let mut inner = self.lock();
        inner.closed = true;
        inner.queue.drain(..).collect()
    }

    /// Whether [`Injector::close`] has run.
    pub fn is_closed(&self) -> bool {
        self.lock().closed
    }
}

#[cfg(all(test, not(loom)))]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn fifo_and_close_semantics() {
        let inj = Injector::new();
        assert!(inj.push(1).is_ok());
        assert!(inj.push(2).is_ok());
        let mut out = Vec::new();
        inj.drain(&mut out);
        assert_eq!(out, vec![1, 2]);

        assert!(inj.push(3).is_ok());
        assert_eq!(inj.close(), vec![3], "close returns the remainder");
        assert_eq!(inj.push(4), Err(4), "push after close fails");
        assert!(inj.is_closed());
        assert!(inj.close().is_empty(), "close is idempotent");
    }

    #[test]
    fn concurrent_pushes_all_arrive_once() {
        let inj = Arc::new(Injector::new());
        let threads: Vec<_> = (0..4u64)
            .map(|t| {
                let inj = inj.clone();
                std::thread::spawn(move || {
                    for i in 0..100u64 {
                        inj.push(t * 1000 + i).unwrap();
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let mut out = Vec::new();
        inj.drain(&mut out);
        out.sort_unstable();
        let expected: Vec<u64> = (0..4u64)
            .flat_map(|t| (0..100u64).map(move |i| t * 1000 + i))
            .collect();
        assert_eq!(out, expected);
    }
}
