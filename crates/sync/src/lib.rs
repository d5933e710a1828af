//! The runtime's one blocking layer: every lock and every inter-thread
//! wait in library code goes through this crate.
//!
//! * [`Mutex`] / [`Condvar`] — non-poisoning wrappers over `std::sync`:
//!   the runtime catches worker panics per call and keeps serving, so a
//!   panic while a lock was held must not poison it.
//! * [`channel`] — the device mailbox: an unbounded MPSC FIFO built on
//!   the two above.
//!
//! Besides taking a lock, [`Condvar::wait`] and [`Condvar::wait_for`] are
//! the only calls here that block, so a scheduler that decides which
//! thread runs (seeded, loom / shuttle-style) hooks those two. The waits
//! left outside the layer, both in `hf-core`'s runtime:
//!
//! * `JoinHandle::join` in `Controller::shutdown`, joining the device
//!   threads;
//! * `OnceLock::get_or_init` in `FutureInput::cut`, where the ranks of a
//!   call issued on a future wait while the first of them collects and
//!   cuts the producer's reply.
//!
//! The workspace `clippy.toml` disallows `std::sync::{Mutex, Condvar,
//! RwLock, Barrier}` and `std::sync::mpsc::{channel, sync_channel}`
//! everywhere else.
//!
//! One rule for callers: **notify after releasing the lock a woken
//! thread needs.** Change the state under the lock, drop the guard, then
//! `notify_*`. A woken waiter's first act is to re-take that lock; on a
//! single CPU it would otherwise preempt the notifier and block on it at
//! once, two context switches for nothing. No wake can be missed this
//! way, because every waiter re-checks its predicate under the lock
//! before it parks again. [`channel`]'s `send`, the collective
//! rendezvous and the reply slots follow it; the cold poison paths,
//! which unwind right after, need not.

// The wrappers below are the one place the disallowed types are used.
#![allow(clippy::disallowed_types)]

use std::ops::{Deref, DerefMut};
use std::time::Duration;

pub mod channel;

/// A mutual-exclusion lock whose `lock()` never returns a poison error.
pub struct Mutex<T: ?Sized>(std::sync::Mutex<T>);

/// RAII guard for [`Mutex::lock`].
pub struct MutexGuard<'a, T: ?Sized>(Option<std::sync::MutexGuard<'a, T>>);

impl<T> Mutex<T> {
    /// Creates a new mutex holding `value`.
    pub const fn new(value: T) -> Self {
        Mutex(std::sync::Mutex::new(value))
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Acquires the lock, recovering from poisoning.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        MutexGuard(Some(self.0.lock().unwrap_or_else(|e| e.into_inner())))
    }
}

impl<T: ?Sized> Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.0.as_ref().expect("guard present")
    }
}

impl<T: ?Sized> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.0.as_mut().expect("guard present")
    }
}

/// A condition variable compatible with [`MutexGuard`].
#[derive(Default)]
pub struct Condvar(std::sync::Condvar);

impl Condvar {
    /// Creates a new condition variable.
    pub const fn new() -> Self {
        Condvar(std::sync::Condvar::new())
    }

    /// Blocks until notified, releasing the guard's lock while waiting.
    /// It may also wake spuriously: callers re-check their condition.
    pub fn wait<T>(&self, guard: &mut MutexGuard<'_, T>) {
        let inner = guard.0.take().expect("guard present");
        guard.0 = Some(self.0.wait(inner).unwrap_or_else(|e| e.into_inner()));
    }

    /// Blocks until notified or `timeout` elapsed, releasing the guard's
    /// lock while waiting. Which of the two it was is not reported: like
    /// `wait`, it may also wake spuriously, so callers re-check their
    /// condition and their own deadline.
    pub fn wait_for<T>(&self, guard: &mut MutexGuard<'_, T>, timeout: Duration) {
        let inner = guard.0.take().expect("guard present");
        let (inner, _) = self.0.wait_timeout(inner, timeout).unwrap_or_else(|e| e.into_inner());
        guard.0 = Some(inner);
    }

    /// Wakes one waiting thread.
    pub fn notify_one(&self) {
        self.0.notify_one();
    }

    /// Wakes all waiting threads.
    pub fn notify_all(&self) {
        self.0.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::thread;

    #[test]
    fn mutex_and_condvar_rendezvous() {
        let pair = Arc::new((Mutex::new(0usize), Condvar::new()));
        let n = 4;
        let handles: Vec<_> = (0..n)
            .map(|_| {
                let pair = pair.clone();
                thread::spawn(move || {
                    let (m, cv) = &*pair;
                    let mut g = m.lock();
                    *g += 1;
                    if *g == n {
                        cv.notify_all();
                    } else {
                        while *g < n {
                            cv.wait(&mut g);
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(*pair.0.lock(), n);
    }

    #[test]
    fn a_panic_under_the_lock_does_not_poison_it() {
        let m = Arc::new(Mutex::new(1u32));
        let held = m.clone();
        let res = thread::spawn(move || {
            let _g = held.lock();
            panic!("worker died holding the lock");
        })
        .join();
        assert!(res.is_err());
        *m.lock() += 1;
        assert_eq!(*m.lock(), 2);
    }
}
