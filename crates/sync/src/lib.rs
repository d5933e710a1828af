//! The runtime's one blocking layer: every lock and every inter-thread
//! wait in library code goes through this crate.
//!
//! * [`Mutex`] / [`Condvar`] — non-poisoning wrappers over `std::sync`:
//!   the runtime catches worker panics per call and keeps serving, so a
//!   panic while a lock was held must not poison it.
//! * [`channel`] — the device mailbox: an unbounded MPSC FIFO built on
//!   the two above.
//!
//! Besides taking a lock, [`Condvar::wait_while`] is the only call here
//! that blocks, and `std::thread::yield_now` inside it the only point
//! where it gives up the CPU without parking; a scheduler that decides
//! which thread runs (seeded, loom / shuttle-style) hooks those two.
//!
//! **Spin, then park.** `wait_while` first yields the CPU up to
//! [`SPIN`] times, re-checking its predicate under the lock after each
//! yield, and parks on the futex only after that; a `notify_*` with no
//! waiter parked makes no syscall. On one CPU the thread a waiter waits
//! for is already runnable, so a yield hands it the CPU for a fraction
//! of a futex sleep and wake. On a host with a CPU to spare, `yield_now`
//! returns at once and the spin costs at most `SPIN` syscalls.
//!
//! The waits left outside the layer, both in `hf-core`'s runtime:
//!
//! * `JoinHandle::join` in `Controller::shutdown`, joining the device
//!   threads;
//! * `OnceLock::get_or_init` in `CallInput::cut`, where the ranks of a
//!   call issued on a future wait while the first of them collects and
//!   cuts the producer's reply.
//!
//! With the spin these two, plus std `Mutex`'s own contended path, are
//! nearly all of the ~5 voluntary context switches a `ppo_colocated`
//! iteration still makes pinned to one CPU (~98 before the spin); they
//! stay as they are.
//!
//! The workspace `clippy.toml` disallows `std::sync::{Mutex, Condvar,
//! RwLock, Barrier}` and `std::sync::mpsc::{channel, sync_channel}`
//! everywhere else.
//!
//! One rule for callers: **notify after releasing the lock a woken
//! thread needs.** Change the state under the lock, drop the guard, then
//! `notify_*`. A woken waiter's first act is to re-take that lock; on a
//! single CPU it would otherwise preempt the notifier and block on it at
//! once, two context switches for nothing. [`channel`]'s `send`, the
//! collective rendezvous and the reply slots follow it; the cold poison
//! paths, which unwind right after, need not.
//!
//! **Why no wake is lost.** A waiter counts itself as parked under the
//! lock, right after its last check of the predicate and before the std
//! wait releases that lock. A notifier changes the state under the same
//! lock and reads the count after that. So either the waiter took the
//! lock after the change and saw the new state, or it parked first, and
//! then its increment happened before the notifier's read, which finds
//! the count above 0 and makes the std notify. A bare `wait` that spins
//! and parks could not give this: the state may change while the lock is
//! free during a yield, and a notify that lands before the park wakes
//! nobody. `wait_while` checks the predicate under the lock right before
//! it parks, so such a change is seen there.

// The wrappers below are the one place the disallowed types are used.
#![allow(clippy::disallowed_types)]

use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

pub mod channel;

/// How many times [`Condvar::wait_while`] yields the CPU before it
/// parks: the smallest budget at which the benchmark's workloads, pinned
/// to one CPU, stop losing voluntary context switches (the sweep is in
/// DESIGN.md §5, "Spin, then park").
pub const SPIN: u32 = 4;

/// A mutual-exclusion lock whose `lock()` never returns a poison error.
pub struct Mutex<T: ?Sized>(std::sync::Mutex<T>);

/// RAII guard for [`Mutex::lock`].
pub struct MutexGuard<'a, T: ?Sized> {
    lock: &'a std::sync::Mutex<T>,
    guard: Option<std::sync::MutexGuard<'a, T>>,
}

impl<T> Mutex<T> {
    /// Creates a new mutex holding `value`.
    pub const fn new(value: T) -> Self {
        Mutex(std::sync::Mutex::new(value))
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Acquires the lock, recovering from poisoning.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        MutexGuard { lock: &self.0, guard: Some(lock(&self.0)) }
    }
}

fn lock<T: ?Sized>(m: &std::sync::Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

impl<T: ?Sized> Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.guard.as_ref().expect("guard present")
    }
}

impl<T: ?Sized> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.guard.as_mut().expect("guard present")
    }
}

/// A condition variable compatible with [`MutexGuard`].
#[derive(Default)]
pub struct Condvar {
    inner: std::sync::Condvar,
    /// Waiters inside the std wait. Changed only under the waiters' lock;
    /// a notifier reads it after changing the state under that lock.
    parked: AtomicUsize,
    /// Std notifies made, for the tests that count them.
    #[cfg(test)]
    std_notifies: AtomicUsize,
}

impl Condvar {
    /// Creates a new condition variable.
    pub const fn new() -> Self {
        Condvar {
            inner: std::sync::Condvar::new(),
            parked: AtomicUsize::new(0),
            #[cfg(test)]
            std_notifies: AtomicUsize::new(0),
        }
    }

    /// Blocks while `pred` holds of the guarded state, at most until
    /// `deadline` (`None`: for as long as it takes), releasing the lock
    /// while it waits. Returns whether it gave up at the deadline with
    /// `pred` still holding; otherwise `pred` was false under the lock
    /// the guard holds again.
    ///
    /// It yields the CPU up to [`SPIN`] times before it parks, and checks
    /// `pred` under the lock after every yield and every wake.
    pub fn wait_while<T>(
        &self,
        guard: &mut MutexGuard<'_, T>,
        deadline: Option<Instant>,
        mut pred: impl FnMut(&mut T) -> bool,
    ) -> bool {
        let mut spins = 0;
        while pred(guard) {
            let left = match deadline {
                None => None,
                Some(at) => match at.checked_duration_since(Instant::now()) {
                    Some(left) if !left.is_zero() => Some(left),
                    _ => return true,
                },
            };
            let inner = guard.guard.take().expect("guard present");
            let inner = if spins < SPIN {
                spins += 1;
                drop(inner);
                std::thread::yield_now();
                lock(guard.lock)
            } else {
                // Counted under the lock, before the std wait releases it.
                self.parked.fetch_add(1, Ordering::Relaxed);
                let inner = match left {
                    None => self.inner.wait(inner).unwrap_or_else(|e| e.into_inner()),
                    Some(left) => {
                        self.inner.wait_timeout(inner, left).unwrap_or_else(|e| e.into_inner()).0
                    }
                };
                self.parked.fetch_sub(1, Ordering::Relaxed);
                inner
            };
            guard.guard = Some(inner);
        }
        false
    }

    /// Wakes one parked waiter, if there is one.
    pub fn notify_one(&self) {
        // `Relaxed` is enough: the waiters' lock orders a waiter's
        // increment before this read whenever the waiter parked before the
        // notifier changed the state (crate doc, "Why no wake is lost").
        if self.parked.load(Ordering::Relaxed) > 0 {
            self.count_std_notify();
            self.inner.notify_one();
        }
    }

    /// Wakes every parked waiter.
    pub fn notify_all(&self) {
        if self.parked.load(Ordering::Relaxed) > 0 {
            self.count_std_notify();
            self.inner.notify_all();
        }
    }

    /// How many waiters are parked right now: a snapshot, for tests and
    /// diagnostics.
    pub fn parked(&self) -> usize {
        self.parked.load(Ordering::Relaxed)
    }

    fn count_std_notify(&self) {
        #[cfg(test)]
        self.std_notifies.fetch_add(1, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::thread;
    use std::time::Duration;

    /// Joins `handle`, failing the test instead of hanging it if the
    /// thread has not finished within `limit`.
    fn join_within<R>(handle: thread::JoinHandle<R>, limit: Duration, what: &str) -> R {
        let start = Instant::now();
        while !handle.is_finished() {
            assert!(start.elapsed() < limit, "{what}: no progress within {limit:?} (a lost wake)");
            thread::sleep(Duration::from_millis(1));
        }
        handle.join().expect("no panic")
    }

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
                        drop(g);
                        cv.notify_all();
                    } else {
                        cv.wait_while(&mut g, None, |g| *g < n);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(*pair.0.lock(), n);
    }

    /// A token passed round a ring of threads, each waiting for its turn
    /// and handing on under the notify-after-unlock protocol. Every 16th
    /// hand-off the holder sleeps first, so its successor runs out of
    /// spins and parks; the others mostly end inside the spin phase.
    #[test]
    fn no_wake_is_lost_whether_the_waiter_spins_or_parks() {
        const THREADS: usize = 8;
        const HANDOFFS: usize = 4_000;
        let ring = Arc::new((Mutex::new(0usize), Condvar::new()));
        let workers: Vec<_> = (0..THREADS)
            .map(|me| {
                let ring = ring.clone();
                thread::spawn(move || {
                    let (turn, cv) = &*ring;
                    loop {
                        let mut t = turn.lock();
                        cv.wait_while(&mut t, None, |t| *t % THREADS != me && *t < HANDOFFS);
                        if *t >= HANDOFFS {
                            return;
                        }
                        if *t % 16 == 0 {
                            drop(t);
                            thread::sleep(Duration::from_micros(200));
                            t = turn.lock();
                        }
                        *t += 1;
                        drop(t);
                        cv.notify_all();
                    }
                })
            })
            .collect();
        let all = thread::spawn(move || workers.into_iter().for_each(|w| w.join().unwrap()));
        join_within(all, Duration::from_secs(60), "token ring");
        let (turn, cv) = &*ring;
        assert_eq!(*turn.lock(), HANDOFFS);
        let std_notifies = cv.std_notifies.load(Ordering::Relaxed);
        assert!(std_notifies > 0, "some waiter must have parked");
        assert!(std_notifies < HANDOFFS, "a notify with nobody parked makes no std notify");
    }

    /// The mailbox's pattern: many producers, one consumer woken by
    /// `notify_one`. Producers pause now and then, so the consumer parks.
    #[test]
    fn a_single_consumer_woken_by_notify_one_sees_every_value() {
        const PRODUCERS: usize = 6;
        const EACH: usize = 500;
        let (tx, rx) = channel::unbounded::<usize>();
        let producers: Vec<_> = (0..PRODUCERS)
            .map(|p| {
                let tx = tx.clone();
                thread::spawn(move || {
                    for i in 0..EACH {
                        if (i + p) % 50 == 0 {
                            thread::sleep(Duration::from_micros(300));
                        }
                        tx.send(p * EACH + i).unwrap();
                    }
                })
            })
            .collect();
        drop(tx);
        let consumer = thread::spawn(move || {
            let mut got: Vec<usize> = rx.iter().collect();
            got.sort_unstable();
            got
        });
        let got = join_within(consumer, Duration::from_secs(60), "mailbox");
        for p in producers {
            p.join().unwrap();
        }
        assert_eq!(got, (0..PRODUCERS * EACH).collect::<Vec<_>>());
    }

    #[test]
    fn a_deadline_times_out_and_a_notify_ends_the_wait_early() {
        let pair = Arc::new((Mutex::new(false), Condvar::new()));
        let (flag, cv) = &*pair;
        let start = Instant::now();
        let mut g = flag.lock();
        let timed_out =
            cv.wait_while(&mut g, Some(start + Duration::from_millis(20)), |ready| !*ready);
        assert!(timed_out, "nobody set the flag");
        assert!(start.elapsed() >= Duration::from_millis(20));
        drop(g);

        let setter = {
            let pair = pair.clone();
            thread::spawn(move || {
                let (flag, cv) = &*pair;
                while cv.parked() == 0 {
                    thread::yield_now();
                }
                *flag.lock() = true;
                cv.notify_one();
            })
        };
        let start = Instant::now();
        let mut g = flag.lock();
        let timed_out =
            cv.wait_while(&mut g, Some(start + Duration::from_secs(60)), |ready| !*ready);
        assert!(!timed_out && *g, "woken by the notify, with the flag set");
        assert!(start.elapsed() < Duration::from_secs(30));
        drop(g);
        setter.join().unwrap();
        assert_eq!(cv.std_notifies.load(Ordering::Relaxed), 1, "the parked waiter was notified");
    }

    #[test]
    fn a_notify_with_nobody_parked_makes_no_std_notify() {
        let cv = Condvar::new();
        let m = Mutex::new(0u32);
        cv.notify_one();
        cv.notify_all();
        // A wait whose predicate is already false neither spins nor parks.
        assert!(!cv.wait_while(&mut m.lock(), None, |v| *v != 0));
        cv.notify_all();
        assert_eq!(cv.parked(), 0);
        assert_eq!(cv.std_notifies.load(Ordering::Relaxed), 0);
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
