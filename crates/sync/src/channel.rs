//! The device mailbox: an unbounded multi-producer, single-consumer FIFO
//! over this crate's [`Mutex`] and [`Condvar`].

use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::{Condvar, Mutex};

struct Chan<T> {
    state: Mutex<State<T>>,
    ready: Condvar,
}

struct State<T> {
    queue: VecDeque<T>,
    senders: usize,
    receiver: bool,
}

/// The sending half; clone it for more producers.
pub struct Sender<T>(Arc<Chan<T>>);

/// The receiving half.
pub struct Receiver<T>(Arc<Chan<T>>);

/// Creates an unbounded channel.
pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
    let chan = Arc::new(Chan {
        state: Mutex::new(State { queue: VecDeque::new(), senders: 1, receiver: true }),
        ready: Condvar::new(),
    });
    (Sender(chan.clone()), Receiver(chan))
}

impl<T> Sender<T> {
    /// Enqueues `value`; once the receiver is gone, hands it back instead.
    pub fn send(&self, value: T) -> Result<(), T> {
        let mut st = self.0.state.lock();
        if !st.receiver {
            return Err(value);
        }
        st.queue.push_back(value);
        drop(st);
        self.0.ready.notify_one();
        Ok(())
    }
}

impl<T> Clone for Sender<T> {
    fn clone(&self) -> Self {
        self.0.state.lock().senders += 1;
        Sender(self.0.clone())
    }
}

impl<T> Drop for Sender<T> {
    fn drop(&mut self) {
        let mut st = self.0.state.lock();
        st.senders -= 1;
        if st.senders == 0 {
            // The receiver may be waiting: it now sees the disconnection.
            self.0.ready.notify_one();
        }
    }
}

impl<T> Receiver<T> {
    /// The next value, waiting until `deadline` at most (`None`: for as
    /// long as a sender exists). `None` once the deadline has passed or
    /// the channel is empty with every sender gone.
    fn recv_until(&self, deadline: Option<Instant>) -> Option<T> {
        let mut st = self.0.state.lock();
        loop {
            if let Some(v) = st.queue.pop_front() {
                return Some(v);
            }
            if st.senders == 0 {
                return None;
            }
            match deadline {
                None => self.0.ready.wait(&mut st),
                Some(at) => {
                    let left = at.saturating_duration_since(Instant::now());
                    if left.is_zero() {
                        return None;
                    }
                    self.0.ready.wait_for(&mut st, left);
                }
            }
        }
    }

    /// The next value, waiting at most `timeout`; `None` if none came (the
    /// time ran out, or every sender is gone).
    pub fn recv_timeout(&self, timeout: Duration) -> Option<T> {
        self.recv_until(Some(Instant::now() + timeout))
    }

    /// The values in arrival order, waiting for each; ends once the
    /// channel is empty and every sender is gone.
    pub fn iter(&self) -> impl Iterator<Item = T> + '_ {
        std::iter::from_fn(|| self.recv_until(None))
    }
}

impl<T> Drop for Receiver<T> {
    fn drop(&mut self) {
        self.0.state.lock().receiver = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn fifo_order_and_disconnect() {
        let (tx, rx) = unbounded();
        let tx2 = tx.clone();
        for i in 0..10 {
            tx.send(i).unwrap();
        }
        drop(tx);
        tx2.send(10).unwrap();
        drop(tx2);
        let got: Vec<i32> = rx.iter().collect();
        assert_eq!(got, (0..=10).collect::<Vec<_>>());
        assert_eq!(rx.recv_timeout(Duration::from_secs(5)), None, "disconnected, not waiting");
    }

    #[test]
    fn send_fails_once_the_receiver_is_gone() {
        let (tx, rx) = unbounded();
        drop(rx);
        assert_eq!(tx.send(1), Err(1));
    }

    #[test]
    fn recv_timeout_waits_for_a_value_or_the_deadline() {
        let (tx, rx) = unbounded::<u32>();
        assert_eq!(rx.recv_timeout(Duration::from_millis(10)), None);
        tx.send(5).unwrap();
        assert_eq!(rx.recv_timeout(Duration::from_millis(10)), Some(5));
        let h = thread::spawn(move || {
            thread::sleep(Duration::from_millis(20));
            tx.send(9).unwrap();
        });
        assert_eq!(rx.recv_timeout(Duration::from_secs(5)), Some(9));
        h.join().unwrap();
    }

    #[test]
    fn iter_wakes_when_the_last_sender_leaves() {
        let (tx, rx) = unbounded::<u32>();
        let h = thread::spawn(move || rx.iter().count());
        thread::sleep(Duration::from_millis(20));
        tx.send(1).unwrap();
        drop(tx);
        assert_eq!(h.join().unwrap(), 1);
    }
}
