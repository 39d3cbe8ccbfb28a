//! The product's channel: one bounded multi-producer multi-consumer FIFO
//! queue over a [`Mutex`]`<VecDeque>` and two [`Condvar`]s, with exactly the
//! operations the node service calls.
//!
//! Both ends are `Clone`; a message goes to exactly one receiver. The
//! channel disconnects when the last peer of one side drops: `send` then
//! fails at once, `recv` first drains what is queued.

use std::collections::VecDeque;
use std::sync::Arc;

use crate::sync::{Condvar, Mutex};

struct State<T> {
    queue: VecDeque<T>,
    senders: usize,
    receivers: usize,
}

struct Shared<T> {
    state: Mutex<State<T>>,
    capacity: usize,
    not_empty: Condvar,
    not_full: Condvar,
}

/// The sending half; clone it for more producers.
pub struct Sender<T>(Arc<Shared<T>>);

/// The receiving half; clone it for more consumers.
pub struct Receiver<T>(Arc<Shared<T>>);

/// A channel that holds at most `capacity` messages (at least one: a
/// rendezvous channel is not modelled).
pub fn bounded<T>(capacity: usize) -> (Sender<T>, Receiver<T>) {
    let capacity = capacity.max(1);
    let shared = Arc::new(Shared {
        state: Mutex::new(State {
            queue: VecDeque::new(),
            senders: 1,
            receivers: 1,
        }),
        capacity,
        not_empty: Condvar::new(),
        not_full: Condvar::new(),
    });
    (Sender(Arc::clone(&shared)), Receiver(shared))
}

/// Every receiver is gone; the message comes back.
#[derive(PartialEq, Eq, Debug)]
pub struct SendError<T>(pub T);

/// The channel is empty and every sender is gone.
#[derive(PartialEq, Eq, Debug)]
pub struct RecvError;

impl<T> Sender<T> {
    /// Blocks while the channel is full; fails once every receiver is gone.
    pub fn send(&self, msg: T) -> Result<(), SendError<T>> {
        let mut state = self.0.state.lock();
        loop {
            if state.receivers == 0 {
                return Err(SendError(msg));
            }
            if state.queue.len() < self.0.capacity {
                break;
            }
            self.0.not_full.wait(&mut state);
        }
        state.queue.push_back(msg);
        drop(state);
        self.0.not_empty.notify_one();
        Ok(())
    }

    /// Messages queued right now: a depth sample, stale as soon as it is
    /// read.
    #[allow(clippy::len_without_is_empty)]
    pub fn len(&self) -> usize {
        self.0.state.lock().queue.len()
    }
}

impl<T> Receiver<T> {
    /// Blocks while the channel is empty; fails once it is empty and every
    /// sender is gone (queued messages are still delivered).
    pub fn recv(&self) -> Result<T, RecvError> {
        let mut state = self.0.state.lock();
        loop {
            if let Some(msg) = state.queue.pop_front() {
                drop(state);
                self.0.not_full.notify_one();
                return Ok(msg);
            }
            if state.senders == 0 {
                return Err(RecvError);
            }
            self.0.not_empty.wait(&mut state);
        }
    }

    /// True iff nothing is queued right now.
    pub fn is_empty(&self) -> bool {
        self.0.state.lock().queue.is_empty()
    }
}

impl<T> Clone for Sender<T> {
    fn clone(&self) -> Self {
        self.0.state.lock().senders += 1;
        Sender(Arc::clone(&self.0))
    }
}

impl<T> Clone for Receiver<T> {
    fn clone(&self) -> Self {
        self.0.state.lock().receivers += 1;
        Receiver(Arc::clone(&self.0))
    }
}

impl<T> Drop for Sender<T> {
    fn drop(&mut self) {
        let mut state = self.0.state.lock();
        state.senders -= 1;
        if state.senders == 0 {
            drop(state);
            self.0.not_empty.notify_all();
        }
    }
}

impl<T> Drop for Receiver<T> {
    fn drop(&mut self) {
        let mut state = self.0.state.lock();
        state.receivers -= 1;
        if state.receivers == 0 {
            drop(state);
            self.0.not_full.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bp_types::Rng;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Barrier;

    /// Four senders with seeded bursts and yields, four cloned receivers, a
    /// queue of three so both condvars are in play: the receivers' takes are
    /// a partition of what was sent.
    #[test]
    fn stress_every_message_reaches_exactly_one_of_four_receivers() {
        const PER_SENDER: u64 = 2_000;
        for seed in 0..4u64 {
            let (tx, rx) = bounded::<u64>(3);
            let receivers: Vec<_> = (0..4)
                .map(|_| {
                    let rx = rx.clone();
                    std::thread::spawn(move || {
                        let mut got = Vec::new();
                        while let Ok(msg) = rx.recv() {
                            got.push(msg);
                        }
                        got
                    })
                })
                .collect();
            drop(rx);
            let senders: Vec<_> = (0..4u64)
                .map(|s| {
                    let tx = tx.clone();
                    std::thread::spawn(move || {
                        let mut rng = Rng::seed_from_u64(0xc4a7 + seed * 4 + s);
                        let (mut next, end) = (s * PER_SENDER, (s + 1) * PER_SENDER);
                        while next < end {
                            for _ in 0..rng.gen_range(1..=8).min(end - next) {
                                tx.send(next).expect("receivers alive");
                                next += 1;
                            }
                            if rng.gen_range(0..3) == 0 {
                                std::thread::yield_now();
                            }
                        }
                    })
                })
                .collect();
            drop(tx);
            for sender in senders {
                sender.join().expect("sender thread");
            }
            let mut seen: Vec<u64> = Vec::new();
            for receiver in receivers {
                let got = receiver.join().expect("receiver thread");
                // One sender's messages arrive at one receiver in send order.
                for s in 0..4 {
                    let of_sender = got.iter().filter(|m| *m / PER_SENDER == s);
                    assert!(of_sender.clone().zip(of_sender.skip(1)).all(|(a, b)| a < b));
                }
                seen.extend(got);
            }
            seen.sort_unstable();
            assert!(seen.iter().copied().eq(0..4 * PER_SENDER), "seed {seed}");
        }
    }

    #[test]
    fn recv_drains_the_queue_then_errs_once_the_last_sender_is_gone() {
        let (tx, rx) = bounded::<u32>(4);
        let second = tx.clone();
        tx.send(1).expect("receiver alive");
        second.send(2).expect("receiver alive");
        drop(tx);
        assert!(!rx.is_empty());
        assert_eq!(rx.recv(), Ok(1));
        drop(second);
        assert_eq!(rx.recv(), Ok(2));
        assert_eq!(rx.recv(), Err(RecvError));
        assert!(rx.is_empty());
    }

    #[test]
    fn send_errs_once_the_last_receiver_is_gone() {
        let (tx, rx) = bounded::<u32>(4);
        let second = rx.clone();
        drop(rx);
        assert_eq!(tx.send(7), Ok(()));
        drop(second);
        assert_eq!(tx.send(8), Err(SendError(8)));
    }

    #[test]
    fn a_full_bounded_channel_blocks_the_next_send_until_a_recv() {
        let (tx, rx) = bounded::<u32>(2);
        tx.send(1).expect("room");
        tx.send(2).expect("room");
        let started = Barrier::new(2);
        let recv_begun = AtomicBool::new(false);
        std::thread::scope(|scope| {
            let third = scope.spawn(|| {
                started.wait();
                tx.send(3).expect("receiver alive");
                // The send cannot have returned before a `recv` made room.
                assert!(recv_begun.load(Ordering::SeqCst));
            });
            started.wait();
            for _ in 0..100 {
                std::thread::yield_now();
                assert_eq!(tx.len(), 2, "the queue never exceeds its capacity");
            }
            recv_begun.store(true, Ordering::SeqCst);
            assert_eq!(rx.recv(), Ok(1));
            third.join().expect("third sender");
        });
        assert_eq!((rx.recv(), rx.recv()), (Ok(2), Ok(3)));
    }
}
