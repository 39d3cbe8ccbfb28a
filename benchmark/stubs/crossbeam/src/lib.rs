//! Offline stand-in for `crossbeam`: the `channel` module's multi-producer
//! multi-consumer surface, built on a `Mutex<VecDeque>` and two `Condvar`s.
//! A zero-capacity (rendezvous) channel is not modelled: `bounded(0)` holds
//! one message.

pub mod channel {
    use std::collections::VecDeque;
    use std::fmt;
    use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
    use std::time::{Duration, Instant};

    struct State<T> {
        queue: VecDeque<T>,
        senders: usize,
        receivers: usize,
    }

    struct Shared<T> {
        state: Mutex<State<T>>,
        capacity: Option<usize>,
        not_empty: Condvar,
        not_full: Condvar,
    }

    impl<T> Shared<T> {
        fn lock(&self) -> MutexGuard<'_, State<T>> {
            self.state.lock().unwrap_or_else(PoisonError::into_inner)
        }

        fn is_full(&self, state: &State<T>) -> bool {
            self.capacity.is_some_and(|cap| state.queue.len() >= cap)
        }
    }

    pub struct Sender<T>(Arc<Shared<T>>);
    pub struct Receiver<T>(Arc<Shared<T>>);

    fn channel<T>(capacity: Option<usize>) -> (Sender<T>, Receiver<T>) {
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

    pub fn bounded<T>(capacity: usize) -> (Sender<T>, Receiver<T>) {
        channel(Some(capacity.max(1)))
    }

    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        channel(None)
    }

    #[derive(PartialEq, Eq, Clone, Copy)]
    pub struct SendError<T>(pub T);

    #[derive(PartialEq, Eq, Clone, Copy)]
    pub enum TrySendError<T> {
        Full(T),
        Disconnected(T),
    }

    #[derive(PartialEq, Eq, Clone, Copy, Debug)]
    pub struct RecvError;

    #[derive(PartialEq, Eq, Clone, Copy, Debug)]
    pub enum TryRecvError {
        Empty,
        Disconnected,
    }

    #[derive(PartialEq, Eq, Clone, Copy, Debug)]
    pub enum RecvTimeoutError {
        Timeout,
        Disconnected,
    }

    impl<T> fmt::Debug for SendError<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("SendError(..)")
        }
    }

    impl<T> fmt::Debug for TrySendError<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str(match self {
                TrySendError::Full(_) => "Full(..)",
                TrySendError::Disconnected(_) => "Disconnected(..)",
            })
        }
    }

    impl<T> fmt::Display for SendError<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("sending on a disconnected channel")
        }
    }

    impl fmt::Display for RecvError {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("receiving on an empty and disconnected channel")
        }
    }

    impl<T> std::error::Error for SendError<T> {}
    impl std::error::Error for RecvError {}

    impl<T> Sender<T> {
        /// Blocks while the channel is full; fails once every receiver is
        /// gone.
        pub fn send(&self, msg: T) -> Result<(), SendError<T>> {
            let mut state = self.0.lock();
            loop {
                if state.receivers == 0 {
                    return Err(SendError(msg));
                }
                if !self.0.is_full(&state) {
                    break;
                }
                state = self
                    .0
                    .not_full
                    .wait(state)
                    .unwrap_or_else(PoisonError::into_inner);
            }
            state.queue.push_back(msg);
            drop(state);
            self.0.not_empty.notify_one();
            Ok(())
        }

        pub fn try_send(&self, msg: T) -> Result<(), TrySendError<T>> {
            let mut state = self.0.lock();
            if state.receivers == 0 {
                return Err(TrySendError::Disconnected(msg));
            }
            if self.0.is_full(&state) {
                return Err(TrySendError::Full(msg));
            }
            state.queue.push_back(msg);
            drop(state);
            self.0.not_empty.notify_one();
            Ok(())
        }

        pub fn len(&self) -> usize {
            self.0.lock().queue.len()
        }

        pub fn is_empty(&self) -> bool {
            self.len() == 0
        }
    }

    impl<T> Receiver<T> {
        /// Blocks while the channel is empty; fails once it is empty and
        /// every sender is gone (queued messages are still delivered).
        pub fn recv(&self) -> Result<T, RecvError> {
            let mut state = self.0.lock();
            loop {
                if let Some(msg) = state.queue.pop_front() {
                    drop(state);
                    self.0.not_full.notify_one();
                    return Ok(msg);
                }
                if state.senders == 0 {
                    return Err(RecvError);
                }
                state = self
                    .0
                    .not_empty
                    .wait(state)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        }

        pub fn try_recv(&self) -> Result<T, TryRecvError> {
            let mut state = self.0.lock();
            match state.queue.pop_front() {
                Some(msg) => {
                    drop(state);
                    self.0.not_full.notify_one();
                    Ok(msg)
                }
                None if state.senders == 0 => Err(TryRecvError::Disconnected),
                None => Err(TryRecvError::Empty),
            }
        }

        pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
            let deadline = Instant::now() + timeout;
            let mut state = self.0.lock();
            loop {
                if let Some(msg) = state.queue.pop_front() {
                    drop(state);
                    self.0.not_full.notify_one();
                    return Ok(msg);
                }
                if state.senders == 0 {
                    return Err(RecvTimeoutError::Disconnected);
                }
                let left = deadline.saturating_duration_since(Instant::now());
                if left.is_zero() {
                    return Err(RecvTimeoutError::Timeout);
                }
                state = self
                    .0
                    .not_empty
                    .wait_timeout(state, left)
                    .unwrap_or_else(PoisonError::into_inner)
                    .0;
            }
        }

        pub fn len(&self) -> usize {
            self.0.lock().queue.len()
        }

        pub fn is_empty(&self) -> bool {
            self.len() == 0
        }

        /// Blocking iterator that ends when the channel disconnects.
        pub fn iter(&self) -> impl Iterator<Item = T> + '_ {
            std::iter::from_fn(move || self.recv().ok())
        }
    }

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Self {
            self.0.lock().senders += 1;
            Sender(Arc::clone(&self.0))
        }
    }

    impl<T> Clone for Receiver<T> {
        fn clone(&self) -> Self {
            self.0.lock().receivers += 1;
            Receiver(Arc::clone(&self.0))
        }
    }

    impl<T> Drop for Sender<T> {
        fn drop(&mut self) {
            let mut state = self.0.lock();
            state.senders -= 1;
            if state.senders == 0 {
                drop(state);
                self.0.not_empty.notify_all();
            }
        }
    }

    impl<T> Drop for Receiver<T> {
        fn drop(&mut self) {
            let mut state = self.0.lock();
            state.receivers -= 1;
            if state.receivers == 0 {
                drop(state);
                self.0.not_full.notify_all();
            }
        }
    }

    impl<T> fmt::Debug for Sender<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("Sender { .. }")
        }
    }

    impl<T> fmt::Debug for Receiver<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("Receiver { .. }")
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn bounded_send_blocks_until_a_receiver_drains() {
            let (tx, rx) = bounded::<u32>(1);
            tx.send(1).expect("room for one");
            assert!(matches!(tx.try_send(2), Err(TrySendError::Full(2))));
            let sender = std::thread::spawn(move || tx.send(2));
            assert_eq!(rx.recv(), Ok(1));
            assert_eq!(rx.recv(), Ok(2));
            sender.join().expect("sender thread").expect("delivered");
            // Every sender is gone and the queue is empty.
            assert_eq!(rx.recv(), Err(RecvError));
        }

        #[test]
        fn queued_messages_survive_sender_drop_and_every_one_is_delivered_once() {
            let (tx, rx) = unbounded::<u32>();
            let consumers: Vec<_> = (0..3)
                .map(|_| {
                    let rx = rx.clone();
                    std::thread::spawn(move || rx.iter().collect::<Vec<_>>())
                })
                .collect();
            for i in 0..300 {
                tx.send(i).expect("receivers alive");
            }
            drop(tx);
            let mut seen: Vec<u32> = consumers
                .into_iter()
                .flat_map(|c| c.join().expect("consumer thread"))
                .collect();
            seen.sort_unstable();
            assert_eq!(seen, (0..300).collect::<Vec<_>>());
        }

        #[test]
        fn send_fails_once_receivers_are_gone() {
            let (tx, rx) = bounded::<u32>(4);
            drop(rx);
            assert_eq!(tx.send(7), Err(SendError(7)));
        }

        #[test]
        fn recv_timeout_times_out_on_an_empty_channel() {
            let (_tx, rx) = unbounded::<u32>();
            assert_eq!(
                rx.recv_timeout(Duration::from_millis(5)),
                Err(RecvTimeoutError::Timeout)
            );
        }
    }
}
