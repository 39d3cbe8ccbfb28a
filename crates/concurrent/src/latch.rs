//! The one-shot per-height root latch of the deferred-commitment apply stage.

use crate::sync::{Condvar, Mutex};

/// A one-shot hand-off slot: one producer [`RootLatch::set`]s a value once,
/// any number of consumers [`RootLatch::wait`] for it.
///
/// The deferred-root apply stage allocates one per height: the worker that
/// applies a block publishes its writes, releases the next height into
/// execution, and only then hashes the state root — setting the latch with
/// the verdict.
/// Everything that genuinely needs the root (commit publication, the header
/// check verdict, a child block's own verdict, the serial-replay equivalence
/// gate) waits on the latch, so the wait moves off the execution path while
/// the ordering of *checks* is unchanged. Waits only ever chain parent-ward
/// and every code path that creates a latch also sets it, so the chain of
/// waits is acyclic and always drains.
pub struct RootLatch<T> {
    slot: Mutex<Option<T>>,
    cond: Condvar,
}

impl<T: Clone> RootLatch<T> {
    /// An unset latch.
    pub fn new() -> Self {
        RootLatch {
            slot: Mutex::new(None),
            cond: Condvar::new(),
        }
    }

    /// Publishes the value and wakes all waiters. First set wins; a second
    /// set is ignored (the latch is one-shot).
    pub fn set(&self, value: T) {
        let mut g = self.slot.lock();
        if g.is_none() {
            *g = Some(value);
            self.cond.notify_all();
        }
    }

    /// Blocks until the value is published, then returns a clone of it.
    pub fn wait(&self) -> T {
        let mut g = self.slot.lock();
        while g.is_none() {
            self.cond.wait(&mut g);
        }
        g.as_ref().expect("checked above").clone()
    }

    /// The value if already published, without blocking.
    pub fn try_get(&self) -> Option<T> {
        self.slot.lock().clone()
    }
}

impl<T: Clone> Default for RootLatch<T> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::thread;

    #[test]
    fn root_latch_hands_off_once() {
        let l = Arc::new(RootLatch::<u64>::new());
        assert_eq!(l.try_get(), None);
        let waiter = {
            let l = Arc::clone(&l);
            thread::spawn(move || l.wait())
        };
        l.set(7);
        l.set(9); // one-shot: ignored
        assert_eq!(waiter.join().unwrap(), 7);
        assert_eq!(l.try_get(), Some(7));
        assert_eq!(l.wait(), 7); // set latch never blocks again
    }

    #[test]
    fn root_latch_wakes_many_waiters() {
        let l = Arc::new(RootLatch::<bool>::new());
        let waiters: Vec<_> = (0..4)
            .map(|_| {
                let l = Arc::clone(&l);
                thread::spawn(move || l.wait())
            })
            .collect();
        l.set(true);
        for w in waiters {
            assert!(w.join().unwrap());
        }
    }
}
