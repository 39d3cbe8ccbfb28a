//! Lock-free single-writer result slots.
//!
//! The validator's transaction-execution phase produces one result per
//! transaction index, and the scheduler guarantees **disjoint ownership**:
//! every index belongs to exactly one dependency subgraph, and a subgraph is
//! executed by exactly one worker job. [`ResultSlots`] exploits that to
//! publish results with a single release store per slot instead of a global
//! mutex — removing the per-transaction lock from the execution hot loop.
//!
//! Protocol (enforced with per-slot state machines, not locks):
//!
//! 1. **Publish phase** — for each index, the owning worker calls
//!    [`ResultSlots::publish`] exactly once (`EMPTY → FULL`, release store).
//! 2. **Drain phase** — after the completion barrier (the worker whose job
//!    finishes last, seen through an acquire-release countdown), that worker
//!    calls [`ResultSlots::take`] per slot (`FULL → TAKEN`, acquire CAS),
//!    *moving* the value out — no clone, no lock.
//!
//! A slot may legitimately stay `EMPTY` forever: when a block trips its
//! early-abort flag, the remaining subgraph jobs stop without executing
//! their transactions. [`ResultSlots::take`] returns `None` for those.
//! Double publishes and double takes, by contrast, indicate a scheduler bug
//! (an index claimed by two jobs) and panic.

use std::cell::UnsafeCell;
use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicU8, Ordering};

const EMPTY: u8 = 0;
const WRITING: u8 = 1;
const FULL: u8 = 2;
const TAKEN: u8 = 3;

/// A fixed-size array of single-writer, single-reader result cells.
pub struct ResultSlots<T> {
    states: Vec<AtomicU8>,
    cells: Vec<UnsafeCell<MaybeUninit<T>>>,
}

// SAFETY: every cell is guarded by its own atomic state machine. A cell's
// payload is written exactly once (EMPTY→WRITING→FULL, the FULL store is a
// release) and moved out exactly once (FULL→TAKEN via an acquire CAS), so no
// two threads ever access a payload concurrently.
unsafe impl<T: Send> Sync for ResultSlots<T> {}
unsafe impl<T: Send> Send for ResultSlots<T> {}

impl<T> ResultSlots<T> {
    /// `n` empty slots.
    pub fn new(n: usize) -> Self {
        ResultSlots {
            states: (0..n).map(|_| AtomicU8::new(EMPTY)).collect(),
            cells: (0..n)
                .map(|_| UnsafeCell::new(MaybeUninit::uninit()))
                .collect(),
        }
    }

    /// Number of slots.
    pub fn len(&self) -> usize {
        self.states.len()
    }

    /// True iff there are no slots.
    pub fn is_empty(&self) -> bool {
        self.states.is_empty()
    }

    /// Publishes `value` into slot `index`. Panics if the slot was already
    /// published — that means two workers claimed the same transaction.
    pub fn publish(&self, index: usize, value: T) {
        let state = &self.states[index];
        if state
            .compare_exchange(EMPTY, WRITING, Ordering::Acquire, Ordering::Relaxed)
            .is_err()
        {
            panic!("result slot {index} published twice");
        }
        // SAFETY: the EMPTY→WRITING transition above grants this thread
        // exclusive access to the cell.
        unsafe { (*self.cells[index].get()).write(value) };
        state.store(FULL, Ordering::Release);
    }

    /// Moves the value out of slot `index`, or `None` if it was never
    /// published (the block aborted early and this index's job was
    /// cancelled). Panics on a double take.
    pub fn take(&self, index: usize) -> Option<T> {
        let state = &self.states[index];
        match state.compare_exchange(FULL, TAKEN, Ordering::Acquire, Ordering::Relaxed) {
            Ok(_) => {
                // SAFETY: the FULL→TAKEN transition grants exclusive access,
                // and the acquire pairs with the publisher's release store,
                // so the payload write is visible.
                Some(unsafe { (*self.cells[index].get()).assume_init_read() })
            }
            Err(TAKEN) => panic!("result slot {index} taken twice"),
            Err(_) => None,
        }
    }
}

impl<T> Drop for ResultSlots<T> {
    fn drop(&mut self) {
        for (state, cell) in self.states.iter_mut().zip(&mut self.cells) {
            if *state.get_mut() == FULL {
                // SAFETY: FULL slots hold an initialized, never-taken value.
                unsafe { cell.get_mut().assume_init_drop() };
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn publish_then_take_moves_the_value() {
        let slots = ResultSlots::new(3);
        slots.publish(1, String::from("hello"));
        assert_eq!(slots.take(1), Some(String::from("hello")));
        assert_eq!(slots.take(0), None); // never published
    }

    #[test]
    #[should_panic(expected = "published twice")]
    fn double_publish_panics() {
        let slots = ResultSlots::new(1);
        slots.publish(0, 1u32);
        slots.publish(0, 2u32);
    }

    #[test]
    #[should_panic(expected = "taken twice")]
    fn double_take_panics() {
        let slots = ResultSlots::new(1);
        slots.publish(0, 1u32);
        let _ = slots.take(0);
        let _ = slots.take(0);
    }

    #[test]
    fn drop_releases_untaken_values() {
        let marker = Arc::new(());
        {
            let slots = ResultSlots::new(2);
            slots.publish(0, Arc::clone(&marker));
            slots.publish(1, Arc::clone(&marker));
            let _ = slots.take(0);
            // Slot 1 is dropped with the structure.
        }
        assert_eq!(Arc::strong_count(&marker), 1);
    }

    #[test]
    fn concurrent_publishers_disjoint_slots() {
        let slots = Arc::new(ResultSlots::new(64));
        let mut handles = Vec::new();
        for t in 0..4usize {
            let slots = Arc::clone(&slots);
            handles.push(std::thread::spawn(move || {
                for i in (t..64).step_by(4) {
                    slots.publish(i, i * 10);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        for i in 0..64 {
            assert_eq!(slots.take(i), Some(i * 10));
        }
    }
}
