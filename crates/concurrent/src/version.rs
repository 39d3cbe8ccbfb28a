//! Commit-version allocation.

use core::sync::atomic::{AtomicU64, Ordering};

/// Hands out the monotonically increasing commit versions used by OCC-WSI.
///
/// Version 0 is reserved for the pre-block state; the first committed
/// transaction takes version 1, mirroring Algorithm 1's `version' + 1`.
#[derive(Debug, Default)]
pub struct VersionAllocator {
    // Stores the last allocated version; `fetch_add` makes allocation
    // wait-free. The add is a release and `current` an acquire: whoever
    // learns of a version from the counter also sees what its allocator did
    // before allocating it — registering it as pending with the lock-free
    // `VersionGate`, which has no lock of its own to order the two.
    next: AtomicU64,
}

impl VersionAllocator {
    /// A fresh allocator whose next allocation is version 1.
    pub fn new() -> Self {
        Self::default()
    }

    /// Allocates the next commit version (1, 2, 3, ...).
    #[inline]
    pub fn allocate(&self) -> u64 {
        self.next.fetch_add(1, Ordering::Release) + 1
    }

    /// The most recently allocated version (0 if none yet): the version a new
    /// snapshot should be taken at.
    #[inline]
    pub fn current(&self) -> u64 {
        self.next.load(Ordering::Acquire)
    }

    /// Resets to the pre-block state (version 0) for the next block.
    pub fn reset(&self) {
        self.next.store(0, Ordering::Release);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn allocates_from_one() {
        let a = VersionAllocator::new();
        assert_eq!(a.current(), 0);
        assert_eq!(a.allocate(), 1);
        assert_eq!(a.allocate(), 2);
        assert_eq!(a.current(), 2);
        a.reset();
        assert_eq!(a.current(), 0);
        assert_eq!(a.allocate(), 1);
    }

    #[test]
    fn concurrent_allocations_are_unique() {
        let a = Arc::new(VersionAllocator::new());
        let mut handles = Vec::new();
        for _ in 0..8 {
            let a = Arc::clone(&a);
            handles.push(std::thread::spawn(move || {
                (0..500).map(|_| a.allocate()).collect::<Vec<u64>>()
            }));
        }
        let mut all: Vec<u64> = handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), 4000);
        assert_eq!(all[0], 1);
        assert_eq!(*all.last().unwrap(), 4000);
    }
}
