//! Latches: a one-shot per-height root latch for the deferred-commitment
//! apply stage, and the per-version visibility gate of the two-phase proposer
//! commit.

use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::OnceLock;

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

    /// Whether the value has been published.
    pub fn is_set(&self) -> bool {
        self.slot.lock().is_some()
    }
}

impl<T: Clone> Default for RootLatch<T> {
    fn default() -> Self {
        Self::new()
    }
}

/// Flag of a version the gate has not been told about.
const UNSEEN: u8 = 0;
/// Flag of a version registered by Phase A and not yet published.
const PENDING: u8 = 1;
/// Flag of a fully published version.
const OPEN: u8 = 2;

/// Flags in the first chunk of a [`FlagTable`]; chunk `c` holds this many
/// shifted left by `c`, and no chunk is ever copied. A block's versions —
/// ≈ 130 in practice, its gas limit over the cheapest transaction (1 428 at
/// the default limit) at most — sit in the first chunk, the first three at
/// most.
const FIRST_CHUNK: u64 = 256;
/// Chunks a table can grow to: `FIRST_CHUNK * (2^CHUNKS - 1)` versions, four
/// thousand million.
const CHUNKS: usize = 24;

/// One atomic flag per version: a table that grows by whole chunks, each
/// allocated once by whichever thread first writes into it and never moved,
/// so a flag is read and written without any lock.
#[derive(Default)]
struct FlagTable {
    chunks: [OnceLock<Box<[AtomicU8]>>; CHUNKS],
}

impl FlagTable {
    /// The highest version the table has a flag for.
    const LAST_VERSION: u64 = FIRST_CHUNK * ((1 << CHUNKS) - 1);

    /// Chunk and offset of `version`'s flag (versions count from 1).
    fn locate(version: u64) -> (usize, usize) {
        assert!(
            (1..=Self::LAST_VERSION).contains(&version),
            "version {version} is outside the gate"
        );
        // Chunk `c` starts at flag `FIRST_CHUNK * (2^c - 1)`.
        let shifted = version - 1 + FIRST_CHUNK;
        let chunk = (shifted / FIRST_CHUNK).ilog2() as usize;
        (chunk, (shifted - (FIRST_CHUNK << chunk)) as usize)
    }

    /// The flag of `version`, or — when nothing was ever stored in its
    /// chunk, so that every flag there is unseen — the first version past
    /// that chunk.
    fn get(&self, version: u64) -> Result<&AtomicU8, u64> {
        let (chunk, offset) = Self::locate(version);
        match self.chunks[chunk].get() {
            Some(flags) => Ok(&flags[offset]),
            None => Err(version - offset as u64 + (FIRST_CHUNK << chunk)),
        }
    }

    /// The flag of `version`, allocating its chunk if need be.
    fn slot(&self, version: u64) -> &AtomicU8 {
        let (chunk, offset) = Self::locate(version);
        let flags = self.chunks[chunk].get_or_init(|| {
            (0..FIRST_CHUNK << chunk)
                .map(|_| AtomicU8::new(UNSEEN))
                .collect()
        });
        &flags[offset]
    }
}

/// Per-version visibility gate for the two-phase proposer commit.
///
/// Phase A of a commit allocates a version and [`VersionGate::register`]s it
/// as *pending* before the version becomes discoverable; Phase B publishes
/// the write set outside any global lock and then [`VersionGate::open`]s the
/// version. A snapshot reader that lands on a still-pending version waits in
/// [`VersionGate::wait_visible`] until every version at or below its
/// snapshot is fully published — instead of every committer blocking every
/// reader behind one coarse commit lock.
///
/// Registration must happen-before the version is discoverable by readers
/// (the proposer registers under its commit-sequence lock and only then
/// bumps the [`crate::VersionAllocator`], whose `allocate` is a release and
/// whose `current` an acquire); with that, a reader waiting on version `v`
/// is guaranteed to find the flag of every version `≤ v` set.
///
/// The gate is lock-free: one atomic flag per version and a counter of the
/// longest fully opened prefix, moved forward with `fetch_max` by whoever
/// notices it can move — an opener or a waiter. A commit costs a store and
/// a short scan; a snapshot behind the prefix costs one load. The window
/// between Phase A and Phase B is a microsecond of map inserts, so a waiter
/// spins for it — a few dozen iterations, then `yield_now` between looks:
/// a proposer's workers may outnumber the cores, and a waiter that keeps
/// spinning would burn the quantum the publisher needs to finish.
///
/// Every operation on the flags and the counter is `SeqCst`. An opener
/// stores its flag and then reads its neighbours'; two openers of adjacent
/// versions doing so with weaker orderings may each miss the other's store
/// and leave the counter behind a fully opened prefix until the next scan.
#[derive(Default)]
pub struct VersionGate {
    /// All versions `≤ visible` are opened.
    visible: AtomicU64,
    flags: FlagTable,
}

/// Spins before a waiter starts yielding its time slice between looks.
const SPINS_BEFORE_YIELD: u32 = 32;

impl VersionGate {
    /// A gate with no versions registered (every version counts as visible
    /// until it is registered).
    pub fn new() -> Self {
        Self::default()
    }

    /// Marks `version` pending. Must be called before the version becomes
    /// discoverable by snapshot readers.
    pub fn register(&self, version: u64) {
        self.flags.slot(version).store(PENDING, Ordering::SeqCst);
    }

    /// Marks `version` fully published: readers whose snapshot it was
    /// blocking go on.
    pub fn open(&self, version: u64) {
        self.flags.slot(version).store(OPEN, Ordering::SeqCst);
        self.advance(0);
    }

    /// Blocks until every registered version `≤ version` has been opened.
    ///
    /// Versions that were never registered do not block: the gate only
    /// tracks the pending window between Phase A and Phase B.
    pub fn wait_visible(&self, version: u64) {
        if self.visible.load(Ordering::SeqCst) < version {
            self.advance(version);
        }
    }

    /// Walks the flags upward from the prefix counter. Through `wait_to` it
    /// waits out pending flags and steps over never-registered ones (a whole
    /// chunk at a time where nothing was ever registered); the counter
    /// itself follows opened flags only, for as long as they run — past
    /// `wait_to` too.
    fn advance(&self, wait_to: u64) {
        let wait_to = wait_to.min(FlagTable::LAST_VERSION);
        let start = self.visible.load(Ordering::SeqCst);
        let mut prefix = start;
        let mut next = start + 1;
        let mut looks = 0u32;
        while next <= FlagTable::LAST_VERSION {
            let flag = match self.flags.get(next) {
                Ok(flag) => flag.load(Ordering::SeqCst),
                Err(_) if next > wait_to => break,
                Err(past_chunk) => {
                    next = past_chunk;
                    continue;
                }
            };
            if flag == OPEN && prefix + 1 == next {
                prefix = next;
            } else if next > wait_to {
                break;
            } else if flag == PENDING {
                looks += 1;
                if looks < SPINS_BEFORE_YIELD {
                    std::hint::spin_loop();
                } else {
                    std::thread::yield_now();
                }
                continue;
            }
            next += 1;
        }
        if prefix > start {
            self.visible.fetch_max(prefix, Ordering::SeqCst);
        }
    }

    /// The longest prefix of versions that are all opened.
    pub fn visible(&self) -> u64 {
        self.visible.load(Ordering::SeqCst)
    }

    /// Number of versions currently in the pending window (diagnostics: a
    /// scan of the allocated flags, not a counter the commit path pays for).
    pub fn pending(&self) -> usize {
        let allocated = self.flags.chunks.iter().filter_map(OnceLock::get);
        allocated
            .flat_map(|flags| flags.iter())
            .filter(|flag| flag.load(Ordering::SeqCst) == PENDING)
            .count()
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
        assert!(!l.is_set());
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

    #[test]
    fn unregistered_versions_are_visible() {
        let g = VersionGate::new();
        g.wait_visible(0);
        g.wait_visible(42); // never registered: must not block
        assert_eq!(g.pending(), 0);
    }

    #[test]
    fn visibility_tracks_the_pending_window() {
        let g = VersionGate::new();
        g.register(1);
        g.register(2);
        assert_eq!(g.visible(), 0);
        g.open(1);
        assert_eq!(g.visible(), 1);
        g.wait_visible(1);
        g.open(2);
        assert_eq!(g.visible(), 2);
        g.wait_visible(2);
        assert_eq!(g.pending(), 0);
    }

    #[test]
    fn out_of_order_opens_hold_the_watermark() {
        let g = VersionGate::new();
        g.register(1);
        g.register(2);
        g.register(3);
        g.open(3);
        g.open(2);
        // Version 1 still pending: nothing at or above it is visible.
        assert_eq!(g.visible(), 0);
        g.open(1);
        assert_eq!(g.visible(), 3);
    }

    #[test]
    fn never_registered_stretches_are_stepped_over() {
        let g = VersionGate::new();
        // Far beyond the first chunks, with nothing registered in between,
        // and beyond the table altogether: neither blocks nor scans for long.
        g.register(1_000_000);
        g.wait_visible(999_999);
        g.open(1_000_000);
        g.wait_visible(1_000_000);
        g.wait_visible(u64::MAX);
        // The prefix counter follows opened versions only.
        assert_eq!(g.visible(), 0);
        assert_eq!(g.pending(), 0);
    }

    #[test]
    fn flags_are_laid_out_in_doubling_chunks() {
        assert_eq!(FlagTable::locate(1), (0, 0));
        assert_eq!(FlagTable::locate(256), (0, 255));
        assert_eq!(FlagTable::locate(257), (1, 0));
        assert_eq!(FlagTable::locate(768), (1, 511));
        assert_eq!(FlagTable::locate(769), (2, 0));
        let last = FlagTable::LAST_VERSION;
        assert_eq!(
            FlagTable::locate(last),
            (CHUNKS - 1, (FIRST_CHUNK << (CHUNKS - 1)) as usize - 1)
        );
        let t = FlagTable::default();
        assert_eq!(t.get(300).err(), Some(769), "chunk 1 is untouched");
        t.slot(300).store(PENDING, Ordering::SeqCst);
        assert_eq!(t.get(301).map(|f| f.load(Ordering::SeqCst)), Ok(UNSEEN));
    }

    /// Runs `f` on its own thread and fails if it has not returned within
    /// `limit`: a waiter the gate never releases must fail the test, not
    /// hang it.
    fn within(limit: std::time::Duration, f: impl FnOnce() + Send + 'static) {
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        let worker = thread::spawn(move || {
            f();
            let _ = done_tx.send(());
        });
        match done_rx.recv_timeout(limit) {
            Ok(()) => worker.join().unwrap(),
            // The sender was dropped without sending: `f` panicked.
            Err(std::sync::mpsc::RecvTimeoutError::Disconnected) => {
                std::panic::resume_unwind(worker.join().unwrap_err())
            }
            Err(std::sync::mpsc::RecvTimeoutError::Timeout) => {
                panic!("not done after {limit:?}: a waiter was never released")
            }
        }
    }

    /// The proposer's protocol under load: writers register a version under
    /// an admission lock before the allocator reveals it, hold a random
    /// handful, and open them in random order; readers wait on whatever the
    /// allocator shows. Above `ALL_REGISTERED` one version in eight is
    /// allocated but never registered (nor opened).
    #[test]
    fn stress_gate_random_open_order_within_a_window() {
        use crate::VersionAllocator;
        use bp_types::Rng;
        use std::sync::atomic::AtomicBool;

        const WRITERS: u64 = 4;
        const READERS: u64 = 4;
        const VERSIONS: u64 = 100_000;
        const ALL_REGISTERED: u64 = 97_000;
        const WINDOW: usize = 8;

        struct Shared {
            gate: VersionGate,
            versions: VersionAllocator,
            admit: Mutex<Rng>,
            /// Everybody starts together.
            start: std::sync::Barrier,
            /// `opened[v]` is set just before `gate.open(v)` is called.
            opened: Vec<AtomicBool>,
            /// `registered[v]` is set under the admission lock.
            registered: Vec<AtomicBool>,
        }

        impl Shared {
            /// Everything registered in `(from, to]` has been opened.
            fn assert_opened(&self, from: u64, to: u64, what: &str) {
                for v in from + 1..=to {
                    assert!(
                        !self.registered[v as usize].load(Ordering::SeqCst)
                            || self.opened[v as usize].load(Ordering::SeqCst),
                        "{what} {to} while version {v} is registered and not opened"
                    );
                }
            }
        }

        within(std::time::Duration::from_secs(120), || {
            let flags = || (0..=VERSIONS + 1).map(|_| AtomicBool::new(false)).collect();
            let shared = Arc::new(Shared {
                gate: VersionGate::new(),
                versions: VersionAllocator::new(),
                admit: Mutex::new(Rng::seed_from_u64(0x6a7e)),
                start: std::sync::Barrier::new((WRITERS + READERS) as usize),
                opened: flags(),
                registered: flags(),
            });

            let writers: Vec<_> = (0..WRITERS)
                .map(|w| {
                    let s = Arc::clone(&shared);
                    thread::spawn(move || {
                        let mut rng = Rng::seed_from_u64(0x6a7e_0100 + w);
                        let mut held: Vec<u64> = Vec::new();
                        let mut exhausted = false;
                        s.start.wait();
                        while !exhausted {
                            // Phase A, a few times over.
                            for _ in 0..rng.gen_range(1..=WINDOW) {
                                let mut admit = s.admit.lock();
                                let version = s.versions.current() + 1;
                                if version > VERSIONS {
                                    exhausted = true;
                                    break;
                                }
                                let ghost = version > ALL_REGISTERED && admit.gen_range(0..8) == 0;
                                if !ghost {
                                    s.registered[version as usize].store(true, Ordering::SeqCst);
                                    s.gate.register(version);
                                    held.push(version);
                                }
                                assert_eq!(s.versions.allocate(), version);
                            }
                            // Phase B, in any order — giving the processor
                            // away now and then while versions are pending,
                            // so that readers meet them on a host with
                            // fewer cores than threads too.
                            while !held.is_empty() {
                                if rng.gen_range(0..4) == 0 {
                                    thread::yield_now();
                                }
                                let version = held.swap_remove(rng.gen_range(0..held.len()));
                                s.opened[version as usize].store(true, Ordering::SeqCst);
                                s.gate.open(version);
                            }
                        }
                    })
                })
                .collect();

            let readers: Vec<_> = (0..READERS)
                .map(|_| {
                    let s = Arc::clone(&shared);
                    thread::spawn(move || {
                        let (mut waited_to, mut prefix) = (0, 0);
                        s.start.wait();
                        while waited_to < VERSIONS {
                            let version = s.versions.current();
                            s.gate.wait_visible(version);
                            s.assert_opened(waited_to, version, "wait_visible returned for");
                            waited_to = version;
                            let visible = s.gate.visible();
                            assert!(
                                visible >= prefix,
                                "visible() fell from {prefix} to {visible}"
                            );
                            assert!(visible <= s.versions.current());
                            for v in prefix + 1..=visible {
                                assert!(
                                    s.opened[v as usize].load(Ordering::SeqCst),
                                    "visible() is {visible} and version {v} was never opened"
                                );
                            }
                            prefix = visible;
                        }
                    })
                })
                .collect();

            for t in writers.into_iter().chain(readers) {
                t.join().unwrap();
            }
            assert_eq!(shared.versions.current(), VERSIONS);
            assert_eq!(shared.gate.pending(), 0, "every registered version opened");
            assert!(shared.gate.visible() >= ALL_REGISTERED);

            // A waiter on the version opened last, with nothing else going
            // on to move the counter for it.
            let last = VERSIONS + 1;
            shared.gate.register(last);
            let waiting = Arc::new(AtomicBool::new(false));
            let waiter = {
                let (s, waiting) = (Arc::clone(&shared), Arc::clone(&waiting));
                thread::spawn(move || {
                    waiting.store(true, Ordering::SeqCst);
                    s.gate.wait_visible(last);
                    assert!(s.opened[last as usize].load(Ordering::SeqCst));
                })
            };
            while !waiting.load(Ordering::SeqCst) {
                thread::yield_now();
            }
            shared.opened[last as usize].store(true, Ordering::SeqCst);
            shared.gate.open(last);
            waiter.join().unwrap();
        });
    }

    #[test]
    fn waiters_wake_when_their_version_opens() {
        let g = Arc::new(VersionGate::new());
        g.register(1);
        g.register(2);
        let waiter = {
            let g = Arc::clone(&g);
            thread::spawn(move || {
                g.wait_visible(2);
                g.visible()
            })
        };
        // Open out of order; the waiter needs both.
        g.open(2);
        g.open(1);
        assert!(waiter.join().unwrap() >= 2);
    }
}
