//! Allocation budget of the wire decoder: reading a block off its bytes
//! allocates what the `Block` itself holds — the transaction `Vec`, the
//! profile `Vec`, one buffer per non-empty call data and two maps per
//! profile entry, `3·txs + 2` at most — each once at its final size: no
//! item tree, no per-item buffer, no regrowth. An entry that carries code
//! adds `1 + 2·codes`: its code map, and each code's bytes and their `Arc`
//! (the map regrows as it passes three codes, seven, ...). The blocks
//! measured here deploy nothing, so they carry none. Counted with a
//! `#[global_allocator]`, so this file holds one test and nothing else.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use blockpilot::block::wire::reference;
use blockpilot::block::{decode_block, encode_block};
use blockpilot::core::{OccWsiConfig, OccWsiProposer};
use blockpilot::txpool::TxPool;
use blockpilot::types::BlockHash;
use blockpilot::workload::{WorkloadConfig, WorkloadGen};

thread_local! {
    /// (allocations, reallocations) made by this thread while counting.
    static COUNTS: Cell<Option<(usize, usize)>> = const { Cell::new(None) };
}

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`; the bookkeeping
// touches only a `const`-initialized thread-local `Cell` of `Copy` data,
// which neither allocates nor registers a destructor.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        COUNTS.with(|c| c.set(c.get().map(|(a, r)| (a + 1, r))));
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        COUNTS.with(|c| c.set(c.get().map(|(a, r)| (a + 1, r))));
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        COUNTS.with(|c| c.set(c.get().map(|(a, r)| (a, r + 1))));
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Runs `f` and returns its result with the (allocations, reallocations)
/// this thread made meanwhile.
fn counted<T>(f: impl FnOnce() -> T) -> (T, (usize, usize)) {
    COUNTS.with(|c| c.set(Some((0, 0))));
    let out = f();
    let counts = COUNTS.with(|c| c.take()).expect("counting was on");
    (out, counts)
}

#[test]
fn decoding_a_block_allocates_only_what_the_block_holds() {
    // The benchmark's `mainnet_mix` block: transfers, token calls and swaps,
    // so some call data is empty and profiles come in every width.
    let mut gen = WorkloadGen::new(WorkloadConfig::default());
    let base = Arc::new(gen.genesis_state());
    let pool = TxPool::new();
    for tx in gen.next_block_txs() {
        pool.add(tx);
    }
    let block = OccWsiProposer::new(OccWsiConfig {
        threads: 2,
        env: gen.block_env(1),
        ..OccWsiConfig::default()
    })
    .propose(&pool, base, BlockHash::ZERO, 1)
    .block;
    let txs = block.tx_count();
    assert!(txs >= 100, "a full-size block, got {txs} transactions");
    let bytes = encode_block(&block);

    let (decoded, (allocs, reallocs)) = counted(|| decode_block(&bytes));
    assert_eq!(decoded.as_ref(), Ok(&block));

    // Exactly the block's own buffers: empty call data and empty footprints
    // hold none.
    let with_data = block.transactions.iter().filter(|tx| !tx.data.is_empty());
    let maps = block.profile.entries.iter();
    let maps = maps.map(|e| usize::from(!e.reads.is_empty()) + usize::from(!e.writes.is_empty()));
    let expected = 2 + with_data.count() + maps.sum::<usize>();
    assert_eq!(allocs, expected, "allocations decoding {txs} transactions");
    assert!(allocs <= 3 * txs + 2, "{allocs} > 3·{txs} + 2");
    assert_eq!(reallocs, 0, "a collection was regrown");

    // A rejected block costs no more: cut the bytes short anywhere.
    for cut in [bytes.len() - 1, bytes.len() / 2, 40] {
        let (out, (allocs, reallocs)) = counted(|| decode_block(&bytes[..cut]));
        assert!(out.is_err());
        assert!(allocs <= 3 * txs + 2 && reallocs == 0, "cut at {cut}");
    }

    // The item tree this replaced, for scale (and to show the counter
    // counts): thousands of allocations for the same block.
    let (tree, (tree_allocs, _)) = counted(|| reference::decode_block(&bytes));
    assert_eq!(tree.as_ref(), Ok(&block));
    assert!(
        tree_allocs > 10 * allocs,
        "reference made {tree_allocs} allocations"
    );
    println!(
        "{txs} txs, {} bytes: {allocs} allocations, 0 reallocations (item tree: {tree_allocs})",
        bytes.len()
    );
}
