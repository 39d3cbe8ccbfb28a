//! A deterministic network simulation of BlockPilot's DiCE loop
//! (Dissemination → Consensus → Execution, §3.2 of the paper).
//!
//! `N` validator nodes share a transaction stream. At every height a
//! round-robin proposer packs a block with OCC-WSI and broadcasts it with
//! per-link latencies drawn from a seeded RNG; on *fork heights* a second
//! proposer races with a competing block, so validators receive multiple
//! blocks at one height and the pipeline's same-height concurrency and
//! parent-parking paths are exercised exactly as §3.4 describes. Fork
//! choice is deterministic (lowest block hash wins), so every node must
//! converge to the identical canonical chain and MPT state root — which
//! [`run_network`] asserts and reports.
//!
//! [`run_network_with_restart`] additionally backs one node with a
//! persistent [`bp_store::Store`], kills it mid-simulation, reopens the
//! store, and asserts the recovered node catches up to the same head and
//! state root as the nodes that never went down.

#![warn(missing_docs)]

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::path::Path;
use std::sync::Arc;

use blockpilot_core::{
    ConflictGranularity, OccWsiConfig, OccWsiProposer, PipelineConfig, ValidationHandle, Validator,
};
use bp_block::Block;
use bp_evm::BlockEnv;
use bp_state::WorldState;
use bp_store::Store;
use bp_types::{BlockHash, Height, Rng, H256};
use bp_workload::{WorkloadConfig, WorkloadGen};

/// Network-simulation parameters.
#[derive(Clone, Debug)]
pub struct NetConfig {
    /// Number of validator nodes.
    pub nodes: usize,
    /// Chain length to run.
    pub heights: u64,
    /// Pipeline workers per node.
    pub workers_per_node: usize,
    /// OCC-WSI threads per proposer.
    pub proposer_threads: usize,
    /// Every `fork_every`-th height two proposers race (0 = never fork).
    pub fork_every: u64,
    /// Per-link delivery latency range, in ticks. One height spans
    /// [`NetConfig::ticks_per_height`] ticks, so latencies beyond that
    /// deliver blocks out of height order.
    pub latency: std::ops::Range<u64>,
    /// Virtual ticks between consecutive proposals.
    pub ticks_per_height: u64,
    /// RNG seed for latencies and the workload.
    pub seed: u64,
    /// The transaction workload.
    pub workload: WorkloadConfig,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig {
            nodes: 4,
            heights: 6,
            workers_per_node: 2,
            proposer_threads: 2,
            fork_every: 3,
            latency: 1..30,
            ticks_per_height: 20,
            seed: 0xD1CE,
            workload: WorkloadConfig {
                accounts: 100,
                tokens: 3,
                amm_pairs: 1,
                txs_per_block: 24,
                tx_jitter: 4,
                ..WorkloadConfig::default()
            },
        }
    }
}

/// Seeded per-link latency sampler.
///
/// Each link gets an independent, individually deterministic RNG derived
/// from the base seed, so delay sequences do not depend on the order links
/// are polled in. The discrete-event sim interprets draws as virtual ticks;
/// the `bp-node` process-local harness interprets the same draws as
/// microseconds of real sleep, giving both the same `NetConfig`-style knob.
pub struct LinkDelays {
    rngs: Vec<Rng>,
    range: std::ops::Range<u64>,
}

impl LinkDelays {
    /// A sampler for `links` independent links drawing from `range`.
    pub fn new(links: usize, range: std::ops::Range<u64>, seed: u64) -> Self {
        let rngs = (0..links as u64)
            .map(|i| Rng::seed_from_u64(seed ^ 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(i + 1)))
            .collect();
        LinkDelays { rngs, range }
    }

    /// The next delay on `link`. An empty range (e.g. `0..0`) means "no
    /// injected latency" and always yields the range start.
    pub fn next_delay(&mut self, link: usize) -> u64 {
        if self.range.is_empty() {
            return self.range.start;
        }
        self.rngs[link].gen_range(self.range.clone())
    }

    /// Number of links the sampler covers.
    pub fn links(&self) -> usize {
        self.rngs.len()
    }
}

/// Per-node block-delivery latency, in virtual ticks.
#[derive(Clone, Debug, Default)]
pub struct LatencyStats {
    /// Smallest delivery latency observed.
    pub min: u64,
    /// Largest delivery latency observed.
    pub max: u64,
    /// Mean delivery latency.
    pub avg: f64,
    /// Number of deliveries the node received.
    pub deliveries: u64,
}

impl LatencyStats {
    fn record(&mut self, latency: u64) {
        if self.deliveries == 0 {
            self.min = latency;
            self.max = latency;
        } else {
            self.min = self.min.min(latency);
            self.max = self.max.max(latency);
        }
        // Accumulate the sum in `avg` until `finish` divides it.
        self.avg += latency as f64;
        self.deliveries += 1;
    }

    fn finish(&mut self) {
        if self.deliveries > 0 {
            self.avg /= self.deliveries as f64;
        }
    }
}

/// What the simulation observed.
#[derive(Clone, Debug)]
pub struct SimReport {
    /// Heights processed.
    pub heights: u64,
    /// Heights where two proposers raced.
    pub forks: u64,
    /// Uncle blocks recorded per node at the end (same on every node).
    pub uncles: usize,
    /// Total transactions across the canonical chain.
    pub total_txs: usize,
    /// Canonical head state root every node agreed on.
    pub final_root: H256,
    /// True iff all nodes converged to the same head (asserted internally
    /// too).
    pub converged: bool,
    /// Blocks delivered out of height order somewhere in the network
    /// (exercises the pipeline's parent-parking path).
    pub out_of_order_deliveries: u64,
    /// Min/avg/max block-delivery latency observed per node.
    pub delivery_latency: Vec<LatencyStats>,
}

/// What the kill-and-reopen scenario observed. All equalities described
/// here are asserted inside [`run_network_with_restart`].
#[derive(Clone, Debug)]
pub struct RestartReport {
    /// Head the restarted node recovered from disk: exactly the canonical
    /// winner of the stop height — never a torn or partial block.
    pub recovered_head: (BlockHash, Height),
    /// Head after catch-up; identical on every node.
    pub final_head: (BlockHash, Height),
    /// State root at the final head; identical on every node, and
    /// resolvable from the restarted node's on-disk trie store.
    pub final_root: H256,
}

/// The deterministic block DAG the proposers publish, shared by every
/// simulation entry point. Proposals chain through the fork-choice winner
/// (smallest hash) at each height.
struct ChainPlan {
    genesis: WorldState,
    candidates: Vec<Vec<Block>>,
    forks: u64,
    total_txs: usize,
}

impl ChainPlan {
    fn winner_at(&self, h_idx: usize) -> BlockHash {
        self.candidates[h_idx]
            .iter()
            .map(Block::hash)
            .min()
            .expect("non-empty height")
    }
}

struct Delivery {
    latency: u64,
    seq: u64,
    node: usize,
    // Blocks travel over the wire in their canonical RLP encoding; the
    // receiver decodes (strictly) before validating.
    bytes: Arc<Vec<u8>>,
}

fn pipeline_config(config: &NetConfig) -> PipelineConfig {
    PipelineConfig {
        workers: config.workers_per_node,
        granularity: ConflictGranularity::Account,
        ..Default::default()
    }
}

/// Proposal phase: build the block DAG deterministically (independent of
/// the validators and of delivery latencies).
fn build_chain(config: &NetConfig) -> ChainPlan {
    let mut gen = WorkloadGen::new(config.workload.clone());
    let genesis = gen.genesis_state();
    let mut candidates: Vec<Vec<Block>> = Vec::new();
    // The genesis hash is a pure function of the genesis state — identical
    // to what every `Validator` computes for itself.
    let mut parent = Block {
        header: bp_block::genesis_header(genesis.state_root()),
        transactions: vec![],
        profile: bp_block::BlockProfile::new(),
    }
    .hash();
    let mut parent_state = Arc::new(genesis.clone());
    let mut forks = 0u64;
    let mut total_txs = 0usize;
    for height in 1..=config.heights {
        let txs = gen.next_block_txs();
        total_txs += txs.len();
        let racing = config.fork_every != 0 && height % config.fork_every == 0 && txs.len() >= 2;
        let mut blocks = Vec::new();
        // Competing proposers select different subsets of the mempool, but a
        // sender's nonce chain must stay within one proposal — split by
        // sender, not by position.
        let splits: Vec<Vec<bp_evm::Transaction>> = if racing {
            forks += 1;
            let (even, odd): (Vec<_>, Vec<_>) = txs
                .iter()
                .cloned()
                .partition(|tx| tx.sender.as_bytes()[19] % 2 == 0);
            if even.is_empty() || odd.is_empty() {
                vec![txs.clone()]
            } else {
                vec![even, odd]
            }
        } else {
            vec![txs.clone()]
        };
        for (i, split) in splits.iter().enumerate() {
            let proposer_node = (height as usize + i) % config.nodes;
            let engine = OccWsiProposer::new(OccWsiConfig {
                threads: config.proposer_threads,
                env: BlockEnv {
                    number: height,
                    coinbase: bp_types::Address::from_index(9_000_000 + proposer_node as u64),
                    ..gen.block_env(height)
                },
                ..OccWsiConfig::default()
            });
            let pool = bp_txpool::TxPool::new();
            for tx in split {
                pool.add(tx.clone());
            }
            let proposal = engine.propose(&pool, Arc::clone(&parent_state), parent, height);
            blocks.push((proposal.block, proposal.post_state));
        }
        // Fork choice: smallest hash wins; the winner parents the next
        // height.
        let winner = blocks
            .iter()
            .enumerate()
            .min_by_key(|(_, (b, _))| b.hash())
            .map(|(i, _)| i)
            .expect("at least one block");
        parent = blocks[winner].0.hash();
        parent_state = Arc::new(blocks[winner].1.clone());
        candidates.push(blocks.into_iter().map(|(b, _)| b).collect());
    }
    ChainPlan {
        genesis,
        candidates,
        forks,
        total_txs,
    }
}

/// Runs the simulation to completion. Panics if the network fails to
/// converge — that would be a consensus-safety bug.
pub fn run_network(config: NetConfig) -> SimReport {
    assert!(config.nodes >= 1);
    assert!(config.heights >= 1);
    let mut rng = Rng::seed_from_u64(config.seed);
    let plan = build_chain(&config);

    let nodes: Vec<Validator> = (0..config.nodes)
        .map(|_| Validator::new(pipeline_config(&config), plan.genesis.clone()))
        .collect();

    // --- Dissemination phase: broadcast with seeded latencies. -----------
    let mut queue: BinaryHeap<Reverse<(u64, u64)>> = BinaryHeap::new();
    let mut payloads: Vec<Option<Delivery>> = Vec::new();
    let mut seq = 0u64;
    for (h_idx, blocks) in plan.candidates.iter().enumerate() {
        let publish_tick = (h_idx as u64 + 1) * config.ticks_per_height;
        for block in blocks {
            let bytes = Arc::new(bp_block::encode_block(block));
            for node in 0..config.nodes {
                let latency = rng.gen_range(config.latency.clone());
                let tick = publish_tick + latency;
                queue.push(Reverse((tick, seq)));
                payloads.push(Some(Delivery {
                    latency,
                    seq,
                    node,
                    bytes: Arc::clone(&bytes),
                }));
                seq += 1;
            }
        }
    }

    // --- Execution phase: deliver in tick order; validators pipeline. ---
    let mut handles: Vec<Vec<(u64, ValidationHandle)>> =
        (0..config.nodes).map(|_| Vec::new()).collect();
    let mut last_height_seen = vec![0u64; config.nodes];
    let mut out_of_order = 0u64;
    let mut latency_stats = vec![LatencyStats::default(); config.nodes];
    while let Some(Reverse((_, s))) = queue.pop() {
        let delivery = payloads[s as usize].take().expect("payload exists");
        latency_stats[delivery.node].record(delivery.latency);
        let block = bp_block::decode_block(&delivery.bytes).expect("honest wire encoding");
        let height = block.height();
        if height < last_height_seen[delivery.node] {
            out_of_order += 1;
        }
        last_height_seen[delivery.node] = last_height_seen[delivery.node].max(height);
        let handle = nodes[delivery.node].receive_block(block);
        handles[delivery.node].push((delivery.seq, handle));
    }
    for stats in &mut latency_stats {
        stats.finish();
    }
    for node_handles in handles {
        for (_, handle) in node_handles {
            let outcome = handle.wait();
            assert!(
                outcome.is_valid(),
                "honest block rejected: {:?}",
                outcome.result
            );
        }
    }

    // --- Consensus phase: apply the deterministic fork choice. ----------
    for node in &nodes {
        for h_idx in 0..plan.candidates.len() {
            assert!(
                node.commit_canonical(plan.winner_at(h_idx)),
                "fork choice failed at height {}",
                h_idx + 1
            );
        }
    }

    // --- Convergence check. ----------------------------------------------
    let heads: Vec<(BlockHash, u64)> = nodes
        .iter()
        .map(|n| n.head().expect("chain advanced"))
        .collect();
    let converged = heads.iter().all(|h| h == &heads[0]);
    assert!(converged, "nodes diverged: {heads:?}");
    let uncles: usize = (1..=config.heights).map(|h| nodes[0].uncles_at(h)).sum();
    let final_root = plan
        .candidates
        .last()
        .and_then(|blocks| blocks.iter().min_by_key(|b| b.hash()))
        .map(|b| b.header.state_root)
        .expect("at least one height");

    SimReport {
        heights: config.heights,
        forks: plan.forks,
        uncles,
        total_txs: plan.total_txs,
        final_root,
        converged,
        out_of_order_deliveries: out_of_order,
        delivery_latency: latency_stats,
    }
}

/// Kill-and-reopen scenario: node 0 runs on a persistent [`Store`] rooted
/// at `store_dir`, processes heights `1..=stop_height`, receives (but never
/// commits) the next height's candidates, and is then dropped — simulating
/// a crash whose most recent work never reached a durable commit. The
/// surviving in-memory nodes finish the chain. Node 0's store is then
/// reopened: cold-start replay must recover **exactly** the head it had
/// durably committed at `stop_height`, after which the node catches up on
/// the missed heights and must converge to the same canonical head and MPT
/// state root as the nodes that never restarted. Every guarantee in
/// [`RestartReport`] is asserted internally; the report is returned for
/// inspection.
pub fn run_network_with_restart(
    config: NetConfig,
    stop_height: u64,
    store_dir: &Path,
) -> RestartReport {
    assert!(config.nodes >= 2, "restart scenario needs a surviving node");
    assert!(
        stop_height >= 1 && stop_height < config.heights,
        "stop height must be inside the simulated chain"
    );
    let pc = || pipeline_config(&config);
    let plan = build_chain(&config);

    // Delivers one height's candidates to a node and commits the winner.
    let settle_height = |node: &Validator, h_idx: usize| {
        let handles: Vec<ValidationHandle> = plan.candidates[h_idx]
            .iter()
            .map(|block| {
                let bytes = bp_block::encode_block(block);
                let block = bp_block::decode_block(&bytes).expect("honest wire encoding");
                node.receive_block(block)
            })
            .collect();
        for handle in handles {
            let outcome = handle.wait();
            assert!(
                outcome.is_valid(),
                "honest block rejected: {:?}",
                outcome.result
            );
        }
        assert!(
            node.commit_canonical(plan.winner_at(h_idx)),
            "fork choice failed at height {}",
            h_idx + 1
        );
    };

    let durable = Validator::with_store(
        pc(),
        plan.genesis.clone(),
        Store::open(store_dir).expect("open fresh store"),
    )
    .expect("store-backed validator");
    let survivors: Vec<Validator> = (1..config.nodes)
        .map(|_| Validator::new(pc(), plan.genesis.clone()))
        .collect();

    // Phase 1: the whole network settles heights 1..=stop_height.
    for h_idx in 0..stop_height as usize {
        settle_height(&durable, h_idx);
        for node in &survivors {
            settle_height(node, h_idx);
        }
    }
    let head_at_stop = durable.head().expect("chain advanced");
    assert_eq!(head_at_stop.1, stop_height);
    // The doomed node validates the next height's candidates but crashes
    // before fork choice commits any of them: that uncommitted work must
    // not leak into what recovery reconstructs.
    for block in &plan.candidates[stop_height as usize] {
        let outcome = durable.receive_block(block.clone()).wait();
        assert!(outcome.is_valid());
    }
    drop(durable); // the crash

    // Phase 2: survivors finish the chain without the downed node.
    for h_idx in stop_height as usize..plan.candidates.len() {
        for node in &survivors {
            settle_height(node, h_idx);
        }
    }

    // Phase 3: reopen the store; cold-start replay recovers the durable
    // head, then the node catches up on everything it missed.
    let recovered = Validator::with_store(
        pc(),
        plan.genesis.clone(),
        Store::open(store_dir).expect("reopen store"),
    )
    .expect("recovery from durable store");
    let recovered_head = recovered.head().expect("recovered chain");
    assert_eq!(
        recovered_head, head_at_stop,
        "recovery must land exactly on the last durable commit"
    );
    for h_idx in stop_height as usize..plan.candidates.len() {
        settle_height(&recovered, h_idx);
    }

    let final_head = recovered.head().expect("caught up");
    let final_root = recovered.head_state_root().expect("caught up");
    for node in &survivors {
        assert_eq!(node.head().expect("head"), final_head, "heads diverged");
        assert_eq!(
            node.head_state_root().expect("root"),
            final_root,
            "state roots diverged"
        );
    }
    // The final state is durable too: its trie must resolve entirely from
    // the on-disk node store.
    recovered
        .with_store_ref(|store| {
            let trie = store.open_trie(final_root).expect("final root on disk");
            assert_eq!(trie.root_hash(), final_root);
        })
        .expect("node is store-backed");

    RestartReport {
        recovered_head,
        final_head,
        final_root,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_latency_sane(report: &SimReport, config: &NetConfig) {
        assert_eq!(report.delivery_latency.len(), config.nodes);
        for stats in &report.delivery_latency {
            assert!(stats.deliveries > 0, "every node receives blocks");
            assert!(stats.min <= stats.max);
            assert!(stats.avg >= stats.min as f64 && stats.avg <= stats.max as f64);
            assert!(stats.min >= config.latency.start);
            assert!(stats.max < config.latency.end);
        }
    }

    #[test]
    fn small_network_converges() {
        let config = NetConfig {
            nodes: 3,
            heights: 4,
            fork_every: 2,
            ..NetConfig::default()
        };
        let report = run_network(config.clone());
        assert!(report.converged);
        assert_eq!(report.heights, 4);
        assert_eq!(report.forks, 2);
        assert_eq!(report.uncles, 2, "each fork leaves one uncle");
        assert!(report.total_txs > 0);
        assert_latency_sane(&report, &config);
    }

    #[test]
    fn forkless_network_has_no_uncles() {
        let config = NetConfig {
            nodes: 2,
            heights: 3,
            fork_every: 0,
            ..NetConfig::default()
        };
        let report = run_network(config.clone());
        assert!(report.converged);
        assert_eq!(report.forks, 0);
        assert_eq!(report.uncles, 0);
        assert_latency_sane(&report, &config);
    }

    #[test]
    fn deterministic_given_seed() {
        // OCC-WSI with multiple worker threads may commit any serializable
        // order (the block differs run to run by design); a single proposer
        // thread makes the chain content a pure function of the seeds.
        let config = NetConfig {
            proposer_threads: 1,
            ..NetConfig::default()
        };
        let a = run_network(config.clone());
        let b = run_network(config.clone());
        assert_eq!(a.final_root, b.final_root);
        assert_eq!(a.out_of_order_deliveries, b.out_of_order_deliveries);
        for (sa, sb) in a.delivery_latency.iter().zip(&b.delivery_latency) {
            assert_eq!(
                (sa.min, sa.max, sa.deliveries),
                (sb.min, sb.max, sb.deliveries)
            );
            assert_eq!(sa.avg, sb.avg);
        }
        let c = run_network(NetConfig {
            seed: 777, // different latencies, same workload
            ..config
        });
        assert_eq!(
            a.final_root, c.final_root,
            "chain content ignores latencies"
        );
    }

    #[test]
    fn high_latency_forces_out_of_order_delivery() {
        let config = NetConfig {
            nodes: 3,
            heights: 6,
            latency: 1..80,
            ticks_per_height: 10,
            ..NetConfig::default()
        };
        let report = run_network(config.clone());
        assert!(report.converged);
        assert!(
            report.out_of_order_deliveries > 0,
            "latency range should scramble delivery order"
        );
        assert_latency_sane(&report, &config);
    }

    #[test]
    fn single_node_network() {
        let report = run_network(NetConfig {
            nodes: 1,
            heights: 3,
            ..NetConfig::default()
        });
        assert!(report.converged);
    }

    #[test]
    fn restarted_node_recovers_and_converges() {
        let dir = bp_store::store::test_dir("net-restart");
        // Single-threaded proposals so the plan is reproducible across the
        // two runs compared below (multi-threaded OCC-WSI packs blocks in a
        // scheduling-dependent order).
        let config = NetConfig {
            nodes: 3,
            heights: 5,
            fork_every: 2,
            proposer_threads: 1,
            ..NetConfig::default()
        };
        let report = run_network_with_restart(config.clone(), 3, &dir);
        assert_eq!(report.recovered_head.1, 3);
        assert_eq!(report.final_head.1, 5);
        // The live network over the same plan agrees with the restarted
        // node's final root.
        let live = run_network(config);
        assert_eq!(report.final_root, live.final_root);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn restart_at_first_height_replays_genesis_only() {
        let dir = bp_store::store::test_dir("net-restart-early");
        let config = NetConfig {
            nodes: 2,
            heights: 3,
            fork_every: 0,
            ..NetConfig::default()
        };
        let report = run_network_with_restart(config, 1, &dir);
        assert_eq!(report.recovered_head.1, 1);
        assert_eq!(report.final_head.1, 3);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn link_delays_are_deterministic_and_order_independent() {
        let mut a = LinkDelays::new(3, 10..20, 42);
        let mut b = LinkDelays::new(3, 10..20, 42);
        // Draw in different link orders: per-link sequences must agree.
        let a_seq: Vec<u64> = (0..6).map(|i| a.next_delay(i % 3)).collect();
        let mut b_seq = vec![0u64; 6];
        for link in (0..3).rev() {
            for round in 0..2 {
                b_seq[round * 3 + link] = b.next_delay(link);
            }
        }
        assert_eq!(a_seq, b_seq);
        assert!(a_seq.iter().all(|&d| (10..20).contains(&d)));
        // Empty range: latency injection off.
        let mut off = LinkDelays::new(1, 0..0, 7);
        assert_eq!(off.next_delay(0), 0);
        assert_eq!(off.links(), 1);
    }
}
