//! Event-driven virtual-time simulation of the OCC-WSI proposer.
//!
//! `k` virtual threads share a pending pool, a multi-version state and a
//! reserve table — exactly the structures of Algorithm 1 — but time advances
//! on virtual clocks: executing a transaction costs its gas plus dispatch
//! overhead, and each commit serializes through a commit-section cost. The
//! EVM executions are *real* (full interpreter runs against real snapshots),
//! so abort patterns are the true WSI abort patterns of the workload, not a
//! statistical model.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::sync::Arc;

use bp_evm::{execute_transaction, BlockEnv, MvSnapshot, Transaction, TxError};
use bp_state::{MultiVersionState, WorldState};
use bp_txpool::TxPool;
use bp_types::{AccessKey, Gas};

use crate::CostModel;

/// Which commit-time validation rule the simulated proposer applies.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum ValidationRule {
    /// Write-snapshot isolation (the paper's OCC-WSI): abort only when a
    /// *read* key was overwritten after the snapshot. Blind write-write
    /// overlap commits.
    #[default]
    Wsi,
    /// Classic backward OCC validation: abort when any read **or written**
    /// key was touched by a later-committed writer (the ablation baseline).
    ClassicOcc,
}

/// Result of one simulated proposal run.
#[derive(Clone, Copy, Debug)]
pub struct ProposerSimResult {
    /// Virtual time at which the last commit finished.
    pub makespan: Gas,
    /// Sum of committed execution gas — the serial-execution time.
    pub serial_gas: Gas,
    /// Transactions committed.
    pub committed: usize,
    /// Executions that failed WSI validation and re-ran.
    pub aborts: u64,
    /// serial_gas / makespan.
    pub speedup: f64,
}

struct Event {
    finish: Gas,
    thread: usize,
    tx: Transaction,
    snapshot: u64,
    gas_used: Gas,
    // None: execution failed with a not-yet-eligible nonce (cheap probe).
    outcome: Option<ExecOutcome>,
}

struct ExecOutcome {
    reads: Vec<AccessKey>,
    writes: bp_types::WriteSet,
    deployed: Vec<(bp_types::Address, Arc<Vec<u8>>)>,
}

struct Sim<'a> {
    env: &'a BlockEnv,
    model: &'a CostModel,
    rule: ValidationRule,
    // The shared commit resource: virtual time at which the commit-sequence
    // lock next becomes free. A commit occupies it for the commit_admit
    // slice of commit_sync.
    commit_free_at: Gas,
    // Virtual time at which every allocated version is fully published
    // (Phase B done). A snapshot taken earlier waits on the visibility gate
    // until then.
    snapshot_ready_at: Gas,
    mv: MultiVersionState,
    pool: TxPool,
    reserve: HashMap<AccessKey, u64>,
    committed_version: u64,
    // Execution-cost multiplier (per-mille): state-access contention from
    // the other `threads - 1` workers.
    contention_permille: u64,
    heap: BinaryHeap<Reverse<(Gas, usize, u64)>>,
    payloads: HashMap<u64, Event>,
    event_seq: u64,
    // Threads with no in-flight event, with the time they became free.
    idle: Vec<(usize, Gas)>,
    aborts: u64,
    commits: usize,
    serial_gas: Gas,
    makespan: Gas,
}

impl Sim<'_> {
    /// Tries to start the next eligible transaction on `thread` at time
    /// `at`; parks the thread as idle if the pool has nothing eligible.
    fn start_or_idle(&mut self, thread: usize, at: Gas) {
        // The snapshot version may still be publishing (Phase B); the
        // reader parks on the visibility gate until it is.
        let at = at.max(self.snapshot_ready_at);
        loop {
            let Some(tx) = self.pool.pop() else {
                self.idle.push((thread, at));
                return;
            };
            let snapshot = self.committed_version;
            let view = MvSnapshot::new(&self.mv, snapshot);
            let (gas_used, outcome) = match execute_transaction(&view, self.env, &tx) {
                Ok(result) => (
                    result.receipt.gas_used,
                    Some(ExecOutcome {
                        reads: result.rw.reads.keys().copied().collect(),
                        writes: result.rw.writes,
                        deployed: result.deployed.into_iter().collect(),
                    }),
                ),
                Err(TxError::BadNonce { expected, got }) if got > expected => (1_000, None),
                Err(_) => {
                    // Permanently invalid: discard and try the next.
                    self.pool.discard(&tx);
                    continue;
                }
            };
            let exec_cost = gas_used * self.contention_permille / 1000;
            let finish = at + self.model.per_tx_dispatch + exec_cost;
            self.event_seq += 1;
            self.heap.push(Reverse((finish, thread, self.event_seq)));
            self.payloads.insert(
                self.event_seq,
                Event {
                    finish,
                    thread,
                    tx,
                    snapshot,
                    gas_used,
                    outcome,
                },
            );
            return;
        }
    }

    /// Wakes all idle threads at time `now` (a commit may have made new
    /// transactions eligible).
    fn wake_idle(&mut self, now: Gas) {
        let mut idle = std::mem::take(&mut self.idle);
        idle.sort_unstable();
        for (thread, avail) in idle {
            self.start_or_idle(thread, avail.max(now));
        }
    }
}

/// Simulates proposing one block from `txs` on `threads` virtual threads.
///
/// Deterministic: the same inputs produce the same schedule, commit order,
/// abort count and makespan.
pub fn simulate_proposer(
    base: &WorldState,
    env: &BlockEnv,
    txs: &[Transaction],
    threads: usize,
    model: &CostModel,
) -> ProposerSimResult {
    simulate_proposer_with_rule(base, env, txs, threads, model, ValidationRule::Wsi)
}

/// [`simulate_proposer`] with an explicit commit-validation rule (used by
/// the WSI-vs-OCC ablation).
pub fn simulate_proposer_with_rule(
    base: &WorldState,
    env: &BlockEnv,
    txs: &[Transaction],
    threads: usize,
    model: &CostModel,
    rule: ValidationRule,
) -> ProposerSimResult {
    assert!(threads > 0);
    let base = Arc::new(base.snapshot());
    let pool = TxPool::new();
    for tx in txs {
        pool.add(tx.clone());
    }
    let mut sim = Sim {
        env,
        model,
        rule,
        commit_free_at: 0,
        snapshot_ready_at: 0,
        mv: MultiVersionState::new(base, threads, Default::default()),
        pool,
        reserve: HashMap::new(),
        committed_version: 0,
        contention_permille: 1000 + model.state_contention_permille * (threads as u64 - 1),
        heap: BinaryHeap::new(),
        payloads: HashMap::new(),
        event_seq: 0,
        idle: Vec::new(),
        aborts: 0,
        commits: 0,
        serial_gas: 0,
        makespan: 0,
    };

    for thread in 0..threads {
        sim.start_or_idle(thread, 0);
    }

    while let Some(Reverse((_, _, seq))) = sim.heap.pop() {
        let event = sim.payloads.remove(&seq).expect("payload exists");
        let now = event.finish;
        match event.outcome {
            Some(outcome) => {
                // Validation at commit time (Algorithm 1 DetectConflict).
                let key_stale =
                    |k: &AccessKey| sim.reserve.get(k).copied().unwrap_or(0) > event.snapshot;
                let stale = match sim.rule {
                    ValidationRule::Wsi => outcome.reads.iter().any(key_stale),
                    ValidationRule::ClassicOcc => {
                        outcome.reads.iter().any(key_stale) || outcome.writes.keys().any(key_stale)
                    }
                };
                if stale {
                    // Validation happens under the commit-sequence lock: a
                    // failed one still occupies the commit resource for the
                    // admit slice.
                    sim.aborts += 1;
                    let abort_done = now.max(sim.commit_free_at) + model.commit_admit;
                    sim.commit_free_at = abort_done;
                    sim.pool.push_back(&event.tx);
                    sim.start_or_idle(event.thread, abort_done);
                    continue;
                }
                // Commit: acquire the (possibly contended) commit lock.
                sim.committed_version += 1;
                sim.mv.commit_writes(&outcome.writes, sim.committed_version);
                for (addr, code) in outcome.deployed {
                    sim.mv.install_code(addr, code);
                }
                for key in outcome.writes.keys() {
                    sim.reserve.insert(*key, sim.committed_version);
                }
                sim.commits += 1;
                sim.serial_gas += event.gas_used;
                // Only the admit slice holds the lock; the publish
                // remainder runs on the committing thread's own clock, and
                // snapshots taken before it lands wait on the visibility
                // gate.
                let admit_done = now.max(sim.commit_free_at) + model.commit_admit;
                sim.commit_free_at = admit_done;
                let commit_done = admit_done + model.commit_sync.saturating_sub(model.commit_admit);
                sim.snapshot_ready_at = sim.snapshot_ready_at.max(commit_done);
                sim.makespan = sim.makespan.max(commit_done);
                sim.pool.commit(&event.tx);
                // The committing thread resumes after its commit work; idle
                // threads may find newly eligible work now.
                sim.start_or_idle(event.thread, commit_done);
                sim.wake_idle(now);
            }
            None => {
                // Nonce probe: prerequisite not committed when we started.
                // Re-queue and idle until the next commit wakes us.
                sim.pool.push_back(&event.tx);
                sim.idle.push((event.thread, now));
            }
        }
    }

    ProposerSimResult {
        makespan: sim.makespan,
        serial_gas: sim.serial_gas,
        committed: sim.commits,
        aborts: sim.aborts,
        speedup: if sim.makespan == 0 {
            1.0
        } else {
            sim.serial_gas as f64 / sim.makespan as f64
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bp_evm::contracts;
    use bp_types::{Address, U256};

    fn addr(i: u64) -> Address {
        Address::from_index(i)
    }

    fn funded(n: u64) -> WorldState {
        let mut w = WorldState::new();
        for i in 1..=n {
            w.set_balance(addr(i), U256::from(1_000_000_000u64));
        }
        w
    }

    #[test]
    fn deterministic() {
        let base = funded(20);
        let env = BlockEnv::default();
        let txs: Vec<_> = (1..=10u64)
            .map(|i| Transaction::transfer(addr(i), addr(i + 10), U256::ONE, 0, i))
            .collect();
        let a = simulate_proposer(&base, &env, &txs, 4, &CostModel::default());
        let b = simulate_proposer(&base, &env, &txs, 4, &CostModel::default());
        assert_eq!(a.makespan, b.makespan);
        assert_eq!(a.aborts, b.aborts);
        assert_eq!(a.committed, b.committed);
    }

    #[test]
    fn all_txs_commit() {
        let base = funded(20);
        let env = BlockEnv::default();
        let txs: Vec<_> = (1..=10u64)
            .map(|i| Transaction::transfer(addr(i), addr(i + 10), U256::ONE, 0, i))
            .collect();
        let r = simulate_proposer(&base, &env, &txs, 4, &CostModel::default());
        assert_eq!(r.committed, 10);
        assert_eq!(r.serial_gas, 210_000);
        assert_eq!(r.aborts, 0, "disjoint transfers never abort");
    }

    #[test]
    fn thread_scaling_is_sublinear_under_contention() {
        let base = funded(80);
        let env = BlockEnv::default();
        let txs: Vec<_> = (1..=32u64)
            .map(|i| Transaction::transfer(addr(i), addr(i + 40), U256::ONE, 0, 1))
            .collect();
        let model = CostModel::default();
        let t1 = simulate_proposer(&base, &env, &txs, 1, &model);
        let t4 = simulate_proposer(&base, &env, &txs, 4, &model);
        let t16 = simulate_proposer(&base, &env, &txs, 16, &model);
        assert!(t4.makespan < t1.makespan);
        assert!(t16.makespan <= t4.makespan);
        assert!(t4.speedup > 1.5, "4 threads give {:.2}", t4.speedup);
        // Contention keeps scaling sublinear: 16 threads on cheap transfers
        // stay well under the thread count.
        assert!(t16.speedup < 8.0, "16 threads give {:.2}", t16.speedup);
    }

    #[test]
    fn hotspot_causes_aborts_and_limits_speedup() {
        let mut base = funded(40);
        let c = addr(100);
        base.set_code(c, contracts::counter());
        let env = BlockEnv::default();
        let txs: Vec<_> = (1..=16u64)
            .map(|i| Transaction {
                sender: addr(i),
                to: Some(c),
                value: U256::ZERO,
                nonce: 0,
                gas_limit: 200_000,
                gas_price: 1,
                data: vec![],
            })
            .collect();
        let model = CostModel::default();
        let r = simulate_proposer(&base, &env, &txs, 8, &model);
        assert_eq!(r.committed, 16);
        assert!(r.aborts > 0, "contended counter must abort sometimes");
        // All txs conflict: speedup must stay well below the thread count.
        assert!(r.speedup < 4.0, "speedup {:.2}", r.speedup);
    }

    #[test]
    fn nonce_chains_commit_in_order() {
        let base = funded(5);
        let env = BlockEnv::default();
        let txs: Vec<_> = (0..6u64)
            .map(|n| Transaction::transfer(addr(1), addr(2), U256::ONE, n, 1))
            .collect();
        let r = simulate_proposer(&base, &env, &txs, 4, &CostModel::default());
        assert_eq!(r.committed, 6);
        // A pure chain is inherently serial: overheads push speedup below 1.
        assert!(r.speedup <= 1.0 + 1e-9);
    }

    #[test]
    fn single_thread_speedup_is_sub_unity() {
        let base = funded(10);
        let env = BlockEnv::default();
        let txs: Vec<_> = (1..=5u64)
            .map(|i| Transaction::transfer(addr(i), addr(i + 5), U256::ONE, 0, 1))
            .collect();
        let r = simulate_proposer(&base, &env, &txs, 1, &CostModel::default());
        // One virtual thread pays dispatch + commit overhead on top of the
        // serial execution time.
        assert!(r.speedup < 1.0);
        assert_eq!(r.committed, 5);
    }

    #[test]
    fn classic_occ_aborts_at_least_as_often_as_wsi() {
        let mut base = funded(40);
        let c = addr(100);
        base.set_code(c, contracts::counter());
        let env = BlockEnv::default();
        let mut txs: Vec<_> = (1..=12u64)
            .map(|i| Transaction {
                sender: addr(i),
                to: Some(c),
                value: U256::ZERO,
                nonce: 0,
                gas_limit: 200_000,
                gas_price: 1,
                data: vec![],
            })
            .collect();
        for i in 13..=24u64 {
            txs.push(Transaction::transfer(
                addr(i),
                addr(i + 12),
                U256::ONE,
                0,
                1,
            ));
        }
        let model = CostModel::default();
        let wsi = simulate_proposer_with_rule(&base, &env, &txs, 8, &model, ValidationRule::Wsi);
        let occ =
            simulate_proposer_with_rule(&base, &env, &txs, 8, &model, ValidationRule::ClassicOcc);
        assert_eq!(wsi.committed, occ.committed);
        assert!(
            occ.aborts >= wsi.aborts,
            "occ {} < wsi {}",
            occ.aborts,
            wsi.aborts
        );
    }

    #[test]
    fn empty_input() {
        let base = funded(1);
        let r = simulate_proposer(&base, &BlockEnv::default(), &[], 4, &CostModel::default());
        assert_eq!(r.committed, 0);
        assert_eq!(r.makespan, 0);
        assert_eq!(r.speedup, 1.0);
    }
}
