//! Synthetic mainnet-like workload generation.
//!
//! The paper evaluates on real Ethereum blocks (100k blocks from height 10M,
//! average 132 transactions per block). Those traces are not redistributable,
//! so this crate generates *statistically equivalent* blocks instead,
//! calibrated to the conflict structure the paper reports:
//!
//! * a transaction mix of plain value transfers, token (ERC-20-like)
//!   transfers, and constant-product AMM swaps — the DeFi pattern §5.5
//!   identifies as the hotspot problem;
//! * Zipf-distributed account and contract popularity (a handful of hotspot
//!   contracts attract a large share of traffic);
//! * a mean largest-dependency-subgraph ratio around the paper's reported
//!   27.5% at account-level conflict granularity (Figure 8).
//!
//! Everything is seeded: the same [`WorkloadConfig`] reproduces the same
//! chain of blocks bit-for-bit.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod zipf;

use std::sync::Arc;

use bp_evm::{contracts, BlockEnv, Transaction};
use bp_state::{AccountState, PMap, WorldState};
use bp_types::{Address, Rng, H256, U256};

pub use zipf::Zipf;

/// Transaction-mix fractions (normalized internally).
#[derive(Clone, Copy, Debug)]
pub struct TxMix {
    /// Plain value transfers between EOAs.
    pub transfer: f64,
    /// Token-contract transfers (per-holder slots; conflicts via shared
    /// holders at slot granularity, via the contract at account granularity).
    pub token: f64,
    /// AMM swaps (global reserve slots: every swap on a pair conflicts).
    pub amm: f64,
    /// Blind registry writes (pure WAW conflicts; zero in the default mix,
    /// used by the WSI-vs-OCC ablation).
    pub blind: f64,
    /// NFT mints against a single collection (every mint reads *and*
    /// writes the global supply counter: the worst-case single-hot-key
    /// regime; zero in the default mix, used by the mint-storm sweep).
    pub mint: f64,
}

impl Default for TxMix {
    fn default() -> Self {
        // Calibrated so the mean largest-subgraph ratio lands near the
        // paper's 27.5% at account granularity (see calibration test).
        TxMix {
            transfer: 0.60,
            token: 0.36,
            amm: 0.04,
            blind: 0.0,
            mint: 0.0,
        }
    }
}

/// Workload generator configuration.
#[derive(Clone, Debug)]
pub struct WorkloadConfig {
    /// RNG seed; equal configs generate identical chains.
    pub seed: u64,
    /// Number of externally-owned accounts.
    pub accounts: usize,
    /// Number of token contracts.
    pub tokens: usize,
    /// Number of AMM pairs (the hotspots).
    pub amm_pairs: usize,
    /// Mean transactions per block (paper: 132).
    pub txs_per_block: usize,
    /// Uniform jitter around the mean (±).
    pub tx_jitter: usize,
    /// The transaction mix.
    pub mix: TxMix,
    /// Zipf exponent for sender/recipient popularity.
    pub zipf_accounts: f64,
    /// Zipf exponent for contract popularity.
    pub zipf_contracts: f64,
}

impl Default for WorkloadConfig {
    fn default() -> Self {
        WorkloadConfig {
            seed: 0xB10C_9107,
            accounts: 1000,
            tokens: 10,
            amm_pairs: 4,
            txs_per_block: 132,
            tx_jitter: 24,
            mix: TxMix::default(),
            zipf_accounts: 0.50,
            zipf_contracts: 1.05,
        }
    }
}

/// Initial funding per EOA.
const EOA_FUNDS: u64 = u64::MAX / 2;
/// Initial token balance per holder.
const TOKEN_FUNDS: u64 = 1_000_000_000_000;
/// Initial AMM reserves.
const AMM_RESERVE: u64 = 1_000_000_000_000;

/// A deterministic block-stream generator.
pub struct WorkloadGen {
    config: WorkloadConfig,
    rng: Rng,
    nonces: Vec<u64>,
    acct_dist: Zipf,
    token_dist: Zipf,
    pair_dist: Zipf,
    height: u64,
}

impl WorkloadGen {
    /// A generator for `config`.
    pub fn new(config: WorkloadConfig) -> Self {
        assert!(config.accounts >= 2);
        assert!(config.tokens >= 1);
        assert!(config.amm_pairs >= 1);
        let rng = Rng::seed_from_u64(config.seed);
        WorkloadGen {
            acct_dist: Zipf::new(config.accounts, config.zipf_accounts),
            token_dist: Zipf::new(config.tokens, config.zipf_contracts),
            pair_dist: Zipf::new(config.amm_pairs, config.zipf_contracts),
            nonces: vec![0; config.accounts],
            rng,
            height: 0,
            config,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &WorkloadConfig {
        &self.config
    }

    /// The `i`-th EOA address.
    pub fn account(&self, i: usize) -> Address {
        Address::from_index(1_000_000 + i as u64)
    }

    /// The `i`-th token contract address.
    pub fn token_address(&self, i: usize) -> Address {
        Address::from_index(2_000_000 + i as u64)
    }

    /// The `i`-th AMM pair address.
    pub fn amm_address(&self, i: usize) -> Address {
        Address::from_index(3_000_000 + i as u64)
    }

    /// The blind-write registry address (one per world).
    pub fn registry_address(&self) -> Address {
        Address::from_index(4_000_000)
    }

    /// The NFT collection address (one per world).
    pub fn nft_address(&self) -> Address {
        Address::from_index(5_000_000)
    }

    /// Builds the genesis world: funded EOAs, deployed token and AMM
    /// contracts with seeded balances/reserves.
    pub fn genesis_state(&self) -> WorldState {
        let contract = |code: &Arc<Vec<u8>>, storage: PMap<H256, U256>| AccountState {
            code: Arc::clone(code),
            storage,
            ..AccountState::default()
        };
        let config = &self.config;
        let mut accounts =
            Vec::with_capacity(config.accounts + config.tokens + config.amm_pairs + 2);
        accounts.extend((0..config.accounts).map(|i| {
            let funded = AccountState {
                balance: U256::from(EOA_FUNDS),
                ..AccountState::default()
            };
            (self.account(i), funded)
        }));
        // One code blob per contract kind, shared by every instance: the
        // EVM's analysis cache is keyed by the blob's `Arc`. Every token
        // starts with the same holders, so they share one storage map too.
        let token_code = Arc::new(contracts::token());
        let holders: PMap<H256, U256> = (0..config.accounts)
            .map(|i| {
                let slot = contracts::token_balance_slot(&self.account(i));
                (slot, U256::from(TOKEN_FUNDS))
            })
            .collect();
        accounts.extend((0..config.tokens).map(|t| {
            (
                self.token_address(t),
                contract(&token_code, holders.clone()),
            )
        }));
        let pair_code = Arc::new(contracts::amm_pair());
        let reserves: PMap<H256, U256> = (0..2u8)
            .map(|side| (contracts::amm_reserve_slot(side), U256::from(AMM_RESERVE)))
            .collect();
        accounts.extend(
            (0..config.amm_pairs)
                .map(|p| (self.amm_address(p), contract(&pair_code, reserves.clone()))),
        );
        let registry = contract(&Arc::new(contracts::registry()), PMap::new());
        accounts.push((self.registry_address(), registry));
        let nft = contract(&Arc::new(contracts::nft()), PMap::new());
        accounts.push((self.nft_address(), nft));
        WorldState::from_accounts(accounts)
    }

    /// Continues every account's nonce from `state`: the transactions this
    /// generator emits next extend a chain that already committed some of
    /// them (a node resumed on its store), rather than reusing nonces that
    /// chain has spent.
    pub fn resume_nonces(&mut self, state: &WorldState) {
        self.nonces = (0..self.config.accounts)
            .map(|i| state.nonce(&self.account(i)))
            .collect();
    }

    /// The execution environment for the block at `height`.
    pub fn block_env(&self, height: u64) -> BlockEnv {
        BlockEnv {
            number: height,
            timestamp: 1_700_000_000 + height * 12,
            ..BlockEnv::default()
        }
    }

    /// Generates the next block's transactions. Same-sender transactions
    /// carry consecutive nonces in emission order, so the emitted order is a
    /// valid serial schedule.
    pub fn next_block_txs(&mut self) -> Vec<Transaction> {
        self.height += 1;
        let jitter = if self.config.tx_jitter == 0 {
            0
        } else {
            self.rng.gen_range(0..=self.config.tx_jitter * 2) as i64 - self.config.tx_jitter as i64
        };
        let count = (self.config.txs_per_block as i64 + jitter).max(1) as usize;
        let mut txs = Vec::with_capacity(count);
        let mix = self.config.mix;
        let total = mix.transfer + mix.token + mix.amm + mix.blind + mix.mint;
        let p_transfer = mix.transfer / total;
        let p_token = mix.token / total;
        let p_amm = mix.amm / total;
        let p_blind = mix.blind / total;
        for _ in 0..count {
            let roll = self.rng.gen_f64();
            let tx = if roll < p_transfer {
                self.gen_transfer()
            } else if roll < p_transfer + p_token {
                self.gen_token_transfer()
            } else if roll < p_transfer + p_token + p_amm {
                self.gen_amm_swap()
            } else if roll < p_transfer + p_token + p_amm + p_blind {
                self.gen_blind_write()
            } else {
                self.gen_mint()
            };
            txs.push(tx);
        }
        txs
    }

    fn next_sender(&mut self) -> (Address, u64) {
        let idx = self.acct_dist.sample(&mut self.rng);
        let nonce = self.nonces[idx];
        self.nonces[idx] += 1;
        (self.account(idx), nonce)
    }

    fn gas_price(&mut self) -> u64 {
        self.rng.gen_range(1..=100)
    }

    fn gen_transfer(&mut self) -> Transaction {
        let (sender, nonce) = self.next_sender();
        let to_idx = self.acct_dist.sample(&mut self.rng);
        let to = self.account(to_idx);
        let value = U256::from(self.rng.gen_range(1..=1000u64));
        let gas_price = self.gas_price();
        Transaction::transfer(sender, to, value, nonce, gas_price)
    }

    fn gen_token_transfer(&mut self) -> Transaction {
        let (sender, nonce) = self.next_sender();
        let token_idx = self.token_dist.sample(&mut self.rng);
        let token = self.token_address(token_idx);
        let to_idx = self.acct_dist.sample(&mut self.rng);
        let to = self.account(to_idx);
        let amount = U256::from(self.rng.gen_range(1..=1000u64));
        Transaction {
            sender,
            to: Some(token),
            value: U256::ZERO,
            nonce,
            gas_limit: 300_000,
            gas_price: self.gas_price(),
            data: contracts::token_transfer_calldata(&to, amount),
        }
    }

    fn gen_amm_swap(&mut self) -> Transaction {
        let (sender, nonce) = self.next_sender();
        let pair_idx = self.pair_dist.sample(&mut self.rng);
        let pair = self.amm_address(pair_idx);
        let dir = self.rng.gen_range(0..2u8);
        let amount = U256::from(self.rng.gen_range(100..=10_000u64));
        Transaction {
            sender,
            to: Some(pair),
            value: U256::ZERO,
            nonce,
            gas_limit: 300_000,
            gas_price: self.gas_price(),
            data: contracts::amm_swap_calldata(dir, amount),
        }
    }

    fn gen_mint(&mut self) -> Transaction {
        let (sender, nonce) = self.next_sender();
        Transaction {
            sender,
            to: Some(self.nft_address()),
            value: U256::ZERO,
            nonce,
            gas_limit: 100_000,
            gas_price: self.gas_price(),
            data: Vec::new(),
        }
    }

    fn gen_blind_write(&mut self) -> Transaction {
        let (sender, nonce) = self.next_sender();
        let value = U256::from(self.rng.gen_range(1..=u64::MAX));
        Transaction {
            sender,
            to: Some(self.registry_address()),
            value: U256::ZERO,
            nonce,
            gas_limit: 100_000,
            gas_price: self.gas_price(),
            data: contracts::registry_calldata(value),
        }
    }

    /// Current chain height (number of blocks generated).
    pub fn height(&self) -> u64 {
        self.height
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The benchmark's transactions are a function of the generator's
    /// stream, its range mapping and the order this file draws in. The
    /// constant was computed at the parent of the commit that moved the
    /// generator in-tree, against `benchmark/stubs/rand`: if it changes, the
    /// numbers before and after are measured on different inputs.
    #[test]
    fn benchmark_stream_is_pinned() {
        let mut gen = WorkloadGen::new(WorkloadConfig {
            // `mainnet_mix` at the benchmark's `--seed 1`.
            seed: 1u64.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0xB10C_9107,
            ..WorkloadConfig::default()
        });
        let txs: Vec<Transaction> = (0..3).flat_map(|_| gen.next_block_txs()).collect();
        assert_eq!(txs.len(), 437);
        assert_eq!(
            format!("{:?}", bp_block::tx_root(&txs)),
            "0x929c66da1a95708c4f71e370f13cf771def2b827a5522f0f1381cbd6b95140aa"
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let mut a = WorkloadGen::new(WorkloadConfig::default());
        let mut b = WorkloadGen::new(WorkloadConfig::default());
        assert_eq!(a.next_block_txs(), b.next_block_txs());
        assert_eq!(a.next_block_txs(), b.next_block_txs());
        let mut c = WorkloadGen::new(WorkloadConfig {
            seed: 999,
            ..Default::default()
        });
        assert_ne!(a.next_block_txs(), c.next_block_txs());
    }

    #[test]
    fn block_sizes_track_the_mean() {
        let mut gen = WorkloadGen::new(WorkloadConfig::default());
        let sizes: Vec<usize> = (0..50).map(|_| gen.next_block_txs().len()).collect();
        let mean = sizes.iter().sum::<usize>() as f64 / sizes.len() as f64;
        assert!((mean - 132.0).abs() < 15.0, "mean {mean}");
        for &s in &sizes {
            assert!((132 - 24..=132 + 24).contains(&s));
        }
    }

    #[test]
    fn nonces_are_consecutive_per_sender() {
        let mut gen = WorkloadGen::new(WorkloadConfig::default());
        let mut seen: std::collections::HashMap<Address, u64> = Default::default();
        for _ in 0..5 {
            for tx in gen.next_block_txs() {
                let next = seen.entry(tx.sender).or_insert(0);
                assert_eq!(tx.nonce, *next, "nonce gap for {:?}", tx.sender);
                *next += 1;
            }
        }
    }

    #[test]
    fn genesis_contains_contracts_and_funds() {
        let gen = WorkloadGen::new(WorkloadConfig::default());
        let w = gen.genesis_state();
        assert_eq!(w.balance(&gen.account(0)), U256::from(EOA_FUNDS));
        assert!(!w.code(&gen.token_address(0)).is_empty());
        assert!(!w.code(&gen.amm_address(0)).is_empty());
        assert_eq!(
            w.storage(&gen.amm_address(0), &contracts::amm_reserve_slot(0)),
            U256::from(AMM_RESERVE)
        );
        assert_eq!(
            w.storage(
                &gen.token_address(0),
                &contracts::token_balance_slot(&gen.account(5))
            ),
            U256::from(TOKEN_FUNDS)
        );
    }

    /// The genesis written one setter call per account and slot.
    fn genesis_by_setters(gen: &WorkloadGen) -> WorldState {
        let config = gen.config();
        let mut w = WorldState::new();
        for i in 0..config.accounts {
            w.set_balance(gen.account(i), U256::from(EOA_FUNDS));
        }
        let token_code = Arc::new(contracts::token());
        for t in 0..config.tokens {
            let token = gen.token_address(t);
            w.set_code(token, Arc::clone(&token_code));
            for i in 0..config.accounts {
                let slot = contracts::token_balance_slot(&gen.account(i));
                w.set_storage(token, slot, U256::from(TOKEN_FUNDS));
            }
        }
        let pair_code = Arc::new(contracts::amm_pair());
        for p in 0..config.amm_pairs {
            let pair = gen.amm_address(p);
            w.set_code(pair, Arc::clone(&pair_code));
            for side in 0..2 {
                w.set_storage(
                    pair,
                    contracts::amm_reserve_slot(side),
                    U256::from(AMM_RESERVE),
                );
            }
        }
        w.set_code(gen.registry_address(), contracts::registry());
        w.set_code(gen.nft_address(), contracts::nft());
        w
    }

    #[test]
    fn genesis_is_the_world_its_setters_build() {
        let wide = WorkloadConfig {
            accounts: 2_000,
            tokens: 1,
            ..WorkloadConfig::default()
        };
        for config in [WorkloadConfig::default(), wide] {
            let gen = WorkloadGen::new(config);
            let genesis = gen.genesis_state();
            let reference = genesis_by_setters(&gen);
            assert!(genesis == reference);
            assert_eq!(genesis.state_root(), reference.state_root());
            // Every instance of a contract kind shares one code blob.
            let code = |t| {
                genesis
                    .account(&gen.token_address(t))
                    .map(|a| Arc::clone(&a.code))
            };
            let (first, last) = (code(0).unwrap(), code(gen.config().tokens - 1).unwrap());
            assert!(Arc::ptr_eq(&first, &last));
        }
    }

    #[test]
    fn generated_blocks_execute_serially() {
        let mut gen = WorkloadGen::new(WorkloadConfig {
            txs_per_block: 40,
            tx_jitter: 0,
            ..Default::default()
        });
        let genesis = gen.genesis_state();
        let env = gen.block_env(1);
        let txs = gen.next_block_txs();
        let out = bp_baseline_shim::execute(&genesis, &env, &txs);
        assert_eq!(out, txs.len(), "all generated txs must be includable");
    }

    /// Minimal serial executor to avoid a dev-dependency cycle with
    /// bp-baseline (which depends on nothing here, but keep layering clean).
    mod bp_baseline_shim {
        use bp_evm::{execute_transaction, BlockEnv, Transaction, WorldView};
        use bp_state::WorldState;

        pub fn execute(base: &WorldState, env: &BlockEnv, txs: &[Transaction]) -> usize {
            let mut world = base.snapshot();
            let mut ok = 0;
            for tx in txs {
                let result = {
                    let view = WorldView::new(&world);
                    execute_transaction(&view, env, tx).expect("includable")
                };
                world.apply_writes(&result.rw.writes);
                ok += 1;
            }
            ok
        }
    }

    #[test]
    fn mint_storm_targets_the_single_collection() {
        // Every transaction mints from the one collection, so every
        // transaction reads and writes the same supply counter.
        let mut gen = WorkloadGen::new(WorkloadConfig {
            txs_per_block: 30,
            tx_jitter: 0,
            mix: TxMix {
                transfer: 0.0,
                token: 0.0,
                amm: 0.0,
                blind: 0.0,
                mint: 1.0,
            },
            zipf_accounts: 0.0,
            ..WorkloadConfig::default()
        });
        let genesis = gen.genesis_state();
        assert!(!genesis.code(&gen.nft_address()).is_empty());
        let env = gen.block_env(1);
        let txs = gen.next_block_txs();
        for tx in &txs {
            assert_eq!(tx.to, Some(gen.nft_address()));
            assert!(tx.data.is_empty());
        }
        let ok = bp_baseline_shim::execute(&genesis, &env, &txs);
        assert_eq!(ok, txs.len());
    }

    #[test]
    fn mix_produces_all_three_kinds() {
        let mut gen = WorkloadGen::new(WorkloadConfig::default());
        let txs = gen.next_block_txs();
        let transfers = txs.iter().filter(|t| t.data.is_empty()).count();
        let token_addr_space: Vec<Address> = (0..8).map(|i| gen.token_address(i)).collect();
        let tokens = txs
            .iter()
            .filter(|t| t.to.map(|a| token_addr_space.contains(&a)).unwrap_or(false))
            .count();
        let amms = txs.len() - transfers - tokens;
        assert!(
            transfers > 0 && tokens > 0 && amms > 0,
            "{transfers}/{tokens}/{amms}"
        );
    }
}
