//! Criterion micro-benchmarks for the substrates: Keccak-256, RLP, the
//! Merkle Patricia Trie, U256 arithmetic and single-transaction EVM
//! execution.
//!
//! Run with `cargo bench -p bp-bench --bench micro`.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};

use bp_crypto::keccak256;
use bp_crypto::rlp::decode_list;
use bp_crypto::rlp::reference::{decode, encode_item, Item};
use bp_evm::{contracts, execute_transaction, BlockEnv, Transaction, WorldView};
use bp_state::{Trie, WorldState};
use bp_types::{Address, H256, U256};

fn bench_keccak(c: &mut Criterion) {
    let mut g = c.benchmark_group("keccak256");
    g.sample_size(30);
    for size in [32usize, 136, 1024, 8192] {
        let data = vec![0xABu8; size];
        g.throughput(Throughput::Bytes(size as u64));
        g.bench_function(format!("{size}B"), |b| b.iter(|| keccak256(&data)));
    }
    g.finish();
}

fn bench_rlp(c: &mut Criterion) {
    let mut g = c.benchmark_group("rlp");
    g.sample_size(30);
    let item = Item::List(
        (0..64)
            .map(|i| Item::Bytes(vec![i as u8; 40]))
            .collect::<Vec<_>>(),
    );
    let encoded = encode_item(&item);
    g.bench_function("encode_64x40B_list", |b| b.iter(|| encode_item(&item)));
    g.bench_function("reference_decode_64x40B_list", |b| {
        b.iter(|| decode(&encoded).unwrap())
    });
    g.bench_function("reader_walk_64x40B_list", |b| {
        b.iter(|| {
            let mut list = decode_list(&encoded).unwrap();
            let mut bytes = 0;
            while !list.is_empty() {
                bytes += list.bytes().unwrap().len();
            }
            bytes
        })
    });
    g.finish();
}

fn bench_trie(c: &mut Criterion) {
    let mut g = c.benchmark_group("mpt");
    g.sample_size(20);
    let pairs: Vec<(H256, Vec<u8>)> = (0..500u64)
        .map(|i| (keccak256(&i.to_be_bytes()), i.to_be_bytes().to_vec()))
        .collect();
    g.bench_function("insert_500", |b| {
        b.iter_batched(
            Trie::new,
            |mut t| {
                for (k, v) in &pairs {
                    t.insert(k.as_bytes(), v.clone());
                }
                t
            },
            BatchSize::SmallInput,
        )
    });
    let mut full = Trie::new();
    for (k, v) in &pairs {
        full.insert(k.as_bytes(), v.clone());
    }
    g.bench_function("root_hash_500", |b| b.iter(|| full.root_hash()));
    g.bench_function("get_hit", |b| b.iter(|| full.get(pairs[250].0.as_bytes())));
    g.bench_function("prove_500", |b| {
        b.iter(|| full.prove(pairs[250].0.as_bytes()))
    });
    g.finish();
}

fn bench_u256(c: &mut Criterion) {
    let mut g = c.benchmark_group("u256");
    g.sample_size(50);
    let a = U256([0x0123_4567_89AB_CDEF; 4]);
    let b = U256([0xFEDC_BA98_7654_3210, 1, 2, 3]);
    g.bench_function("mul", |bch| bch.iter(|| a * b));
    g.bench_function("div_mod", |bch| bch.iter(|| a.div_mod(b)));
    g.bench_function("add", |bch| bch.iter(|| a + b));
    g.finish();
}

fn bench_evm(c: &mut Criterion) {
    let mut g = c.benchmark_group("evm");
    g.sample_size(30);
    let mut world = WorldState::new();
    let sender = Address::from_index(1);
    world.set_balance(sender, U256::from(1_000_000_000u64));
    let token = Address::from_index(100);
    world.set_code(token, contracts::token());
    world.set_storage(
        token,
        contracts::token_balance_slot(&sender),
        U256::from(1_000_000u64),
    );
    let env = BlockEnv::default();

    let transfer = Transaction::transfer(sender, Address::from_index(2), U256::ONE, 0, 1);
    g.bench_function("plain_transfer", |b| {
        let view = WorldView::new(&world);
        b.iter(|| execute_transaction(&view, &env, &transfer).unwrap())
    });

    let token_tx = Transaction {
        sender,
        to: Some(token),
        value: U256::ZERO,
        nonce: 0,
        gas_limit: 300_000,
        gas_price: 1,
        data: contracts::token_transfer_calldata(&Address::from_index(2), U256::ONE),
    };
    g.bench_function("token_transfer", |b| {
        let view = WorldView::new(&world);
        b.iter(|| execute_transaction(&view, &env, &token_tx).unwrap())
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_keccak,
    bench_rlp,
    bench_trie,
    bench_u256,
    bench_evm
);
criterion_main!(benches);
