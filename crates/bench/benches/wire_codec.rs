//! Criterion micro-benchmark for the block wire codec: fresh-allocation
//! encode vs scratch-buffer reuse, and decode through the streaming reader
//! vs the reference item-tree decoder, all on one realistic fixture block.
//!
//! Run with `cargo bench -p bp-bench --bench wire_codec`.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};

use bp_bench::generate_fixtures;
use bp_block::wire::{self, decode_block, encode_block, encode_block_into, encoded_size_hint};
use bp_block::Block;
use bp_workload::WorkloadConfig;

fn fixture_block() -> Block {
    let fixture = generate_fixtures(WorkloadConfig::default(), 1).remove(0);
    fixture.seal(Default::default(), 1)
}

fn bench_wire(c: &mut Criterion) {
    let block = fixture_block();
    let encoded = encode_block(&block);
    let mut g = c.benchmark_group("wire_codec");
    g.sample_size(40);
    g.throughput(Throughput::Bytes(encoded.len() as u64));
    g.bench_function("encode_block", |b| b.iter(|| encode_block(&block)));
    g.bench_function("encode_block_into_reused", |b| {
        let mut buf = Vec::with_capacity(encoded_size_hint(&block));
        b.iter(|| {
            let scratch = std::mem::take(&mut buf);
            buf = encode_block_into(&block, scratch);
            buf.len()
        })
    });
    assert_eq!(
        decode_block(&encoded),
        wire::reference::decode_block(&encoded)
    );
    g.bench_function("decode_block", |b| {
        b.iter(|| decode_block(&encoded).unwrap())
    });
    g.bench_function("decode_block_reference", |b| {
        b.iter(|| wire::reference::decode_block(&encoded).unwrap())
    });
    g.finish();
}

criterion_group!(benches, bench_wire);
criterion_main!(benches);
