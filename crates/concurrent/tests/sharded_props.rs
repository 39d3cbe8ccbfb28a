//! Property test: `ShardedMap` behaves like a `HashMap` under any sequence
//! of operations, regardless of shard count.

use std::collections::HashMap;

use bp_concurrent::ShardedMap;
use bp_testkit::prelude::*;

#[derive(Clone, Debug)]
enum Op {
    Insert(u16, u32),
    Update(u16, u32),
    Get(u16),
}

fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec(
        prop_oneof![
            (any::<u16>(), any::<u32>()).prop_map(|(k, v)| Op::Insert(k, v)),
            (any::<u16>(), any::<u32>()).prop_map(|(k, v)| Op::Update(k, v)),
            any::<u16>().prop_map(Op::Get),
        ],
        0..120,
    )
}

proptest! {
    #[test]
    fn matches_hashmap_model(ops in arb_ops(), shards in 1usize..40) {
        let map: ShardedMap<u16, u32> = ShardedMap::with_shards(shards);
        let mut model: HashMap<u16, u32> = HashMap::new();
        for op in &ops {
            match *op {
                Op::Insert(k, v) => {
                    prop_assert_eq!(map.insert(k, v), model.insert(k, v));
                }
                Op::Update(k, v) => {
                    map.update(k, |slot| {
                        *slot = Some(slot.unwrap_or(0).wrapping_add(v));
                    });
                    let entry = model.entry(k).or_insert(0);
                    *entry = entry.wrapping_add(v);
                }
                Op::Get(k) => {
                    prop_assert_eq!(map.get(&k), model.get(&k).copied());
                }
            }
        }
        // Every key an op named reads back as the model has it; no op
        // creates any other key.
        for op in &ops {
            let (Op::Insert(k, _) | Op::Update(k, _) | Op::Get(k)) = *op;
            prop_assert_eq!(map.get(&k), model.get(&k).copied());
        }
    }
}
