//! `NodeSet` against a `BTreeSet<u32>` model: random inserts, removes,
//! membership probes, clears and bulk rebuilds from the model's ascending
//! members, drawn from three id regimes — ids below
//! 256, ids spread over the whole `u32` range, and an ascending run of
//! small ids ended by one id near `u32::MAX`. After every operation the set
//! must agree with the model on membership, length, largest member and
//! ascending iteration, be dense exactly while it holds at least one id
//! per 64-bit word of its range, and never allocate more than 8 bytes of
//! bitset per member.

use std::collections::BTreeSet;

use osn_sampling::graph::NodeSet;
use proptest::prelude::*;

/// One operation on the set under test.
#[derive(Clone, Copy, Debug)]
enum Op {
    Insert(u32),
    Remove(u32),
    Contains(u32),
    Clear,
    /// Replace the set with [`NodeSet::from_ids`] of the model's members.
    Rebuild,
}

/// An operation on `id` for a draw `kind` in `0..21`: insert (10 in 21),
/// remove (6), probe (3), clear (1) or rebuild (1).
fn op(kind: u32, id: u32) -> Op {
    match kind {
        0..=9 => Op::Insert(id),
        10..=15 => Op::Remove(id),
        16..=18 => Op::Contains(id),
        19 => Op::Clear,
        _ => Op::Rebuild,
    }
}

/// The words of the range `0..next_power_of_two(max + 1)`, at least one.
fn range_words(max: u32) -> usize {
    ((u64::from(max) + 1).next_power_of_two() / 64).max(1) as usize
}

/// Apply `ops` to a set and to the model, checking the set after each.
fn check(ops: &[Op]) -> Result<(), String> {
    let mut set = NodeSet::new();
    let mut model = BTreeSet::new();
    for (step, &op) in ops.iter().enumerate() {
        let at = format!("after op {step} ({op:?})");
        match op {
            Op::Insert(id) => prop_assert_eq!(set.insert(id), model.insert(id), "{at}"),
            Op::Remove(id) => prop_assert_eq!(set.remove(id), model.remove(&id), "{at}"),
            Op::Contains(id) => {
                prop_assert_eq!(set.contains(id), model.contains(&id), "{at}")
            }
            Op::Clear => {
                set.clear();
                model.clear();
            }
            Op::Rebuild => {
                let mut ids: Vec<u32> = model.iter().copied().collect();
                set = NodeSet::from_ids(&mut ids).map_err(|id| format!("{at}: {id} twice"))?;
            }
        }
        if let Op::Insert(id) | Op::Remove(id) | Op::Contains(id) = op {
            prop_assert_eq!(set.contains(id), model.contains(&id), "{at}");
        }
        prop_assert_eq!(set.len(), model.len(), "{at}");
        prop_assert_eq!(set.is_empty(), model.is_empty(), "{at}");
        prop_assert_eq!(set.max(), model.last().copied(), "{at}");
        prop_assert!(set.iter().eq(model.iter().copied()), "{at}: iteration");
        let dense = model
            .last()
            .is_some_and(|&max| model.len() >= range_words(max));
        prop_assert_eq!(set.is_dense(), dense, "{at}: the form rule");
        prop_assert!(
            set.bitset_bytes() <= 8 * model.len(),
            "{at}: {} bitset bytes for {} members",
            set.bitset_bytes(),
            model.len()
        );
    }
    // The members, each probed.
    for &id in &model {
        prop_assert!(set.contains(id), "member {id} lost");
    }
    let rebuilt: NodeSet = model.iter().copied().collect();
    prop_assert!(
        rebuilt.iter().eq(set.iter()),
        "a set built from the members differs"
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn node_set_matches_a_model_over_small_ids(
        draws in prop::collection::vec((0u32..21, 0u32..256), 0..600),
    ) {
        let ops: Vec<Op> = draws.into_iter().map(|(kind, id)| op(kind, id)).collect();
        check(&ops)?;
    }

    #[test]
    fn node_set_matches_a_model_over_the_whole_id_range(
        draws in prop::collection::vec((0u32..21, 0u64..1 << 32), 0..400),
    ) {
        let ops: Vec<Op> = draws
            .into_iter()
            .map(|(kind, id)| op(kind, id as u32))
            .collect();
        check(&ops)?;
    }

    #[test]
    fn node_set_matches_a_model_over_a_run_that_ends_near_the_top(
        start in 0u32..2_000,
        run in 0u32..1_500,
        top in 0u32..64,
        draws in prop::collection::vec((0u32..21, 0u32..4_000, prop::bool::ANY), 0..300),
    ) {
        let mut ops: Vec<Op> = (start..start + run).map(Op::Insert).collect();
        // Rebuilt while the run alone is dense, and once the top id joins.
        ops.extend([Op::Rebuild, Op::Insert(u32::MAX - top), Op::Rebuild]);
        // Then anything, over the run's ids and the top ones.
        ops.extend(draws.into_iter().map(|(kind, id, high)| {
            op(kind, if high { u32::MAX - id % 64 } else { id })
        }));
        check(&ops)?;
    }
}
