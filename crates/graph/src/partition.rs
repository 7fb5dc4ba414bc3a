//! Flat stable partitions of index ranges by `u64` key.
//!
//! GNRW partitions each node's neighbor slice into groups, in **CSR-style
//! flat storage** (a permutation of local indices plus group end offsets)
//! rather than a hash map of `Vec`s. Its one caller is the GNRW walker in
//! `osn-walks`, which partitions a neighbor list into buffers it reuses on
//! a miss of its partition memo, and relies on the ordering contract:
//!
//! * groups are emitted in **ascending key order**, and
//! * within a group, members keep their **original index order**.
//!
//! So a partition is a function of the keys alone, and the step that reads
//! it draws the same members whether it was derived now or earlier.

/// Reusable output buffers for [`partition_by_key`] — hold these across
/// calls to build a whole graph's partition without re-allocating.
#[derive(Debug, Default, Clone)]
pub struct FlatPartition {
    /// Permutation of `0..keys.len()`: members grouped contiguously,
    /// groups in ascending key order, original order within a group.
    pub perm: Vec<u32>,
    /// End offset (exclusive, into `perm`) of each group; `ends.len()` is
    /// the number of distinct keys.
    pub ends: Vec<u32>,
    /// The distinct keys, ascending, parallel to `ends`.
    pub keys: Vec<u64>,
    scratch: Vec<u32>,
}

impl FlatPartition {
    /// Number of groups in the last partition.
    pub fn group_count(&self) -> usize {
        self.ends.len()
    }

    /// Half-open `perm` range of group `g`.
    pub fn group_bounds(&self, g: usize) -> (usize, usize) {
        let start = if g == 0 { 0 } else { self.ends[g - 1] as usize };
        (start, self.ends[g] as usize)
    }
}

/// Partition the index range `0..keys.len()` by key into `out`, replacing
/// its previous contents.
///
/// Stable: ties keep ascending index order. When the keys span fewer than
/// `4 × keys.len()` values (degree buckets, hash groups) this is a counting
/// sort, `O(keys.len())`; otherwise one sort of `keys.len()` `u32`s. The
/// scratch buffer is reused across calls either way.
///
/// ```
/// use osn_graph::partition::{partition_by_key, FlatPartition};
///
/// let mut p = FlatPartition::default();
/// partition_by_key(&[7, 3, 7, 3, 9], &mut p);
/// assert_eq!(p.keys, vec![3, 7, 9]);
/// assert_eq!(p.ends, vec![2, 4, 5]);
/// assert_eq!(p.perm, vec![1, 3, 0, 2, 4]); // stable within each group
/// ```
pub fn partition_by_key(keys: &[u64], out: &mut FlatPartition) {
    assert!(
        keys.len() <= u32::MAX as usize,
        "partition index range exceeds u32"
    );
    out.perm.clear();
    out.ends.clear();
    out.keys.clear();
    out.scratch.clear();
    let Some(lo) = keys.iter().copied().min() else {
        return;
    };
    let span = keys.iter().max().map_or(0, |&hi| hi - lo);
    if span < 4 * keys.len() as u64 {
        partition_by_counting(keys, lo, span as usize + 1, out);
    } else {
        partition_by_sorting(keys, out);
    }
}

/// Counting sort over the key range `lo..lo + span`: `scratch` holds each
/// key's count, then its group's next write offset.
fn partition_by_counting(keys: &[u64], lo: u64, span: usize, out: &mut FlatPartition) {
    out.scratch.resize(span, 0);
    for &key in keys {
        out.scratch[(key - lo) as usize] += 1;
    }
    let mut end = 0;
    for (offset, slot) in out.scratch.iter_mut().enumerate() {
        if *slot > 0 {
            out.keys.push(lo + offset as u64);
            end += std::mem::replace(slot, end);
            out.ends.push(end);
        }
    }
    // Scatter the indices in ascending order: stable within each group.
    out.perm.resize(keys.len(), 0);
    for (i, &key) in keys.iter().enumerate() {
        let at = &mut out.scratch[(key - lo) as usize];
        out.perm[*at as usize] = i as u32;
        *at += 1;
    }
}

/// Sort `scratch` by `(key, index)` and cut it into groups.
fn partition_by_sorting(keys: &[u64], out: &mut FlatPartition) {
    out.scratch.extend(0..keys.len() as u32);
    // Stable under (key, index): sorting by key alone with `sort_unstable`
    // could reorder equal keys, so tie-break on the index explicitly.
    out.scratch.sort_unstable_by_key(|&i| (keys[i as usize], i));
    for &i in &out.scratch {
        let key = keys[i as usize];
        if out.keys.last() != Some(&key) {
            out.keys.push(key);
            out.ends.push(out.perm.len() as u32);
        }
        out.perm.push(i);
        *out.ends.last_mut().expect("group open") = out.perm.len() as u32;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_input_yields_empty_partition() {
        let mut p = FlatPartition::default();
        partition_by_key(&[], &mut p);
        assert!(p.perm.is_empty() && p.ends.is_empty() && p.keys.is_empty());
        assert_eq!(p.group_count(), 0);
    }

    #[test]
    fn single_key_is_identity() {
        let mut p = FlatPartition::default();
        partition_by_key(&[5, 5, 5], &mut p);
        assert_eq!(p.perm, vec![0, 1, 2]);
        assert_eq!(p.ends, vec![3]);
        assert_eq!(p.keys, vec![5]);
        assert_eq!(p.group_bounds(0), (0, 3));
    }

    #[test]
    fn groups_sorted_and_stable() {
        let mut p = FlatPartition::default();
        partition_by_key(&[2, 0, 2, 1, 0, 2], &mut p);
        assert_eq!(p.keys, vec![0, 1, 2]);
        assert_eq!(p.ends, vec![2, 3, 6]);
        assert_eq!(p.perm, vec![1, 4, 3, 0, 2, 5]);
        assert_eq!(p.group_bounds(2), (3, 6));
    }

    #[test]
    fn buffers_are_reusable() {
        let mut p = FlatPartition::default();
        partition_by_key(&[9, 9], &mut p);
        partition_by_key(&[1], &mut p);
        assert_eq!(p.perm, vec![0]);
        assert_eq!(p.ends, vec![1]);
        assert_eq!(p.keys, vec![1]);
    }

    #[test]
    fn perm_is_a_permutation() {
        // The same seven groups over a narrow key range (counting sort) and
        // spread over 2^39 values (sort): both give the stable sort's order.
        for shift in [0, 36] {
            let keys: Vec<u64> = (0..97).map(|i| ((i * 31) % 7) << shift).collect();
            let mut p = FlatPartition::default();
            partition_by_key(&keys, &mut p);
            let mut want: Vec<u32> = (0..97).collect();
            want.sort_by_key(|&i| keys[i as usize]);
            assert_eq!(p.perm, want, "shift {shift}");
            assert_eq!(p.keys.len(), 7);
            assert_eq!(p.ends.last().copied(), Some(keys.len() as u32));
        }
    }
}
