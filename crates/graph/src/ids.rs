//! Node identifiers, and sets of them.

use std::fmt;

use crate::fnv::FnvHashSet;

/// Identifier of a node (user) in a graph.
///
/// Nodes are always densely numbered `0..node_count`. The newtype prevents
/// accidental mixing of node ids with other integer quantities (degrees,
/// counts, budgets) that circulate through the sampling pipeline.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The id as a `usize` index, for slice/column access.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Construct from a `usize` index.
    ///
    /// # Panics
    /// Panics if `i` does not fit in `u32` (graphs are capped at ~4.3B nodes,
    /// far above anything this crate targets).
    #[inline]
    pub fn from_index(i: usize) -> Self {
        NodeId(u32::try_from(i).expect("node index exceeds u32 range"))
    }
}

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl From<u32> for NodeId {
    fn from(v: u32) -> Self {
        NodeId(v)
    }
}

impl From<NodeId> for u32 {
    fn from(v: NodeId) -> Self {
        v.0
    }
}

/// A set of node ids (their `u32` values) that is a hash set while sparse
/// and a bitset once dense.
///
/// A sampler's core state is the set of nodes it has paid for (paper
/// §2.1), and a run asks it a yes/no question about one node on every
/// step. Over a large share of a graph a bitset answers with one word
/// read and holds a member in a bit; over a few ids of a large range a
/// hash set is the smaller form.
///
/// **The rule.** A set is dense exactly while it holds at least one id
/// per 64 bits of its range `0..next_power_of_two(max + 1)` (at least one
/// 64-bit word), where `max` is its largest member: while `len ≥` the
/// range's word count. An insert or remove that crosses the rule converts
/// the set, and a remove shrinks a dense range to the new largest
/// member's. So a bitset never takes more than 8 bytes per member, for any
/// order of inserts and removes: a set of a few dozen ids never pays for
/// the graph's id range, and a set holding one id near `u32::MAX`
/// allocates nothing large. A conversion is linear in the set; an insert
/// or remove right at the threshold can convert it back and forth.
///
/// Ascending iteration scans the bitset of a dense set and sorts a sparse
/// one. A reader of a serialized id list builds the whole set at once
/// with [`NodeSet::from_ids`], in its final form, where inserts would grow
/// (and perhaps convert) it one id at a time.
#[derive(Clone, Debug, Default)]
pub struct NodeSet {
    len: usize,
    /// The largest member; 0 when the set is empty.
    max: u32,
    form: Form,
}

#[derive(Clone, Debug)]
enum Form {
    Sparse(FnvHashSet<u32>),
    /// Bit `id % 64` of word `id / 64` is set for each member; exactly
    /// [`range_words`]`(max)` words.
    Dense(Vec<u64>),
}

impl Default for Form {
    fn default() -> Self {
        Form::Sparse(FnvHashSet::default())
    }
}

/// The 64-bit words of the range `0..next_power_of_two(max + 1)`, at
/// least one.
fn range_words(max: u32) -> usize {
    // At most 2^26 words: the u32 range in bits over 64.
    ((u64::from(max) + 1).next_power_of_two() / 64).max(1) as usize
}

/// The word holding `id` and its bit in that word.
fn slot(id: u32) -> (usize, u64) {
    ((id >> 6) as usize, 1 << (id & 63))
}

/// A bitset of `words` words holding `ids`.
fn bitset(ids: impl Iterator<Item = u32>, words: usize) -> Vec<u64> {
    let mut bits = vec![0; words];
    for id in ids {
        let (w, bit) = slot(id);
        bits[w] |= bit;
    }
    bits
}

impl NodeSet {
    /// An empty set; it allocates nothing until its first insert.
    pub fn new() -> Self {
        NodeSet::default()
    }

    /// The set of `ids`, built at once in the form the type's rule picks
    /// for their count and largest id. `ids` are sorted in place first,
    /// unless they already ascend strictly, as a list written from
    /// [`Self::iter`] does.
    ///
    /// # Errors
    /// The smallest id that `ids` hold more than once.
    pub fn from_ids(ids: &mut [u32]) -> Result<Self, u32> {
        if !ids.windows(2).all(|w| w[0] < w[1]) {
            ids.sort_unstable();
            if let Some(w) = ids.windows(2).find(|w| w[0] == w[1]) {
                return Err(w[0]);
            }
        }
        let Some(&max) = ids.last() else {
            return Ok(NodeSet::new());
        };
        let words = range_words(max);
        let form = if ids.len() >= words {
            Form::Dense(bitset(ids.iter().copied(), words))
        } else {
            let mut set = FnvHashSet::with_capacity_and_hasher(ids.len(), Default::default());
            set.extend(ids.iter().copied());
            Form::Sparse(set)
        };
        Ok(NodeSet {
            len: ids.len(),
            max,
            form,
        })
    }

    /// Whether `id` is a member.
    #[inline]
    pub fn contains(&self, id: u32) -> bool {
        match &self.form {
            Form::Dense(words) => {
                let (w, bit) = slot(id);
                words.get(w).is_some_and(|&word| word & bit != 0)
            }
            Form::Sparse(ids) => ids.contains(&id),
        }
    }

    /// Add `id`; returns whether it was new.
    pub fn insert(&mut self, id: u32) -> bool {
        let max = if self.len == 0 { id } else { self.max.max(id) };
        match &mut self.form {
            Form::Dense(words) => {
                let (w, bit) = slot(id);
                if let Some(word) = words.get_mut(w) {
                    if *word & bit != 0 {
                        return false;
                    }
                    *word |= bit;
                } else if self.len + 1 >= range_words(max) {
                    // The wider range still holds one id per 64 bits.
                    let wider = range_words(max);
                    words.reserve_exact(wider - words.len());
                    words.resize(wider, 0);
                    words[w] |= bit;
                } else {
                    let mut ids: FnvHashSet<u32> = members(words).collect();
                    ids.insert(id);
                    self.form = Form::Sparse(ids);
                }
            }
            Form::Sparse(ids) => {
                if !ids.insert(id) {
                    return false;
                }
                if self.len + 1 >= range_words(max) {
                    self.form = Form::Dense(bitset(ids.iter().copied(), range_words(max)));
                }
            }
        }
        self.len += 1;
        self.max = max;
        true
    }

    /// Drop `id`; returns whether it was a member.
    pub fn remove(&mut self, id: u32) -> bool {
        let removed = match &mut self.form {
            Form::Dense(words) => {
                let (w, bit) = slot(id);
                match words.get_mut(w) {
                    Some(word) if *word & bit != 0 => {
                        *word &= !bit;
                        true
                    }
                    _ => false,
                }
            }
            Form::Sparse(ids) => ids.remove(&id),
        };
        if !removed {
            return false;
        }
        self.len -= 1;
        if self.len == 0 {
            self.clear();
            return true;
        }
        if id == self.max {
            self.max = match &self.form {
                Form::Dense(words) => {
                    let (w, _) = slot(id);
                    let top = (0..=w)
                        .rev()
                        .find(|&i| words[i] != 0)
                        .expect("a non-empty set has a set bit");
                    (top as u32) << 6 | (63 - words[top].leading_zeros())
                }
                Form::Sparse(ids) => *ids.iter().max().expect("a non-empty set has a member"),
            };
        }
        // The range may have narrowed: re-apply the rule.
        let words = range_words(self.max);
        match &mut self.form {
            Form::Dense(bits) if self.len < words => {
                let ids = members(bits).collect();
                self.form = Form::Sparse(ids);
            }
            Form::Dense(bits) if words < bits.len() => {
                bits.truncate(words);
                bits.shrink_to_fit();
            }
            Form::Sparse(ids) if self.len >= words => {
                self.form = Form::Dense(bitset(ids.iter().copied(), words));
            }
            _ => {}
        }
        true
    }

    /// The number of members.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the set has no member.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The largest member, read in `O(1)` in either form.
    pub fn max(&self) -> Option<u32> {
        (self.len > 0).then_some(self.max)
    }

    /// Drop every member and free the set's memory.
    pub fn clear(&mut self) {
        *self = NodeSet::default();
    }

    /// Whether the set is held as a bitset (see the type's rule).
    pub fn is_dense(&self) -> bool {
        matches!(self.form, Form::Dense(_))
    }

    /// Bytes the bitset of a dense set allocates; 0 for a sparse set.
    pub fn bitset_bytes(&self) -> usize {
        match &self.form {
            Form::Dense(words) => words.capacity() * 8,
            Form::Sparse(_) => 0,
        }
    }

    /// The members in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = u32> + '_ {
        let (words, sorted) = match &self.form {
            Form::Dense(words) => (&words[..], Vec::new()),
            Form::Sparse(ids) => {
                let mut sorted: Vec<u32> = ids.iter().copied().collect();
                sorted.sort_unstable();
                (&[][..], sorted)
            }
        };
        members(words).chain(sorted)
    }
}

/// The set bits of `words`, ascending.
fn members(words: &[u64]) -> impl Iterator<Item = u32> + '_ {
    words.iter().enumerate().flat_map(|(w, &word)| {
        let mut rest = word;
        std::iter::from_fn(move || {
            let bit = (rest != 0).then(|| rest.trailing_zeros())?;
            rest &= rest - 1;
            Some((w as u32) << 6 | bit)
        })
    })
}

impl FromIterator<u32> for NodeSet {
    fn from_iter<I: IntoIterator<Item = u32>>(ids: I) -> Self {
        let mut set = NodeSet::new();
        for id in ids {
            set.insert(id);
        }
        set
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_index() {
        let n = NodeId::from_index(42);
        assert_eq!(n.index(), 42);
        assert_eq!(n, NodeId(42));
    }

    #[test]
    fn display_and_debug() {
        assert_eq!(format!("{}", NodeId(7)), "7");
        assert_eq!(format!("{:?}", NodeId(7)), "n7");
    }

    #[test]
    fn ordering_follows_numeric() {
        assert!(NodeId(3) < NodeId(10));
    }

    #[test]
    fn node_set_turns_dense_at_one_id_per_word_and_back() {
        let mut set = NodeSet::new();
        assert!(set.insert(5) && !set.insert(5));
        assert!(set.is_dense(), "one id in a one-word range");
        assert!(set.insert(100));
        assert!(set.is_dense(), "two ids in a two-word range");
        assert!(set.insert(200));
        assert!(!set.is_dense(), "three ids in a four-word range");
        assert!(set.insert(150));
        assert!(set.is_dense(), "four ids in a four-word range");
        assert_eq!(set.iter().collect::<Vec<_>>(), [5, 100, 150, 200]);
        assert_eq!(set.bitset_bytes(), 32);
        assert!(set.remove(100));
        assert!(!set.is_dense() && set.contains(200) && !set.contains(100));
        assert!(set.remove(200) && set.remove(150));
        assert!(set.is_dense(), "one id below 64 again");
        assert_eq!(set.max(), Some(5));
        assert!(set.remove(5) && set.is_empty() && set.max().is_none());
    }

    #[test]
    fn node_set_holding_the_largest_id_stays_small() {
        let mut set: NodeSet = (0..1000).collect();
        assert!(set.is_dense());
        assert!(set.insert(u32::MAX));
        assert!(!set.is_dense());
        assert_eq!(set.bitset_bytes(), 0);
        assert_eq!(set.max(), Some(u32::MAX));
        assert_eq!(set.len(), 1001);
        assert!(set.remove(u32::MAX));
        assert!(set.is_dense(), "the range narrowed back to 1024 ids");
        assert!(set.iter().eq(0..1000));
    }

    #[test]
    fn node_set_from_ids_picks_the_form_once_and_refuses_repeats() {
        let dense = NodeSet::from_ids(&mut [5, 100, 150, 200]).unwrap();
        assert!(dense.is_dense() && dense.bitset_bytes() == 32);
        let sparse = NodeSet::from_ids(&mut [200, 5, 100]).unwrap();
        assert!(!sparse.is_dense());
        assert_eq!(sparse.iter().collect::<Vec<_>>(), [5, 100, 200]);
        assert_eq!((sparse.len(), sparse.max()), (3, Some(200)));
        let empty = NodeSet::from_ids(&mut []).unwrap();
        assert!(empty.is_empty() && empty.max().is_none());
        assert_eq!(NodeSet::from_ids(&mut [3, 9, 9]).err(), Some(9));
        assert_eq!(NodeSet::from_ids(&mut [9, 3, 7, 3, 9]).err(), Some(3));
    }

    #[test]
    #[should_panic(expected = "exceeds u32")]
    fn from_index_overflow_panics() {
        let _ = NodeId::from_index(u32::MAX as usize + 1);
    }
}
