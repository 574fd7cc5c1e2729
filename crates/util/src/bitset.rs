//! A growable bit set over `u64` words.
//!
//! [`BitSet`] replaces the fixed-width `u64` membership masks that used to
//! cap fault plans (and anything else indexing users by small integers) at
//! 64 members. It is a dense, dependency-free set of `usize` indices:
//! insertion grows the word vector on demand, queries outside the allocated
//! range simply answer `false`, and equality ignores trailing zero words so
//! a set's history of growth never leaks into comparisons or hashes.
//!
//! Semantically it is a drop-in upgrade of the old masks:
//!
//! - `mask >> u & 1 == 1` becomes [`BitSet::contains`],
//! - `mask |= 1 << u` becomes [`BitSet::insert`],
//! - `mask.count_ones()` becomes [`BitSet::count`],
//! - `mask != 0` becomes `!set.is_empty()`,
//! - the blackout all-users mask `(1 << n) - 1` becomes
//!   [`BitSet::insert_range`].
//!
//! ```
//! use volcast_util::bitset::BitSet;
//!
//! let mut faulted = BitSet::new();
//! faulted.insert(3);
//! faulted.insert(200); // far past the old 64-user ceiling
//! assert!(faulted.contains(200));
//! assert!(!faulted.contains(199));
//! assert_eq!(faulted.count(), 2);
//! assert_eq!(faulted.iter().collect::<Vec<_>>(), vec![3, 200]);
//! ```

const WORD_BITS: usize = 64;

/// A growable set of `usize` indices backed by a vector of `u64` words.
///
/// Equality, ordering of iteration, and hashing are all independent of the
/// set's allocated capacity: two sets holding the same indices compare
/// equal even if one grew further and shrank back via [`BitSet::remove`].
#[derive(Debug, Clone, Default)]
pub struct BitSet {
    words: Vec<u64>,
}

impl BitSet {
    /// An empty set. Allocates nothing until the first insertion.
    pub const fn new() -> BitSet {
        BitSet { words: Vec::new() }
    }

    /// An empty set with room for indices `0..capacity_bits` preallocated.
    pub fn with_capacity(capacity_bits: usize) -> BitSet {
        BitSet {
            words: Vec::with_capacity(capacity_bits.div_ceil(WORD_BITS)),
        }
    }

    /// Adds `index` to the set, growing storage as needed. Returns `true`
    /// if the index was newly inserted.
    pub fn insert(&mut self, index: usize) -> bool {
        let (word, bit) = (index / WORD_BITS, index % WORD_BITS);
        if word >= self.words.len() {
            self.words.resize(word + 1, 0);
        }
        let fresh = self.words[word] >> bit & 1 == 0;
        self.words[word] |= 1 << bit;
        fresh
    }

    /// Adds every index in `range` to the set (the growable replacement
    /// for the old `(1 << n) - 1` all-users mask).
    pub fn insert_range(&mut self, range: std::ops::Range<usize>) {
        for index in range {
            self.insert(index);
        }
    }

    /// Removes `index` from the set. Returns `true` if it was present.
    /// Out-of-range indices are a no-op.
    pub fn remove(&mut self, index: usize) -> bool {
        let (word, bit) = (index / WORD_BITS, index % WORD_BITS);
        match self.words.get_mut(word) {
            Some(w) if *w >> bit & 1 == 1 => {
                *w &= !(1 << bit);
                true
            }
            _ => false,
        }
    }

    /// `true` when `index` is in the set. Indices past the allocated words
    /// are simply absent — no growth, no panic.
    pub fn contains(&self, index: usize) -> bool {
        let (word, bit) = (index / WORD_BITS, index % WORD_BITS);
        self.words.get(word).is_some_and(|w| w >> bit & 1 == 1)
    }

    /// Number of indices in the set.
    pub fn count(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// `true` when the set holds no indices.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Removes every index, keeping the allocation for reuse.
    pub fn clear(&mut self) {
        self.words.fill(0);
    }

    /// Union with `other`: adds every index of `other` to `self`.
    pub fn union_with(&mut self, other: &BitSet) {
        if other.words.len() > self.words.len() {
            self.words.resize(other.words.len(), 0);
        }
        for (dst, src) in self.words.iter_mut().zip(&other.words) {
            *dst |= src;
        }
    }

    /// Intersection with `other`: keeps only the indices `other` also
    /// holds.
    pub fn intersect_with(&mut self, other: &BitSet) {
        self.words.truncate(other.words.len());
        for (dst, src) in self.words.iter_mut().zip(&other.words) {
            *dst &= src;
        }
    }

    /// `|self ∩ other|`, without building the intersection.
    pub fn intersection_count(&self, other: &BitSet) -> usize {
        let both = self.words.iter().zip(&other.words);
        both.map(|(a, b)| (a & b).count_ones() as usize).sum()
    }

    /// `|self ∪ other|`, without building the union.
    pub fn union_count(&self, other: &BitSet) -> usize {
        self.count() + other.count() - self.intersection_count(other)
    }

    /// Iterates the set's indices in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        Self::ones(self.words.iter().copied())
    }

    /// Iterates the indices of `self ∩ mask` in ascending order, without
    /// building the intersection.
    pub fn iter_masked<'a>(&'a self, mask: &'a BitSet) -> impl Iterator<Item = usize> + 'a {
        Self::ones(self.words.iter().zip(&mask.words).map(|(a, b)| a & b))
    }

    /// The set bits of a word sequence, ascending.
    fn ones(words: impl Iterator<Item = u64>) -> impl Iterator<Item = usize> {
        words.enumerate().flat_map(|(wi, mut word)| {
            std::iter::from_fn(move || {
                if word == 0 {
                    return None;
                }
                let bit = word.trailing_zeros() as usize;
                word &= word - 1;
                Some(wi * WORD_BITS + bit)
            })
        })
    }

    /// The allocated words, with trailing zero words stripped — the
    /// canonical form used by `PartialEq` and `Hash`.
    fn normalized(&self) -> &[u64] {
        let end = self
            .words
            .iter()
            .rposition(|&w| w != 0)
            .map_or(0, |i| i + 1);
        &self.words[..end]
    }
}

impl PartialEq for BitSet {
    fn eq(&self, other: &BitSet) -> bool {
        self.normalized() == other.normalized()
    }
}

impl Eq for BitSet {}

impl std::hash::Hash for BitSet {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.normalized().hash(state);
    }
}

impl FromIterator<usize> for BitSet {
    fn from_iter<I: IntoIterator<Item = usize>>(iter: I) -> BitSet {
        let mut set = BitSet::new();
        for index in iter {
            set.insert(index);
        }
        set
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_contains_remove() {
        let mut s = BitSet::new();
        assert!(!s.contains(0));
        assert!(s.insert(0));
        assert!(!s.insert(0), "double insert reports not-fresh");
        assert!(s.insert(63));
        assert!(s.insert(64));
        assert!(s.insert(1000));
        assert!(s.contains(0) && s.contains(63) && s.contains(64) && s.contains(1000));
        assert!(!s.contains(65) && !s.contains(999) && !s.contains(100_000));
        assert_eq!(s.count(), 4);
        assert!(s.remove(64));
        assert!(!s.remove(64), "double remove reports absent");
        assert!(!s.remove(1_000_000), "out-of-range remove is a no-op");
        assert_eq!(s.count(), 3);
    }

    #[test]
    fn equality_ignores_trailing_zero_words() {
        let mut grown = BitSet::new();
        grown.insert(5);
        grown.insert(500);
        grown.remove(500);
        let mut small = BitSet::new();
        small.insert(5);
        assert_eq!(grown, small);
        assert_eq!(
            volcast_util_hash(&grown),
            volcast_util_hash(&small),
            "hash must match equality"
        );
        grown.clear();
        assert_eq!(grown, BitSet::new());
        assert!(grown.is_empty());
    }

    fn volcast_util_hash(s: &BitSet) -> u64 {
        use std::hash::{Hash, Hasher};
        struct Fnv(u64);
        impl Hasher for Fnv {
            fn finish(&self) -> u64 {
                self.0
            }
            fn write(&mut self, bytes: &[u8]) {
                for &b in bytes {
                    self.0 = (self.0 ^ b as u64).wrapping_mul(0x100_0000_01b3);
                }
            }
        }
        let mut h = Fnv(0xcbf2_9ce4_8422_2325);
        s.hash(&mut h);
        h.finish()
    }

    #[test]
    fn iter_is_ascending_and_complete() {
        let indices = [0usize, 1, 63, 64, 65, 127, 128, 700];
        let s: BitSet = indices.iter().copied().collect();
        assert_eq!(s.iter().collect::<Vec<_>>(), indices);
    }

    #[test]
    fn insert_range_matches_individual_inserts() {
        let mut ranged = BitSet::new();
        ranged.insert_range(3..130);
        let individual: BitSet = (3..130).collect();
        assert_eq!(ranged, individual);
        assert_eq!(ranged.count(), 127);
        assert!(!ranged.contains(2) && ranged.contains(3));
        assert!(ranged.contains(129) && !ranged.contains(130));
    }

    #[test]
    fn union_with_combines_sets() {
        let a: BitSet = [1usize, 70].iter().copied().collect();
        let mut b: BitSet = [2usize].iter().copied().collect();
        b.union_with(&a);
        assert_eq!(b.iter().collect::<Vec<_>>(), vec![1, 2, 70]);
    }

    #[test]
    fn and_or_counts_and_masked_walk_match_the_built_sets() {
        // Different allocated lengths on purpose: 700 lives in word 10.
        let a: BitSet = [1usize, 5, 64, 70, 700].iter().copied().collect();
        let b: BitSet = [5usize, 6, 70, 130].iter().copied().collect();
        for (x, y) in [(&a, &b), (&b, &a)] {
            let mut both = x.clone();
            both.intersect_with(y);
            assert_eq!(both.iter().collect::<Vec<_>>(), vec![5, 70]);
            assert_eq!(x.iter_masked(y).collect::<Vec<_>>(), vec![5, 70]);
            assert_eq!(x.intersection_count(y), 2);
            let mut either = x.clone();
            either.union_with(y);
            assert_eq!(x.union_count(y), either.count());
            assert_eq!(either.count(), 7);
        }
        assert_eq!(a.intersection_count(&BitSet::new()), 0);
        assert_eq!(a.union_count(&BitSet::new()), 5);
    }
}
