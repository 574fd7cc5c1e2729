//! A growable bit set over `u64` words.
//!
//! [`BitSet`] is a dense, dependency-free set of `usize` indices: the
//! visible and seen cells of a visibility map, by partition rank.
//! Insertion grows the word vector on demand; intersection, union and
//! their counts work a word at a time; and equality ignores trailing zero
//! words, so a set's history of growth (an intersection keeps the shorter
//! operand's length) never leaks into comparisons.
//!
//! ```
//! use volcast_util::bitset::BitSet;
//!
//! let mut seen = BitSet::new();
//! seen.insert(3);
//! seen.insert(200);
//! let other: BitSet = [3, 7].into_iter().collect();
//! assert_eq!(seen.count(), 2);
//! assert_eq!(seen.intersection_count(&other), 1);
//! assert_eq!(seen.union_count(&other), 3);
//! assert_eq!(seen.iter().collect::<Vec<_>>(), vec![3, 200]);
//! ```

const WORD_BITS: usize = 64;

/// A growable set of `usize` indices backed by a vector of `u64` words.
///
/// Equality and the order of iteration are independent of the set's
/// allocated length: two sets holding the same indices compare equal even
/// if one grew further than the other.
#[derive(Debug, Default)]
pub struct BitSet {
    words: Vec<u64>,
}

impl Clone for BitSet {
    fn clone(&self) -> BitSet {
        BitSet {
            words: self.words.clone(),
        }
    }

    /// Copies `source` into this set's storage, allocating only if it is
    /// too short.
    fn clone_from(&mut self, source: &BitSet) {
        self.words.clone_from(&source.words);
    }
}

impl BitSet {
    /// An empty set. Allocates nothing until the first insertion.
    pub const fn new() -> BitSet {
        BitSet { words: Vec::new() }
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

    /// Empties the set and holds storage for every index below `len`, so
    /// that inserting them allocates nothing.
    pub fn clear_for(&mut self, len: usize) {
        self.words.clear();
        self.words.resize(len.div_ceil(WORD_BITS), 0);
    }

    /// Number of indices in the set.
    pub fn count(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// `true` when the set holds no indices.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
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
    /// canonical form `PartialEq` compares.
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
    fn insert_reports_fresh_indices_and_counts() {
        let mut s = BitSet::new();
        assert!(s.is_empty());
        assert!(s.insert(0));
        assert!(!s.insert(0), "double insert reports not-fresh");
        assert!(s.insert(63));
        assert!(s.insert(64));
        assert!(s.insert(1000));
        assert_eq!(s.count(), 4);
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![0, 63, 64, 1000]);
    }

    #[test]
    fn equality_ignores_trailing_zero_words() {
        // The intersection keeps the shorter operand's words: word 7 of
        // `grown` survives, emptied.
        let mut grown: BitSet = [5, 500].into_iter().collect();
        grown.intersect_with(&[5, 600].into_iter().collect());
        let small: BitSet = [5].into_iter().collect();
        assert_eq!(grown, small);
        grown.intersect_with(&BitSet::new());
        assert_eq!(grown, BitSet::new());
        assert!(grown.is_empty());
    }

    #[test]
    fn iter_is_ascending_and_complete() {
        let indices = [0usize, 1, 63, 64, 65, 127, 128, 700];
        let s: BitSet = indices.iter().copied().collect();
        assert_eq!(s.iter().collect::<Vec<_>>(), indices);
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
