//! Fixed-capacity bit vector.
//!
//! The communication substrate tracks which graph nodes were *touched*
//! (updated or accessed) in each synchronization round with one bit per
//! node (paper §4.4, RepModel-Opt). The operations that matter are:
//! set/test, clearing the whole vector between rounds, and iterating set
//! bits in index order (to build sparse message payloads).

/// A fixed-capacity bit vector backed by `u64` words.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BitVec {
    words: Vec<u64>,
    len: usize,
}

impl Default for BitVec {
    /// An empty (zero-bit) vector; resize by replacing with [`BitVec::new`].
    fn default() -> Self {
        Self::new(0)
    }
}

impl BitVec {
    /// Creates a bit vector with `len` bits, all zero.
    pub fn new(len: usize) -> Self {
        Self {
            words: vec![0; len.div_ceil(64)],
            len,
        }
    }

    /// Number of bits.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the vector has zero bits.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Sets bit `i`. Returns the previous value.
    #[inline]
    pub fn set(&mut self, i: usize) -> bool {
        debug_assert!(i < self.len, "bit index {i} out of range {}", self.len);
        let (w, b) = (i / 64, i % 64);
        let prev = (self.words[w] >> b) & 1 == 1;
        self.words[w] |= 1 << b;
        prev
    }

    /// Clears bit `i`.
    #[cfg(test)]
    pub(crate) fn clear(&mut self, i: usize) {
        debug_assert!(i < self.len);
        self.words[i / 64] &= !(1 << (i % 64));
    }

    /// Tests bit `i`.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        debug_assert!(i < self.len);
        (self.words[i / 64] >> (i % 64)) & 1 == 1
    }

    /// Zeroes every bit. O(words), no reallocation.
    pub fn clear_all(&mut self) {
        self.words.fill(0);
    }

    /// Sets every bit.
    pub fn set_all(&mut self) {
        self.words.fill(!0);
        self.mask_tail();
    }

    /// Number of set bits.
    #[cfg(test)]
    pub(crate) fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// True if no bit is set.
    pub fn none(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Iterates indices of set bits in increasing order.
    ///
    /// Word-skipping: zero words cost one comparison, so iteration over a
    /// sparse vector is proportional to set bits plus words.
    pub fn iter_ones(&self) -> IterOnes<'_> {
        IterOnes {
            words: &self.words,
            word_idx: 0,
            current: self.words.first().copied().unwrap_or(0),
            len: self.len,
        }
    }

    /// Keeps bits beyond `len` zero after bulk operations.
    fn mask_tail(&mut self) {
        let tail = self.len % 64;
        if tail != 0 {
            if let Some(last) = self.words.last_mut() {
                *last &= (1u64 << tail) - 1;
            }
        }
    }
}

/// Iterator over set-bit indices; see [`BitVec::iter_ones`].
pub struct IterOnes<'a> {
    words: &'a [u64],
    word_idx: usize,
    current: u64,
    len: usize,
}

impl Iterator for IterOnes<'_> {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        loop {
            if self.current != 0 {
                let bit = self.current.trailing_zeros() as usize;
                self.current &= self.current - 1; // clear lowest set bit
                let idx = self.word_idx * 64 + bit;
                return (idx < self.len).then_some(idx);
            }
            self.word_idx += 1;
            if self.word_idx >= self.words.len() {
                return None;
            }
            self.current = self.words[self.word_idx];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn set_get_roundtrip() {
        let mut bv = BitVec::new(200);
        assert!(!bv.get(0));
        assert!(!bv.set(63));
        assert!(bv.set(63), "second set reports previous value");
        assert!(bv.get(63));
        assert!(!bv.get(64));
        bv.set(64);
        assert!(bv.get(64));
        bv.clear(63);
        assert!(!bv.get(63));
        assert!(bv.get(64));
    }

    #[test]
    fn count_and_none() {
        let mut bv = BitVec::new(130);
        assert!(bv.none());
        assert_eq!(bv.count_ones(), 0);
        for i in [0, 1, 64, 65, 129] {
            bv.set(i);
        }
        assert_eq!(bv.count_ones(), 5);
        assert!(!bv.none());
        bv.clear_all();
        assert!(bv.none());
    }

    #[test]
    fn set_all_respects_length() {
        let mut bv = BitVec::new(70);
        bv.set_all();
        assert_eq!(bv.count_ones(), 70);
        assert_eq!(bv.iter_ones().count(), 70);
    }

    #[test]
    fn iter_ones_in_order() {
        let mut bv = BitVec::new(300);
        let idxs = [3usize, 64, 65, 127, 128, 255, 299];
        for &i in &idxs {
            bv.set(i);
        }
        let collected: Vec<usize> = bv.iter_ones().collect();
        assert_eq!(collected, idxs);
    }

    #[test]
    fn iter_ones_empty_and_full_word_boundaries() {
        let bv = BitVec::new(0);
        assert_eq!(bv.iter_ones().count(), 0);
        let bv = BitVec::new(64);
        assert_eq!(bv.iter_ones().count(), 0);
        let mut bv = BitVec::new(64);
        bv.set_all();
        assert_eq!(bv.iter_ones().count(), 64);
    }

    proptest! {
        #[test]
        fn prop_matches_hashset(len in 1usize..512, ops in proptest::collection::vec((0usize..512, any::<bool>()), 0..200)) {
            let mut bv = BitVec::new(len);
            let mut set = std::collections::BTreeSet::new();
            for (i, insert) in ops {
                let i = i % len;
                if insert {
                    bv.set(i);
                    set.insert(i);
                } else {
                    bv.clear(i);
                    set.remove(&i);
                }
            }
            prop_assert_eq!(bv.count_ones(), set.len());
            prop_assert_eq!(bv.iter_ones().collect::<Vec<_>>(), set.iter().copied().collect::<Vec<_>>());
            for i in 0..len {
                prop_assert_eq!(bv.get(i), set.contains(&i));
            }
        }
    }
}
