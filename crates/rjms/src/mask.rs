//! Fixed-size node bitsets.
//!
//! Node sets are the currency of the scheduling hot path: the cluster's
//! availability, the nodes blocked by overlapping reservations, a job's
//! allocation. The seed implementation shuttled them around as
//! `Vec<usize>` / `HashSet<usize>`, paying a heap allocation and a hashing
//! pass per set per scheduling pass. [`NodeMask`] replaces all of that with
//! one `u64` word per 64 nodes (a full 5 040-node Curie is 79 words):
//! membership is a shift, set algebra is word-wise `&`/`|`/`!`, counting is
//! `popcnt`, and iteration is a `trailing_zeros` scan — all branch-light
//! and allocation-free once the words are sized for the platform.

const WORD_BITS: usize = u64::BITS as usize;

/// A set of node ids backed by a bit vector.
///
/// The mask grows on demand (inserting id `n` sizes it for at least
/// `n + 1` bits) and never shrinks, so scratch masks reused across
/// scheduling passes stop allocating once they have seen the platform's
/// node count. The number of set bits is cached, making [`len`](Self::len)
/// O(1).
#[derive(Debug, Clone, Default)]
pub struct NodeMask {
    words: Vec<u64>,
    ones: usize,
}

impl NodeMask {
    /// An empty mask sized for node ids `0..nbits`.
    pub fn with_capacity(nbits: usize) -> Self {
        NodeMask {
            words: vec![0; nbits.div_ceil(WORD_BITS)],
            ones: 0,
        }
    }

    /// A mask containing every id in `0..nbits`.
    pub fn full(nbits: usize) -> Self {
        let mut mask = NodeMask::with_capacity(nbits);
        for word in 0..nbits / WORD_BITS {
            mask.words[word] = u64::MAX;
        }
        let tail = nbits % WORD_BITS;
        if tail > 0 {
            mask.words[nbits / WORD_BITS] = (1u64 << tail) - 1;
        }
        mask.ones = nbits;
        mask
    }

    /// Number of ids in the set (cached popcount).
    #[inline]
    pub fn len(&self) -> usize {
        self.ones
    }

    /// Is the set empty?
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.ones == 0
    }

    /// Allocated backing-word capacity (allocation-tracking diagnostics).
    pub fn word_capacity(&self) -> usize {
        self.words.capacity()
    }

    /// Does the set contain `id`?
    #[inline]
    pub fn contains(&self, id: usize) -> bool {
        self.words
            .get(id / WORD_BITS)
            .is_some_and(|w| w & (1u64 << (id % WORD_BITS)) != 0)
    }

    /// Insert `id`, growing the mask if needed. Returns whether the id was
    /// newly inserted.
    pub fn insert(&mut self, id: usize) -> bool {
        let word = id / WORD_BITS;
        if word >= self.words.len() {
            self.words.resize(word + 1, 0);
        }
        let bit = 1u64 << (id % WORD_BITS);
        let fresh = self.words[word] & bit == 0;
        self.words[word] |= bit;
        self.ones += usize::from(fresh);
        fresh
    }

    /// Remove `id`. Returns whether it was present.
    pub fn remove(&mut self, id: usize) -> bool {
        let Some(word) = self.words.get_mut(id / WORD_BITS) else {
            return false;
        };
        let bit = 1u64 << (id % WORD_BITS);
        let present = *word & bit != 0;
        *word &= !bit;
        self.ones -= usize::from(present);
        present
    }

    /// Empty the set, keeping the allocation.
    pub fn clear(&mut self) {
        self.words.fill(0);
        self.ones = 0;
    }

    /// Union `other` into `self`.
    pub fn union_with(&mut self, other: &NodeMask) {
        if other.words.len() > self.words.len() {
            self.words.resize(other.words.len(), 0);
        }
        let mut ones = 0usize;
        for (dst, &src) in self.words.iter_mut().zip(other.words.iter()) {
            *dst |= src;
            ones += dst.count_ones() as usize;
        }
        for &dst in &self.words[other.words.len()..] {
            ones += dst.count_ones() as usize;
        }
        self.ones = ones;
    }

    /// `|self & !other|` without materialising the difference — the count
    /// of selectable nodes given a blocked set.
    pub fn count_and_not(&self, other: &NodeMask) -> usize {
        self.words
            .iter()
            .enumerate()
            .map(|(i, &w)| (w & !other.words.get(i).copied().unwrap_or(0)).count_ones() as usize)
            .sum()
    }

    /// Iterate the set ids in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(i, &w)| BitIter {
            word: w,
            base: i * WORD_BITS,
        })
    }

    /// Iterate `self & !blocked` restricted to ids in `[start, end)`, in
    /// ascending order — the inner loop of node selection, over one
    /// chassis range.
    pub fn iter_and_not_in<'a>(
        &'a self,
        blocked: &'a NodeMask,
        start: usize,
        end: usize,
    ) -> AndNotRangeIter<'a> {
        AndNotRangeIter {
            mask: self,
            blocked,
            cursor: start,
            end: end.min(self.words.len() * WORD_BITS),
            current: None,
        }
    }

    /// Iterate `self & !blocked` over the whole mask.
    pub fn iter_and_not<'a>(&'a self, blocked: &'a NodeMask) -> AndNotRangeIter<'a> {
        self.iter_and_not_in(blocked, 0, self.words.len() * WORD_BITS)
    }
}

impl PartialEq for NodeMask {
    /// Set equality: two masks are equal when they contain the same ids,
    /// regardless of how many zero words each one has grown.
    fn eq(&self, other: &Self) -> bool {
        if self.ones != other.ones {
            return false;
        }
        let common = self.words.len().min(other.words.len());
        self.words[..common] == other.words[..common]
            && self.words[common..].iter().all(|&w| w == 0)
            && other.words[common..].iter().all(|&w| w == 0)
    }
}

impl Eq for NodeMask {}

impl FromIterator<usize> for NodeMask {
    fn from_iter<T: IntoIterator<Item = usize>>(iter: T) -> Self {
        let mut mask = NodeMask::default();
        for id in iter {
            mask.insert(id);
        }
        mask
    }
}

impl Extend<usize> for NodeMask {
    fn extend<T: IntoIterator<Item = usize>>(&mut self, iter: T) {
        for id in iter {
            self.insert(id);
        }
    }
}

/// Iterator over the set bits of one word (helper for [`NodeMask::iter`]).
struct BitIter {
    word: u64,
    base: usize,
}

impl Iterator for BitIter {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        if self.word == 0 {
            return None;
        }
        let bit = self.word.trailing_zeros() as usize;
        self.word &= self.word - 1;
        Some(self.base + bit)
    }
}

/// Iterator over `mask & !blocked` within an id range; see
/// [`NodeMask::iter_and_not_in`].
pub struct AndNotRangeIter<'a> {
    mask: &'a NodeMask,
    blocked: &'a NodeMask,
    cursor: usize,
    end: usize,
    current: Option<BitIter>,
}

impl Iterator for AndNotRangeIter<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        loop {
            if let Some(iter) = &mut self.current {
                if let Some(id) = iter.next() {
                    if id < self.end {
                        return Some(id);
                    }
                    self.current = None;
                    self.cursor = self.end;
                    return None;
                }
                self.current = None;
            }
            if self.cursor >= self.end {
                return None;
            }
            let word_index = self.cursor / WORD_BITS;
            let mut word = self.mask.words[word_index]
                & !self.blocked.words.get(word_index).copied().unwrap_or(0);
            // Mask off ids below the cursor inside the first word.
            let offset = self.cursor % WORD_BITS;
            if offset > 0 {
                word &= !((1u64 << offset) - 1);
            }
            self.current = Some(BitIter {
                word,
                base: word_index * WORD_BITS,
            });
            self.cursor = (word_index + 1) * WORD_BITS;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_remove_contains_len() {
        let mut m = NodeMask::with_capacity(90);
        assert!(m.is_empty());
        assert!(m.insert(0));
        assert!(m.insert(63));
        assert!(m.insert(64));
        assert!(m.insert(89));
        assert!(!m.insert(89), "double insert is a no-op");
        assert_eq!(m.len(), 4);
        assert!(m.contains(63) && m.contains(64));
        assert!(!m.contains(1) && !m.contains(1000));
        assert!(m.remove(63));
        assert!(!m.remove(63));
        assert_eq!(m.len(), 3);
        m.clear();
        assert!(m.is_empty());
        assert!(!m.contains(0));
    }

    #[test]
    fn grows_on_demand() {
        let mut m = NodeMask::default();
        m.insert(500);
        assert!(m.contains(500));
        assert_eq!(m.len(), 1);
        assert_eq!(m.iter().collect::<Vec<_>>(), vec![500]);
    }

    #[test]
    fn full_and_iteration_order() {
        let m = NodeMask::full(130);
        assert_eq!(m.len(), 130);
        let ids: Vec<usize> = m.iter().collect();
        assert_eq!(ids, (0..130).collect::<Vec<_>>());
        assert!(!m.contains(130));
        // Word-aligned capacity has no tail word.
        let aligned = NodeMask::full(128);
        assert_eq!(aligned.len(), 128);
    }

    #[test]
    fn union_and_count_and_not() {
        let a: NodeMask = [1usize, 5, 64, 70].into_iter().collect();
        let b: NodeMask = [5usize, 6, 200].into_iter().collect();
        let mut u = a.clone();
        u.union_with(&b);
        assert_eq!(u.len(), 6);
        assert_eq!(u.iter().collect::<Vec<_>>(), vec![1, 5, 6, 64, 70, 200]);
        // a & !b = {1, 64, 70}.
        assert_eq!(a.count_and_not(&b), 3);
        // Blocked mask smaller than self: missing words block nothing.
        assert_eq!(b.count_and_not(&a), 2);
        assert_eq!(a.count_and_not(&NodeMask::default()), 4);
    }

    #[test]
    fn and_not_range_iteration() {
        let avail = NodeMask::full(200);
        let blocked: NodeMask = (0..100).filter(|i| i % 2 == 0).collect();
        let odd: Vec<usize> = avail.iter_and_not_in(&blocked, 10, 20).collect();
        assert_eq!(odd, vec![11, 13, 15, 17, 19]);
        // Past the blocked mask's extent everything is selectable.
        let tail: Vec<usize> = avail.iter_and_not_in(&blocked, 195, 400).collect();
        assert_eq!(tail, vec![195, 196, 197, 198, 199]);
        // Whole-mask variant.
        assert_eq!(avail.iter_and_not(&blocked).count(), 150);
        // Empty range.
        assert_eq!(avail.iter_and_not_in(&blocked, 50, 50).count(), 0);
    }

    #[test]
    fn set_equality_ignores_capacity() {
        let mut a = NodeMask::with_capacity(64);
        let mut b = NodeMask::with_capacity(4096);
        a.insert(3);
        b.insert(3);
        assert_eq!(a, b);
        b.insert(70);
        assert_ne!(a, b);
    }

    #[test]
    fn extend_collects_ids() {
        let mut m = NodeMask::default();
        m.extend(10..14);
        assert_eq!(m.iter().collect::<Vec<_>>(), vec![10, 11, 12, 13]);
    }
}
