//! A fixed-capacity bitset over unit ids, for the genome's fission set and
//! the search space's per-loop unit sets.

use serde::{Deserialize, Serialize};

/// A set of unit ids stored one bit per id.
#[derive(Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub(crate) struct UnitSet {
    words: Vec<u64>,
}

impl Clone for UnitSet {
    fn clone(&self) -> UnitSet {
        UnitSet {
            words: self.words.clone(),
        }
    }

    fn clone_from(&mut self, source: &UnitSet) {
        self.words.clone_from(&source.words);
    }
}

impl UnitSet {
    /// The empty set able to hold ids `0..bits`.
    pub(crate) fn with_capacity(bits: usize) -> UnitSet {
        UnitSet {
            words: vec![0; bits.div_ceil(64)],
        }
    }

    /// The set of `ids`, able to hold ids `0..bits`.
    pub(crate) fn of(bits: usize, ids: impl IntoIterator<Item = usize>) -> UnitSet {
        let mut set = UnitSet::with_capacity(bits);
        for id in ids {
            set.insert(id);
        }
        set
    }

    pub(crate) fn contains(&self, id: usize) -> bool {
        self.words
            .get(id / 64)
            .is_some_and(|w| (w >> (id % 64)) & 1 == 1)
    }

    /// Add `id`; false if it was already present.
    pub(crate) fn insert(&mut self, id: usize) -> bool {
        let (w, bit) = (id / 64, 1u64 << (id % 64));
        if w >= self.words.len() {
            self.words.resize(w + 1, 0);
        }
        let fresh = self.words[w] & bit == 0;
        self.words[w] |= bit;
        fresh
    }

    /// Remove `id`; false if it was absent.
    pub(crate) fn remove(&mut self, id: usize) -> bool {
        let present = self.contains(id);
        if present {
            self.words[id / 64] &= !(1u64 << (id % 64));
        }
        present
    }

    pub(crate) fn len(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Members in ascending order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(i, &word)| {
            let mut w = word;
            std::iter::from_fn(move || {
                (w != 0).then(|| {
                    let bit = w.trailing_zeros() as usize;
                    w &= w - 1;
                    i * 64 + bit
                })
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_remove_and_ascending_iteration() {
        let mut s = UnitSet::with_capacity(130);
        assert!(s.insert(129));
        assert!(s.insert(3));
        assert!(!s.insert(3));
        assert!(s.insert(64));
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![3, 64, 129]);
        assert_eq!(s.len(), 3);
        assert!(s.remove(64));
        assert!(!s.remove(64));
        assert!(!s.contains(64) && s.contains(129) && !s.contains(1000));
        assert_eq!(UnitSet::of(130, [129, 3]), s);
    }
}
