//! A word-bitset over a small dense index range, and a borrow-free
//! round-robin cursor over it.
//!
//! One structure serves every "which of my N things hold something"
//! question on the hot paths: the adapter's backlogged AdVOQs, the
//! switch's occupied / isolation-live input ports, the arbitration
//! request sets and the iSLIP grant walk (DESIGN.md §12). Any length
//! works — a set spans `len.div_ceil(64)` words.

/// Word-bitset over the indices `0..len`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BitSet {
    words: Vec<u64>,
}

impl BitSet {
    /// An empty set over `0..len`.
    pub fn new(len: usize) -> Self {
        Self {
            words: vec![0; len.div_ceil(64)],
        }
    }

    /// Add `i`.
    pub fn insert(&mut self, i: usize) {
        self.words[i / 64] |= 1 << (i % 64);
    }

    /// Remove `i`.
    pub fn remove(&mut self, i: usize) {
        self.words[i / 64] &= !(1 << (i % 64));
    }

    /// Make `i` a member iff `on`.
    pub fn set(&mut self, i: usize, on: bool) {
        if on {
            self.insert(i);
        } else {
            self.remove(i);
        }
    }

    /// Whether `i` is a member.
    pub fn contains(&self, i: usize) -> bool {
        self.words[i / 64] & (1 << (i % 64)) != 0
    }

    /// Whether the set has no member.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Remove every member.
    pub fn clear(&mut self) {
        self.words.fill(0);
    }

    /// Become a copy of `other` (a set over the same range).
    pub fn copy_from(&mut self, other: &BitSet) {
        self.words.copy_from_slice(&other.words);
    }

    /// Smallest member in `from..to`.
    pub fn next_in(&self, from: usize, to: usize) -> Option<usize> {
        if from >= to {
            return None;
        }
        let mut w = from / 64;
        let mut bits = self.words[w] & (!0 << (from % 64));
        loop {
            if bits != 0 {
                let i = w * 64 + bits.trailing_zeros() as usize;
                return (i < to).then_some(i);
            }
            w += 1;
            if w * 64 >= to {
                return None;
            }
            bits = self.words[w];
        }
    }

    /// The members in ascending order. For a walk that mutates the set
    /// (or its owner) between steps, call [`Self::next_in`] from one past
    /// the previous member instead.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        let end = self.words.len() * 64;
        let mut from = 0;
        std::iter::from_fn(move || {
            let i = self.next_in(from, end)?;
            from = i + 1;
            Some(i)
        })
    }
}

/// Cursor over a [`BitSet`] in round-robin order from `start`: the
/// members in `start..n` ascending, then those in `0..start` — the
/// order `(start + step) % n` visits them in. It borrows nothing, so the
/// caller can mutate its own state (and the set) between steps.
#[derive(Debug, Clone, Copy)]
pub struct RoundRobin {
    pos: usize,
    end: usize,
    start: usize,
}

impl RoundRobin {
    /// A cursor over `0..n` starting at `start`.
    pub fn new(start: usize, n: usize) -> Self {
        Self {
            pos: start,
            end: n,
            start,
        }
    }

    /// The next member of `set` in round-robin order.
    pub fn next(&mut self, set: &BitSet) -> Option<usize> {
        loop {
            if let Some(i) = set.next_in(self.pos, self.end) {
                self.pos = i + 1;
                return Some(i);
            }
            if self.end == self.start {
                return None; // second leg (or an empty first one) done
            }
            self.pos = 0;
            self.end = self.start;
        }
    }
}
