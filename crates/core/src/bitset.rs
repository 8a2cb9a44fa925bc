//! A word-bitset over a small dense index range, a borrow-free
//! round-robin cursor over it, and a sparse map keyed by such an index.
//!
//! One structure serves every "which of my N things hold something"
//! question on the hot paths: the adapter's backlogged AdVOQs, the
//! switch's occupied / isolation-live input ports, the arbitration
//! request sets and the iSLIP grant walk (DESIGN.md §12). Any length
//! works — a set spans `len.div_ceil(64)` words, held inline (no heap
//! block) up to 64 indices. [`DestMap`] answers the companion question
//! "what do I hold *for* thing `k`" when only a few of the N things ever
//! get an answer (the adapter's per-destination state), by binary search
//! over the keys it holds.

/// Word-bitset over the indices `0..len`. A set over at most 64 indices
/// — every port set of a switch of up to 64 ports — keeps its one word
/// inline and allocates nothing; a larger one keeps all its words on the
/// heap. An index past the set's last word is the caller's error: a
/// heap set panics on it, an inline one only in debug builds.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BitSet {
    /// The word of a set over at most 64 indices; 0 for a larger one, so
    /// that equal sets compare equal field by field.
    inline: u64,
    /// Every word of a set over more than 64 indices; empty otherwise.
    heap: Vec<u64>,
}

impl BitSet {
    /// An empty set over `0..len`.
    pub fn new(len: usize) -> Self {
        let words = len.div_ceil(64);
        Self {
            inline: 0,
            heap: if words > 1 {
                vec![0; words]
            } else {
                Vec::new()
            },
        }
    }

    #[inline]
    fn words(&self) -> &[u64] {
        if self.heap.is_empty() {
            std::slice::from_ref(&self.inline)
        } else {
            &self.heap
        }
    }

    #[inline]
    fn words_mut(&mut self) -> &mut [u64] {
        if self.heap.is_empty() {
            std::slice::from_mut(&mut self.inline)
        } else {
            &mut self.heap
        }
    }

    /// The word that holds index `i`: one branch, and no bounds check on
    /// the inline path — reading it through [`Self::words`] cost the
    /// 64-node workloads about 1 % of their cycle rate (DESIGN.md §12).
    #[inline]
    fn word(&self, i: usize) -> u64 {
        if self.heap.is_empty() {
            debug_assert!(i < 64);
            self.inline
        } else {
            self.heap[i / 64]
        }
    }

    #[inline]
    fn word_mut(&mut self, i: usize) -> &mut u64 {
        if self.heap.is_empty() {
            debug_assert!(i < 64);
            &mut self.inline
        } else {
            &mut self.heap[i / 64]
        }
    }

    /// Add `i`.
    #[inline]
    pub fn insert(&mut self, i: usize) {
        *self.word_mut(i) |= 1 << (i % 64);
    }

    /// Remove `i`.
    #[inline]
    pub fn remove(&mut self, i: usize) {
        *self.word_mut(i) &= !(1 << (i % 64));
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
    #[inline]
    pub fn contains(&self, i: usize) -> bool {
        self.word(i) & (1 << (i % 64)) != 0
    }

    /// Whether the set has no member.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.words().iter().all(|&w| w == 0)
    }

    /// Remove every member.
    pub fn clear(&mut self) {
        self.words_mut().fill(0);
    }

    /// Become a copy of `other` (a set over the same range).
    pub fn copy_from(&mut self, other: &BitSet) {
        self.words_mut().copy_from_slice(other.words());
    }

    /// Renumber for an index inserted at `at`: every member `i >= at`
    /// becomes `i + 1` and `at` itself is not a member. `len` is the
    /// index range after the insertion; the set grows to span it, and
    /// moves to the heap when that range passes 64.
    pub fn insert_gap(&mut self, at: usize, len: usize) {
        debug_assert!(at < len);
        let words = len.div_ceil(64);
        if words > 1 && self.heap.is_empty() {
            self.heap = vec![std::mem::take(&mut self.inline)];
        }
        if !self.heap.is_empty() {
            self.heap.resize(words, 0);
        }
        let words = self.words_mut();
        let below = (1u64 << (at % 64)) - 1;
        let first = &mut words[at / 64];
        let mut carry = *first >> 63;
        *first = (*first & below) | ((*first & !below) << 1);
        for w in &mut words[at / 64 + 1..] {
            let out = *w >> 63;
            *w = (*w << 1) | carry;
            carry = out;
        }
        debug_assert_eq!(
            carry, 0,
            "a member at or above `len - 1` before the insertion"
        );
    }

    /// Smallest member in `from..to`.
    pub fn next_in(&self, from: usize, to: usize) -> Option<usize> {
        if from >= to {
            return None;
        }
        let mut w = from / 64;
        let mut bits = self.word(from) & (!0 << (from % 64));
        loop {
            if bits != 0 {
                let i = w * 64 + bits.trailing_zeros() as usize;
                return (i < to).then_some(i);
            }
            w += 1;
            if w * 64 >= to {
                return None;
            }
            bits = self.word(w * 64);
        }
    }

    /// The members in ascending order. For a walk that mutates the set
    /// (or its owner) between steps, call [`Self::next_in`] from one past
    /// the previous member instead.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        let end = self.words().len() * 64;
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
    /// A cursor over `0..n` starting at `start`; `start == n` (one past
    /// the last index) wraps to 0.
    pub fn new(start: usize, n: usize) -> Self {
        let start = if start == n { 0 } else { start };
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

/// A sparse map from a small index to a `T`, for the case where few of
/// the indices ever hold a value: the keys and values live in two slabs
/// sorted by key, so a *slot* (position in the slabs) orders like its
/// key and walking the slabs visits keys ascending.
///
/// A point lookup is a binary search over the sorted keys — an adapter
/// meets 2 to 63 destinations, so it takes at most six probes. Cost per
/// map: one `u32` and one `T` per key actually inserted, nothing per key
/// it could hold. Entries are never removed, so a slot only ever moves
/// up (when a smaller key is inserted below it).
#[derive(Debug, Clone)]
pub struct DestMap<T> {
    /// Slot → key, ascending.
    keys: Vec<u32>,
    /// Slot → value.
    vals: Vec<T>,
}

/// Written out, not derived: a derive would bound `T: Default`.
impl<T> Default for DestMap<T> {
    fn default() -> Self {
        Self {
            keys: Vec::new(),
            vals: Vec::new(),
        }
    }
}

impl<T> DestMap<T> {
    /// An empty map.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of keys that hold a value (= number of slots).
    pub fn len(&self) -> usize {
        self.vals.len()
    }

    /// Whether no key holds a value.
    pub fn is_empty(&self) -> bool {
        self.vals.is_empty()
    }

    /// Members below `key` — the slot `key` has, or would be inserted at.
    #[inline]
    pub fn rank(&self, key: usize) -> usize {
        self.keys.partition_point(|&k| (k as usize) < key)
    }

    /// The slot of `key`, if it holds a value.
    #[inline]
    pub fn slot(&self, key: usize) -> Option<usize> {
        let slot = self.rank(key);
        (self.keys.get(slot).map(|&k| k as usize) == Some(key)).then_some(slot)
    }

    /// Give the absent `key` a value and return its slot. Every slot at
    /// or above the returned one has moved up by one.
    pub fn insert(&mut self, key: usize, val: T) -> usize {
        debug_assert!(self.slot(key).is_none(), "key {key} inserted twice");
        let slot = self.rank(key);
        self.keys.insert(slot, key as u32);
        self.vals.insert(slot, val);
        slot
    }

    /// The key held in `slot`.
    #[inline]
    pub fn key(&self, slot: usize) -> usize {
        self.keys[slot] as usize
    }

    /// The value of `key`, if it holds one.
    pub fn get(&self, key: usize) -> Option<&T> {
        self.slot(key).map(|s| &self.vals[s])
    }

    /// The values in slot (= ascending key) order.
    pub fn values(&self) -> &[T] {
        &self.vals
    }

    /// `(key, value)` in ascending key order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, &T)> {
        self.keys.iter().map(|&k| k as usize).zip(&self.vals)
    }
}

/// By slot, not by key.
impl<T> std::ops::Index<usize> for DestMap<T> {
    type Output = T;

    #[inline]
    fn index(&self, slot: usize) -> &T {
        &self.vals[slot]
    }
}

impl<T> std::ops::IndexMut<usize> for DestMap<T> {
    #[inline]
    fn index_mut(&mut self, slot: usize) -> &mut T {
        &mut self.vals[slot]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Universes from one key to 1 541, across the side set's word
    /// boundaries and past 512 keys.
    const UNIVERSES: [usize; 12] = [1, 63, 64, 65, 127, 128, 129, 300, 511, 512, 513, 1541];

    proptest! {
        /// Random insert / find sequences against a dense
        /// `Vec<Option<T>>`: same answers, slots in key order, every
        /// key's rank the number of members below it, and a
        /// slot-indexed side set that follows `insert_gap` names the
        /// same keys before and after every insertion.
        #[test]
        fn dest_map_matches_a_dense_vector(
            universe in 0usize..UNIVERSES.len(),
            ops in prop::collection::vec((any::<bool>(), any::<u32>(), any::<bool>()), 1..200),
        ) {
            let n = UNIVERSES[universe];
            let mut map = DestMap::new();
            let mut dense: Vec<Option<u32>> = vec![None; n];
            // A set over slots (the adapter's `backlogged`) and the set
            // of keys it is meant to name.
            let mut marked_slots = BitSet::new(0);
            let mut marked_keys = BitSet::new(n);
            for (insert, k, mark) in ops {
                let key = k as usize % n;
                if insert && dense[key].is_none() {
                    let slot = map.insert(key, k);
                    dense[key] = Some(k);
                    marked_slots.insert_gap(slot, map.len());
                    prop_assert_eq!(map.key(slot), key);
                    prop_assert!(!marked_slots.contains(slot));
                    if mark {
                        marked_slots.insert(slot);
                        marked_keys.insert(key);
                    }
                }
                prop_assert_eq!(map.get(key), dense[key].as_ref());
                prop_assert_eq!(map.slot(key).map(|s| map[s]), dense[key]);
                let walked: Vec<(usize, u32)> = map.iter().map(|(k, &v)| (k, v)).collect();
                let expect: Vec<(usize, u32)> = dense
                    .iter()
                    .enumerate()
                    .filter_map(|(k, v)| v.map(|v| (k, v)))
                    .collect();
                prop_assert_eq!(map.len(), expect.len());
                prop_assert_eq!(walked, expect);
                let named: Vec<usize> = marked_slots.iter().map(|s| map.key(s)).collect();
                prop_assert_eq!(named, marked_keys.iter().collect::<Vec<_>>());
                let mut below = 0;
                for (k, v) in dense.iter().enumerate() {
                    prop_assert_eq!(map.rank(k), below, "rank of {}", k);
                    below += usize::from(v.is_some());
                }
            }
            for (key, v) in dense.iter().enumerate() {
                prop_assert_eq!(map.get(key), v.as_ref());
            }
        }
    }

    /// Universes around the inline word's edge.
    const SMALL_UNIVERSES: [usize; 5] = [0, 1, 63, 64, 65];

    proptest! {
        /// Random operation sequences against a `Vec<bool>`: after every
        /// step each method answers as the model does, and an insertion
        /// gap grows the set — across the inline word's edge when it
        /// reaches 65 indices.
        #[test]
        fn bitset_matches_a_vector_of_flags(
            universe in 0usize..SMALL_UNIVERSES.len(),
            ops in prop::collection::vec((0u8..6, any::<u32>(), any::<u32>()), 1..120),
        ) {
            let mut model = vec![false; SMALL_UNIVERSES[universe]];
            let mut set = BitSet::new(model.len());
            for (op, a, b) in ops {
                let n = model.len();
                let (a, b) = (a as usize, b as usize);
                match op {
                    0..=2 if n > 0 => {
                        let (i, on) = (a % n, op == 0 || (op == 2 && b % 2 == 0));
                        match op {
                            0 => set.insert(i),
                            1 => set.remove(i),
                            _ => set.set(i, on),
                        }
                        model[i] = on;
                    }
                    3 if b % 8 == 0 => {
                        set.clear();
                        model.fill(false);
                    }
                    4 => {
                        // The members of a fresh set over the same range.
                        let mut other = BitSet::new(n);
                        for (i, flag) in model.iter_mut().enumerate() {
                            *flag = (a >> (i % 32)) & 1 == 1;
                            other.set(i, *flag);
                        }
                        set.copy_from(&other);
                        prop_assert_eq!(&set, &other);
                    }
                    5 if n < 130 => {
                        let at = a % (n + 1);
                        set.insert_gap(at, n + 1);
                        model.insert(at, false);
                    }
                    _ => {}
                }
                let n = model.len();
                let members: Vec<usize> = (0..n).filter(|&i| model[i]).collect();
                for (i, &flag) in model.iter().enumerate() {
                    prop_assert_eq!(set.contains(i), flag, "contains({})", i);
                }
                prop_assert_eq!(set.is_empty(), members.is_empty());
                prop_assert_eq!(set.iter().collect::<Vec<_>>(), members.clone());
                for from in 0..=n {
                    let next = members.iter().copied().find(|&i| i >= from);
                    prop_assert_eq!(set.next_in(from, n), next, "next_in({}, {})", from, n);
                }
                let (from, to) = (a % (n + 1), b % (n + 1));
                let next = members.iter().copied().find(|&i| i >= from && i < to);
                prop_assert_eq!(set.next_in(from, to), next, "next_in({}, {})", from, to);
                prop_assert_eq!(set.heap.is_empty(), n <= 64, "words on the heap at {}", n);
            }
        }
    }

    /// A 64-index set keeps its word inline; the insertion that makes it
    /// 65 moves every member, shifted past the gap, to the heap.
    #[test]
    fn insert_gap_moves_a_full_word_to_the_heap() {
        let mut set = BitSet::new(64);
        for i in [0, 5, 62, 63] {
            set.insert(i);
        }
        assert!(set.heap.is_empty(), "64 indices fit the inline word");
        set.insert_gap(6, 65);
        assert_eq!(set.iter().collect::<Vec<_>>(), [0, 5, 63, 64]);
        let mut fresh = BitSet::new(65);
        for i in [0, 5, 63, 64] {
            fresh.insert(i);
        }
        assert_eq!(
            set, fresh,
            "the moved set holds exactly a fresh one's words"
        );
    }

    /// The gap shift carries across words: members at 62..=65 around an
    /// insertion at each of 63, 64 and 65.
    #[test]
    fn insert_gap_shifts_across_the_word_boundary() {
        for at in [63, 64, 65] {
            let mut set = BitSet::new(66);
            for i in 62..66 {
                set.insert(i);
            }
            set.insert_gap(at, 67);
            let expect: Vec<usize> = (62..66).map(|i| if i >= at { i + 1 } else { i }).collect();
            assert_eq!(set.iter().collect::<Vec<_>>(), expect, "gap at {at}");
        }
    }
}
