//! Content-addressable memory (CAM) for congestion tracking.
//!
//! RECN, FBICM and CCFIT keep a small CAM at each port whose lines record
//! the congested points currently known at that port. In FBICM and CCFIT
//! (distributed deterministic routing) a line is keyed by the
//! **destination** the congested packets are addressed to (footnote 3 of
//! the paper); the payload differs between input ports (which bind a line
//! to a CFQ and track Stop/Go state) and output ports (which track
//! propagated congestion info from the downstream switch).
//!
//! This module provides the storage discipline only — fixed number of
//! lines, associative lookup by key, explicit allocate/free — leaving the
//! congestion semantics to the payload type `V`. Lookups are linear scans:
//! hardware CAMs are fully associative and our line counts are tiny (2–8).

use crate::error::EngineError;

/// One occupied CAM line.
#[derive(Debug, Clone, PartialEq)]
pub struct CamLine<K, V> {
    /// Associative key (the congested destination).
    pub key: K,
    /// Mechanism-specific state.
    pub value: V,
}

/// A fixed-capacity content-addressable memory. Its lines are allocated
/// by its first [`Cam::allocate`], so a CAM that never holds a line —
/// every port of a network without congestion — holds no heap block.
#[derive(Debug, Clone)]
pub struct Cam<K, V> {
    /// Empty until the first allocation, `capacity` lines from then on.
    lines: Vec<Option<CamLine<K, V>>>,
    capacity: usize,
}

impl<K: Eq + Copy, V> Cam<K, V> {
    /// Create a CAM with `lines` lines, all free.
    pub fn new(lines: usize) -> Self {
        Self {
            lines: Vec::new(),
            capacity: lines,
        }
    }

    /// Total number of lines.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of occupied lines.
    pub fn occupied(&self) -> usize {
        self.lines.iter().filter(|l| l.is_some()).count()
    }

    /// True when no line is free — the resource-exhaustion condition that
    /// makes pure congested-flow isolation lose to CCFIT in Fig. 8b/c.
    pub fn is_full(&self) -> bool {
        self.lines.len() == self.capacity && self.lines.iter().all(|l| l.is_some())
    }

    /// Index of the line matching `key`, if any.
    pub fn lookup(&self, key: K) -> Option<usize> {
        self.lines
            .iter()
            .position(|l| matches!(l, Some(line) if line.key == key))
    }

    /// Allocate a free line for `key`. Fails with [`EngineError::CamFull`]
    /// when no line is free; callers fall back to leaving packets in the
    /// NFQ (reintroducing HoL-blocking, as the paper describes).
    ///
    /// # Panics
    /// Debug-panics if `key` is already present — congestion bookkeeping
    /// must look up before allocating.
    pub fn allocate(&mut self, key: K, value: V) -> Result<usize, EngineError> {
        debug_assert!(self.lookup(key).is_none(), "duplicate CAM allocation");
        if self.lines.is_empty() {
            self.lines.reserve_exact(self.capacity);
            self.lines.resize_with(self.capacity, || None);
        }
        match self.lines.iter().position(|l| l.is_none()) {
            Some(idx) => {
                self.lines[idx] = Some(CamLine { key, value });
                Ok(idx)
            }
            None => Err(EngineError::CamFull {
                capacity: self.capacity(),
            }),
        }
    }

    /// Free line `idx`, returning its contents.
    ///
    /// # Panics
    /// Panics if the line is already free.
    pub fn free(&mut self, idx: usize) -> CamLine<K, V> {
        self.lines[idx]
            .take()
            .expect("freeing an already-free CAM line")
    }

    /// Borrow the line at `idx`, if occupied.
    pub fn get(&self, idx: usize) -> Option<&CamLine<K, V>> {
        self.lines.get(idx).and_then(|l| l.as_ref())
    }

    /// Mutably borrow the line at `idx`, if occupied.
    pub fn get_mut(&mut self, idx: usize) -> Option<&mut CamLine<K, V>> {
        self.lines.get_mut(idx).and_then(|l| l.as_mut())
    }

    /// Free every line at once. Used when a fail-stop fault quiesces a
    /// port: the CAM's lines describe congestion state of a cable that
    /// no longer exists, so all of it is discarded and rebuilt from
    /// live traffic after recovery.
    pub fn clear(&mut self) {
        for line in &mut self.lines {
            *line = None;
        }
    }

    /// Iterate over `(index, line)` pairs for occupied lines.
    pub fn iter(&self) -> impl Iterator<Item = (usize, &CamLine<K, V>)> {
        self.lines
            .iter()
            .enumerate()
            .filter_map(|(i, l)| l.as_ref().map(|line| (i, line)))
    }

    /// Iterate mutably over `(index, line)` pairs for occupied lines.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = (usize, &mut CamLine<K, V>)> {
        self.lines
            .iter_mut()
            .enumerate()
            .filter_map(|(i, l)| l.as_mut().map(|line| (i, line)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocate_lookup_free_cycle() {
        let mut cam: Cam<u32, &str> = Cam::new(2);
        assert_eq!(cam.capacity(), 2);
        assert_eq!(cam.occupied(), 0);

        let a = cam.allocate(7, "seven").unwrap();
        assert_eq!(cam.lookup(7), Some(a));
        assert_eq!(cam.get(a).unwrap().value, "seven");
        assert_eq!(cam.occupied(), 1);

        let freed = cam.free(a);
        assert_eq!(freed.key, 7);
        assert_eq!(cam.lookup(7), None);
        assert_eq!(cam.occupied(), 0);
    }

    #[test]
    fn exhaustion_returns_cam_full() {
        let mut cam: Cam<u32, ()> = Cam::new(2);
        cam.allocate(1, ()).unwrap();
        cam.allocate(2, ()).unwrap();
        assert!(cam.is_full());
        assert_eq!(
            cam.allocate(3, ()),
            Err(EngineError::CamFull { capacity: 2 })
        );
    }

    #[test]
    fn freed_line_is_reusable() {
        let mut cam: Cam<u32, u32> = Cam::new(1);
        let idx = cam.allocate(1, 10).unwrap();
        cam.free(idx);
        let idx2 = cam.allocate(2, 20).unwrap();
        assert_eq!(idx, idx2, "single line CAM reuses the line");
        assert_eq!(cam.lookup(2), Some(idx2));
        assert_eq!(cam.lookup(1), None);
    }

    #[test]
    fn iter_yields_only_occupied_lines() {
        let mut cam: Cam<u32, u32> = Cam::new(4);
        cam.allocate(5, 50).unwrap();
        let i6 = cam.allocate(6, 60).unwrap();
        cam.free(i6);
        cam.allocate(7, 70).unwrap();
        let keys: Vec<u32> = cam.iter().map(|(_, l)| l.key).collect();
        assert_eq!(keys.len(), 2);
        assert!(keys.contains(&5) && keys.contains(&7));
    }

    #[test]
    fn get_mut_allows_state_updates() {
        let mut cam: Cam<u32, bool> = Cam::new(1);
        let idx = cam.allocate(9, false).unwrap();
        cam.get_mut(idx).unwrap().value = true;
        assert!(cam.get(idx).unwrap().value);
    }

    #[test]
    fn clear_frees_every_line() {
        let mut cam: Cam<u32, u32> = Cam::new(3);
        cam.allocate(1, 10).unwrap();
        cam.allocate(2, 20).unwrap();
        cam.clear();
        assert_eq!(cam.occupied(), 0);
        assert_eq!(cam.lookup(1), None);
        cam.allocate(3, 30).unwrap();
        assert_eq!(cam.occupied(), 1);
    }

    #[test]
    #[should_panic(expected = "already-free")]
    fn double_free_panics() {
        let mut cam: Cam<u32, ()> = Cam::new(1);
        let idx = cam.allocate(1, ()).unwrap();
        cam.free(idx);
        cam.free(idx);
    }
}
