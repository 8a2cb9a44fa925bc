//! The output CAM of the congested-flow-isolation machinery (Fig. 1 of
//! the paper): a switch output port and an adapter's output buffer each
//! hold an [`OutCam`], the congested destinations the downstream hop
//! reported and which of them it has stopped. The input side, a CFQ
//! slot's CAM line, is [`crate::port::CfqState`].

use ccfit_engine::ids::NodeId;
use ccfit_engine::link::CtrlEvent;

/// What one control event did to an [`OutCam`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Change {
    /// Nothing: a `CfqAlloc` for a held key, a `Go` or `CfqDealloc` for
    /// a missing one, a Stop/Go to the status the line has.
    Nothing,
    /// A key was added or removed.
    Keys,
    /// A held line flipped between Stop and Go.
    Flip,
    /// A new key found every line taken.
    Full,
}

/// The output CAM of a switch output port or of an adapter's output
/// buffer: the congested destinations the downstream hop reported
/// (`CfqAlloc` / `CfqDealloc`), each with whether it is stopped
/// (`Stop` / `Go`). Its lines come with the first key, so a CAM that
/// never holds one — every port of a network without congestion —
/// holds no heap block. Lookups are linear scans: hardware CAMs are
/// fully associative and the line counts are tiny (2–8).
#[derive(Debug, Clone)]
pub struct OutCam {
    /// The held lines: a destination and whether it is stopped.
    lines: Vec<(NodeId, bool)>,
    capacity: usize,
}

impl OutCam {
    /// `capacity` lines, none allocated yet.
    pub const fn new(capacity: usize) -> Self {
        Self {
            lines: Vec::new(),
            capacity,
        }
    }

    /// Whether a line holds `dst`.
    pub fn contains(&self, dst: NodeId) -> bool {
        self.lines.iter().any(|&(d, _)| d == dst)
    }

    /// Whether a line holds `dst` and the downstream hop stopped it.
    pub fn stopped(&self, dst: NodeId) -> bool {
        self.lines.contains(&(dst, true))
    }

    /// Apply a control event from downstream: `CfqAlloc` adds a running
    /// line for a missing key, `Stop` stops a held line or adds a
    /// stopped one, `Go` runs a held line, `CfqDealloc` frees one.
    pub fn apply(&mut self, ev: CtrlEvent) -> Change {
        let dst = ev.dst();
        let stop = ev == CtrlEvent::Stop { dst };
        let held = self.lines.iter().position(|&(d, _)| d == dst);
        match (ev, held) {
            (CtrlEvent::CfqDealloc { .. }, Some(i)) => {
                self.lines.remove(i);
                Change::Keys
            }
            (CtrlEvent::Stop { .. } | CtrlEvent::Go { .. }, Some(i)) if self.lines[i].1 != stop => {
                self.lines[i].1 = stop;
                Change::Flip
            }
            (CtrlEvent::CfqAlloc { .. } | CtrlEvent::Stop { .. }, None) => {
                if self.lines.len() == self.capacity {
                    return Change::Full;
                }
                self.lines.reserve_exact(self.capacity - self.lines.len());
                self.lines.push((dst, stop));
                Change::Keys
            }
            _ => Change::Nothing,
        }
    }

    /// Free every line: a fail-stop fault took the cable whose
    /// congestion the lines describe.
    pub fn clear(&mut self) {
        self.lines.clear();
    }

    /// The held lines, `(destination, stopped)`.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, bool)> + '_ {
        self.lines.iter().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    const fn alloc(d: u32) -> CtrlEvent {
        CtrlEvent::CfqAlloc { dst: NodeId(d) }
    }

    const fn dealloc(d: u32) -> CtrlEvent {
        CtrlEvent::CfqDealloc { dst: NodeId(d) }
    }

    fn keys(cam: &OutCam) -> Vec<u32> {
        let mut keys: Vec<u32> = cam.iter().map(|(d, _)| d.0).collect();
        keys.sort_unstable();
        keys
    }

    #[test]
    fn allocate_lookup_free_cycle() {
        let mut cam = OutCam::new(2);
        assert_eq!(cam.iter().count(), 0);

        assert_eq!(cam.apply(alloc(7)), Change::Keys);
        assert!(cam.contains(NodeId(7)));
        assert!(!cam.stopped(NodeId(7)), "a CfqAlloc line starts running");
        assert_eq!(keys(&cam), [7]);

        assert_eq!(cam.apply(dealloc(7)), Change::Keys);
        assert!(!cam.contains(NodeId(7)));
        assert_eq!(cam.iter().count(), 0);
    }

    #[test]
    fn exhaustion_returns_cam_full() {
        let mut cam = OutCam::new(2);
        assert_eq!(cam.apply(alloc(1)), Change::Keys);
        assert_eq!(cam.apply(alloc(2)), Change::Keys);
        assert_eq!(cam.apply(alloc(3)), Change::Full);
        let stop3 = CtrlEvent::Stop { dst: NodeId(3) };
        assert_eq!(cam.apply(stop3), Change::Full);
        assert!(!cam.contains(NodeId(3)));
        assert_eq!(keys(&cam), [1, 2]);
    }

    #[test]
    fn freed_line_is_reusable() {
        let mut cam = OutCam::new(1);
        assert_eq!(cam.apply(alloc(1)), Change::Keys);
        assert_eq!(cam.apply(dealloc(1)), Change::Keys);
        assert_eq!(
            cam.apply(alloc(2)),
            Change::Keys,
            "single line CAM reuses the line"
        );
        assert!(cam.contains(NodeId(2)));
        assert!(!cam.contains(NodeId(1)));
    }

    #[test]
    fn iter_yields_only_occupied_lines() {
        let mut cam = OutCam::new(4);
        cam.apply(alloc(5));
        cam.apply(alloc(6));
        cam.apply(dealloc(6));
        cam.apply(CtrlEvent::Stop { dst: NodeId(7) });
        let mut lines: Vec<(NodeId, bool)> = cam.iter().collect();
        lines.sort_unstable();
        assert_eq!(lines, [(NodeId(5), false), (NodeId(7), true)]);
    }

    #[test]
    fn get_mut_allows_state_updates() {
        let mut cam = OutCam::new(1);
        let (stop, go) = (
            CtrlEvent::Stop { dst: NodeId(9) },
            CtrlEvent::Go { dst: NodeId(9) },
        );
        cam.apply(alloc(9));
        assert_eq!(cam.apply(stop), Change::Flip);
        assert!(cam.stopped(NodeId(9)));
        assert_eq!(cam.apply(stop), Change::Nothing, "already stopped");
        assert_eq!(cam.apply(go), Change::Flip);
        assert!(!cam.stopped(NodeId(9)) && cam.contains(NodeId(9)));
    }

    #[test]
    fn clear_frees_every_line() {
        let mut cam = OutCam::new(3);
        cam.apply(alloc(1));
        cam.apply(CtrlEvent::Stop { dst: NodeId(2) });
        cam.clear();
        assert_eq!(cam.iter().count(), 0);
        assert!(!cam.contains(NodeId(1)) && !cam.stopped(NodeId(2)));
        assert_eq!(cam.apply(alloc(3)), Change::Keys);
        assert_eq!(keys(&cam), [3]);
    }

    proptest! {
        /// Random control events (and fail-stop clears) against a map
        /// from destination to stopped: every event returns the change
        /// the map sees, a new key is refused only when every line is
        /// taken, and the CAM then holds exactly the map's lines.
        #[test]
        fn out_cam_follows_a_map_of_lines(
            capacity in 1usize..9,
            ops in prop::collection::vec((0u8..5, 0u32..16), 1..96),
        ) {
            let mut cam = OutCam::new(capacity);
            let mut model = BTreeMap::<NodeId, bool>::new();
            for (op, d) in ops {
                let dst = NodeId(d);
                if op == 4 {
                    cam.clear();
                    model.clear();
                    continue;
                }
                let ev = [
                    CtrlEvent::CfqAlloc { dst },
                    CtrlEvent::Stop { dst },
                    CtrlEvent::Go { dst },
                    CtrlEvent::CfqDealloc { dst },
                ][op as usize];
                let held = model.get(&dst).copied();
                let want = match (op, held) {
                    (0 | 1, None) if model.len() == capacity => Change::Full,
                    (0 | 1, None) => {
                        model.insert(dst, op == 1);
                        Change::Keys
                    }
                    (1, Some(false)) | (2, Some(true)) => {
                        model.insert(dst, op == 1);
                        Change::Flip
                    }
                    (3, Some(_)) => {
                        model.remove(&dst);
                        Change::Keys
                    }
                    _ => Change::Nothing,
                };
                prop_assert_eq!(cam.apply(ev), want, "{:?}", ev);
                for d in 0..16 {
                    let dst = NodeId(d);
                    prop_assert_eq!(cam.contains(dst), model.contains_key(&dst));
                    prop_assert_eq!(cam.stopped(dst), model.get(&dst) == Some(&true));
                }
                let mut lines: Vec<_> = cam.iter().collect();
                lines.sort();
                prop_assert_eq!(lines, model.iter().map(|(&d, &s)| (d, s)).collect::<Vec<_>>());
            }
        }
    }
}
