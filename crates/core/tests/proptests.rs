//! Property-based tests for the output CAM through the crate's public
//! API.

use ccfit::cam::{Change, OutCam};
use ccfit_engine::ids::NodeId;
use ccfit_engine::link::CtrlEvent;
use proptest::prelude::*;
use std::collections::HashSet;

proptest! {
    /// Toggling random keys (a `CfqAlloc` for a missing one, a
    /// `CfqDealloc` for a held one): the CAM holds exactly the active
    /// keys, and a key is refused only when every line is taken.
    #[test]
    fn cam_tracks_active_keys(capacity in 1usize..9, keys in prop::collection::vec(0u32..16, 1..64)) {
        let mut cam = OutCam::new(capacity);
        let mut active = HashSet::new();
        for k in keys {
            let dst = NodeId(k);
            if active.remove(&k) {
                prop_assert_eq!(cam.apply(CtrlEvent::CfqDealloc { dst }), Change::Keys);
            } else {
                match cam.apply(CtrlEvent::CfqAlloc { dst }) {
                    Change::Keys => { active.insert(k); }
                    change => {
                        prop_assert_eq!(change, Change::Full);
                        prop_assert_eq!(active.len(), capacity);
                    }
                }
            }
            for k in 0..16 {
                prop_assert_eq!(cam.contains(NodeId(k)), active.contains(&k));
            }
            prop_assert_eq!(cam.iter().count(), active.len());
        }
    }
}
