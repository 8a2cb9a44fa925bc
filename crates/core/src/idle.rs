//! The record a fruitless scan leaves behind (DESIGN.md §12).
//!
//! A switch's arbitration gather and an adapter's AdVOQ walk both ask
//! every buffered head "can you move?", and when every answer is no they
//! would ask again next cycle and hear the same. The scan therefore notes
//! *why* each head was held: by the clock alone (until a named cycle), or
//! by component state (until a write to that state clears the record).
//! While neither has happened the scan is skipped — and a component whose
//! every stage is so bounded leaves the work-list until the bound expires
//! (`Switch::park_bound`, `Adapter::park_bound`).

use ccfit_engine::units::Cycle;

/// Why a scan that moved nothing will keep moving nothing. Every write
/// to state a held head waits on calls [`IdleBound::clear`].
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct IdleBound {
    /// Earliest cycle a time-only blocker clears; `Cycle::MAX` when the
    /// scan met none. `0` = no bound: the last scan moved something, met
    /// a blocker this record cannot watch, or a write cleared it since.
    until: Cycle,
}

impl IdleBound {
    /// Start a scan: no time-only blocker met yet.
    pub(crate) fn open(&mut self) {
        self.until = Cycle::MAX;
    }

    /// A blocker clears at `at` by the clock alone.
    pub(crate) fn wake_at(&mut self, at: Cycle) {
        self.until = self.until.min(at);
    }

    /// No bound: the next scan runs in full.
    pub(crate) fn clear(&mut self) {
        self.until = 0;
    }

    /// The cycle the bound expires by the clock, if it stands.
    pub(crate) fn current(&self) -> Option<Cycle> {
        (self.until > 0).then_some(self.until)
    }

    /// The clock half of the bound.
    #[cfg(test)]
    pub(crate) fn until(&self) -> Cycle {
        self.until
    }

    /// Whether the bound still stands at `now`: it was not cleared and
    /// no time-only blocker has cleared.
    pub(crate) fn holds(&self, now: Cycle) -> bool {
        self.current().is_some_and(|until| now < until)
    }
}
