//! Trace clock hook: read-only timestamps for observability layers.
//!
//! Tracing must never perturb the experiment it observes. The cost model
//! ([`crate::CostModel`]) is the *simulated* clock that Tables 5–7 are
//! measured on; a tracer that charged it — even one nanosecond — would
//! change the published numbers when enabled. [`TraceClock`] is the
//! enforced boundary: it can only *sample* the simulated clock, never
//! advance it. Layers above (the PVM tracer, nucleus mapper spans) stamp
//! events exclusively through this hook.

use crate::cost::{CostModel, SimTime};
use std::sync::Arc;

/// Read-only sampling handle over a [`CostModel`].
///
/// Deliberately exposes no way to advance the clock: observability
/// code holding a `TraceClock` cannot alter simulated time.
#[derive(Clone)]
pub struct TraceClock {
    model: Arc<CostModel>,
}

impl TraceClock {
    /// Creates a sampling handle.
    pub fn new(model: Arc<CostModel>) -> TraceClock {
        TraceClock { model }
    }

    /// Samples the simulated clock (deterministic across runs). Never
    /// advances it.
    #[inline]
    pub fn sim_now(&self) -> SimTime {
        self.model.now()
    }
}

impl core::fmt::Debug for TraceClock {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("TraceClock")
            .field("sim_now", &self.model.now())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::{CostParams, OpKind};

    #[test]
    fn stamp_tracks_simulated_clock_without_advancing_it() {
        let m = Arc::new(CostModel::new(CostParams::sun3()));
        let clock = TraceClock::new(m.clone());
        assert_eq!(clock.sim_now().nanos(), 0);
        m.charge(OpKind::BzeroPage);
        assert_eq!(clock.sim_now().nanos(), 870_000);
        // Sampling many times moves nothing.
        for _ in 0..1000 {
            clock.sim_now();
        }
        assert_eq!(m.now().nanos(), 870_000);
    }
}
