//! The dense capacity-change fold that `SparcleSystem` used to run on
//! every fluctuation and every element failure or recovery: rebuild the
//! whole GR residual from the capacities, checking each path's fit on
//! the way. The production path re-derives only the changed residual
//! elements and re-checks fits along each GR application's own elements;
//! `crates/core/tests/proptests.rs` holds the two bitwise equal.

use sparcle_core::PlacedGrApp;
use sparcle_model::{AppId, CapacityMap};

/// Folds every GR reservation off `capacities` in `gr_apps` order,
/// checking each path's fit on the running residual before subtracting
/// it. Returns the residual and the ids of the applications whose
/// reservations no longer fit (sorted, deduplicated).
pub fn dense_residual_fold(
    capacities: &CapacityMap,
    gr_apps: &[PlacedGrApp],
) -> (CapacityMap, Vec<AppId>) {
    let mut residual = capacities.clone();
    let mut violated = Vec::new();
    for gr in gr_apps {
        for (path, rate) in &gr.paths {
            // Check fit before subtracting (subtraction clamps).
            if residual.bottleneck_rate(&path.load) + 1e-9 < *rate {
                violated.push(gr.id);
            }
            residual.subtract_load(&path.load, *rate);
        }
    }
    violated.sort_unstable_by_key(|id| id.as_u32());
    violated.dedup();
    (residual, violated)
}
