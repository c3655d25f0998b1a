//! The cloud-computing reference: all compute CTs on one cloud NCP.
//!
//! Figure 6 compares SPARCLE-based dispersed computing against the
//! conventional deployment where every computation runs in the cloud
//! and only the data stream crosses the access network.

use crate::Assigner;
use sparcle_core::{AssignError, AssignedPath, PlacementEngine, RoutePolicy, TraceHandle};
use sparcle_model::{Application, CapacityMap, CtId, NcpId, Network};

/// Places every unpinned CT on the designated cloud NCP.
#[derive(Debug, Clone, Copy)]
pub struct CloudAssigner {
    cloud: NcpId,
}

impl CloudAssigner {
    /// Creates a cloud assigner targeting `cloud` (e.g.
    /// `sparcle_workloads::face_detection::CLOUD`).
    pub fn new(cloud: NcpId) -> Self {
        CloudAssigner { cloud }
    }

    /// The targeted cloud NCP.
    pub fn cloud(&self) -> NcpId {
        self.cloud
    }
}

impl Assigner for CloudAssigner {
    fn name(&self) -> &str {
        "Cloud"
    }

    fn assign_traced(
        &self,
        app: &Application,
        network: &Network,
        capacities: &CapacityMap,
        trace: TraceHandle<'_>,
    ) -> Result<AssignedPath, AssignError> {
        let mut engine = PlacementEngine::new_traced(app, network, capacities, trace)?;
        let order: Vec<CtId> = engine.unplaced().collect();
        for ct in order {
            engine.commit_with(ct, self.cloud, RoutePolicy::Widest)?;
        }
        engine.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparcle_model::{CtId, QoeClass};
    use sparcle_workloads::face_detection::{
        face_detection_app, testbed_network, CLOUD, FACES_MBIT, RAW_IMAGE_MBIT,
    };

    #[test]
    fn cloud_rate_is_uplink_limited_at_low_field_bw() {
        let app = face_detection_app(QoeClass::best_effort(1.0)).unwrap();
        let net = testbed_network(0.5);
        let path = CloudAssigner::new(CLOUD)
            .assign(&app, &net, &net.capacity_map())
            .unwrap();
        // The raw 24.8 Mb image must cross a 0.5 Mbps field link, and
        // the detected-faces stream (0.088 Mb) returns over the same
        // links, so the binding load is their sum.
        let expect = 0.5 / (RAW_IMAGE_MBIT + FACES_MBIT);
        assert!(
            (path.rate - expect).abs() < 1e-9,
            "rate {} vs {}",
            path.rate,
            expect
        );
        // All compute CTs on the cloud.
        for ct in 1..=4u32 {
            assert_eq!(path.placement.ct_host(CtId::new(ct)), Some(CLOUD));
        }
    }

    #[test]
    fn cloud_rate_is_cpu_limited_at_high_field_bw() {
        let app = face_detection_app(QoeClass::best_effort(1.0)).unwrap();
        let net = testbed_network(1000.0);
        let path = CloudAssigner::new(CLOUD)
            .assign(&app, &net, &net.capacity_map())
            .unwrap();
        // Cloud CPU: 15200 MHz / 33164 MC per image.
        let expect = 15200.0 / (9880.0 + 12800.0 + 4826.0 + 5658.0);
        assert!(
            (path.rate - expect).abs() < 1e-9,
            "rate {} vs {}",
            path.rate,
            expect
        );
    }
}
