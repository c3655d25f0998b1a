//! The paper's experimental workload: a face-detection stream pipeline
//! (Figure 5, Table II) on the Figure 4 testbed network (Table I).
//!
//! Units are chosen so the numbers read exactly like the paper's tables:
//! CPU requirements in **mega-cycles per image** and CPU capacities in
//! **MHz** (⇒ rates in images/second); TT payloads in **megabits per
//! image** and bandwidths in **Mbps**.
//!
//! The physical testbed + Mininet of §V-A are substituted by
//! `sparcle-sim`'s emulator; this module only provides the parameters,
//! which *are* published in the paper.

use sparcle_model::{
    Application, ModelError, NcpId, Network, NetworkBuilder, QoeClass, ResourceVec, TaskGraph,
    TaskGraphBuilder,
};

/// Cloud CPU capacity: 4 cores × 3.8 GHz (Table I), in MHz.
pub const CLOUD_CPU_MHZ: f64 = 4.0 * 3800.0;
/// Field NCP CPU capacity (Table I), in MHz.
pub const FIELD_CPU_MHZ: f64 = 3000.0;
/// Cloud access link bandwidth (Table I), in Mbps.
pub const CLOUD_BW_MBPS: f64 = 100.0;

/// Table II CPU requirements, mega-cycles per image.
pub const RESIZE_MC: f64 = 9880.0;
/// Denoise stage cost (Table II).
pub const DENOISE_MC: f64 = 12800.0;
/// Edge-detection stage cost (Table II).
pub const EDGE_MC: f64 = 4826.0;
/// Face-detection stage cost (Table II).
pub const FACE_MC: f64 = 5658.0;

/// Table II transport sizes, converted to megabits per image.
pub const RAW_IMAGE_MBIT: f64 = 3.1 * 8.0; // 3.1 MB
/// Resized image payload (182 kB).
pub const RESIZED_MBIT: f64 = 0.182 * 8.0;
/// Denoised image payload (145 kB).
pub const DENOISED_MBIT: f64 = 0.145 * 8.0;
/// Edge map payload (188 kB).
pub const EDGE_MAP_MBIT: f64 = 0.188 * 8.0;
/// Detected-faces payload (11 kB).
pub const FACES_MBIT: f64 = 0.011 * 8.0;

/// Index of the cloud NCP in [`testbed_network`].
pub const CLOUD: NcpId = NcpId::new(0);
/// Index of the camera-hosting field NCP (data source and consumer).
pub const CAMERA: NcpId = NcpId::new(4);

/// Builds the Figure 5 face-detection task graph:
/// `source → resize → denoise → edge-detection → face-detection →
/// consumer`, with Table II requirements.
///
/// # Errors
///
/// Never fails in practice (constants are valid); the `Result` mirrors
/// the fallible builder API.
pub fn face_detection_graph() -> Result<TaskGraph, ModelError> {
    let mut b = TaskGraphBuilder::new();
    b.name("face-detection");
    let source = b.add_ct("camera", ResourceVec::new());
    let resize = b.add_ct("resize", ResourceVec::cpu(RESIZE_MC));
    let denoise = b.add_ct("denoise", ResourceVec::cpu(DENOISE_MC));
    let edge = b.add_ct("edge-detection", ResourceVec::cpu(EDGE_MC));
    let face = b.add_ct("face-detection", ResourceVec::cpu(FACE_MC));
    let consumer = b.add_ct("consumer", ResourceVec::new());
    b.add_tt("raw-images", source, resize, RAW_IMAGE_MBIT)?;
    b.add_tt("resized", resize, denoise, RESIZED_MBIT)?;
    b.add_tt("denoised", denoise, edge, DENOISED_MBIT)?;
    b.add_tt("edge-maps", edge, face, EDGE_MAP_MBIT)?;
    b.add_tt("faces", face, consumer, FACES_MBIT)?;
    b.build()
}

/// Builds the face-detection [`Application`] with the camera and
/// consumer pinned on the [`CAMERA`] field NCP of [`testbed_network`].
///
/// # Errors
///
/// Never fails in practice; mirrors the fallible constructors.
pub fn face_detection_app(qoe: QoeClass) -> Result<Application, ModelError> {
    let graph = face_detection_graph()?;
    let source = graph.sources()[0];
    let sink = graph.sinks()[0];
    Application::new(graph, qoe, [(source, CAMERA), (sink, CAMERA)])
}

/// Builds the Figure 4 testbed network: one cloud NCP behind a 100 Mbps
/// access link, and six field NCPs (3000 MHz each) meshed by
/// `field_bw_mbps` links.
///
/// Topology (a reconstruction of Figure 4 — a row of four field NCPs
/// with two more hanging off it, cloud attached at one end):
///
/// ```text
///        cloud(0)
///          │ 100 Mbps
///  (1) ── (2) ── (3) ── (4=camera)
///          │      │
///         (5) ── (6)
/// ```
///
/// # Panics
///
/// Panics if `field_bw_mbps` is negative or not finite.
pub fn testbed_network(field_bw_mbps: f64) -> Network {
    assert!(
        field_bw_mbps.is_finite() && field_bw_mbps >= 0.0,
        "field bandwidth must be finite and non-negative"
    );
    let mut b = NetworkBuilder::new();
    b.name("testbed");
    let cloud = b.add_ncp("cloud", ResourceVec::cpu(CLOUD_CPU_MHZ));
    let field: Vec<NcpId> = (1..=6)
        .map(|i| b.add_ncp(format!("ncp{i}"), ResourceVec::cpu(FIELD_CPU_MHZ)))
        .collect();
    b.add_link("cloud-bw", cloud, field[1], CLOUD_BW_MBPS)
        .expect("valid link");
    let field_links = [(0, 1), (1, 2), (2, 3), (1, 4), (4, 5), (2, 5)];
    for (i, &(x, y)) in field_links.iter().enumerate() {
        b.add_link(format!("field{i}"), field[x], field[y], field_bw_mbps)
            .expect("valid link");
    }
    b.build().expect("testbed network is well-formed")
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparcle_model::CtId;
    use sparcle_model::ResourceKind;

    #[test]
    fn graph_matches_table_ii() {
        let g = face_detection_graph().unwrap();
        assert_eq!(g.ct_count(), 6);
        assert_eq!(g.tt_count(), 5);
        assert_eq!(
            g.ct(CtId::new(1)).requirement().amount(ResourceKind::Cpu),
            9880.0
        );
        assert_eq!(
            g.ct(CtId::new(2)).requirement().amount(ResourceKind::Cpu),
            12800.0
        );
        let raw = g.tt(sparcle_model::TtId::new(0));
        assert!((raw.bits_per_unit() - 24.8).abs() < 1e-12);
    }

    #[test]
    fn network_matches_table_i() {
        let net = testbed_network(10.0);
        assert_eq!(net.ncp_count(), 7);
        assert_eq!(net.link_count(), 7);
        assert_eq!(net.ncp(CLOUD).capacity().amount(ResourceKind::Cpu), 15200.0);
        assert_eq!(
            net.ncp(NcpId::new(3)).capacity().amount(ResourceKind::Cpu),
            3000.0
        );
        assert_eq!(net.link(sparcle_model::LinkId::new(0)).bandwidth(), 100.0);
        assert_eq!(net.link(sparcle_model::LinkId::new(1)).bandwidth(), 10.0);
        assert!(net.all_reachable_from(CLOUD));
    }

    #[test]
    fn app_pins_camera_and_consumer() {
        let app = face_detection_app(QoeClass::best_effort(1.0)).unwrap();
        assert_eq!(app.pinned_host(CtId::new(0)), Some(CAMERA));
        assert_eq!(app.pinned_host(CtId::new(5)), Some(CAMERA));
    }
}
