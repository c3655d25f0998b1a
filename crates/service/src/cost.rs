//! The **writer cost model**: how long the service's single writer is
//! busy after one batched solve, in simulated seconds.
//!
//! The admission service holds the writer for
//! `fixed + per_request × batch_size` after each batched admission
//! commit and defers windows whose boundary falls inside that interval
//! (backpressure).

/// Simulated cost of one batched solve, in sim-seconds: the writer is
/// busy for `fixed + per_request × batch_size` after each commit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SolveCostModel {
    /// Per-solve fixed cost (transaction + warm solve setup).
    pub fixed: f64,
    /// Marginal cost per request in the batch (path search).
    pub per_request: f64,
}

impl SolveCostModel {
    /// Writer-busy seconds charged for one batch of `batch_size` items.
    pub fn batch_cost(&self, batch_size: usize) -> f64 {
        self.fixed + self.per_request * batch_size as f64
    }
}

impl Default for SolveCostModel {
    fn default() -> Self {
        SolveCostModel {
            fixed: 0.05,
            per_request: 0.01,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batch_cost_is_affine() {
        let m = SolveCostModel::default();
        assert!((m.batch_cost(0) - 0.05).abs() < 1e-12);
        assert!((m.batch_cost(10) - 0.15).abs() < 1e-12);
    }
}
