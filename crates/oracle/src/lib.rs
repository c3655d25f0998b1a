//! Reference implementations the production SPARCLE paths are
//! differenced against. **Dev-only**: nothing outside
//! `[dev-dependencies]` may depend on this crate (CI checks the normal
//! dependency graph), so none of it can be selected at run time, and
//! none of it touches `sparcle_model::CsrNetwork` (nor
//! `Network::neighbors`, which reads it), for γ or for routing.
//!
//! * [`mod@widest_path`] — Algorithm 1 as a single-heap Dijkstra over a
//!   nested adjacency built from the network's link list
//!   ([`adjacency`]), and exhaustively.
//! * [`mod@reference`] — eq. (2) one `(CT, host)` pair at a time ([`gamma`],
//!   [`best_host`]) and Algorithm 2 on top of it ([`assign_reference`]).
//! * [`mod@num`] — problem (4) and max-min over dense coefficient rows,
//!   the solver `sparcle_alloc::num`'s sparse kernel must match bit for
//!   bit.
//! * [`mod@fluctuation`] — the whole-network residual rebuild with its
//!   interleaved GR fit check, the fold a capacity change's per-element
//!   re-derivation must match bit for bit.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod fluctuation;
pub mod num;
pub mod reference;
pub mod widest_path;

pub use fluctuation::dense_residual_fold;
pub use reference::{assign_reference, best_host, gamma};
pub use widest_path::{
    adjacency, widest_path, widest_path_brute_force, widest_path_with, widest_tree,
    DijkstraScratch, ReverseAdjacency, WidestTree,
};
