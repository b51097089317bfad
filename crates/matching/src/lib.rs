//! # synpa-matching — optimal pair selection (Blossom algorithm)
//!
//! SYNPA's step 3 (§IV-B of the paper): given the predicted slowdown of
//! every application pair, allocate applications to SMT2 cores by solving a
//! minimum-weight perfect matching with Edmonds' Blossom algorithm, instead
//! of enumerating all pairings (which explodes combinatorially with core
//! count).
//!
//! * [`max_weight_matching`] — the O(n³) blossom engine on integer weights.
//! * [`min_cost_pairing`] — minimum-total-cost perfect pairing on real
//!   costs (what the SYNPA policy calls).
//! * [`exhaustive_min_pairing`] — exact O(2ⁿ·n) oracle for verification and
//!   the "evaluate every combination" baseline.
//! * [`greedy_min_pairing`] — cheapest-edge-first heuristic baseline.
//!
//! The solver keeps all of its O(n²) scratch (adjacency, blossom forests,
//! labels, queues, and the pairing layer's integer weights) in one
//! thread-local workspace that both entry points share, so the per-quantum
//! n = 56 dense matching allocates nothing in the steady state.
//!
//! ```
//! use synpa_matching::min_cost_pairing;
//! let costs = vec![
//!     vec![0.0, 1.0, 4.0, 4.0],
//!     vec![1.0, 0.0, 4.0, 4.0],
//!     vec![4.0, 4.0, 0.0, 1.0],
//!     vec![4.0, 4.0, 1.0, 0.0],
//! ];
//! let pairing = min_cost_pairing(&costs);
//! assert_eq!(pairing.pairs, vec![(0, 1), (2, 3)]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod blossom;
mod pairing;

pub use blossom::max_weight_matching;
pub use pairing::{exhaustive_min_pairing, greedy_min_pairing, min_cost_pairing, Pairing};
