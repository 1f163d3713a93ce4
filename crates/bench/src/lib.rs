//! # sellkit-bench
//!
//! The paper's exhibits as this host measures them (see DESIGN.md §4 for
//! the experiment index).  One binary prints them, `exhibit <name|all>`,
//! over the table [`figures::EXHIBITS`]:
//!
//! | name | exhibit |
//! |---|---|
//! | `fig4` | host STREAM copy and triad bandwidth |
//! | `fig7` | out-of-box CSR SpMV across grid sizes |
//! | `fig8` | every kernel variant on one Gray-Scott Jacobian |
//! | `fig10` | distributed MatMult on mpisim ranks, CSR vs SELL |
//! | `traffic_model` | the §6 byte-count formulas |
//!
//! Every section is measured (real kernels on this host's CPU, real mpisim
//! ranks); the paper's KNL and Xeon numbers are set beside them in
//! EXPERIMENTS.md.  Criterion micro-benchmarks live in `benches/`.

#![warn(missing_docs)]
// Indexed loops mirror the paper's kernel pseudocode and stay readable
// next to the intrinsics; a few solver signatures are wide by nature.
#![allow(
    clippy::needless_range_loop,
    clippy::too_many_arguments,
    clippy::type_complexity
)]

pub mod figures;
pub mod measure;
pub mod table;

#[cfg(test)]
include!("retired_model.rs");
