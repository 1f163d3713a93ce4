//! # sellkit-bench
//!
//! The paper's exhibits and ablations as this host measures them (see
//! DESIGN.md §4 for the experiment index).  One binary prints them,
//! `exhibit <name|all>`, over the table [`figures::EXHIBITS`]:
//!
//! | name | exhibit |
//! |---|---|
//! | `fig4` | host STREAM copy and triad bandwidth |
//! | `fig7` | out-of-box CSR SpMV across grid sizes, SELL-8 beside it |
//! | `fig8` | every kernel variant on one Gray-Scott Jacobian |
//! | `fig10` | distributed MatMult on mpisim ranks, CSR vs SELL |
//! | `traffic_model` | the §6 byte-count formulas |
//! | `csr_remainder` | §2.3: CSR's remainder loop around the SIMD width |
//! | `slice_height` | §5.1 and §5.4: slice height and σ-sorting, padding against speed |
//! | `bit_array` | §5.3: SELL-8 without and with an ESB bit array, tier by tier |
//! | `gather` | §5.5: scalar-load gathers against `vgatherdpd` |
//! | `spmm` | one blocked product for k vectors against k products |
//! | `threads` | SELL-8 SpMV on 1–8 pool lanes |
//! | `solve` | §7: one Crank-Nicolson step, CSR against SELL-8 on 1–8 lanes |
//!
//! Every section is measured (real kernels on this host's CPU, real mpisim
//! ranks) by one timer, `measure::best_of`; the paper's KNL and Xeon
//! numbers are set beside them in EXPERIMENTS.md.

#![warn(missing_docs)]
// Indexed loops mirror the paper's kernel pseudocode and stay readable
// next to the intrinsics; a few solver signatures are wide by nature.
#![allow(
    clippy::needless_range_loop,
    clippy::too_many_arguments,
    clippy::type_complexity
)]

pub mod ablations;
pub mod figures;
pub mod measure;
pub mod table;

#[cfg(test)]
include!("retired_model.rs");
