//! # sellkit-bench
//!
//! The benchmark harness regenerating **every table and figure** of the
//! paper's evaluation (see DESIGN.md §4 for the experiment index).  One
//! binary prints them, `exhibit <name|all> [--no-measure]`, over the table
//! [`figures::EXHIBITS`]:
//!
//! | name | exhibit |
//! |---|---|
//! | `table1` | Table 1 — processor specifications |
//! | `fig4` | STREAM bandwidth vs process count on KNL |
//! | `fig7` | out-of-box CSR SpMV across grid sizes and memory modes |
//! | `fig8` | single-node comparison of all nine kernels |
//! | `fig9` | roofline analysis on Theta |
//! | `fig10` | multinode wall time, CSR vs SELL |
//! | `fig11` | the nine kernels across four Xeon/KNL processors |
//! | `traffic_model` | the §6 byte-count formulas |
//!
//! Each figure has two parts where possible: a **measured** section (real
//! kernels on this host's CPU, real mpisim ranks) and a **modeled**
//! section (the `sellkit-machine` KNL/Xeon model), clearly labeled.
//! Criterion micro-benchmarks live in `benches/`.

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
