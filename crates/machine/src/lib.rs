//! # sellkit-machine
//!
//! An analytic performance model of the processors in the paper's Table 1
//! (KNL 7230/7250, Haswell E5-2699v3, Broadwell E5-2699v4, Skylake 8180M),
//! standing in for hardware we do not have (see DESIGN.md §3).
//!
//! SpMV is bandwidth-bound (§6), so the model is a two-roof roofline:
//!
//! ```text
//! perf(kernel, p) = min( AI_format · B(mode, p),            // memory roof
//!                        2 · rate(kernel) · p · f_eff )     // instruction roof
//! ```
//!
//! * `AI_format` comes from the paper's §6 traffic formulas (implemented in
//!   `sellkit_core::traffic`);
//! * `B(mode, p)` is a saturating STREAM curve shaped like Figure 4;
//! * `rate(kernel)` is a per-core element throughput **calibrated once**
//!   against the ratios the paper reports on KNL (Figure 8: SELL-AVX512 ≈
//!   2× CSR baseline, CSR-AVX512 = +54 %, AVX2-regression for CSR, MKL
//!   below baseline, CSRPerm at parity) — see [`calibrate`] for the table
//!   and its provenance.
//!
//! The model consumes the *real* matrix shapes produced by the rest of the
//! workspace, so who-wins and crossover locations are driven by format and
//! kernel structure, not hard-coded outcomes.
//!
//! Beside the model, [`stream`] *measures* this host's copy and triad
//! bandwidth — the only roof a number measured here is reported against;
//! the model's curves are for the exhibit predictions.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Indexed loops mirror the paper's kernel pseudocode and stay readable
// next to the intrinsics; a few solver signatures are wide by nature.
#![allow(
    clippy::needless_range_loop,
    clippy::too_many_arguments,
    clippy::type_complexity
)]

pub mod calibrate;
pub mod modes;
pub mod predict;
pub mod roofline;
pub mod specs;
pub mod stream;
pub mod stream_model;

pub use calibrate::KernelKind;
pub use modes::MemoryMode;
pub use predict::{predict_gflops, predict_spmv_seconds, MatrixShape};
pub use roofline::{Roofline, RooflinePoint};
pub use specs::{
    broadwell_e5_2699v4, haswell_e5_2699v3, knl_7230, knl_7250, skylake_8180m, ProcessorSpec,
};
pub use stream::{stream_probe, StreamKernel, StreamPoint};
pub use stream_model::{host_stream_bw_gbs, StreamCurve};
