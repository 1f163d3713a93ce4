//! The six workloads.  Each sets itself up from the seed, times its
//! end-to-end operations (`op`, then `ref`), checks their outputs against
//! the oracle and, in a traced run, measures the layers underneath.

pub mod apply_small;
pub mod gray_scott_solve;
pub mod krylov_frozen;
pub mod serve_open;
pub mod spmv;
