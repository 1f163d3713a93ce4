//! # sellkit-mpisim
//!
//! A deterministic, rank-per-thread message-passing runtime standing in for
//! MPI.  PETSc's parallel SpMV (§2.2 of the paper) relies on four MPI
//! idioms, all provided here with matching semantics:
//!
//! 1. **Nonblocking sends** of vector entries ([`Comm::isend`] — buffered,
//!    completes immediately, like `MPI_Isend` with an eager protocol);
//! 2. **Nonblocking receives** ([`Comm::irecv`] returning a
//!    [`RecvRequest`] to be [`RecvRequest::wait`]ed on after overlapping
//!    computation);
//! 3. **Collectives** (barrier, allreduce, allgather, broadcast) used by
//!    dot products and norms in Krylov solvers;
//! 4. **Tag/source matching** so scatter traffic cannot be confused across
//!    communication phases, each object drawing a tag of its own from
//!    [`Comm::new_tag`].
//!
//! Ranks are OS threads inside one process; messages are moved (not
//! copied) through unbounded channels, so a "network" transfer is a
//! pointer swap.  This preserves the *ordering and progress semantics* the
//! overlap optimization depends on while running on a single machine.
//!
//! ```
//! use sellkit_mpisim::run;
//!
//! let results = run(4, |comm| {
//!     let right = (comm.rank() + 1) % comm.size();
//!     let left = (comm.rank() + comm.size() - 1) % comm.size();
//!     comm.isend(right, 7, vec![comm.rank() as f64]);
//!     let req = comm.irecv::<Vec<f64>>(left, 7);
//!     // ... overlap computation here ...
//!     let data = req.wait(comm);
//!     data[0] as usize
//! });
//! assert_eq!(results, vec![3, 0, 1, 2]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Indexed loops mirror the paper's kernel pseudocode and stay readable
// next to the intrinsics; a few solver signatures are wide by nature.
#![allow(
    clippy::needless_range_loop,
    clippy::too_many_arguments,
    clippy::type_complexity
)]

pub mod collective;
pub mod comm;
pub mod request;

pub use comm::{run, Comm};
pub use request::RecvRequest;
