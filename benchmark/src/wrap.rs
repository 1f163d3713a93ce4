//! Wrappers that open a span around each call into a layer.  The solver
//! stack is generic over its problem, matrix format and preconditioner, so
//! handing it these types records the layer boundaries without a change to
//! the program.

use std::ops::Deref;

use sellkit_core::traffic::TrafficEstimate;
use sellkit_core::{Apply, Csr, ExecCtx, FromCsr, MatShape, VecView, VecViewMut};
use sellkit_solvers::pc::Precond;
use sellkit_solvers::ts::OdeProblem;

use crate::spans::span;

/// A solver-level operator or a preconditioner with a span, named by the
/// second field, around every apply.
pub struct Spanned<T>(pub T, pub &'static str);

impl<O: sellkit_solvers::Operator> sellkit_solvers::Operator for Spanned<O> {
    fn dim(&self) -> usize {
        self.0.dim()
    }
    fn apply(&self, x: &[f64], y: &mut [f64]) {
        let _s = span(self.1);
        self.0.apply(x, y);
    }
}

impl<D: Deref> Precond for Spanned<D>
where
    D::Target: Precond,
{
    fn apply(&self, r: &[f64], z: &mut [f64]) {
        let _s = span(self.1);
        self.0.apply(r, z);
    }
    fn apply_ctx(&self, ctx: &ExecCtx, r: &[f64], z: &mut [f64]) {
        let _s = span(self.1);
        self.0.apply_ctx(ctx, r, z);
    }
}

/// A matrix format with spans around its conversion from CSR
/// (`core.convert`) and its `Operator::apply` (`core.apply`).
pub struct TracedOp<M>(M);

impl<M: MatShape> MatShape for TracedOp<M> {
    fn nrows(&self) -> usize {
        self.0.nrows()
    }
    fn ncols(&self) -> usize {
        self.0.ncols()
    }
    fn nnz(&self) -> usize {
        self.0.nnz()
    }
}

impl<M: sellkit_core::Operator> sellkit_core::Operator for TracedOp<M> {
    fn apply(&self, ctx: &ExecCtx, x: VecView<'_>, y: VecViewMut<'_>, mode: Apply) {
        let _s = span("core.apply");
        self.0.apply(ctx, x, y, mode);
    }
    fn spmv_traffic(&self) -> TrafficEstimate {
        self.0.spmv_traffic()
    }
}

impl<M: FromCsr> FromCsr for TracedOp<M> {
    fn from_csr(csr: &Csr) -> Self {
        let _s = span("core.convert");
        TracedOp(M::from_csr(csr))
    }
}

/// An ODE problem with spans around its right-hand side (`workloads.rhs`)
/// and its Jacobian assembly (`workloads.rhs_jacobian`).
pub struct TracedOde<'a, P>(pub &'a P);

impl<P: OdeProblem> OdeProblem for TracedOde<'_, P> {
    fn dim(&self) -> usize {
        self.0.dim()
    }
    fn rhs(&self, t: f64, u: &[f64], f: &mut [f64]) {
        let _s = span("workloads.rhs");
        self.0.rhs(t, u, f);
    }
    fn rhs_jacobian(&self, t: f64, u: &[f64]) -> Csr {
        let _s = span("workloads.rhs_jacobian");
        self.0.rhs_jacobian(t, u)
    }
}
