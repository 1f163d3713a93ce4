//! Preconditioners (PETSc `PC`).
//!
//! All preconditioners implement [`Precond`]: an approximate inverse
//! applied as `z = M⁻¹ r`.  The Gray-Scott experiment uses multigrid with
//! Jacobi smoothers and a Jacobi coarse solve (§7.2); ILU(0) with sparse
//! triangular solves implements the paper's stated future work (§8).

pub mod asm;
pub mod ilu;
pub mod jacobi;
pub mod mg;
pub mod spgemm;
pub mod tri_solve;

pub use asm::{AsmPc, SubSolve};
pub use ilu::Ilu0;
pub use jacobi::JacobiPc;
pub use mg::{CoarseSolve, Multigrid, MultigridConfig, Smoother};

/// An approximate inverse: `z = M⁻¹ r`.
pub trait Precond {
    /// Applies the preconditioner, overwriting `z`.
    fn apply(&self, r: &[f64], z: &mut [f64]);

    /// Applies the preconditioner on an execution context's worker pool.
    ///
    /// The default ignores the context and forwards to [`Precond::apply`]
    /// — correct for every preconditioner.  Implementations whose apply is
    /// element-wise disjoint (like [`JacobiPc`]) override it with a
    /// parallel path that is bitwise identical to the serial one.
    fn apply_ctx(&self, _ctx: &sellkit_core::ExecCtx, r: &[f64], z: &mut [f64]) {
        self.apply(r, z);
    }

    /// Re-does the numeric set-up for `a` (PETSc `PCSetUp` with
    /// `SAME_NONZERO_PATTERN`) if `a` has the pattern this preconditioner
    /// was built for, leaving it what a build from `a` would give.
    /// `false` means "build me again": nothing was changed and the
    /// preconditioner still serves the matrix it had.  The default is
    /// `false`, which is correct for every preconditioner; wrappers that
    /// do not forward the call take the rebuild path.
    fn refresh(&mut self, _a: &sellkit_core::Csr) -> bool {
        false
    }
}

/// `PCSetUp` for the matrix `a`: the kept preconditioner re-does its numeric
/// set-up if it can ([`Precond::refresh`]); where there is none, or it
/// declines, `factory` builds one and it is kept instead.  Counted as
/// `pc.refresh` or `pc.rebuild` when logging is on.
pub fn set_up<'k, Pc: Precond>(
    kept: &'k mut Option<Pc>,
    a: &sellkit_core::Csr,
    factory: impl FnOnce(&sellkit_core::Csr) -> Pc,
) -> &'k Pc {
    let _s = sellkit_obs::span("PCSetUp");
    if kept.as_mut().is_some_and(|pc| pc.refresh(a)) {
        sellkit_obs::counter("pc.refresh", 1.0);
    } else {
        sellkit_obs::counter("pc.rebuild", 1.0);
        *kept = Some(factory(a));
    }
    kept.as_ref().expect("refreshed or rebuilt just above")
}

/// Binds a preconditioner to an execution context: `apply` forwards to
/// the inner [`Precond::apply_ctx`], so generic solver code that only
/// knows `Precond::apply` still drives the parallel path.  The mirror
/// image of [`CtxMatOperator`](crate::operator::CtxMatOperator).
pub struct CtxPrecond<'a, P> {
    pc: &'a P,
    ctx: &'a sellkit_core::ExecCtx,
}

impl<'a, P: Precond> CtxPrecond<'a, P> {
    /// Binds `pc` to `ctx`.
    pub fn new(pc: &'a P, ctx: &'a sellkit_core::ExecCtx) -> Self {
        Self { pc, ctx }
    }
}

impl<P: Precond> Precond for CtxPrecond<'_, P> {
    fn apply(&self, r: &[f64], z: &mut [f64]) {
        self.pc.apply_ctx(self.ctx, r, z);
    }
    fn apply_ctx(&self, _ctx: &sellkit_core::ExecCtx, r: &[f64], z: &mut [f64]) {
        // The bound context wins over the caller-supplied one.
        self.pc.apply_ctx(self.ctx, r, z);
    }
}

/// The identity preconditioner (`PCNONE`).
#[derive(Clone, Copy, Debug, Default)]
pub struct IdentityPc;

impl Precond for IdentityPc {
    fn apply(&self, r: &[f64], z: &mut [f64]) {
        z.copy_from_slice(r);
    }
}

/// Boxed preconditioners compose too.  `apply_ctx` and `refresh` are
/// forwarded explicitly so a boxed [`JacobiPc`] keeps its parallel path and
/// a boxed [`Multigrid`] its value-only set-up instead of falling back to
/// the trait defaults.
impl Precond for Box<dyn Precond> {
    fn apply(&self, r: &[f64], z: &mut [f64]) {
        (**self).apply(r, z);
    }
    fn apply_ctx(&self, ctx: &sellkit_core::ExecCtx, r: &[f64], z: &mut [f64]) {
        (**self).apply_ctx(ctx, r, z);
    }
    fn refresh(&mut self, a: &sellkit_core::Csr) -> bool {
        (**self).refresh(a)
    }
}

/// References to preconditioners (including trait objects) are
/// preconditioners, so solvers can take `&dyn Precond` directly.
impl<P: Precond + ?Sized> Precond for &P {
    fn apply(&self, r: &[f64], z: &mut [f64]) {
        (**self).apply(r, z);
    }
    fn apply_ctx(&self, ctx: &sellkit_core::ExecCtx, r: &[f64], z: &mut [f64]) {
        (**self).apply_ctx(ctx, r, z);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_copies() {
        let pc = IdentityPc;
        let mut z = vec![0.0; 3];
        pc.apply(&[1.0, 2.0, 3.0], &mut z);
        assert_eq!(z, vec![1.0, 2.0, 3.0]);
    }
}
