//! The operator and vector-space abstractions all Krylov solvers use.
//!
//! A Krylov method needs exactly two things: apply the linear operator,
//! and do vector work whose reductions span the whole vector.  Splitting
//! those into two traits lets the same GMRES code run (a) sequentially over
//! any [`sellkit_core::Operator`] format and (b) in parallel over a
//! distributed matrix whose inner products reduce across ranks.
//!
//! [`InnerProduct`] is that vector space.  A space says only how a local
//! partial sum becomes the global one ([`InnerProduct::reduce`]); the inner
//! product, the norm and the Gram-Schmidt sweep are provided methods over
//! the fixed-order kernels of [`vecops`], so every space sums its local
//! blocks in the same order, and the sweep makes one reduction per
//! coefficient whichever space it runs in.

use sellkit_core::{Apply, ExecCtx, Operator as CoreOperator};

use crate::vecops;

/// A linear operator `y = A·x` on (locally stored) vectors.
pub trait Operator {
    /// Local dimension of the operator's domain/range.
    fn dim(&self) -> usize;
    /// Computes `y = A·x`.
    fn apply(&self, x: &[f64], y: &mut [f64]);
}

/// The vector space a Krylov solve runs in — sequential, or the local
/// blocks of a distributed vector.
pub trait InnerProduct {
    /// The global value of a sum whose local part is `local`: the identity
    /// for a sequential space, an all-reduce for a distributed one.
    fn reduce(&self, local: f64) -> f64;

    /// Inner product of two (local blocks of) vectors.
    fn dot(&self, a: &[f64], b: &[f64]) -> f64 {
        self.reduce(vecops::dot(a, b))
    }

    /// Norm induced by [`InnerProduct::dot`].
    fn norm(&self, a: &[f64]) -> f64 {
        self.dot(a, a).sqrt()
    }

    /// Modified Gram-Schmidt of `w` against the orthonormal `basis`:
    /// `h[i] = ⟨w, vᵢ⟩` and `w -= h[i]·vᵢ` for each `i` in order; returns
    /// `‖w‖` of the result.  Each sweep is fused (`vecops::axpy_dot`): the
    /// subtraction of `vᵢ` accumulates `⟨w, vᵢ₊₁⟩` — or `‖w‖²` after the
    /// last — so `w` is read once per basis vector.  Every `h[i]`, every
    /// entry of `w` and the norm are bitwise those of [`dot`](Self::dot),
    /// [`vecops::axpy`] and [`norm`](Self::norm) called one after another,
    /// with one [`reduce`](Self::reduce) per coefficient and one for the
    /// norm.
    fn orthogonalize(&self, w: &mut [f64], basis: &[Vec<f64>], h: &mut [f64]) -> f64 {
        assert_eq!(h.len(), basis.len(), "one coefficient per basis vector");
        let Some(first) = basis.first() else {
            return self.norm(w);
        };
        let mut hi = self.dot(w, first);
        for (i, vi) in basis.iter().enumerate() {
            h[i] = hi;
            let next = basis.get(i + 1).map(Vec::as_slice);
            hi = self.reduce(vecops::axpy_dot(-hi, vi, w, next));
        }
        hi.sqrt()
    }
}

/// Sequential vector space.
#[derive(Clone, Copy, Debug, Default)]
pub struct SeqDot;

impl InnerProduct for SeqDot {
    fn reduce(&self, local: f64) -> f64 {
        local
    }
}

/// Adapter giving every sparse format an [`Operator`] implementation.
///
/// (A blanket `impl<M: CoreOperator> Operator for M` would forbid downstream
/// crates from implementing `Operator` for their own matrix wrappers, so
/// the adapter is explicit.)
#[derive(Clone, Debug)]
pub struct MatOperator<'a, M>(pub &'a M);

impl<M: CoreOperator> Operator for MatOperator<'_, M> {
    fn dim(&self) -> usize {
        self.0.nrows()
    }
    fn apply(&self, x: &[f64], y: &mut [f64]) {
        mult("MatMult", self.0, &ExecCtx::serial(), x, y, Apply::Set);
    }
}

/// One sparse product on `ctx`, `y = A·x` or `y += A·x` by `mode`, under
/// the span `name` carrying its §6 modeled traffic, so reports can show
/// achieved GB/s.  The one place the solver stack opens such a span: with
/// logging off the traffic model is not evaluated and the call costs one
/// relaxed atomic load.
pub(crate) fn mult<M: CoreOperator + ?Sized>(
    name: &'static str,
    a: &M,
    ctx: &ExecCtx,
    x: &[f64],
    y: &mut [f64],
    mode: Apply,
) {
    let _span = sellkit_obs::enabled().then(|| {
        let t = a.spmv_traffic();
        sellkit_obs::span_traffic(name, t.flops as f64, t.bytes as f64)
    });
    a.apply(ctx, x.into(), y.into(), mode);
}

/// Like [`MatOperator`], but every application runs on an
/// [`ExecCtx`] worker pool — the hook that makes a
/// whole Krylov solve thread-parallel without touching any solver code:
/// wrap the matrix once, and every MatMult the solver issues dispatches to
/// the pool.
///
/// The SpMV determinism contract carries over: a solve driven through a
/// `CtxMatOperator` produces bitwise the same iterates as the serial
/// [`MatOperator`] for any thread count.
#[derive(Clone, Debug)]
pub struct CtxMatOperator<'a, M: ?Sized> {
    mat: &'a M,
    ctx: &'a sellkit_core::ExecCtx,
}

impl<'a, M: CoreOperator + ?Sized> CtxMatOperator<'a, M> {
    /// Binds a matrix to an execution context.
    pub fn new(mat: &'a M, ctx: &'a sellkit_core::ExecCtx) -> Self {
        Self { mat, ctx }
    }

    /// The wrapped matrix.
    pub fn mat(&self) -> &'a M {
        self.mat
    }

    /// The execution context applications run on.
    pub fn ctx(&self) -> &'a sellkit_core::ExecCtx {
        self.ctx
    }
}

impl<M: CoreOperator + ?Sized> Operator for CtxMatOperator<'_, M> {
    fn dim(&self) -> usize {
        self.mat.nrows()
    }
    fn apply(&self, x: &[f64], y: &mut [f64]) {
        mult("MatMult", self.mat, self.ctx, x, y, Apply::Set);
    }
}

/// An operator wrapper counting applications — the instrument behind the
/// "SpMV dominates the solve" analyses: wrap the Jacobian, run the solver,
/// read how many MatMults it triggered.
pub struct Counting<O> {
    inner: O,
    applies: std::cell::Cell<usize>,
}

impl<O> Counting<O> {
    /// Wraps an operator with a zeroed counter.
    pub fn new(inner: O) -> Self {
        Self {
            inner,
            applies: std::cell::Cell::new(0),
        }
    }

    /// Number of `apply` calls so far.
    pub fn applies(&self) -> usize {
        self.applies.get()
    }

    /// The wrapped operator.
    pub fn inner(&self) -> &O {
        &self.inner
    }
}

impl<O: Operator> Operator for Counting<O> {
    fn dim(&self) -> usize {
        self.inner.dim()
    }
    fn apply(&self, x: &[f64], y: &mut [f64]) {
        self.applies.set(self.applies.get() + 1);
        self.inner.apply(x, y);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sellkit_core::Csr;

    #[test]
    fn mat_operator_applies_spmv() {
        let a = Csr::from_dense(2, 2, &[2.0, 0.0, 0.0, 3.0]);
        let op = MatOperator(&a);
        assert_eq!(op.dim(), 2);
        let mut y = vec![0.0; 2];
        op.apply(&[1.0, 1.0], &mut y);
        assert_eq!(y, vec![2.0, 3.0]);
    }

    #[test]
    fn ctx_operator_matches_serial_operator_bitwise() {
        let a = {
            let mut b = sellkit_core::CooBuilder::new(33, 33);
            for i in 0..33usize {
                for j in 0..(i % 4 + 1) {
                    b.push(i, (i + 5 * j) % 33, (i * 3 + j) as f64 * 0.5 - 7.0);
                }
            }
            b.to_csr()
        };
        let x: Vec<f64> = (0..33).map(|i| (i as f64 * 0.7).cos()).collect();
        let mut want = vec![0.0; 33];
        MatOperator(&a).apply(&x, &mut want);
        for threads in [1, 2, 4] {
            let ctx = sellkit_core::ExecCtx::new(threads);
            let op = CtxMatOperator::new(&a, &ctx);
            assert_eq!(op.dim(), 33);
            let mut y = vec![0.0; 33];
            op.apply(&x, &mut y);
            assert_eq!(y, want, "threads={threads}");
        }
    }

    #[test]
    fn counting_wrapper_counts() {
        let a = Csr::from_dense(2, 2, &[1.0, 0.0, 0.0, 1.0]);
        let op = Counting::new(MatOperator(&a));
        let mut y = vec![0.0; 2];
        op.apply(&[1.0, 2.0], &mut y);
        op.apply(&[1.0, 2.0], &mut y);
        assert_eq!(op.applies(), 2);
        assert_eq!(op.dim(), 2);
    }

    #[test]
    fn gmres_applies_operator_once_per_iteration_plus_setup() {
        use crate::ksp::{gmres, KspConfig};
        use crate::pc::IdentityPc;
        let n = 16;
        let mut d = vec![0.0; n * n];
        for i in 0..n {
            d[i * n + i] = 2.0 + i as f64 * 0.1;
            if i + 1 < n {
                d[i * n + i + 1] = -1.0;
                d[(i + 1) * n + i] = -1.0;
            }
        }
        let a = Csr::from_dense(n, n, &d);
        let op = Counting::new(MatOperator(&a));
        let b = vec![1.0; n];
        let mut x = vec![0.0; n];
        let res = gmres(
            &op,
            &IdentityPc,
            &SeqDot,
            &b,
            &mut x,
            &KspConfig {
                rtol: 1e-10,
                ..Default::default()
            },
        );
        // One apply for the initial residual + one per Arnoldi step + the
        // end-of-cycle true-residual verification.
        assert_eq!(op.applies(), res.iterations + 2);
    }

    /// A space that counts its reductions.
    struct CountingSpace(std::cell::Cell<usize>);

    impl InnerProduct for CountingSpace {
        fn reduce(&self, local: f64) -> f64 {
            self.0.set(self.0.get() + 1);
            local
        }
    }

    #[test]
    fn orthogonalize_equals_the_unfused_sweep_bitwise() {
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for n in [0usize, 1, 15, 16, 17, 4095, 4097, 3 * 4096 + 5] {
            let wave = |f: f64| {
                (0..n)
                    .map(|i| (i as f64 * f).sin() + 0.1)
                    .collect::<Vec<_>>()
            };
            let basis: Vec<Vec<f64>> = (0..4).map(|k| wave(0.3 + k as f64)).collect();
            for k in 0..=basis.len() {
                let space = CountingSpace(std::cell::Cell::new(0));
                let (mut w, mut h) = (wave(0.07), vec![0.0; k]);
                let norm = space.orthogonalize(&mut w, &basis[..k], &mut h);
                assert_eq!(space.0.get(), k + 1, "n={n} k={k}: one reduction per value");

                let (mut want_w, mut want_h) = (wave(0.07), vec![0.0; k]);
                for (hi, vi) in want_h.iter_mut().zip(&basis) {
                    *hi = SeqDot.dot(&want_w, vi);
                    vecops::axpy(-*hi, vi, &mut want_w);
                }
                let want_norm = SeqDot.norm(&want_w);
                assert_eq!(bits(&h), bits(&want_h), "n={n} k={k}");
                assert_eq!(bits(&w), bits(&want_w), "n={n} k={k}");
                assert_eq!(norm.to_bits(), want_norm.to_bits(), "n={n} k={k}");
            }
        }
    }

    #[test]
    fn seq_dot_norm() {
        let s = SeqDot;
        assert_eq!(s.dot(&[1.0, 2.0], &[3.0, 4.0]), 11.0);
        assert_eq!(s.norm(&[3.0, 4.0]), 5.0);
    }
}
