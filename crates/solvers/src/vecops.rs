//! BLAS-1 style vector kernels used throughout the solver stack.
//!
//! Written as plain slice loops so LLVM vectorizes them; these are the
//! "other core operations" of §7.3 that must not regress when the matrix
//! format changes (they never touch the matrix).
//!
//! Two kernels also have a form that runs on an [`ExecCtx`]'s worker pool,
//! the two with a caller that is on a pool: `pointwise_mult_ctx` (the
//! Jacobi smoother inside a V-cycle applied through `apply_ctx`; disjoint
//! windows, bitwise identical to the serial loop for any thread count) and
//! [`dot_ctx`] (the benchmark's pooled-reduction rung; **fixed
//! 4096-element chunks combined in index order**, so its result is
//! deterministic and *thread-count-invariant* — the same bits at 1 and 8
//! threads — though not bitwise equal to the single-accumulator serial
//! [`dot`], a different, equally valid summation order).  The Krylov and
//! Newton loops take their inner products through
//! [`InnerProduct`](crate::operator::InnerProduct) and update vectors with
//! the serial kernels; a pool form of those is added with its first caller.

use sellkit_core::ExecCtx;

/// Chunk length of the deterministic parallel reductions.  Fixed (not
/// derived from the thread count) so the summation tree — hence the bits
/// of the result — never depends on how many workers run it.
const REDUCE_CHUNK: usize = 4096;

/// Below this length [`pointwise_mult_ctx`] stays on the calling thread:
/// dispatching to the pool costs more than the loop itself.
const PAR_MIN: usize = 2048;

/// Sequential dot product.
#[inline]
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// Euclidean norm.
#[inline]
pub fn norm2(a: &[f64]) -> f64 {
    dot(a, a).sqrt()
}

/// `y += alpha * x`.
#[inline]
pub fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
    debug_assert_eq!(x.len(), y.len());
    for (yi, xi) in y.iter_mut().zip(x) {
        *yi += alpha * xi;
    }
}

/// `y = alpha * y + x` (PETSc `VecAYPX`).
#[inline]
pub(crate) fn aypx(alpha: f64, x: &[f64], y: &mut [f64]) {
    debug_assert_eq!(x.len(), y.len());
    for (yi, xi) in y.iter_mut().zip(x) {
        *yi = alpha * *yi + xi;
    }
}

/// `x *= alpha`.
#[inline]
pub fn scale(alpha: f64, x: &mut [f64]) {
    for xi in x {
        *xi *= alpha;
    }
}

/// `y = x`.
#[inline]
pub fn copy(x: &[f64], y: &mut [f64]) {
    y.copy_from_slice(x);
}

/// Pointwise `w = a ⊙ b` (PETSc `VecPointwiseMult`), used by Jacobi.
#[inline]
pub(crate) fn pointwise_mult(w: &mut [f64], a: &[f64], b: &[f64]) {
    debug_assert_eq!(w.len(), a.len());
    debug_assert_eq!(w.len(), b.len());
    for i in 0..w.len() {
        w[i] = a[i] * b[i];
    }
}

/// Maximum absolute entry (∞-norm).
#[inline]
pub fn norm_inf(a: &[f64]) -> f64 {
    a.iter().fold(0.0f64, |m, &x| m.max(x.abs()))
}

/// The dot product of chunk `c` (fixed [`REDUCE_CHUNK`] length) of `a`/`b`.
#[inline]
fn chunk_dot(a: &[f64], b: &[f64], c: usize) -> f64 {
    let lo = c * REDUCE_CHUNK;
    let hi = (lo + REDUCE_CHUNK).min(a.len());
    dot(&a[lo..hi], &b[lo..hi])
}

/// Deterministic parallel dot product: fixed-size chunk partials combined
/// in index order, so the bits of the result do not depend on the thread
/// count (see the module docs).
pub fn dot_ctx(ctx: &ExecCtx, a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    let nchunks = a.len().div_ceil(REDUCE_CHUNK).max(1);
    if ctx.is_serial() || nchunks == 1 {
        return (0..nchunks).map(|c| chunk_dot(a, b, c)).sum();
    }
    let mut partials = vec![0.0f64; nchunks];
    // Each lane fills an even window of the chunk-partial array; the chunk
    // grid itself is fixed, so the partials (and their index-order sum
    // below) carry the same bits at any thread count.
    ctx.dispatch_even(&mut partials, &|c0, win| {
        for (o, slot) in win.iter_mut().enumerate() {
            *slot = chunk_dot(a, b, c0 + o);
        }
    });
    partials.iter().sum()
}

/// Pointwise `w = a ⊙ b` over the context; bitwise identical to
/// [`pointwise_mult`] — the parallel path of the Jacobi smoother.
pub(crate) fn pointwise_mult_ctx(ctx: &ExecCtx, w: &mut [f64], a: &[f64], b: &[f64]) {
    debug_assert_eq!(w.len(), a.len());
    debug_assert_eq!(w.len(), b.len());
    if ctx.is_serial() || w.len() < PAR_MIN {
        return pointwise_mult(w, a, b);
    }
    // Even contiguous windows of `w`, one borrowed body shared by every
    // lane: no allocation, and disjoint windows keep the serial bits.
    ctx.dispatch_even(w, &|i0, win: &mut [f64]| {
        pointwise_mult(win, &a[i0..i0 + win.len()], &b[i0..i0 + win.len()])
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_and_norm() {
        assert_eq!(dot(&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]), 32.0);
        assert_eq!(norm2(&[3.0, 4.0]), 5.0);
        assert_eq!(norm_inf(&[-7.0, 2.0]), 7.0);
    }

    #[test]
    fn axpy_family() {
        let x = vec![1.0, 2.0];
        let mut y = vec![10.0, 20.0];
        axpy(2.0, &x, &mut y);
        assert_eq!(y, vec![12.0, 24.0]);
        aypx(0.5, &x, &mut y);
        assert_eq!(y, vec![7.0, 14.0]);
    }

    #[test]
    fn ctx_elementwise_kernels_match_serial_bitwise() {
        // Long enough to cross PAR_MIN so the pool actually runs.
        let n = 3 * PAR_MIN + 17;
        let a: Vec<f64> = (0..n).map(|i| (i as f64 * 0.123).sin()).collect();
        let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.321).cos()).collect();
        let mut w = vec![0.0; n];
        pointwise_mult(&mut w, &a, &b);
        for threads in [1usize, 2, 4] {
            let ctx = ExecCtx::new(threads);
            let mut w_ctx = vec![0.0; n];
            pointwise_mult_ctx(&ctx, &mut w_ctx, &a, &b);
            assert_eq!(w, w_ctx, "pointwise threads={threads}");
        }
    }

    #[test]
    fn ctx_reductions_are_thread_count_invariant() {
        let n = 5 * REDUCE_CHUNK + 123;
        let a: Vec<f64> = (0..n).map(|i| (i as f64 * 0.017).sin()).collect();
        let b: Vec<f64> = (0..n).map(|i| 1.0 / (1.0 + i as f64)).collect();
        let serial = dot_ctx(&ExecCtx::serial(), &a, &b);
        for threads in [2usize, 3, 4, 8] {
            let ctx = ExecCtx::new(threads);
            assert_eq!(
                serial.to_bits(),
                dot_ctx(&ctx, &a, &b).to_bits(),
                "dot threads={threads}"
            );
        }
        // Same summation tree, different accumulator grouping than the
        // plain serial loop: equal to rounding error, not to the bit.
        assert!((serial - dot(&a, &b)).abs() <= 1e-9 * serial.abs().max(1.0));
    }

    #[test]
    fn scale_copy_pointwise() {
        let mut x = vec![1.0, -2.0];
        scale(-3.0, &mut x);
        assert_eq!(x, vec![-3.0, 6.0]);
        let mut y = vec![0.0; 2];
        copy(&x, &mut y);
        assert_eq!(y, x);
        let mut w = vec![0.0; 2];
        pointwise_mult(&mut w, &x, &y);
        assert_eq!(w, vec![9.0, 36.0]);
    }
}
