//! BLAS-1 style vector kernels used throughout the solver stack.
//!
//! Written as plain slice loops so LLVM vectorizes them; these are the
//! "other core operations" of §7.3 that must not regress when the matrix
//! format changes (they never touch the matrix).
//!
//! **Every reduction has one fixed order.**  A vector is cut into
//! `REDUCE_CHUNK`-element chunks; a chunk is summed by a `LANES`-lane
//! kernel (lane `l` accumulates the products `l, l + LANES, …` of the whole
//! blocks, the tail goes into lanes `0..`, a fixed pairwise tree combines
//! the lanes) and the chunk sums are added in index order.  The kernel is
//! plain Rust — no intrinsics, and Rust never contracts `a * b + c` into an
//! FMA — so the bits depend neither on the host nor on the build profile,
//! and the independent lanes let the loop run at the memory roof instead
//! of waiting on one add chain.  Everything that reduces is built on that
//! chunk: [`dot`]; [`dot_ctx`], whose worker-pool chunks give the same
//! bits as [`dot`] at every thread count; and `axpy_dot`, the fused
//! Gram-Schmidt step, bitwise [`axpy`] then [`dot`] with the updated
//! vector read once.  `maxpy` is the chunk-blocked sum of `axpy`s.
//!
//! `pointwise_mult_ctx` (the Jacobi smoother inside a V-cycle applied
//! through `apply_ctx`; disjoint windows) is bitwise the serial loop for
//! any thread count.  The Krylov and Newton loops take their inner
//! products through [`InnerProduct`](crate::operator::InnerProduct) and
//! update vectors with the serial kernels; a pool form of those is added
//! with its first caller.

use sellkit_core::ExecCtx;

/// Chunk length of every reduction.  Fixed (not derived from the thread
/// count) so the summation tree — hence the bits of the result — never
/// depends on how many workers run it.
const REDUCE_CHUNK: usize = 4096;

/// Independent accumulators of a chunk's sum, so that consecutive adds do
/// not wait on one another.
const LANES: usize = 16;

/// Below this length [`pointwise_mult_ctx`] stays on the calling thread:
/// dispatching to the pool costs more than the loop itself.
const PAR_MIN: usize = 2048;

/// `Σ x[i]·y[i]` over one chunk in the fixed lane order of the module docs.
#[inline]
fn chunk_dot(x: &[f64], y: &[f64]) -> f64 {
    debug_assert_eq!(x.len(), y.len());
    let mut acc = [0.0f64; LANES];
    let (xb, xt) = x.as_chunks::<LANES>();
    let (yb, yt) = y.as_chunks::<LANES>();
    for (xb, yb) in xb.iter().zip(yb) {
        for l in 0..LANES {
            acc[l] += xb[l] * yb[l];
        }
    }
    lane_total(acc, xt, yt)
}

/// `w += alpha·x` on one chunk, returning [`chunk_dot`]`(w, y)` of the
/// updated chunk: the same lanes, filled in the same pass.
#[inline]
fn chunk_axpy_dot(alpha: f64, x: &[f64], w: &mut [f64], y: &[f64]) -> f64 {
    debug_assert_eq!(x.len(), w.len());
    debug_assert_eq!(y.len(), w.len());
    let mut acc = [0.0f64; LANES];
    let (wb, wt) = w.as_chunks_mut::<LANES>();
    let (xb, xt) = x.as_chunks::<LANES>();
    let (yb, yt) = y.as_chunks::<LANES>();
    for ((wb, xb), yb) in wb.iter_mut().zip(xb).zip(yb) {
        for l in 0..LANES {
            wb[l] += alpha * xb[l];
            acc[l] += wb[l] * yb[l];
        }
    }
    axpy(alpha, xt, wt);
    lane_total(acc, wt, yt)
}

/// Adds a chunk's tail `Σ x[l]·y[l]` into lanes `0..` and combines the
/// lanes by the fixed pairwise tree.  The tail is zero-padded to a whole
/// block, which adds `0·0 = +0` to the other lanes: a lane starts at `+0`
/// and so never holds `-0`, and keeps its bits.  (Padding, rather than a
/// loop over the tail, also keeps LLVM's lane pairing in the main loop.)
#[inline]
fn lane_total(mut acc: [f64; LANES], xt: &[f64], yt: &[f64]) -> f64 {
    let (mut xp, mut yp) = ([0.0; LANES], [0.0; LANES]);
    xp[..xt.len()].copy_from_slice(xt);
    yp[..yt.len()].copy_from_slice(yt);
    for l in 0..LANES {
        acc[l] += xp[l] * yp[l];
    }
    let mut width = LANES;
    while width > 1 {
        width /= 2;
        for l in 0..width {
            acc[l] += acc[l + width];
        }
    }
    acc[0]
}

/// Dot product: the lane-ordered sums of its chunks added in index order
/// (see the module docs).
#[inline]
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    a.chunks(REDUCE_CHUNK)
        .zip(b.chunks(REDUCE_CHUNK))
        .fold(0.0, |s, (x, y)| s + chunk_dot(x, y))
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

/// `w += alpha·x`, then the local `⟨w, y⟩` of the updated `w` — `⟨w, w⟩`
/// when `y` is `None` — chunk by chunk, so `w` is read once: bitwise
/// [`axpy`] followed by [`dot`].  The step of a modified Gram-Schmidt
/// sweep ([`InnerProduct::orthogonalize`](crate::operator::InnerProduct::orthogonalize)).
pub(crate) fn axpy_dot(alpha: f64, x: &[f64], w: &mut [f64], y: Option<&[f64]>) -> f64 {
    debug_assert_eq!(x.len(), w.len());
    let mut s = 0.0;
    for (c, (wc, xc)) in w
        .chunks_mut(REDUCE_CHUNK)
        .zip(x.chunks(REDUCE_CHUNK))
        .enumerate()
    {
        s += match y {
            Some(y) => chunk_axpy_dot(alpha, xc, wc, &y[c * REDUCE_CHUNK..][..wc.len()]),
            None => {
                axpy(alpha, xc, wc);
                chunk_dot(wc, wc)
            }
        };
    }
    s
}

/// `y += Σₖ alphas[k]·xs[k]` (PETSc `VecMAXPY`), chunk by chunk so each
/// chunk of `y` takes every update while in cache; every element still
/// takes them in the order of `k`, so the result is bitwise the `axpy`s
/// one after another.
pub(crate) fn maxpy(y: &mut [f64], alphas: &[f64], xs: &[Vec<f64>]) {
    debug_assert_eq!(alphas.len(), xs.len());
    for (c, yc) in y.chunks_mut(REDUCE_CHUNK).enumerate() {
        let lo = c * REDUCE_CHUNK;
        for (&alpha, x) in alphas.iter().zip(xs) {
            axpy(alpha, &x[lo..lo + yc.len()], yc);
        }
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

/// Maximum absolute entry (∞-norm); NaN if any entry is NaN, as PETSc's
/// `NORM_INFINITY` (`f64::max` would return the other operand).
#[inline]
pub fn norm_inf(a: &[f64]) -> f64 {
    a.iter()
        .map(|x| x.abs())
        .fold(0.0, |m, x| if x > m || x.is_nan() { x } else { m })
}

/// Dot product on the context's pool: each lane sums whole chunks, and the
/// chunk sums are added in index order — bitwise [`dot`] at every thread
/// count (see the module docs).
pub fn dot_ctx(ctx: &ExecCtx, a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    let nchunks = a.len().div_ceil(REDUCE_CHUNK);
    if ctx.is_serial() || nchunks <= 1 {
        return dot(a, b);
    }
    let mut partials = vec![0.0f64; nchunks];
    ctx.dispatch_even(&mut partials, &|c0, win| {
        for (c, slot) in (c0..).zip(win) {
            let lo = c * REDUCE_CHUNK;
            let hi = (lo + REDUCE_CHUNK).min(a.len());
            *slot = chunk_dot(&a[lo..hi], &b[lo..hi]);
        }
    });
    partials.iter().fold(0.0, |s, p| s + p)
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
        let serial = dot(&a, &b);
        assert_eq!(
            serial.to_bits(),
            dot_ctx(&ExecCtx::serial(), &a, &b).to_bits()
        );
        for threads in [1usize, 2, 3, 4, 8] {
            let ctx = ExecCtx::new(threads);
            assert_eq!(
                serial.to_bits(),
                dot_ctx(&ctx, &a, &b).to_bits(),
                "dot threads={threads}"
            );
        }
    }

    /// Lengths around the lane width and the chunk length, where the
    /// blocks, the tail and the chunk boundaries meet.
    const EDGE_LENGTHS: [usize; 8] = [
        0,
        1,
        15,
        16,
        17,
        REDUCE_CHUNK - 1,
        REDUCE_CHUNK + 1,
        3 * REDUCE_CHUNK + 5,
    ];

    fn wave(n: usize, f: f64) -> Vec<f64> {
        (0..n).map(|i| (i as f64 * f).sin() + 0.25).collect()
    }

    #[test]
    fn dot_is_the_lane_sum_of_its_chunks_in_index_order() {
        for n in EDGE_LENGTHS {
            let (a, b) = (wave(n, 0.37), wave(n, 0.11));
            let mut want = 0.0;
            for lo in (0..n).step_by(REDUCE_CHUNK) {
                let hi = (lo + REDUCE_CHUNK).min(n);
                let mut lanes = [0.0f64; LANES];
                for i in lo..hi {
                    lanes[(i - lo) % LANES] += a[i] * b[i];
                }
                let tree = |l: &[f64]| {
                    let p: Vec<f64> = (0..8).map(|k| l[k] + l[k + 8]).collect();
                    let q: Vec<f64> = (0..4).map(|k| p[k] + p[k + 4]).collect();
                    let r = [q[0] + q[2], q[1] + q[3]];
                    r[0] + r[1]
                };
                want += tree(&lanes);
            }
            assert_eq!(dot(&a, &b).to_bits(), want.to_bits(), "n={n}");
        }
    }

    #[test]
    fn fused_kernels_equal_their_unfused_sequences_bitwise() {
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for n in EDGE_LENGTHS {
            let (x, w0, y) = (wave(n, 0.37), wave(n, 0.11), wave(n, 0.05));
            for next in [Some(&y[..]), None] {
                let mut w = w0.clone();
                let got = axpy_dot(-0.7, &x, &mut w, next);
                let mut want_w = w0.clone();
                axpy(-0.7, &x, &mut want_w);
                let want = dot(&want_w, next.unwrap_or(&want_w));
                assert_eq!(got.to_bits(), want.to_bits(), "axpy_dot n={n}");
                assert_eq!(bits(&w), bits(&want_w), "axpy_dot n={n}");
            }
            let xs: Vec<Vec<f64>> = (0..5).map(|k| wave(n, 0.1 + k as f64)).collect();
            let alphas = [0.3, -1.7, 2.5e-3, 9.0, -0.6];
            let mut got = w0.clone();
            maxpy(&mut got, &alphas, &xs);
            let mut want = w0.clone();
            for (&alpha, x) in alphas.iter().zip(&xs) {
                axpy(alpha, x, &mut want);
            }
            assert_eq!(bits(&got), bits(&want), "maxpy n={n}");
        }
    }

    #[test]
    fn norm_inf_propagates_nan() {
        assert!(norm_inf(&[f64::NAN, 1.0]).is_nan());
        assert!(norm_inf(&[1.0, f64::NAN, -3.0]).is_nan());
        assert_eq!(norm_inf(&[]), 0.0);
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
