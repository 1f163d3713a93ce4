//! SELL-C-σ correctness properties (ISSUE 4 satellite): `spmv` and
//! `spmv_add` are **bitwise-equal** to CSR after unsorting, and the
//! stored permutation round-trips, across σ ∈ {1, C, 4C, n} and thread
//! counts 1/2/4/7.
//!
//! Bitwise equality is only meaningful when both sides accumulate each
//! row in the same order with the same instruction mix, so the
//! comparison pins **both** formats to the scalar ISA: the SELL scalar
//! kernel walks a row's nonzeros in column order exactly like the CSR
//! reference, and padding contributes `0.0 · x[local]` additions that
//! are exact identities.  (Native-ISA SELL kernels use FMA, which
//! contracts rounding steps and makes cross-format *bitwise* comparison
//! impossible by design — those paths are covered by the tolerance
//! tests in `sellkit-core` and the parallel-invariance suite.)

use proptest::prelude::*;
use sellkit::core::{
    Apply, Codec, CooBuilder, Csr, ExecCtx, Isa, MatShape, Operator, SellSigma, SellSigma8,
    VecView, VecViewMut,
};

/// σ values exercising the whole range: no sorting, one slice, the
/// 4C default, and global sorting.
fn sigmas(n: usize) -> [usize; 4] {
    [1, 8, 32, n.max(1)]
}

fn build_csr(n: usize, entries: &[(usize, usize, f64)]) -> Csr {
    let mut b = CooBuilder::new(n, n);
    for &(i, j, v) in entries {
        b.push(i % n, j % n, v);
    }
    b.to_csr()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// `spmv` matches CSR bit for bit after unsort, for every σ and
    /// thread count.
    #[test]
    fn spmv_bitwise_equals_csr_after_unsort(
        n in 1usize..48,
        entries in prop::collection::vec((0usize..48, 0usize..48, -4.0f64..4.0), 0..200),
    ) {
        let a = build_csr(n, &entries);
        let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.29).sin() - 0.2).collect();
        let mut want = vec![0.0; n];
        a.spmv_isa(Isa::Scalar, &x, &mut want);
        for sigma in sigmas(n) {
            let s = SellSigma8::from_csr_sigma(&a, sigma).with_isa(Isa::Scalar);
            for threads in [1usize, 2, 4, 7] {
                let ctx = ExecCtx::new(threads);
                let mut got = vec![0.0; n];
                s.apply(&ctx, (&x).into(), (&mut got).into(), Apply::Set);
                prop_assert_eq!(&got, &want, "sigma={} threads={}", sigma, threads);
            }
        }
    }

    /// `spmv_add` matches CSR bit for bit: both sides reduce the row sum
    /// separately and fold it into `y` with a single addition.
    #[test]
    fn spmv_add_bitwise_equals_csr_after_unsort(
        n in 1usize..48,
        entries in prop::collection::vec((0usize..48, 0usize..48, -4.0f64..4.0), 0..200),
    ) {
        let a = build_csr(n, &entries);
        let x: Vec<f64> = (0..n).map(|i| 1.0 / (i + 3) as f64).collect();
        let base: Vec<f64> = (0..n).map(|i| i as f64 * 0.11 - 1.0).collect();
        let mut want = base.clone();
        // The CSR scalar ADD kernel via an ISA-pinned serial context.
        let a_scalar = a.clone().with_isa(Isa::Scalar);
        a_scalar.apply(&ExecCtx::serial(), (&x).into(), (&mut want).into(), Apply::Add);
        for sigma in sigmas(n) {
            let s = SellSigma8::from_csr_sigma(&a, sigma).with_isa(Isa::Scalar);
            for threads in [1usize, 2, 4, 7] {
                let ctx = ExecCtx::new(threads);
                let mut got = base.clone();
                s.apply(&ctx, (&x).into(), (&mut got).into(), Apply::Add);
                prop_assert_eq!(&got, &want, "sigma={} threads={}", sigma, threads);
            }
        }
    }

    /// The stored permutation is a bijection and `perm ∘ inv_perm = id`
    /// in both directions, for every σ.
    #[test]
    fn permutation_round_trips(
        n in 1usize..64,
        entries in prop::collection::vec((0usize..64, 0usize..64, -1.0f64..1.0), 0..160),
    ) {
        let a = build_csr(n, &entries);
        for sigma in sigmas(n) {
            let s = SellSigma8::from_csr_sigma(&a, sigma);
            let p = s.perm().as_slice();
            let q = s.inv_perm().as_slice();
            prop_assert_eq!(p.len(), n);
            for k in 0..n {
                prop_assert_eq!(q[p[k] as usize] as usize, k, "perm∘inv sigma={}", sigma);
                prop_assert_eq!(p[q[k] as usize] as usize, k, "inv∘perm sigma={}", sigma);
            }
        }
    }

    /// Round trip through `to_csr` recovers the original matrix exactly
    /// (sorting is storage-only, never numerical).
    #[test]
    fn to_csr_round_trips(
        n in 1usize..40,
        entries in prop::collection::vec((0usize..40, 0usize..40, -2.0f64..2.0), 0..120),
    ) {
        let a = build_csr(n, &entries);
        for sigma in sigmas(n) {
            let s = SellSigma8::from_csr_sigma(&a, sigma);
            prop_assert_eq!(s.to_csr().to_dense(), a.to_dense(), "sigma={}", sigma);
            prop_assert_eq!(s.nnz(), a.nnz());
        }
    }
}

/// The structural validator accepts every σ variant (ties the format to
/// the `sellkit-check` invariants added for it).
#[test]
fn validator_accepts_sigma_variants() {
    use sellkit_check::Validate;
    let mut b = CooBuilder::new(37, 37);
    for i in 0..37usize {
        for j in 0..(i % 6 + 1) {
            b.push(i, (i * 3 + j * 5) % 37, (i + j) as f64 * 0.3 - 2.0);
        }
    }
    let a = b.to_csr();
    for sigma in [1usize, 8, 32, 37, 1000] {
        let s = SellSigma8::from_csr_sigma(&a, sigma);
        assert_eq!(s.validate(), Ok(()), "sigma={sigma}");
    }
}

/// Ragged 61-row matrix (row lengths 0–8, scattered columns).
fn ragged() -> Csr {
    let n = 61usize;
    let mut b = CooBuilder::new(n, n);
    for i in 0..n {
        for j in 0..(i * 7 % 9) {
            b.push(i, (i * 5 + j * 11) % n, (i + 2 * j) as f64 * 0.17 - 3.0);
        }
    }
    b.to_csr()
}

/// A packed `SellSigma<C>` against scalar CSR on the codec-quantized
/// values: round trip, then `y += A·X` for block widths 1 and 3 at every
/// ISA tier, serially and on a 3-lane pool.
fn check_packed_blocked_add<const C: usize>(a: &Csr, sigma: usize, codec: Codec) {
    let n = a.nrows();
    let mut q = a.clone();
    for v in q.values_mut() {
        *v = codec.quantize(*v);
    }
    let q = q.with_isa(Isa::Scalar);
    let label = format!("C={C} sigma={sigma} {codec:?}");
    let built = SellSigma::<C>::from_csr_sigma_codec(a, sigma, codec);
    assert_eq!(built.codec(), codec, "{label}");
    assert_eq!(built.to_csr().to_dense(), q.to_dense(), "{label}");
    for k in [1usize, 3] {
        let x: Vec<f64> = (0..n * k).map(|i| (i as f64 * 0.19).sin() * 2.0).collect();
        let y0: Vec<f64> = (0..n * k).map(|i| i as f64 * 0.07 - 1.0).collect();
        let mut want = y0.clone();
        q.apply(
            &ExecCtx::serial(),
            VecView::blocked(&x, k),
            VecViewMut::blocked(&mut want, k),
            Apply::Add,
        );
        for isa in Isa::available_tiers() {
            let s = built.clone().with_isa(isa);
            for threads in [1usize, 3] {
                let mut got = y0.clone();
                s.apply(
                    &ExecCtx::new(threads),
                    VecView::blocked(&x, k),
                    VecViewMut::blocked(&mut got, k),
                    Apply::Add,
                );
                for i in 0..n * k {
                    assert!(
                        (got[i] - want[i]).abs() < 1e-12,
                        "{label} k={k} {isa} threads={threads} entry {i}: {} vs {}",
                        got[i],
                        want[i]
                    );
                }
            }
        }
    }
}

/// The cases that lived on `Sell::from_csr_sigma` before `SellSigma` became
/// the only σ-sorted type: packed codecs at slice heights other than 8,
/// blocked products in `Add` mode, and windows that are no multiple of `C`.
#[test]
fn packed_codecs_blocked_add_and_odd_windows() {
    let a = ragged();
    for codec in [Codec::F32, Codec::Bf16] {
        for sigma in [8usize, 10, 61] {
            check_packed_blocked_add::<4>(&a, sigma, codec);
            check_packed_blocked_add::<16>(&a, sigma, codec);
        }
    }
    check_packed_blocked_add::<8>(&a, 13, Codec::F64);
}
