//! Parallel-vs-serial equivalence of the execution-context SpMV engine.
//!
//! The `Operator` contract promises that `spmv_ctx`/`spmv_add_ctx` produce
//! **bitwise-identical** output to the serial path for any thread count:
//! the row/slice partitioning may only change *which thread* computes a
//! row, never the summation order *within* a row or slice.  These
//! property tests drive that promise for every format on random COO
//! matrices, plus regression tests for the empty-partition corner (more
//! threads than slices).

use proptest::prelude::*;
use sellkit::core::{
    Apply, Baij, CooBuilder, ExecCtx, MatShape, Operator, Sbaij, Sell, SellEsb, SellSigma8,
};

/// NaN-safe bitwise equality: `assert_eq!` on floats would reject a
/// NaN-vs-NaN match, so compare the raw bit patterns.  Partitioning must
/// not change per-row operation order, so even NaN payloads agree.
fn assert_bits_eq(got: &[f64], want: &[f64], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: length");
    for i in 0..got.len() {
        assert!(
            got[i].to_bits() == want[i].to_bits(),
            "{what}: row {i}: {:e} vs {:e}",
            got[i],
            want[i]
        );
    }
}

/// Asserts `spmv_ctx` and `spmv_add_ctx` at 1/2/4/7 threads reproduce
/// the serial results bit for bit.
fn assert_parallel_matches_serial(m: &(impl Operator + ?Sized), x: &[f64], label: &str) {
    let n = m.nrows();
    let base: Vec<f64> = (0..n).map(|i| i as f64 * 0.01 - 0.5).collect();
    let mut want = vec![0.0; n];
    m.apply(
        &ExecCtx::serial(),
        (x).into(),
        (&mut want).into(),
        Apply::Set,
    );
    let mut want_add = base.clone();
    m.apply(
        &ExecCtx::serial(),
        (x).into(),
        (&mut want_add).into(),
        Apply::Add,
    );
    for threads in [1usize, 2, 4, 7] {
        let ctx = ExecCtx::new(threads);
        let mut y = vec![0.0; n];
        m.apply(&ctx, (x).into(), (&mut y).into(), Apply::Set);
        assert_bits_eq(&y, &want, &format!("{label}: spmv at {threads} threads"));
        let mut ya = base.clone();
        m.apply(&ctx, (x).into(), (&mut ya).into(), Apply::Add);
        assert_bits_eq(
            &ya,
            &want_add,
            &format!("{label}: spmv_add at {threads} threads"),
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every format × threads ∈ {1, 2, 4, 7} is bitwise identical to the
    /// serial path on random sparse matrices (even dimension so the
    /// block formats convert at bs = 2).
    #[test]
    fn every_format_is_bitwise_parallel_invariant(
        nb in 1usize..14,
        entries in prop::collection::vec((0usize..28, 0usize..28, -2.0f64..2.0), 1..160),
    ) {
        let n = 2 * nb;
        let mut b = CooBuilder::new(n, n);
        let mut bsym = CooBuilder::new(n, n);
        for &(i, j, v) in &entries {
            b.push(i % n, j % n, v);
            // Symmetrized copy for SBAIJ (A := A + Aᵀ structurally).
            bsym.push(i % n, j % n, v);
            bsym.push(j % n, i % n, v);
        }
        let a = b.to_csr();
        let sym = bsym.to_csr();
        let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin() + 0.1).collect();

        assert_parallel_matches_serial(&a, &x, "csr");
        assert_parallel_matches_serial(&Sell::<4>::from_csr(&a), &x, "sell4");
        assert_parallel_matches_serial(&Sell::<8>::from_csr(&a), &x, "sell8");
        assert_parallel_matches_serial(&Sell::<16>::from_csr(&a), &x, "sell16");
        // SELL-C-σ runs its slice partition + parallel unsort gather; cover
        // no-sorting, default, and global windows.
        for s in [1usize, 32, n] {
            assert_parallel_matches_serial(
                &SellSigma8::from_csr_sigma(&a, s),
                &x,
                &format!("sell_c_sigma({s})"),
            );
        }
        assert_parallel_matches_serial(&SellEsb::from_csr(&a), &x, "sell_esb");
        assert_parallel_matches_serial(&Baij::from_csr(&a, 2), &x, "baij");
        assert_parallel_matches_serial(&Sbaij::from_csr(&sym, 2), &x, "sbaij");
    }
}

/// Regression: more threads than slices/rows leaves some partitions
/// empty; those must be skipped, not dispatched as zero-length kernels.
#[test]
fn more_threads_than_slices_is_handled() {
    // 3 rows → a single SELL-8 slice, 3 CSR rows; run at 7 threads.
    let mut b = CooBuilder::new(3, 3);
    b.push(0, 0, 2.0);
    b.push(1, 2, -1.0);
    b.push(2, 1, 0.5);
    let a = b.to_csr();
    let x = vec![1.0, 2.0, 3.0];
    assert_parallel_matches_serial(&a, &x, "csr tiny");
    assert_parallel_matches_serial(&Sell::<8>::from_csr(&a), &x, "sell8 tiny");
    assert_parallel_matches_serial(&SellSigma8::from_csr_sigma(&a, 8), &x, "sell_c_sigma tiny");
    assert_parallel_matches_serial(&Sell::<16>::from_csr(&a), &x, "sell16 tiny");
    assert_parallel_matches_serial(&SellEsb::from_csr(&a), &x, "esb tiny");
}

/// Regression: an empty matrix (0 × 0) must be a no-op at any width, in
/// every format, at every thread count.
#[test]
fn empty_matrix_is_a_noop() {
    use sellkit::core::Codec;
    use sellkit_fuzz::diff::{build_format, FORMATS};
    let a = CooBuilder::new(0, 0).to_csr();
    for kind in FORMATS {
        assert!(kind.supports(&a, true));
        let m = build_format(kind, &a, Codec::F64);
        assert_parallel_matches_serial(&*m, &[], kind.name());
    }
}

/// Regression: a matrix with rows but no entries must produce exact
/// +0.0 everywhere (set) and leave `y` untouched (add) — through every
/// format's pool dispatch, including ragged SELL tails (n = 11)
/// and block-divisible shapes (n = 12).
#[test]
fn all_empty_rows_matrix_is_exactly_zero() {
    use sellkit::core::Codec;
    use sellkit_fuzz::diff::{build_format, FORMATS};
    for n in [11usize, 12] {
        let a = CooBuilder::new(n, n).to_csr();
        assert_eq!(a.nnz(), 0);
        // x carries hazards: padded/empty rows must never read it.
        let mut x = vec![1.0; n];
        x[0] = f64::INFINITY;
        x[n - 1] = f64::NAN;
        for kind in FORMATS {
            if !kind.supports(&a, true) {
                continue;
            }
            let m = build_format(kind, &a, Codec::F64);
            for threads in [1usize, 2, 4, 7] {
                let ctx = ExecCtx::new(threads);
                let mut y = vec![f64::MIN; n];
                m.apply(&ctx, (&x).into(), (&mut y).into(), Apply::Set);
                for (i, &yi) in y.iter().enumerate() {
                    assert!(
                        yi.to_bits() == 0.0f64.to_bits(),
                        "{} n={n} t={threads} row {i}: {yi:e} (want +0.0)",
                        kind.name()
                    );
                }
                let base: Vec<f64> = (0..n).map(|i| i as f64 - 2.5).collect();
                let mut ya = base.clone();
                m.apply(&ctx, (&x).into(), (&mut ya).into(), Apply::Add);
                assert_bits_eq(
                    &ya,
                    &base,
                    &format!("{} add n={n} t={threads}", kind.name()),
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Adversarial generator pool: every fuzz family (ragged tails, a
    /// dense row among empties, duplicate/unsorted COO, ...) × every
    /// vector hazard class (NaN/±Inf/subnormal/signed-zero) keeps the
    /// bitwise parallel-vs-serial contract for every format of `FORMATS`.
    #[test]
    fn adversarial_pool_is_bitwise_parallel_invariant(
        family_ix in 0usize..sellkit_fuzz::gen::FAMILIES.len(),
        class_ix in 0usize..sellkit_fuzz::gen::X_CLASSES.len(),
        seed in 0u64..1_000_000,
    ) {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        use sellkit_fuzz::diff::{build_format, FORMATS};
    use sellkit::core::Codec;
        use sellkit_fuzz::gen::{build, make_x, FAMILIES, X_CLASSES};

        let case = build(FAMILIES[family_ix], seed);
        let a = case.to_csr();
        let mut rng = StdRng::seed_from_u64(seed);
        let x = make_x(X_CLASSES[class_ix], a.ncols(), &mut rng);
        for kind in FORMATS {
            if !kind.supports(&a, case.symmetric) {
                continue;
            }
            let m = build_format(kind, &a, Codec::F64);
            assert_parallel_matches_serial(&*m, &x, &format!("{} {}", kind.name(), case.name));
        }
    }
}
