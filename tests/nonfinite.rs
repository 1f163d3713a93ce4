//! Non-finite input hardening: padded lanes must never touch `x`.
//!
//! The padded-format bug class: a padding slot that aliases a *live*
//! column turns `0.0 × x[c]` into NaN the moment `x[c]` is ±Inf (and
//! silently flushes signaling semantics for NaN inputs).  Padding now
//! carries the one-past-end sentinel `ncols` and every kernel masks it,
//! so a padded format must reproduce CSR **bit for bit** on vectors
//! containing infinities, NaNs, and subnormals.
//!
//! The fixtures use power-of-two matrix values so every product and
//! partial sum is exact — bitwise equality then holds at every ISA tier
//! regardless of the kernel's accumulation order.
//!
//! One layer up, the multigrid V-cycle skips the MatMult of its first
//! smoothing step (the iterate is zero there); a NaN in the right-hand
//! side or in the operator must reach the output all the same.

mod common;

use sellkit::core::{
    Apply, CooBuilder, Csr, ExecCtx, Isa, MatShape, Operator, Sell, Sell16, Sell4, Sell8, SellEsb,
    SellSigma8,
};
use sellkit::solvers::pc::mg::{Multigrid, MultigridConfig};
use sellkit::solvers::pc::Precond;

/// A 13-row matrix (ragged tail at every C ∈ {4, 8, 16}) with one long
/// row and many short ones, so every slice carries padding.  Values are
/// powers of two: products and row sums are exact.
fn ragged() -> Csr {
    let n = 13;
    let mut b = CooBuilder::new(n, n);
    for j in 0..n {
        b.push(0, j, if j % 2 == 0 { 2.0 } else { 0.5 });
    }
    for i in 1..n {
        b.push(i, i, 4.0);
        if i + 1 < n {
            b.push(i, i + 1, 0.25);
        }
    }
    b.to_csr()
}

/// Bitwise comparison that treats NaN as equal to NaN (same payload not
/// required — any NaN bit pattern counts, but both sides here come from
/// identical operations so the bits match exactly anyway).
fn assert_bits_eq(got: &[f64], want: &[f64], label: &str) {
    assert_eq!(got.len(), want.len(), "{label}: length");
    for i in 0..got.len() {
        assert!(
            got[i].to_bits() == want[i].to_bits() || (got[i].is_nan() && want[i].is_nan()),
            "{label} row {i}: {:?} (0x{:016x}) vs {:?} (0x{:016x})",
            got[i],
            got[i].to_bits(),
            want[i],
            want[i].to_bits()
        );
    }
}

/// Runs every padded format against CSR on `x` and asserts bitwise
/// equality of `spmv`, `spmv_add`, and `spmv_ctx` at 1/2/4/7 threads.
fn check_padded_formats_match_csr(a: &Csr, x: &[f64], label: &str) {
    let n = a.nrows();
    let mut want = vec![0.0; n];
    a.apply(
        &ExecCtx::serial(),
        (x).into(),
        (&mut want).into(),
        Apply::Set,
    );

    let check = |m: &dyn Operator, fmt: &str| {
        let mut y = vec![f64::MIN; n];
        m.apply(&ExecCtx::serial(), (x).into(), (&mut y).into(), Apply::Set);
        assert_bits_eq(&y, &want, &format!("{label}/{fmt}/spmv"));
        // spmv_add from y0 = 0.0 adds nothing new numerically but drives
        // the fused-add kernel paths.
        let mut ya = vec![0.0; n];
        m.apply(&ExecCtx::serial(), (x).into(), (&mut ya).into(), Apply::Add);
        assert_bits_eq(&ya, &want, &format!("{label}/{fmt}/spmv_add"));
        for threads in [2usize, 4, 7] {
            let ctx = ExecCtx::new(threads);
            let mut yc = vec![f64::MIN; n];
            m.apply(&ctx, (x).into(), (&mut yc).into(), Apply::Set);
            assert_bits_eq(&yc, &want, &format!("{label}/{fmt}/spmv_ctx@{threads}"));
        }
    };

    check(&Sell4::from_csr(a), "sell4");
    check(&Sell8::from_csr(a), "sell8");
    check(&Sell16::from_csr(a), "sell16");
    check(&SellSigma8::from_csr_sigma(a, 8), "sell_c_sigma(8)");
    check(&SellSigma8::from_csr_sigma(a, 16), "sell_c_sigma(16)");
    check(&SellEsb::from_csr(a), "sell_esb");
}

/// The acceptance regression: an Inf-bearing `x` must flow through SELL
/// exactly as through CSR — the padded lanes of the short rows must not
/// manufacture NaNs from `0.0 × Inf`.
#[test]
fn inf_vector_is_bitwise_csr_equal() {
    let a = ragged();
    let n = a.nrows();
    // Column 0 is referenced only by row 0; every other row's padding
    // used to alias low columns, so Inf here poisoned *innocent* rows.
    let mut x: Vec<f64> = (0..n).map(|i| (i % 5) as f64 * 0.25 + 1.0).collect();
    x[0] = f64::INFINITY;
    // Sanity: the oracle itself must see Inf only in row 0.
    let mut want = vec![0.0; n];
    a.apply(
        &ExecCtx::serial(),
        (&x).into(),
        (&mut want).into(),
        Apply::Set,
    );
    assert_eq!(want[0], f64::INFINITY);
    assert!(
        want[1..].iter().all(|v| v.is_finite()),
        "only row 0 references column 0: {want:?}"
    );
    check_padded_formats_match_csr(&a, &x, "inf");
}

#[test]
fn negative_inf_vector_is_bitwise_csr_equal() {
    let a = ragged();
    let n = a.nrows();
    let mut x: Vec<f64> = (0..n).map(|i| (i % 3) as f64 - 1.0).collect();
    x[0] = f64::NEG_INFINITY;
    check_padded_formats_match_csr(&a, &x, "neg_inf");
}

/// NaN in a referenced column must propagate to exactly the rows that
/// reference it; rows that don't must stay bitwise identical to CSR.
#[test]
fn nan_vector_propagates_identically() {
    let a = ragged();
    let n = a.nrows();
    let mut x: Vec<f64> = (0..n).map(|i| i as f64 * 0.5).collect();
    x[0] = f64::NAN;
    let mut want = vec![0.0; n];
    a.apply(
        &ExecCtx::serial(),
        (&x).into(),
        (&mut want).into(),
        Apply::Set,
    );
    assert!(want[0].is_nan());
    assert!(want[1..].iter().all(|v| !v.is_nan()));
    check_padded_formats_match_csr(&a, &x, "nan");
}

/// All-Inf vector: every nonempty row becomes ±Inf or NaN exactly as in
/// CSR (same products, same order for the exact-power-of-two values).
#[test]
fn all_inf_vector_is_bitwise_csr_equal() {
    let a = ragged();
    let x = vec![f64::INFINITY; a.ncols()];
    check_padded_formats_match_csr(&a, &x, "all_inf");
}

/// Subnormal inputs: power-of-two matrix values keep the products exact
/// (pure exponent shifts) and the small-integer mantissas keep every row
/// sum exact, so bitwise equality must survive gradual underflow.
#[test]
fn subnormal_vector_is_bitwise_csr_equal() {
    let a = ragged();
    let n = a.nrows();
    let grain = f64::MIN_POSITIVE / 64.0; // deep in the subnormal range
    assert!(grain > 0.0 && !grain.is_normal());
    let x: Vec<f64> = (0..n).map(|i| (i + 1) as f64 * grain).collect();
    check_padded_formats_match_csr(&a, &x, "subnormal");
}

/// Every explicit ISA tier the host supports: the Inf vector must give
/// the same answer as the CSR kernels of the *same* tier.
#[test]
fn inf_vector_across_isa_tiers() {
    let a = ragged();
    let n = a.nrows();
    let mut x: Vec<f64> = (0..n).map(|i| (i % 4) as f64 * 0.5 + 0.5).collect();
    x[0] = f64::INFINITY;
    for isa in Isa::available_tiers() {
        let mut want = vec![0.0; n];
        a.spmv_isa(isa, &x, &mut want);
        let mut y = vec![f64::MIN; n];
        Sell4::from_csr(&a).spmv_isa(isa, &x, &mut y);
        assert_bits_eq(&y, &want, &format!("sell4 {isa}"));
        Sell8::from_csr(&a).spmv_isa(isa, &x, &mut y);
        assert_bits_eq(&y, &want, &format!("sell8 {isa}"));
        Sell16::from_csr(&a).spmv_isa(isa, &x, &mut y);
        assert_bits_eq(&y, &want, &format!("sell16 {isa}"));
        SellEsb::from_csr(&a).spmv_isa(isa, &x, &mut y);
        assert_bits_eq(&y, &want, &format!("sell_esb {isa}"));
    }
}

/// The historical failure shape, pinned exactly: a single dense row among
/// empty rows maximizes padding, and Inf sits in a column only the dense
/// row touches.  Before the sentinel fix the empty rows' padded lanes
/// gathered live columns and produced `0.0 × Inf = NaN` instead of 0.0.
#[test]
fn dense_row_among_empties_with_inf() {
    let n = 10;
    let mut b = CooBuilder::new(n, n);
    for j in 0..n {
        b.push(4, j, 1.0);
    }
    let a = b.to_csr();
    let x = vec![f64::INFINITY; n];
    for s in [Sell4::from_csr(&a).to_csr(), Sell8::from_csr(&a).to_csr()] {
        assert_eq!(s.to_dense(), a.to_dense());
    }
    let mut want = vec![0.0; n];
    a.apply(
        &ExecCtx::serial(),
        (&x).into(),
        (&mut want).into(),
        Apply::Set,
    );
    assert_eq!(want[4], f64::INFINITY);
    for (i, v) in want.iter().enumerate() {
        if i != 4 {
            assert_eq!(v.to_bits(), 0.0f64.to_bits(), "empty row {i} must be +0.0");
        }
    }
    check_padded_formats_match_csr(&a, &x, "dense_among_empty");
}

/// `Sell::spmm` streams the same padded layout for multiple vectors; its
/// explicit `val == 0.0` guard must hold for Inf right-hand sides too.
#[test]
fn spmm_with_inf_columns_matches_repeated_spmv() {
    let a = ragged();
    let n = a.nrows();
    let s = Sell8::from_csr(&a);
    let k = 3;
    let mut xs = vec![0.0; k * n];
    for v in 0..k {
        for i in 0..n {
            xs[v * n + i] = (i + v) as f64 * 0.5;
        }
    }
    xs[0] = f64::INFINITY; // vector 0, column 0
    xs[n + 3] = f64::NEG_INFINITY; // vector 1, column 3
    let mut ys = vec![0.0; k * n];
    s.spmm(&xs, k, &mut ys);
    for v in 0..k {
        let mut want = vec![0.0; n];
        a.apply(
            &ExecCtx::serial(),
            (&xs[v * n..(v + 1) * n]).into(),
            (&mut want).into(),
            Apply::Set,
        );
        assert_bits_eq(&ys[v * n..(v + 1) * n], &want, &format!("spmm vec {v}"));
    }
}

/// Building any SELL variant never reorders a row's entries, so a generic
/// sanity pass: round-tripping the ragged fixture preserves the pattern.
#[test]
fn ragged_fixture_round_trips() {
    let a = ragged();
    assert_eq!(Sell::<4>::from_csr(&a).to_csr().to_dense(), a.to_dense());
    assert_eq!(Sell::<16>::from_csr(&a).to_csr().to_dense(), a.to_dense());
}

/// The V-cycle's first smoothing step on each level multiplies nothing: it
/// knows the iterate is zero.  A NaN must not get lost with that product —
/// one in `r` enters through the step itself, one in the operator through
/// the residual MatMult right after it, even when `r` is all zeros.
#[test]
fn multigrid_vcycle_surfaces_nan_in_rhs_and_operator() {
    fn check<M: Operator + sellkit::core::FromCsr>(fmt: &str) {
        let n = 64;
        let cfg = MultigridConfig::default();

        let (mut a, interps) = common::laplace_1d_hierarchy(n);
        let mg = Multigrid::<M>::new(&a, &interps, cfg);
        let mut r: Vec<f64> = (0..n).map(|i| (i as f64 * 0.3).cos()).collect();
        let mut z = vec![0.0; n];
        mg.apply(&r, &mut z);
        assert!(
            z.iter().all(|v| v.is_finite()),
            "{fmt}: finite in, finite out"
        );
        r[17] = f64::NAN;
        mg.apply(&r, &mut z);
        assert!(z[17].is_nan(), "{fmt}: NaN in r[17] must reach z[17]");

        // Row 3 is (2, 3, 4): its last entry is A(3, 4).
        let k = a.rowptr()[4] - 1;
        a.values_mut()[k] = f64::NAN;
        let mg = Multigrid::<M>::new(&a, &interps, cfg);
        for r in [vec![0.0; n], vec![1.0; n]] {
            z.fill(0.0);
            mg.apply(&r, &mut z);
            assert!(z[3].is_nan(), "{fmt}: NaN in A(3, 4) must reach z[3]");
        }
    }
    check::<Csr>("csr");
    check::<Sell8>("sell8");
}
