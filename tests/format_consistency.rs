//! Cross-crate format consistency: every storage format must compute the
//! same SpMV as the dense reference, on every matrix family, at every ISA
//! tier the host supports — including property-based random sparsity.

use proptest::prelude::*;
use sellkit::core::{
    Apply, Baij, CooBuilder, Csr, ExecCtx, Isa, MatShape, Operator, Sell, Sell8, SellEsb,
    SellSigma8,
};
use sellkit::workloads::generators;
use sellkit_check::Validate;

fn dense_spmv(a: &Csr, x: &[f64]) -> Vec<f64> {
    let d = a.to_dense();
    let (m, n) = (a.nrows(), a.ncols());
    (0..m)
        .map(|i| (0..n).map(|j| d[i * n + j] * x[j]).sum())
        .collect()
}

fn check_all_formats(a: &Csr) {
    let n = a.ncols();
    let x: Vec<f64> = (0..n)
        .map(|i| ((i * 37 % 101) as f64) * 0.01 - 0.5)
        .collect();
    let want = dense_spmv(a, &x);
    let assert_close = |got: &[f64], label: &str| {
        for i in 0..a.nrows() {
            assert!(
                (got[i] - want[i]).abs() < 1e-10 * (1.0 + want[i].abs()),
                "{label} row {i}: {} vs {}",
                got[i],
                want[i]
            );
        }
    };

    let mut y = vec![0.0; a.nrows()];
    for isa in Isa::available_tiers() {
        a.spmv_isa(isa, &x, &mut y);
        assert_close(&y, &format!("CSR {isa}"));
        Sell8::from_csr(a).spmv_isa(isa, &x, &mut y);
        assert_close(&y, &format!("SELL8 {isa}"));
    }
    SellEsb::from_csr(a).apply(&ExecCtx::serial(), (&x).into(), (&mut y).into(), Apply::Set);
    assert_close(&y, "SellEsb");
    Sell::<4>::from_csr(a).apply(&ExecCtx::serial(), (&x).into(), (&mut y).into(), Apply::Set);
    assert_close(&y, "Sell4");
    Sell::<16>::from_csr(a).apply(&ExecCtx::serial(), (&x).into(), (&mut y).into(), Apply::Set);
    assert_close(&y, "Sell16");
    SellSigma8::from_csr_sigma(a, 8).apply(
        &ExecCtx::serial(),
        (&x).into(),
        (&mut y).into(),
        Apply::Set,
    );
    assert_close(&y, "SellSigma8 sigma=8");
    if a.nrows() == a.ncols() && a.nrows().is_multiple_of(2) {
        Baij::from_csr(a, 2).apply(&ExecCtx::serial(), (&x).into(), (&mut y).into(), Apply::Set);
        assert_close(&y, "Baij bs=2");
    }
}

#[test]
fn generator_matrices_agree_across_formats() {
    check_all_formats(&generators::stencil5(16));
    check_all_formats(&generators::stencil9(12));
    check_all_formats(&generators::stencil7_3d(6));
    check_all_formats(&generators::banded(100, 3, 1));
    check_all_formats(&generators::random_uniform(80, 7, 2));
    check_all_formats(&generators::power_law(120, 1, 40, 1.3, 3));
    check_all_formats(&generators::diagonal(50, 4));
}

#[test]
fn pathological_shapes() {
    // Empty matrix.
    check_all_formats(&Csr::from_dense(0, 0, &[]));
    // Single element.
    check_all_formats(&Csr::from_dense(1, 1, &[5.0]));
    // One dense row among empties.
    let mut b = CooBuilder::new(10, 10);
    for j in 0..10 {
        b.push(4, j, j as f64 + 1.0);
    }
    check_all_formats(&b.to_csr());
    // All rows empty.
    check_all_formats(&CooBuilder::new(9, 9).to_csr());
    // Rectangular, wide and tall.
    check_all_formats(&Csr::from_dense(
        3,
        11,
        &(0..33).map(|i| (i % 4) as f64).collect::<Vec<_>>(),
    ));
    check_all_formats(&Csr::from_dense(
        11,
        3,
        &(0..33).map(|i| (i % 5) as f64).collect::<Vec<_>>(),
    ));
    // Exactly one slice (8 rows) and one more than a slice (9 rows).
    check_all_formats(&generators::banded(8, 2, 5));
    check_all_formats(&generators::banded(9, 2, 5));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random sparsity patterns: all formats equal the dense reference.
    #[test]
    fn random_matrices_agree(
        nrows in 1usize..60,
        ncols in 1usize..60,
        entries in prop::collection::vec((0usize..60, 0usize..60, -10.0f64..10.0), 0..300),
    ) {
        let mut b = CooBuilder::new(nrows, ncols);
        for (i, j, v) in entries {
            b.push(i % nrows, j % ncols, v);
        }
        check_all_formats(&b.to_csr());
    }

    /// SELL round-trips through CSR exactly.
    #[test]
    fn sell_round_trip(
        nrows in 1usize..50,
        entries in prop::collection::vec((0usize..50, 0usize..50, -5.0f64..5.0), 0..200),
    ) {
        let mut b = CooBuilder::new(nrows, nrows);
        for (i, j, v) in entries {
            b.push(i % nrows, j % nrows, v);
        }
        let a = b.to_csr();
        let s = Sell8::from_csr(&a);
        prop_assert_eq!(s.to_csr().to_dense(), a.to_dense());
        let sorted = SellSigma8::from_csr_sigma(&a, 16);
        prop_assert_eq!(sorted.to_csr().to_dense(), a.to_dense());
    }

    /// Padding invariants: stored size is slice-aligned, live indices in
    /// bounds, padding lanes carry the `ncols` sentinel, rlen matches CSR
    /// row lengths.
    #[test]
    fn sell_padding_invariants(
        nrows in 1usize..64,
        entries in prop::collection::vec((0usize..64, 0usize..64, 1.0f64..2.0), 0..256),
    ) {
        let mut b = CooBuilder::new(nrows, nrows);
        for (i, j, v) in entries {
            b.push(i % nrows, j % nrows, v);
        }
        let a = b.to_csr();
        let s = Sell8::from_csr(&a);
        prop_assert_eq!(s.stored_elems() % 8, 0);
        prop_assert!(s.sliceptr().windows(2).all(|w| w[0] <= w[1]));
        // Every padded lane holds the sentinel the kernels mask and the
        // value zero, on whichever stream its slice uses.
        prop_assert_eq!(s.validate(), Ok(()));
        // The live entries are the CSR rows, in order.
        for i in 0..nrows {
            prop_assert_eq!(s.rlen()[i] as usize, a.row_len(i));
            let row: Vec<(u32, f64)> = s.row(i).collect();
            let want: Vec<(u32, f64)> =
                a.row_cols(i).iter().copied().zip(a.row_vals(i).iter().copied()).collect();
            prop_assert_eq!(row, want);
        }
    }

    /// spmv_add is exactly spmv followed by vector add.
    #[test]
    fn spmv_add_consistency(
        n in 1usize..40,
        entries in prop::collection::vec((0usize..40, 0usize..40, -3.0f64..3.0), 0..150),
        y0 in -4.0f64..4.0,
    ) {
        let mut b = CooBuilder::new(n, n);
        for (i, j, v) in entries {
            b.push(i % n, j % n, v);
        }
        let a = b.to_csr();
        let s = Sell8::from_csr(&a);
        let x: Vec<f64> = (0..n).map(|i| i as f64 * 0.1).collect();
        let mut y1 = vec![y0; n];
        s.apply(&ExecCtx::serial(), (&x).into(), (&mut y1).into(), Apply::Add);
        let mut ax = vec![0.0; n];
        s.apply(&ExecCtx::serial(), (&x).into(), (&mut ax).into(), Apply::Set);
        for i in 0..n {
            prop_assert!((y1[i] - (y0 + ax[i])).abs() < 1e-10);
        }
    }
}
