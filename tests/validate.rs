//! Mutation-style tests for `sellkit-check`: deliberately corrupt each
//! structural invariant and assert the validator reports the exact
//! [`Violation`] kind and location, plus a property test that every format
//! built from random COO input validates cleanly.
//!
//! The corruptions go through the `check_*_parts` functions, which take raw
//! slices — the same checks the `Validate` impls run on the owned formats.

use proptest::prelude::*;
use sellkit::core::{
    Baij, Codec, CooBuilder, MatShape, Sbaij, Sell16, Sell4, Sell8, SellEsb, SellSigma8,
};
use sellkit_check::{
    check_alignment, check_block_parts, check_csr_parts, check_packed_sidecars, check_sell_parts,
    Loc, Validate, Violation, ViolationKind,
};

/// 10×10 fixture with a known SELL-8 layout: row 0 has three nonzeros
/// (columns 0, 2, 4), every other row one (its diagonal).  Slice 0 (rows
/// 0–7) is 3 wide, slice 1 (rows 8–9, padded to 8 lanes) is 1 wide, so
/// `sliceptr == [0, 24, 32]`.
fn fixture() -> Sell8 {
    let mut b = CooBuilder::new(10, 10);
    b.push(0, 0, 1.0);
    b.push(0, 2, 2.0);
    b.push(0, 4, 3.0);
    for i in 1..10 {
        b.push(i, i, i as f64);
    }
    Sell8::from_csr(&b.to_csr())
}

#[test]
fn fixture_layout_is_as_documented() {
    let s = fixture();
    assert_eq!(s.sliceptr(), &[0, 24, 32]);
    assert_eq!(s.validate(), Ok(()));
}

#[test]
fn broken_sliceptr_monotonicity_is_reported() {
    let s = fixture();
    let mut sliceptr = s.sliceptr().to_vec();
    sliceptr[1] = 40; // 0 -> 40 -> 32 decreases at index 1
    let v = check_sell_parts(
        8,
        10,
        10,
        12,
        &sliceptr,
        s.colidx(),
        s.values(),
        s.rlen(),
        None,
    );
    assert_eq!(
        v,
        vec![Violation::PtrNonMonotone {
            array: "sliceptr",
            at: 1,
            prev: 40,
            next: 32
        }]
    );
}

#[test]
fn out_of_range_colidx_is_reported_with_coordinates() {
    let s = fixture();
    let mut colidx = s.colidx().to_vec();
    // Row 2's single real entry sits at lane r = 2, column position j = 0.
    assert_eq!(colidx[2], 2);
    colidx[2] = 99;
    let v = check_sell_parts(
        8,
        10,
        10,
        12,
        s.sliceptr(),
        &colidx,
        s.values(),
        s.rlen(),
        None,
    );
    let expected = Violation::ColOutOfBounds {
        loc: Loc {
            at: 2,
            row: 2,
            slice: 0,
        },
        col: 99,
        ncols: 10,
    };
    assert_eq!(v, vec![expected]);
}

#[test]
fn padding_aliasing_a_live_column_is_reported() {
    let s = fixture();
    let mut colidx = s.colidx().to_vec();
    // Row 1's padding at column position j = 1: flat index 8 + 1 = 9.
    // It must hold the sentinel `ncols` (masked by the kernels); column 3
    // is in-bounds for x, which is exactly the hazard — 0.0 × x[3] is NaN
    // when x[3] is Inf.
    assert_eq!(colidx[9], 10);
    colidx[9] = 3;
    let v = check_sell_parts(
        8,
        10,
        10,
        12,
        s.sliceptr(),
        &colidx,
        s.values(),
        s.rlen(),
        None,
    );
    assert_eq!(
        v,
        vec![Violation::PaddingAliasesLiveColumn {
            loc: Loc {
                at: 9,
                row: 1,
                slice: 0
            },
            col: 3
        }]
    );
    assert_eq!(v[0].kind(), ViolationKind::PaddingAliasesLiveColumn);
}

#[test]
fn nonzero_padding_value_is_reported() {
    let s = fixture();
    let mut val = s.values().to_vec();
    val[9] = 7.5; // same padding slot as above
    let v = check_sell_parts(
        8,
        10,
        10,
        12,
        s.sliceptr(),
        s.colidx(),
        &val,
        s.rlen(),
        None,
    );
    assert_eq!(
        v,
        vec![Violation::PaddingValueNonzero {
            loc: Loc {
                at: 9,
                row: 1,
                slice: 0
            },
            value: 7.5
        }]
    );
}

/// The narrow index form is what the f64 kernels read, so an f64 matrix's
/// `cidx16`/`cbase` answer to the master `colidx` like a packed one's.
#[test]
fn f64_index_sidecar_mutations_are_reported() {
    let s = fixture();
    assert_eq!(s.codec(), Codec::F64);
    assert_eq!(s.cbase(), &[0, 8], "both slices narrow");
    let check = |cidx16: &[u16], cbase: &[u32]| {
        check_packed_sidecars(
            Codec::F64,
            s.ncols(),
            s.sliceptr(),
            s.colidx(),
            s.values(),
            s.packed_values(),
            cidx16,
            cbase,
        )
    };
    assert_eq!(check(s.cidx16(), s.cbase()), vec![]);

    // Row 0's second entry (column 2): flat index 8.
    let mut cidx16 = s.cidx16().to_vec();
    assert_eq!(cidx16[8], 2);
    cidx16[8] ^= 1;
    let mismatch = |at| Violation::PackedSidecarMismatch {
        array: "cidx16",
        at,
    };
    assert_eq!(check(&cidx16, s.cbase()), vec![mismatch(8)]);

    // Slice 1's base moved by one: its two live offsets (rows 8 and 9)
    // resolve one column off the master pattern.
    assert_eq!(check(s.cidx16(), &[0, 9]), vec![mismatch(24), mismatch(25)]);

    // A padded lane turned live, and a live one turned padding.
    let mut cidx16 = s.cidx16().to_vec();
    assert_eq!((cidx16[9], cidx16[1]), (u16::MAX, 1));
    (cidx16[9], cidx16[1]) = (3, u16::MAX);
    assert_eq!(check(&cidx16, s.cbase()), vec![mismatch(1), mismatch(9)]);

    let arr_len = |array, expected| Violation::ArrLen {
        array,
        expected,
        found: 0,
    };
    assert_eq!(
        check(&[], &[]),
        vec![arr_len("cidx16", 32), arr_len("cbase", 2)]
    );
}

#[test]
fn misaligned_buffer_is_reported() {
    let s = fixture();
    // AVec guarantees a 64-byte base; one element in, an f64 slice sits 8
    // bytes past the boundary — exactly what a kernel must never load from
    // with aligned instructions.
    assert_eq!(check_alignment("val", s.values()), vec![]);
    assert_eq!(
        check_alignment("val", &s.values()[1..]),
        vec![Violation::Misaligned {
            array: "val",
            rem: 8
        }]
    );
}

#[test]
fn corrupted_rlen_is_reported() {
    let s = fixture();
    let mut rlen = s.rlen().to_vec();
    rlen[1] = 5; // slice 0 is only 3 wide
    let v = check_sell_parts(
        8,
        10,
        10,
        12,
        s.sliceptr(),
        s.colidx(),
        s.values(),
        &rlen,
        None,
    );
    assert!(
        v.contains(&Violation::RlenExceedsWidth {
            row: 1,
            rlen: 5,
            width: 3
        }),
        "{v:?}"
    );
    // sum(rlen) grew past the claimed nonzero count.
    assert!(
        v.contains(&Violation::NnzMismatch {
            claimed: 12,
            found: 16
        }),
        "{v:?}"
    );
}

#[test]
fn unsorted_csr_columns_are_reported() {
    let v = check_csr_parts(1, 3, &[0, 2], &[2, 1], &[1.0, 2.0]);
    assert_eq!(
        v,
        vec![Violation::ColsNotSorted {
            loc: Loc {
                at: 1,
                row: 0,
                slice: 0
            },
            prev: 2,
            next: 1
        }]
    );
}

#[test]
fn lower_triangle_block_in_sbaij_is_reported() {
    // Hand-built 2-block-row bs=1 pattern with a block below the diagonal.
    let browptr = vec![0usize, 1, 3];
    let bcolidx = vec![0u32, 0, 1];
    let val = vec![1.0, 2.0, 3.0];
    // Full symmetric nnz: both diagonals once + the off-diagonal twice.
    let v = check_block_parts(2, 2, 1, 4, &browptr, &bcolidx, &val, true);
    assert_eq!(
        v,
        vec![Violation::NotUpperTriangular {
            brow: 1,
            at: 1,
            bcol: 0
        }]
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every format built from random COO input passes validation.
    #[test]
    fn every_format_validates_from_random_coo(
        nb in 1usize..12,
        entries in prop::collection::vec((0usize..24, 0usize..24, -3.0f64..3.0), 0..120),
    ) {
        let n = nb * 2; // keep dimensions divisible by the block size
        let mut b = CooBuilder::new(n, n);
        let mut sym = CooBuilder::new(n, n);
        for &(i, j, v) in &entries {
            let (i, j) = (i % n, j % n);
            b.push(i, j, v);
            sym.push(i, j, v);
            if i != j {
                sym.push(j, i, v);
            }
        }
        prop_assert_eq!(b.validate(), Ok(()));
        let a = b.to_csr();
        prop_assert_eq!(a.validate(), Ok(()));
        prop_assert_eq!(Sell4::from_csr(&a).validate(), Ok(()));
        prop_assert_eq!(Sell8::from_csr(&a).validate(), Ok(()));
        prop_assert_eq!(Sell16::from_csr(&a).validate(), Ok(()));
        prop_assert_eq!(SellSigma8::from_csr_sigma(&a, 16).validate(), Ok(()));
        prop_assert_eq!(SellEsb::from_csr(&a).validate(), Ok(()));
        prop_assert_eq!(Baij::from_csr(&a, 2).validate(), Ok(()));
        prop_assert_eq!(Sbaij::from_csr(&sym.to_csr(), 2).validate(), Ok(()));
    }
}
