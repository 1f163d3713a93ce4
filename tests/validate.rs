//! Mutation-style tests for `sellkit-check`: deliberately corrupt each
//! structural invariant and assert the validator reports the exact
//! [`Violation`] kind and location, plus a property test that every format
//! built from random COO input validates cleanly.
//!
//! The corruptions go through the `check_*_parts` functions, which take raw
//! slices — the same checks the `Validate` impls run on the owned formats.
//! A `Sell` holds each stream once, so every SELL mutation swaps in a
//! corrupted copy of the **one** array that exists and names it.

use proptest::prelude::*;
use sellkit::core::{
    Baij, Codec, CooBuilder, Csr, Sbaij, Sell16, Sell4, Sell8, SellEsb, SellSigma8,
};
use sellkit_check::{
    check_alignment, check_block_parts, check_csr_parts, check_sell_alignment, check_sell_parts,
    Loc, SellStreams, Validate, Violation, ViolationKind,
};

/// 10×10 fixture with a known SELL-8 layout: row 0 has three nonzeros
/// (columns 0, 2, 4), every other row one (its diagonal).  Slice 0 (rows
/// 0–7) is 3 wide, slice 1 (rows 8–9, padded to 8 lanes) is 1 wide, so
/// `sliceptr == [0, 24, 32]`; both slices are narrow (`cbase == [0, 8]`),
/// so `cidx16` is the whole index stream and `colidx` is empty.
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

/// 12×70 000 fixture, two entries a row (`100 + i`, `150 + 2i`) except
/// that row 3's second sits at column 69 000: slice 0 (rows 0–7) spans
/// more than `0xFFFF` columns and is **wide** (16 entries in `colidx`),
/// slice 1 (rows 8–11) is narrow from base 108 — a mixed matrix, like the
/// Gray-Scott Jacobians' periodic wrap rows.  `sliceptr == [0, 16, 32]`,
/// `wideptr == [0, 16, 16]`.
fn mixed_fixture(codec: Codec) -> Sell8 {
    let mut b = CooBuilder::new(12, 70_000);
    for i in 0..12 {
        b.push(i, 100 + i, 1.0 + i as f64);
        b.push(i, if i == 3 { 69_000 } else { 150 + 2 * i }, 0.5 - i as f64);
    }
    Sell8::from_csr_codec(&b.to_csr(), codec)
}

fn loc(at: usize, row: usize, slice: usize) -> Loc {
    Loc { at, row, slice }
}

fn arr_len(array: &'static str, expected: usize, found: usize) -> Violation {
    Violation::ArrLen {
        array,
        expected,
        found,
    }
}

#[test]
fn fixture_layout_is_as_documented() {
    let s = fixture();
    assert_eq!(s.sliceptr(), &[0, 24, 32]);
    assert_eq!(s.cbase(), &[0, 8]);
    assert!(s.colidx().is_empty() && s.wideptr() == [0, 0, 0]);
    assert_eq!(s.validate(), Ok(()));
    for codec in [Codec::F64, Codec::F32, Codec::Bf16] {
        let m = mixed_fixture(codec);
        assert_eq!(m.sliceptr(), &[0, 16, 32]);
        assert_eq!(m.cbase(), &[u32::MAX, 108]);
        assert_eq!((m.wideptr(), m.colidx().len()), (&[0, 16, 16][..], 16));
        assert_eq!(m.validate(), Ok(()), "{codec:?}");
    }
}

#[test]
fn broken_sliceptr_monotonicity_is_reported() {
    let s = fixture();
    let mut sliceptr = s.sliceptr().to_vec();
    sliceptr[1] = 40; // 0 -> 40 -> 32 decreases at index 1
    let m = SellStreams {
        sliceptr: &sliceptr,
        ..SellStreams::of(&s)
    };
    assert_eq!(
        check_sell_parts(8, &m, None),
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
    // Narrow stream: row 2's single real entry sits at lane r = 2, column
    // position j = 0, offset 2 from base 0.
    let s = fixture();
    let mut cidx16 = s.cidx16().to_vec();
    assert_eq!(cidx16[2], 2);
    cidx16[2] = 99;
    let m = SellStreams {
        cidx16: &cidx16,
        ..SellStreams::of(&s)
    };
    assert_eq!(
        check_sell_parts(8, &m, None),
        vec![Violation::ColOutOfBounds {
            loc: loc(2, 2, 0),
            col: 99,
            ncols: 10,
        }]
    );

    // Wide stream: row 3's far entry is `colidx[8 + 3]`, i.e. entry 11 of
    // the value stream.
    let s = mixed_fixture(Codec::F64);
    let mut colidx = s.colidx().to_vec();
    assert_eq!(colidx[11], 69_000);
    colidx[11] = 70_001;
    let m = SellStreams {
        colidx: &colidx,
        ..SellStreams::of(&s)
    };
    assert_eq!(
        check_sell_parts(8, &m, None),
        vec![Violation::ColOutOfBounds {
            loc: loc(11, 3, 0),
            col: 70_001,
            ncols: 70_000,
        }]
    );
}

#[test]
fn padding_aliasing_a_live_column_is_reported() {
    let s = fixture();
    let mut cidx16 = s.cidx16().to_vec();
    // Row 1's padding at column position j = 1: flat index 8 + 1 = 9.
    // It must hold the sentinel `0xFFFF` (masked by the kernels); column 3
    // is in-bounds for x, which is exactly the hazard — 0.0 × x[3] is NaN
    // when x[3] is Inf.
    assert_eq!(cidx16[9], u16::MAX);
    cidx16[9] = 3;
    let m = SellStreams {
        cidx16: &cidx16,
        ..SellStreams::of(&s)
    };
    let v = check_sell_parts(8, &m, None);
    assert_eq!(
        v,
        vec![Violation::PaddingAliasesLiveColumn {
            loc: loc(9, 1, 0),
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
    let m = SellStreams {
        val: &val,
        ..SellStreams::of(&s)
    };
    assert_eq!(
        check_sell_parts(8, &m, None),
        vec![Violation::PaddingValueNonzero {
            loc: loc(9, 1, 0),
            value: 7.5
        }]
    );

    // Under a packed codec the bytes are the only copy, decoded before the
    // comparison: rows 8–11 of the mixed fixture fill lanes 0–3 of slice 1,
    // so lane 4 of its first column (entry 16 + 4) is padding.
    let s = mixed_fixture(Codec::F32);
    assert!(s.values().is_empty());
    let mut pval = s.packed_values().to_vec();
    pval[4 * 20..4 * 21].copy_from_slice(&(-2.5f32).to_le_bytes());
    let m = SellStreams {
        pval: &pval,
        ..SellStreams::of(&s)
    };
    assert_eq!(
        check_sell_parts(8, &m, None),
        vec![Violation::PaddingValueNonzero {
            loc: loc(20, 12, 1),
            value: -2.5
        }]
    );
}

/// The narrow offsets are the pattern of a narrow slice — at every codec,
/// f64 included — so a corrupted one is caught by what it breaks: the
/// order of the row, the bounds, or the live/padding split `rlen` fixes.
#[test]
fn narrow_stream_mutations_are_reported() {
    let s = fixture();
    assert_eq!(s.codec(), Codec::F64);
    let m = SellStreams::of(&s);
    let check = |cidx16: &[u16], cbase: &[u32]| {
        check_sell_parts(8, &SellStreams { cidx16, cbase, ..m }, None)
    };
    assert_eq!(check(m.cidx16, m.cbase), vec![]);

    // Row 0's second entry (column 2, flat index 8) moved past its third
    // (column 4): the row is no longer increasing.
    let mut cidx16 = m.cidx16.to_vec();
    assert_eq!((cidx16[8], cidx16[16]), (2, 4));
    cidx16[8] = 5;
    assert_eq!(
        check(&cidx16, m.cbase),
        vec![Violation::ColsNotSorted {
            loc: loc(16, 0, 0),
            prev: 5,
            next: 4
        }]
    );

    // Slice 1's base moved up by one: row 9 (offset 1 from base 8) now
    // resolves to column 10, one past the matrix.
    assert_eq!(
        check(m.cidx16, &[0, 9]),
        vec![Violation::ColOutOfBounds {
            loc: loc(25, 9, 1),
            col: 10,
            ncols: 10
        }]
    );

    // A padded lane turned live, and a live one turned padding: `rlen`
    // says which is which.
    let mut cidx16 = m.cidx16.to_vec();
    assert_eq!((cidx16[9], cidx16[1]), (u16::MAX, 1));
    (cidx16[9], cidx16[1]) = (3, u16::MAX);
    assert_eq!(
        check(&cidx16, m.cbase),
        vec![
            Violation::ColOutOfBounds {
                loc: loc(1, 1, 0),
                col: 10,
                ncols: 10
            },
            Violation::PaddingAliasesLiveColumn {
                loc: loc(9, 1, 0),
                col: 3
            }
        ]
    );

    // A narrow slice marked wide has no entries in `colidx` to be read.
    assert_eq!(
        check(m.cidx16, &[0, u32::MAX]),
        vec![arr_len("wideptr", 8, 0)]
    );

    // `cidx16` is the entry-parallel array the geometry is stated against.
    assert_eq!(
        check(&[], &[]),
        vec![
            Violation::PtrEnd {
                array: "sliceptr",
                expected: 0,
                found: 32
            },
            arr_len("val", 0, 32),
            arr_len("cbase", 2, 0)
        ]
    );
}

/// A wide slice's columns live in the compact `colidx`, found through
/// `wideptr`; `cbase` says which slices those are.  Each of the three can
/// be wrong on its own.
#[test]
fn wide_stream_mutations_are_reported() {
    for codec in [Codec::F64, Codec::Bf16] {
        let s = mixed_fixture(codec);
        let m = SellStreams::of(&s);
        let check = |m: SellStreams| check_sell_parts(8, &m, None);

        // Row 3's first entry (column 103, `colidx[3]`) moved past its
        // second (69 000, `colidx[11]`).
        let mut colidx = m.colidx.to_vec();
        assert_eq!((colidx[3], colidx[11]), (103, 69_000));
        colidx[3] = 69_500;
        assert_eq!(
            check(SellStreams {
                colidx: &colidx,
                ..m
            }),
            vec![Violation::ColsNotSorted {
                loc: loc(11, 3, 0),
                prev: 69_500,
                next: 69_000
            }],
            "{codec:?}"
        );

        // A `wideptr` that disagrees with the wide slices' sizes: slice 0
        // is 16 entries, so slice 1 starts at 16 and the array ends there.
        for (wideptr, expected, found) in [
            (&[0, 8, 16][..], 16, 8),
            (&[0, 16, 24], 16, 24),
            (&[8, 16, 16], 0, 8),
        ] {
            assert_eq!(
                check(SellStreams { wideptr, ..m }),
                vec![arr_len("wideptr", expected, found)],
                "{codec:?} {wideptr:?}"
            );
        }
        assert_eq!(
            check(SellStreams {
                wideptr: &[0, 16],
                ..m
            }),
            vec![arr_len("wideptr", 3, 2)]
        );
        // ... and a `colidx` shorter than `wideptr` says.
        assert_eq!(
            check(SellStreams {
                colidx: &m.colidx[..15],
                ..m
            }),
            vec![arr_len("colidx", 16, 15)]
        );

        // `cbase` flipped wide → narrow (the slice's `colidx` entries are
        // orphaned) and narrow → wide (it has none).
        assert_eq!(
            check(SellStreams {
                cbase: &[100, 108],
                ..m
            }),
            vec![arr_len("wideptr", 0, 16)]
        );
        assert_eq!(
            check(SellStreams {
                cbase: &[u32::MAX, u32::MAX],
                ..m
            }),
            vec![arr_len("wideptr", 32, 16)]
        );
    }
}

#[test]
fn misaligned_buffer_is_reported() {
    // AVec gives every stream a 64-byte base; 8 bytes in, each slice-column
    // load of that stream would straddle two cache lines.  One stream at a
    // time, each of the four a `Sell` can hold, then ESB's own two.
    let misaligned = |array| vec![Violation::Misaligned { array, rem: 8 }];
    let wide = mixed_fixture(Codec::F64);
    let m = SellStreams::of(&wide);
    assert_eq!(check_sell_alignment(&m), vec![]);
    let shifted = SellStreams {
        val: &m.val[1..],
        ..m
    };
    assert_eq!(check_sell_alignment(&shifted), misaligned("val"));
    let shifted = SellStreams {
        cidx16: &m.cidx16[4..],
        ..m
    };
    assert_eq!(check_sell_alignment(&shifted), misaligned("cidx16"));
    let shifted = SellStreams {
        colidx: &m.colidx[2..],
        ..m
    };
    assert_eq!(check_sell_alignment(&shifted), misaligned("colidx"));

    let packed = mixed_fixture(Codec::F32);
    let m = SellStreams::of(&packed);
    assert_eq!(check_sell_alignment(&m), vec![]);
    let shifted = SellStreams {
        pval: &m.pval[8..],
        ..m
    };
    assert_eq!(check_sell_alignment(&shifted), misaligned("pval"));

    // 64 rows of a 5-point stencil: 8 slices × 5 columns = 40 mask bytes.
    let esb = SellEsb::from_csr(&sellkit::workloads::generators::stencil5(8));
    assert_eq!(esb.validate(), Ok(()));
    assert_eq!(
        check_alignment("bits", &esb.bits()[8..]),
        misaligned("bits")
    );
    assert_eq!(
        check_alignment("colidx", &esb.colidx()[2..]),
        misaligned("colidx")
    );
}

#[test]
fn csr_and_the_block_formats_are_valid_on_any_base() {
    // A CSR row or a 2×2 block starts wherever the previous one ended: no
    // load of theirs can use a 64-byte base, so none is asked for.  Sixty-
    // four live 16-byte allocations cannot all start on a 64-byte boundary
    // unless the allocator spends 48 bytes on each; `from_parts` keeps the
    // buffer it is handed, so one of them becomes an off-boundary `val`.
    let bufs: Vec<Vec<f64>> = (0..64).map(|_| vec![1.0, 2.0]).collect();
    let val = bufs
        .into_iter()
        .find(|v| !(v.as_ptr() as usize).is_multiple_of(64))
        .expect("a 16-byte allocation off a 64-byte boundary");
    let at = val.as_ptr();
    let a = Csr::from_parts(2, 2, vec![0, 1, 2], vec![0, 1], val);
    assert_eq!(a.values().as_ptr(), at);
    assert_eq!(a.validate(), Ok(()));
    // The block formats copy their blocks out of the CSR; sixteen pairs
    // live at once land on more than one offset, and wherever they land,
    // alignment is not among the things checked.
    let held: Vec<_> = (0..16)
        .map(|_| (Baij::from_csr(&a, 1), Sbaij::from_csr(&a, 1)))
        .collect();
    for (baij, sbaij) in &held {
        assert_eq!(baij.validate(), Ok(()));
        assert_eq!(sbaij.validate(), Ok(()));
    }
}

#[test]
fn corrupted_rlen_is_reported() {
    let s = fixture();
    let mut rlen = s.rlen().to_vec();
    rlen[1] = 5; // slice 0 is only 3 wide
    let m = SellStreams {
        rlen: &rlen,
        ..SellStreams::of(&s)
    };
    let v = check_sell_parts(8, &m, None);
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
