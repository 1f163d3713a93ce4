//! Every way into CSR is one row rule: columns ascending, duplicates summed
//! left to right in push order, explicit zeros kept.
//!
//! * [`RowAssembler`] against [`CooBuilder::to_csr`], bit for bit, on every
//!   fuzz-generator family replayed row by row — duplicate groups of any
//!   size with their real values — and on 3 000 duplicates of one entry
//!   interleaved over two rows, whose sums depend on their order;
//! * `GrayScott::rhs_jacobian` on grids so small that periodic neighbours
//!   coincide, against a triplet oracle written out here;
//! * goldens **generated at the commit before the assembler existed**
//!   (7024f34, COO sort under the Jacobian, the shift and the Galerkin
//!   products): the Newton matrix, both coarse operators and a two-step
//!   trajectory must not move by a bit;
//! * SpGEMM against the Gustavson loop it replaced, cancellations included.
//!   That loop left a stored zero of the first operand out of the
//!   *pattern*; `spgemm` keeps the pattern structural and leaves the zero
//!   out of the *values*, so its product is the loop's plus entries that
//!   are exactly `+0.0` — the relation `assert_oracle_plus_zeros` pins.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sellkit::core::{matops, CooBuilder, Csr, Isa, MatShape, RowAssembler, Sell8};
use sellkit::grid::interpolation_chain;
use sellkit::solvers::ksp::KspConfig;
use sellkit::solvers::pc::mg::{CoarseSolve, Multigrid, MultigridConfig};
use sellkit::solvers::pc::spgemm::{rap, spgemm};
use sellkit::solvers::snes::NewtonConfig;
use sellkit::solvers::ts::{OdeProblem, ThetaConfig, ThetaStepper};
use sellkit::workloads::{GrayScott, GrayScottParams};
use sellkit_check::Validate;
use sellkit_fuzz::gen::{build, FAMILIES};

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Pattern and value bits.
fn assert_same(got: &Csr, want: &Csr, what: &str) {
    assert_eq!(
        (got.nrows(), got.ncols()),
        (want.nrows(), want.ncols()),
        "{what}"
    );
    assert_eq!(got.rowptr(), want.rowptr(), "{what}: rowptr");
    assert_eq!(got.colidx(), want.colidx(), "{what}: colidx");
    assert_eq!(bits(got.values()), bits(want.values()), "{what}: values");
}

/// Pushes every row of `rows` in order; the pairs of a row as they come.
fn assemble_rows(ncols: usize, rows: &[Vec<(u32, f64)>]) -> Csr {
    let mut a = RowAssembler::new(rows.len(), ncols);
    for row in rows {
        for &(c, v) in row {
            a.push(c as usize, v);
        }
        a.end_row();
    }
    a.finish()
}

#[test]
fn assembler_equals_coo_on_every_fuzz_family() {
    for family in FAMILIES {
        for seed in 0..12u64 {
            let case = build(family, seed);
            let mut rng = StdRng::seed_from_u64(seed);
            // The family's own triplets, bucketed by row in push order.
            let mut rows: Vec<Vec<(u32, f64)>> = vec![Vec::new(); case.nrows];
            for &(i, j, v) in &case.entries {
                rows[i as usize].push((j, v));
            }
            for variant in ["as generated", "shuffled columns", "duplicate pairs"] {
                match variant {
                    "shuffled columns" => {
                        for row in &mut rows {
                            for k in (1..row.len()).rev() {
                                row.swap(k, rng.gen_range(0..k + 1));
                            }
                        }
                    }
                    "duplicate pairs" => {
                        for row in &mut rows {
                            for k in 0..row.len() {
                                if rng.gen_range(0..3) == 0 {
                                    row.push((row[k].0, rng.gen_range(-8.0..8.0)));
                                }
                            }
                        }
                    }
                    _ => {}
                }
                // The oracle sees the same pairs with the rows backwards:
                // its bucketing by row is what puts them in order.
                let mut coo = CooBuilder::new(case.nrows, case.ncols);
                for (i, row) in rows.iter().enumerate().rev() {
                    for &(c, v) in row {
                        coo.push(i, c as usize, v);
                    }
                }
                let got = assemble_rows(case.ncols, &rows);
                let what = format!("{} ({variant})", case.name);
                assert_same(&got, &coo.to_csr(), &what);
                if let Err(violations) = got.validate() {
                    panic!("{what}: {violations:?}");
                }
            }
        }
    }
}

#[test]
fn coo_sums_interleaved_duplicates_in_push_order() {
    // 3 000 pushes into column 0 of two interleaved rows, magnitudes over
    // sixteen decades: the sum of each row depends on its order.
    let mut rows: Vec<Vec<(u32, f64)>> = vec![Vec::new(); 2];
    let mut coo = CooBuilder::new(2, 1);
    for k in 0..3000usize {
        let i = usize::from((k * 7919) % 5 == 0);
        let v = (0.7371 * k as f64).sin() * 10f64.powi((k % 17) as i32 - 8);
        coo.push(i, 0, v);
        rows[i].push((0, v));
    }
    assert_same(
        &coo.to_csr(),
        &assemble_rows(1, &rows),
        "interleaved duplicates",
    );
}

/// The Jacobian as the full-matrix loop pushed it before the assembler
/// (both rows of a node interleaved), sorted stably and summed in push
/// order.
fn gray_scott_oracle(gs: &GrayScott, w: &[f64]) -> (Vec<usize>, Vec<u32>, Vec<u64>) {
    let (g, p) = (gs.grid(), gs.params());
    let ih2 = 1.0 / (gs.spacing() * gs.spacing());
    let mut triplets: Vec<(usize, usize, f64)> = Vec::new();
    for y in 0..g.ny as isize {
        for x in 0..g.nx as isize {
            let iu = g.idx(x as usize, y as usize, 0);
            let iv = iu + 1;
            let (u, v) = (w[iu], w[iv]);
            for (dx, dy) in [(0isize, 0isize), (-1, 0), (1, 0), (0, -1), (0, 1)] {
                let ju = g.idx_wrap(x + dx, y + dy, 0);
                let jv = g.idx_wrap(x + dx, y + dy, 1);
                if dx == 0 && dy == 0 {
                    triplets.push((iu, ju, -4.0 * p.d1 * ih2 + (-v * v - p.gamma)));
                    triplets.push((iu, jv, -2.0 * u * v));
                    triplets.push((iv, ju, v * v));
                    let rvv = 2.0 * u * v - (p.gamma + p.kappa);
                    triplets.push((iv, jv, -4.0 * p.d2 * ih2 + rvv));
                } else {
                    triplets.push((iu, ju, p.d1 * ih2 + 0.0));
                    triplets.push((iu, jv, 0.0));
                    triplets.push((iv, ju, 0.0));
                    triplets.push((iv, jv, p.d2 * ih2 + 0.0));
                }
            }
        }
    }
    triplets.sort_by_key(|&(i, j, _)| (i, j));
    let mut rowptr = vec![0usize; g.n_unknowns() + 1];
    let (mut colidx, mut vals): (Vec<u32>, Vec<f64>) = (Vec::new(), Vec::new());
    let mut last = None;
    for &(i, j, v) in &triplets {
        if last == Some((i, j)) {
            *vals.last_mut().unwrap() += v;
        } else {
            colidx.push(j as u32);
            vals.push(v);
            rowptr[i + 1] = colidx.len();
            last = Some((i, j));
        }
    }
    for i in 0..g.n_unknowns() {
        rowptr[i + 1] = rowptr[i + 1].max(rowptr[i]);
    }
    (rowptr, colidx, bits(&vals))
}

#[test]
fn gray_scott_jacobian_on_coinciding_neighbours() {
    // Grid 1: all five stencil points are one node.  Grid 2: west is east
    // and south is north.  Grids 3 and 4: no duplicates, wrap on every node.
    for n in 1..=4usize {
        let gs = GrayScott::new(n, GrayScottParams::default());
        let w = gs.initial_condition(42);
        let j = gs.rhs_jacobian(0.0, &w);
        let (rowptr, colidx, vals) = gray_scott_oracle(&gs, &w);
        assert_eq!(j.rowptr(), rowptr, "grid {n}");
        assert_eq!(j.colidx(), colidx, "grid {n}");
        assert_eq!(bits(j.values()), vals, "grid {n}");
        assert_eq!(j.nnz(), [2, 6, 10, 10][n - 1] * gs.dim(), "grid {n}");
        j.validate().unwrap_or_else(|v| panic!("grid {n}: {v:?}"));
    }
}

fn fnv1a(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h ^= b as u64;
        *h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a of the value bits.
fn hash_values(v: &[f64]) -> u64 {
    let mut h = FNV_OFFSET;
    for x in v {
        fnv1a(&mut h, &x.to_bits().to_le_bytes());
    }
    h
}

/// FNV-1a of `rowptr`, `colidx` and the value bits.
fn hash_csr(a: &Csr) -> u64 {
    let mut h = FNV_OFFSET;
    for &p in a.rowptr() {
        fnv1a(&mut h, &(p as u64).to_le_bytes());
    }
    for &c in a.colidx() {
        fnv1a(&mut h, &c.to_le_bytes());
    }
    for x in a.values() {
        fnv1a(&mut h, &x.to_bits().to_le_bytes());
    }
    h
}

/// Printed by this same code at 7024f34, debug and release alike.  Not to be
/// regenerated: a hash that moves is a matrix that moved.
const GOLDEN: [(&str, usize, u64, u64); 4] = [
    ("J", 20480, 0xce0e27851da36ddd, 0x2bac6d32328500cd),
    ("I - 0.5 J", 20480, 0x767b7a9cc3eb4379, 0x73e4b19400f2a7a9),
    ("Galerkin 1", 4706, 0xa68eb31eb2d94da5, 0xf325990825e0a0e6),
    ("Galerkin 2", 1250, 0x0fdee63492cb562f, 0xacb67e0332629b0d),
];
/// `u` after two steps.  The multigrid transfer operators run on the host's
/// widest tier and tiers round differently, so the hash is of one tier.
const GOLDEN_U: (Isa, u64) = (Isa::Avx512, 0x8c3982da68395e06);

#[test]
fn parent_commit_goldens_hold() {
    let gs = GrayScott::new(32, GrayScottParams::default());
    let w = gs.initial_condition(42);
    let j = gs.rhs_jacobian(0.0, &w);
    let g = matops::identity_plus_scaled(1.0, -0.5, &j);
    let interps = interpolation_chain(gs.grid(), 3);
    // The Galerkin goldens were captured at the initial condition, where
    // `v = 0` on most nodes stores zeros in `g`: they are the products of
    // the loop that skipped those in the pattern, kept below as the oracle.
    let rap_oracle = |a: &Csr, p: &Csr| oracle_csr(&oracle_csr(&p.transpose(), a), p);
    let o1 = rap_oracle(&g, &interps[0]);
    let o2 = rap_oracle(&o1, &interps[1]);
    for (m, (name, nnz, values, csr)) in [&j, &g, &o1, &o2].into_iter().zip(GOLDEN) {
        assert_eq!(m.nnz(), nnz, "{name}");
        assert_eq!(hash_values(m.values()), values, "{name}: value bits");
        assert_eq!(hash_csr(m), csr, "{name}: pattern and value bits");
    }
    // What the hierarchy builds today: the same entries, bit for bit, in a
    // pattern that no longer depends on the state.
    let a1 = rap(&interps[0].transpose(), &g, &interps[0]);
    let a2 = rap(&interps[1].transpose(), &a1, &interps[1]);
    assert_oracle_plus_zeros(&a1, &o1, "Galerkin 1");
    assert_oracle_plus_zeros(&a2, &o2, "Galerkin 2");
    let later =
        matops::identity_plus_scaled(1.0, -0.5, &gs.rhs_jacobian(0.0, &vec![0.3; gs.dim()]));
    let b1 = rap(&interps[0].transpose(), &later, &interps[0]);
    assert_eq!(b1.rowptr(), a1.rowptr(), "pattern independent of the state");
    assert_eq!(b1.colidx(), a1.colidx(), "pattern independent of the state");

    let cfg = ThetaConfig {
        theta: 0.5,
        dt: 1.0,
        newton: NewtonConfig {
            rtol: 1e-8,
            ksp: KspConfig {
                rtol: 1e-5,
                restart: 30,
                ..Default::default()
            },
            ..Default::default()
        },
    };
    let mg = MultigridConfig {
        coarse: CoarseSolve::Jacobi(8),
        ..Default::default()
    };
    let mut u = w;
    let mut ts = ThetaStepper::new(cfg);
    for _ in 0..2 {
        let res = ts.step::<Sell8, _, _>(&gs, &mut u, |j| Multigrid::<Sell8>::new(j, &interps, mg));
        assert!(res.converged());
        assert_eq!((res.iterations, res.linear_iterations), (2, 8));
    }
    if Isa::detect() == GOLDEN_U.0 {
        assert_eq!(hash_values(&u), GOLDEN_U.1, "u after two steps");
    } else {
        eprintln!(
            "trajectory golden is for {}, host runs {}: hash not compared",
            GOLDEN_U.0,
            Isa::detect()
        );
    }
}

/// Gustavson with the `touched.contains` scan `spgemm` used to have, and
/// with its pattern: a stored zero of `a` opens no position.
fn spgemm_oracle(a: &Csr, b: &Csr) -> (Vec<usize>, Vec<u32>, Vec<u64>) {
    let mut rowptr = vec![0usize];
    let (mut colidx, mut vals): (Vec<u32>, Vec<f64>) = (Vec::new(), Vec::new());
    let mut acc = vec![0.0f64; b.ncols()];
    for i in 0..a.nrows() {
        let mut touched: Vec<u32> = Vec::new();
        for (&j, &aij) in a.row_cols(i).iter().zip(a.row_vals(i)) {
            if aij == 0.0 {
                continue;
            }
            let j = j as usize;
            for (&c, &v) in b.row_cols(j).iter().zip(b.row_vals(j)) {
                if !touched.contains(&c) {
                    touched.push(c);
                }
                acc[c as usize] += aij * v;
            }
        }
        touched.sort_unstable();
        for &c in &touched {
            colidx.push(c);
            vals.push(std::mem::take(&mut acc[c as usize]));
        }
        rowptr.push(colidx.len());
    }
    (rowptr, colidx, bits(&vals))
}

fn oracle_csr(a: &Csr, b: &Csr) -> Csr {
    let (rowptr, colidx, vals) = spgemm_oracle(a, b);
    let vals = vals.into_iter().map(f64::from_bits).collect();
    Csr::from_parts(a.nrows(), b.ncols(), rowptr, colidx, vals)
}

/// Every entry of `oracle` is in `got` with the same bits, and every entry
/// `got` stores beyond those is exactly `+0.0`.
fn assert_oracle_plus_zeros(got: &Csr, oracle: &Csr, what: &str) {
    assert_eq!(
        (got.nrows(), got.ncols()),
        (oracle.nrows(), oracle.ncols()),
        "{what}"
    );
    for i in 0..got.nrows() {
        let mut want = oracle.row_cols(i).iter().zip(oracle.row_vals(i)).peekable();
        for (&c, &v) in got.row_cols(i).iter().zip(got.row_vals(i)) {
            match want.next_if(|(&oc, _)| oc == c) {
                Some((_, ov)) => assert_eq!(v.to_bits(), ov.to_bits(), "{what}: ({i}, {c})"),
                None => assert_eq!(v.to_bits(), 0.0f64.to_bits(), "{what}: extra ({i}, {c})"),
            }
        }
        assert!(
            want.next().is_none(),
            "{what}: row {i} lacks an oracle entry"
        );
    }
}

fn from_triplets(m: usize, n: usize, entries: &[(usize, usize, i32)]) -> Csr {
    let mut b = CooBuilder::new(m, n);
    for &(i, j, v) in entries {
        b.push(i % m, j % n, v as f64);
    }
    b.to_csr()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Values in {-2..2}: products cancel exactly and often, and stored
    /// zeros in `A` multiply nothing; the pattern keeps every cancelled
    /// entry and every position a stored zero opens, and depends on the
    /// operand patterns alone.
    #[test]
    fn spgemm_equals_gustavson_with_cancellation(
        m in 1usize..12,
        k in 1usize..12,
        n in 1usize..12,
        ea in prop::collection::vec((0usize..12, 0usize..12, -2i32..3), 0..60),
        eb in prop::collection::vec((0usize..12, 0usize..12, -2i32..3), 0..60),
    ) {
        // A row (1, 1) against the columns (1, -1): a cancellation in
        // every case, whatever the random part does.
        let mut ea = ea;
        let mut eb = eb;
        if k >= 2 {
            ea.retain(|e| e.0 % m != 0);
            eb.retain(|e| e.0 % k > 1);
            ea.extend([(0, 0, 1), (0, 1, 1)]);
            eb.extend([(0, 0, 1), (1, 0, -1)]);
        }
        let a = from_triplets(m, k, &ea);
        let b = from_triplets(k, n, &eb);
        let c = spgemm(&a, &b);
        assert_oracle_plus_zeros(&c, &oracle_csr(&a, &b), "spgemm");
        // With every stored value non-zero the oracle's pattern is the
        // structural one.
        let ones = |m: &Csr| {
            let mut m = m.clone();
            m.values_mut().fill(1.0);
            m
        };
        let (rowptr, colidx, _) = spgemm_oracle(&ones(&a), &ones(&b));
        prop_assert_eq!(c.rowptr(), &rowptr[..]);
        prop_assert_eq!(c.colidx(), &colidx[..]);
        if k >= 2 {
            prop_assert_eq!(c.get(0, 0).map(f64::to_bits), Some(0.0f64.to_bits()));
        }
        prop_assert!(c.validate().is_ok());
    }
}
