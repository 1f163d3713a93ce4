//! The paper's ablations and the measurements beside its figures, one
//! `exhibit` section each (listed in [`crate::figures::EXHIBITS`]).  They
//! are timed the way the figures are — the best of a few single products
//! after a warm-up, `best_of` — on one thread unless a section sweeps
//! pool lanes.

use sellkit_core::{
    Apply, Csr, ExecCtx, FromCsr, Isa, MatShape, Operator, Sell, Sell8, SellEsb, SellSigma8,
};
use sellkit_grid::interpolation_chain;
use sellkit_solvers::ksp::KspConfig;
use sellkit_solvers::pc::mg::{CoarseSolve, Multigrid, MultigridConfig};
use sellkit_solvers::snes::NewtonConfig;
use sellkit_solvers::ts::{ThetaConfig, ThetaStepper};
use sellkit_workloads::generators::{banded, power_law, stencil5};
use sellkit_workloads::{GrayScott, GrayScottParams};

use crate::measure::{
    best_of, build_gather_variants, gflops, jacobian, probe_x, time_variants, Variant,
};
use crate::table::{f2, render};

/// Microseconds, one decimal.
fn us(secs: f64) -> String {
    format!("{:.1}", secs * 1e6)
}

/// The matrices of §5.1, §5.3 and §5.4: a stencil, which SELL pads by
/// nothing, and power-law rows, which it pads heavily.
fn regular_and_irregular() -> [(&'static str, Csr); 2] {
    [
        ("stencil5 256x256", stencil5(256)),
        ("power-law 20k", power_law(20_000, 2, 64, 1.3, 11)),
    ]
}

/// §2.3 / §3.3: CSR's remainder loop, on banded rows of 7, 9 and 15
/// nonzeros around the 8-wide SIMD width, at every tier.
pub(crate) fn csr_remainder() -> String {
    let tiers = Isa::available_tiers();
    let mut heads = vec!["nonzeros a row".to_string()];
    heads.extend(tiers.iter().map(|t| format!("CSR {t}")));
    let mut rows = Vec::new();
    for band in [3usize, 4, 7] {
        let a = banded(50_000, band, 5);
        let variants: Vec<Variant> = tiers
            .iter()
            .map(|&t| Variant::op(t.to_string(), a.clone().with_isa(t)))
            .collect();
        let secs = time_variants(&variants, &probe_x(a.ncols()), a.nrows(), 20);
        let mut row = vec![(2 * band + 1).to_string()];
        row.extend(secs.iter().map(|&s| f2(gflops(a.nnz(), s))));
        rows.push(row);
    }
    let heads: Vec<&str> = heads.iter().map(String::as_str).collect();
    format!(
        "Sections 2.3 and 3.3: the CSR remainder loop (Gflop/s)\n\n\
         [measured] host, one thread, banded matrices of 50000 rows:\n\n{}",
        render(&heads, &rows)
    )
}

/// §5.1 and §5.4: slice height and σ-sorting trade padding against the
/// locality of `x`; on a stencil there is no padding to trade.
pub fn slice_height() -> String {
    let heads = [
        "matrix",
        "C=1",
        "C=4",
        "C=8",
        "C=16",
        "C=8 sigma=32",
        "C=8 sigma=global",
    ];
    let mut rows = Vec::new();
    for (name, a) in regular_and_irregular() {
        let (s1, s4, s8) = (
            Sell::<1>::from_csr(&a),
            Sell::<4>::from_csr(&a),
            Sell8::from_csr(&a),
        );
        let s16 = Sell::<16>::from_csr(&a);
        let sigma32 = SellSigma8::from_csr_sigma(&a, 32);
        let global = SellSigma8::from_csr_sigma(&a, a.nrows());
        let padding = [
            s1.padding_ratio(),
            s4.padding_ratio(),
            s8.padding_ratio(),
            s16.padding_ratio(),
            sigma32.padding_ratio(),
            global.padding_ratio(),
        ];
        let variants = [
            Variant::op(heads[1], s1),
            Variant::op(heads[2], s4),
            Variant::op(heads[3], s8),
            Variant::op(heads[4], s16),
            Variant::op(heads[5], sigma32),
            Variant::op(heads[6], global),
        ];
        let secs = time_variants(&variants, &probe_x(a.ncols()), a.nrows(), 20);
        let mut row = vec![name.to_string()];
        row.extend(
            padding
                .iter()
                .zip(&secs)
                .map(|(p, &s)| format!("{:.1} / {}", p * 100.0, f2(gflops(a.nnz(), s)))),
        );
        rows.push(row);
    }
    format!(
        "Sections 5.1 and 5.4: slice height and sigma-sorting\n\n\
         [measured] host, one thread, padding % / Gflop/s:\n\n{}",
        render(&heads, &rows)
    )
}

/// §5.3: SELL-8 without a bit array against the ESB-style kernel with one,
/// tier by tier.
pub(crate) fn bit_array() -> String {
    let mut rows = Vec::new();
    for (name, a) in regular_and_irregular() {
        let x = probe_x(a.ncols());
        for isa in Isa::available_tiers() {
            let pair = [
                Variant::op("SELL-8", Sell8::from_csr(&a).with_isa(isa)),
                Variant::op("ESB", SellEsb::from_csr(&a).with_isa(isa)),
            ];
            let s = time_variants(&pair, &x, a.nrows(), 20);
            rows.push(vec![
                name.to_string(),
                isa.to_string(),
                us(s[0]),
                us(s[1]),
                format!("{:+.0} %", (s[1] / s[0] - 1.0) * 100.0),
            ]);
        }
    }
    format!(
        "Section 5.3: SELL-8 without and with a bit array (us per product)\n\n\
         [measured] host, one thread:\n\n{}",
        render(
            &["matrix", "tier", "SELL-8", "with bit array", "bit array"],
            &rows
        )
    )
}

/// §5.5: SELL-8 reading `x` with scalar loads, as every tier of
/// `sellkit-core` does, against the same loop through `vgatherdpd` where
/// the host has it — on a 1 MB matrix (grid 64) and a 250 MB one (grid
/// 1024).
pub fn gather() -> String {
    let mut rows: Vec<Vec<String>> = Vec::new();
    for (grid, reps) in [(64usize, 20), (1024, 5)] {
        let a = jacobian(grid);
        let variants = build_gather_variants(&a);
        let secs = time_variants(&variants, &probe_x(a.ncols()), a.nrows(), reps);
        if rows.is_empty() {
            rows = variants.iter().map(|v| vec![v.label.clone()]).collect();
        }
        for (row, s) in rows.iter_mut().zip(secs) {
            row.push(us(s));
        }
    }
    format!(
        "Section 5.5: the emulated gather against the hardware one (us per product)\n\n\
         [measured] host, one thread, SELL-8 on Gray-Scott Jacobians:\n\n{}",
        render(&["x read by", "64x64 (1 MB)", "1024x1024 (250 MB)"], &rows)
    )
}

/// §6, extended: one blocked product streams the matrix once for `k`
/// vectors.
pub fn spmm() -> String {
    let a = banded(60_000, 4, 9);
    let sell = Sell8::from_csr(&a);
    let (k, m, n) = (4, a.nrows(), a.ncols());
    let x = probe_x(k * n);
    let mut y = vec![0.0; k * m];
    let blocked = best_of(20, || sell.spmm(&x, k, &mut y));
    let separate = best_of(20, || {
        for (xv, yv) in x.chunks(n).zip(y.chunks_mut(m)) {
            sell.apply(&ExecCtx::serial(), xv.into(), yv.into(), Apply::Set);
        }
    });
    let rows: Vec<Vec<String>> = [
        ("one blocked product (matrix once)", blocked),
        ("k products (matrix k times)", separate),
    ]
    .iter()
    .map(|&(label, s)| vec![label.to_string(), us(s), f2(gflops(k * a.nnz(), s))])
    .collect();
    format!(
        "Section 6: k = {k} right-hand sides\n\n\
         [measured] host, one thread, SELL-8 on a banded matrix of 60000 rows:\n\n{}",
        render(&["", "us", "Gflop/s"], &rows)
    )
}

/// Figure 8's process axis: SELL-8 `y = A·x` on 1, 2, 4 and 8 pool lanes
/// (the same bits at every width).  A lane count above the host's cores
/// measures dispatch only.
pub fn threads() -> String {
    let a = jacobian(256);
    let sell = Sell8::from_csr(&a);
    let x = probe_x(a.ncols());
    let mut y = vec![0.0; a.nrows()];
    let mut rows = Vec::new();
    let mut one_lane = 0.0;
    for lanes in [1usize, 2, 4, 8] {
        let ctx = ExecCtx::new(lanes);
        let s = best_of(20, || {
            sell.apply(&ctx, (&x).into(), (&mut y).into(), Apply::Set)
        });
        if lanes == 1 {
            one_lane = s;
        }
        rows.push(vec![
            lanes.to_string(),
            us(s),
            f2(gflops(a.nnz(), s)),
            format!("{:.2}x", one_lane / s),
        ]);
    }
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    format!(
        "Figure 8, strong scaling: SELL-8 SpMV on pool lanes\n\n\
         [measured] host ({cores} cores available), 256x256 Gray-Scott Jacobian:\n\n{}",
        render(&["lanes", "us", "Gflop/s", "speed-up"], &rows)
    )
}

/// §7 at exhibit scale: one Crank-Nicolson step of Gray-Scott on a 64x64
/// grid — Newton, GMRES, multigrid — with every product in CSR or in
/// SELL-8, SELL-8 on 1–8 pool lanes (the same iterates at every width).
pub fn solve() -> String {
    let gs = GrayScott::new(64, GrayScottParams::default());
    let u0 = gs.initial_condition(1);
    let ms = |secs: f64| format!("{:.1}", secs * 1e3);
    let serial = ExecCtx::serial();
    let csr = best_of(3, || cn_step::<Csr>(&gs, &u0, &serial));
    let mut rows = vec![vec!["CSR".to_string(), "1".to_string(), ms(csr)]];
    for lanes in [1usize, 2, 4, 8] {
        let ctx = ExecCtx::new(lanes);
        let sell = best_of(3, || cn_step::<Sell8>(&gs, &u0, &ctx));
        rows.push(vec!["SELL-8".to_string(), lanes.to_string(), ms(sell)]);
    }
    format!(
        "Section 7: one Crank-Nicolson step of Gray-Scott (ms)\n\n\
         [measured] host, 64x64 grid, Newton + GMRES(30) + multigrid:\n\n{}",
        render(&["format", "lanes", "ms"], &rows)
    )
}

/// One Crank-Nicolson step (`dt` 1) from `u0`, the Newton systems solved by
/// GMRES(30) under a three-level multigrid in format `M`.
fn cn_step<M: Operator + FromCsr>(gs: &GrayScott, u0: &[f64], ctx: &ExecCtx) -> Vec<f64> {
    let interps = interpolation_chain(gs.grid(), 3);
    let mut ts = ThetaStepper::new(ThetaConfig {
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
    });
    let mg = MultigridConfig {
        coarse: CoarseSolve::Jacobi(8),
        ..Default::default()
    };
    let mut u = u0.to_vec();
    let res = ts.step_ctx::<M, _, _>(gs, &mut u, ctx, |j| Multigrid::<M>::new(j, &interps, mg));
    assert!(res.converged(), "Newton did not converge: {:?}", res.reason);
    u
}
