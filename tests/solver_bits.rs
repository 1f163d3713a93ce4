//! Golden iterate bits of the Krylov and Newton loops, pinned across
//! refactors — `tests/kernel_bits.rs` one layer up.
//!
//! `tests/golden/solver_bits.txt` holds one line per solve: FNV-1a hashes
//! (folded to 32 bits) of the bit patterns of the solution `x` and of the
//! residual `history`, then the iteration counts and the stop reason in
//! clear.  A change to a solver loop that alters any iterate bit — another
//! operand order in the Gram-Schmidt sweep, a norm taken a different way,
//! the inner tolerance not reaching the linear solve — changes a line.
//!
//! Every operator is forced to [`Isa::Scalar`], and every vector kernel the
//! solvers use is plain Rust in one fixed order — the reductions are lane
//! loops over fixed chunks (`solvers::vecops`), no intrinsics and no FMA —
//! so the file does not depend on the host; it holds in debug and
//! `--release` builds alike (CI runs both).
//! The distributed cells reduce in rank order, so each rank count has its
//! own line and every rank of a solve must agree with rank 0 to the bit.
//!
//! To regenerate after an intended change: `cargo test --test solver_bits
//! -- --ignored bless`, then review the diff of the golden file line by
//! line.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::fmt::Write as _;

#[path = "common/ring.rs"]
mod ring;

use ring::Ring;
use sellkit::core::traffic::TrafficEstimate;
use sellkit::core::{
    Apply, CooBuilder, Csr, ExecCtx, FromCsr, Isa, MatShape, Operator, VecView, VecViewMut,
};
use sellkit::dist::dist_newton;
use sellkit::mpisim::run;
use sellkit::solvers::ksp::{fgmres, gmres, KspConfig, KspResult, StopReason};
use sellkit::solvers::operator::{MatOperator, SeqDot};
use sellkit::solvers::pc::{IdentityPc, JacobiPc, Precond};
use sellkit::solvers::snes::newton::{newton, Forcing, NewtonConfig, NewtonResult};
use sellkit::solvers::snes::{LineSearch, LineSearchConfig};

const GOLDEN: &str = include_str!("golden/solver_bits.txt");

fn hash(v: &[f64]) -> u32 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for x in v {
        for b in x.to_bits().to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    (h >> 32) as u32 ^ h as u32
}

// ---------------------------------------------------------------- Krylov

/// Upwind convection–diffusion on a 20 × 20 grid (n = 400), unsymmetric.
fn convdiff() -> Csr {
    let nx = 20;
    let mut b = CooBuilder::new(nx * nx, nx * nx);
    for y in 0..nx {
        for x in 0..nx {
            let i = y * nx + x;
            b.push(i, i, 4.0 + 3.0);
            if x > 0 {
                b.push(i, i - 1, -1.0 - 3.0);
            }
            if x + 1 < nx {
                b.push(i, i + 1, -1.0);
            }
            if y > 0 {
                b.push(i, i - nx, -1.0 - 0.5);
            }
            if y + 1 < nx {
                b.push(i, i + nx, -1.0 + 0.5);
            }
        }
    }
    b.to_csr().with_isa(Isa::Scalar)
}

/// A periodic 1-D Laplacian with unequal weights: singular (constants are
/// in the null space) and solved against a right-hand side outside its
/// range: short cycles stagnate until the iteration limit, a cycle as long
/// as the matrix exhausts the Krylov space.
fn singular() -> Csr {
    let n = 12;
    let mut b = CooBuilder::new(n, n);
    for i in 0..n {
        let (l, r) = (
            1.0 + (i % 3) as f64 * 0.25,
            1.0 + ((i + 1) % 3) as f64 * 0.25,
        );
        b.push(i, i, l + r);
        b.push(i, (i + n - 1) % n, -l);
        b.push(i, (i + 1) % n, -r);
    }
    b.to_csr().with_isa(Isa::Scalar)
}

/// A weighted down-shift, `A·eᵢ = wᵢ·eᵢ₊₁` and `A·e₄ = 0`: nilpotent, and
/// from `b ∥ e₁` the Krylov space is exhausted *exactly* at the fourth
/// vector (`h₅₄ = 0`), inside one cycle of either restart length.
fn nilpotent() -> Csr {
    Csr::from_dense(
        4,
        4,
        &[
            0.0, 0.0, 0.0, 0.0, //
            2.0, 0.0, 0.0, 0.0, //
            0.0, 3.0, 0.0, 0.0, //
            0.0, 0.0, 0.5, 0.0,
        ],
    )
    .with_isa(Isa::Scalar)
}

/// Damped Jacobi whose damping changes with every application: what only
/// a flexible method may be preconditioned with.
struct VaryingJacobi {
    jacobi: JacobiPc,
    calls: Cell<usize>,
}

impl Precond for VaryingJacobi {
    fn apply(&self, r: &[f64], z: &mut [f64]) {
        let k = self.calls.get();
        self.calls.set(k + 1);
        self.jacobi.apply(r, z);
        let omega = 0.5 + 0.25 * (k % 3) as f64;
        z.iter_mut().for_each(|zi| *zi *= omega);
    }
}

fn ksp_line(x: &[f64], res: &KspResult) -> String {
    format!(
        " x={:08x} hist={:08x} its={} reason={:?}",
        hash(x),
        hash(&res.history),
        res.iterations,
        res.reason
    )
}

fn ksp_cells(out: &mut BTreeMap<String, String>) {
    for (mname, a) in [
        ("convdiff", convdiff()),
        ("singular", singular()),
        ("nilpotent", nilpotent()),
    ] {
        let n = a.nrows();
        let b: Vec<f64> = match mname {
            "nilpotent" => vec![3.0, 0.0, 0.0, 0.0],
            _ => (0..n).map(|i| ((i % 7) as f64) - 2.5).collect(),
        };
        let op = MatOperator(&a);
        // A fresh preconditioner per solve: the varying one counts its calls.
        type MakePc = fn(&Csr) -> Box<dyn Precond>;
        let pcs: [(&str, MakePc); 3] = [
            ("identity", |_| Box::new(IdentityPc)),
            ("jacobi", |a| Box::new(JacobiPc::from_csr(a))),
            ("varying", |a| {
                Box::new(VaryingJacobi {
                    jacobi: JacobiPc::from_csr(a),
                    calls: Cell::new(0),
                })
            }),
        ];
        for restart in [5, 30] {
            let cfg = KspConfig {
                rtol: 1e-10,
                max_it: 120,
                restart,
                ..Default::default()
            };
            for (pname, make_pc) in pcs {
                for method in ["gmres", "fgmres"] {
                    if (method, pname) == ("gmres", "varying") {
                        continue; // only a flexible method may be given it
                    }
                    let (pc, mut x) = (make_pc(&a), vec![0.0; n]);
                    let res = match method {
                        "gmres" => gmres(&op, &pc, &SeqDot, &b, &mut x, &cfg),
                        _ => fgmres(&op, &pc, &SeqDot, &b, &mut x, &cfg),
                    };
                    let what = format!("ksp {mname} {method} {pname} r{restart}");
                    match mname {
                        "convdiff" => assert!(res.converged(), "{what}"),
                        "nilpotent" => assert_eq!(res.reason, StopReason::Breakdown, "{what}"),
                        _ => assert!(!res.converged(), "{what}"),
                    }
                    out.insert(what, ksp_line(&x, &res));
                }
            }
        }
    }
}

// ---------------------------------------------------------------- Newton

/// CSR pinned to the scalar tier, as the format `M` of a Newton solve.
struct ScalarCsr(Csr);

impl FromCsr for ScalarCsr {
    fn from_csr(csr: &Csr) -> Self {
        ScalarCsr(csr.clone().with_isa(Isa::Scalar))
    }
}

impl MatShape for ScalarCsr {
    fn nrows(&self) -> usize {
        self.0.nrows()
    }
    fn ncols(&self) -> usize {
        self.0.ncols()
    }
    fn nnz(&self) -> usize {
        self.0.nnz()
    }
}

impl Operator for ScalarCsr {
    fn apply(&self, ctx: &ExecCtx, x: VecView<'_>, y: VecViewMut<'_>, mode: Apply) {
        self.0.apply(ctx, x, y, mode);
    }
    fn spmv_traffic(&self) -> TrafficEstimate {
        self.0.spmv_traffic()
    }
}

const RING_N: usize = 48;

/// The Newton configurations of the golden file.  The backtracking solves
/// ask for a tenfold decrease per full step and start far from the root,
/// so that steps are in fact shortened.
fn newton_cases() -> Vec<(String, NewtonConfig, f64)> {
    let mut out = Vec::new();
    for (lname, line_search, x0) in [
        ("full", LineSearch::Full, 0.4),
        (
            "backtracking",
            LineSearch::Backtracking(LineSearchConfig {
                alpha: 0.9,
                ..Default::default()
            }),
            10.0,
        ),
    ] {
        for (fname, forcing) in [
            ("fixed", Forcing::Fixed),
            ("ew", Forcing::eisenstat_walker()),
        ] {
            let cfg = NewtonConfig {
                rtol: 1e-10,
                max_it: 200,
                ksp: KspConfig {
                    rtol: 1e-8,
                    ..Default::default()
                },
                line_search,
                forcing,
                ..Default::default()
            };
            out.push((format!("{lname} {fname}"), cfg, x0));
        }
    }
    out
}

fn newton_line(x: &[f64], res: &NewtonResult) -> String {
    format!(
        " x={:08x} hist={:08x} its={} lin={} reason={:?}",
        hash(x),
        hash(&res.history),
        res.iterations,
        res.linear_iterations,
        res.reason
    )
}

fn newton_cells(out: &mut BTreeMap<String, String>) {
    for (name, cfg, x0) in newton_cases() {
        let mut x = vec![x0; RING_N];
        let res = newton::<ScalarCsr, _, _>(&Ring::new(RING_N), &mut x, &cfg, JacobiPc::from_csr);
        assert!(res.converged(), "newton {name}: {:?}", res.reason);
        if !matches!(cfg.line_search, LineSearch::Full) {
            let full = NewtonConfig {
                line_search: LineSearch::Full,
                ..cfg
            };
            let r = newton::<ScalarCsr, _, _>(
                &Ring::new(RING_N),
                &mut vec![x0; RING_N],
                &full,
                JacobiPc::from_csr,
            );
            assert_ne!(
                r.history, res.history,
                "newton {name}: no step was shortened"
            );
        }
        out.insert(format!("newton {name}"), newton_line(&x, &res));
    }
}

fn dist_newton_cells(out: &mut BTreeMap<String, String>) {
    for (name, cfg, x0) in newton_cases() {
        for ranks in [1usize, 2, 3] {
            let lines = run(ranks, move |comm| {
                let p = Ring::new(RING_N);
                let mut x = vec![x0; p.rows_of(comm).len()];
                let res = dist_newton::<ScalarCsr, _, _>(
                    comm,
                    &p.on(comm),
                    &mut x,
                    &cfg,
                    JacobiPc::from_csr,
                );
                assert!(res.converged(), "{:?}", res.reason);
                newton_line(&comm.allgather(x).concat(), &res)
            });
            assert!(
                lines.iter().all(|l| *l == lines[0]),
                "dist_newton {name} ranks{ranks}: ranks disagree: {lines:?}"
            );
            out.insert(format!("dist_newton {name} ranks{ranks}"), lines[0].clone());
        }
    }
}

// ---------------------------------------------------------------- golden

fn cells() -> BTreeMap<String, String> {
    let mut out = BTreeMap::new();
    ksp_cells(&mut out);
    newton_cells(&mut out);
    dist_newton_cells(&mut out);
    out
}

fn parse_golden() -> BTreeMap<String, String> {
    GOLDEN
        .lines()
        .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
        .map(|l| {
            let cut = l.find(" x=").expect("a golden line has an x= token");
            (l[..cut].to_string(), l[cut..].to_string())
        })
        .collect()
}

#[test]
fn solver_iterate_bits_match_the_golden_file() {
    let golden = parse_golden();
    let got = cells();
    let mut bad = Vec::new();
    for (key, line) in &got {
        match golden.get(key) {
            Some(want) if want == line => {}
            Some(want) => bad.push(format!("{key}:\n    got   {line}\n    golden{want}")),
            None => bad.push(format!("{key}: missing from the golden file")),
        }
    }
    for key in golden.keys().filter(|k| !got.contains_key(*k)) {
        bad.push(format!("{key}: in the golden file but no longer computed"));
    }
    assert!(
        bad.is_empty(),
        "{} solve(s) changed bits:\n{}",
        bad.len(),
        bad.join("\n")
    );
}

/// Rewrites the golden file from the solvers as they are now.
#[test]
#[ignore = "regenerates tests/golden/solver_bits.txt"]
fn bless() {
    let mut text = String::from(
        "# FNV-1a hashes of the bits of x and of the residual history; see tests/solver_bits.rs.\n\
         # solve  x=hash hist=hash its=iterations [lin=linear iterations] reason=stop reason\n",
    );
    for (key, line) in &cells() {
        writeln!(text, "{key}{line}").expect("write to String");
    }
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/solver_bits.txt");
    std::fs::write(path, text).expect("golden file writable");
}
