//! The differential engine: every format × ISA tier × thread count ×
//! product mode against a scalar-CSR oracle.
//!
//! Comparison policy:
//!
//! * **Class first** — NaN must meet NaN, ±Inf must meet Inf of the same
//!   sign.  Generator values are bounded far from overflow, so the class
//!   of a row sum is independent of accumulation order and a class
//!   mismatch is always a real divergence (the `0.0 × Inf` padding bug
//!   class shows up here as NaN-vs-finite).
//! * **ULP-bounded** for finite values — SIMD tiers reassociate sums and
//!   contract to FMA, so bitwise equality with the scalar oracle is not
//!   required; a tight ULP budget plus an absolute floor is.
//!
//! Block formats (BAIJ/SBAIJ) densify their blocks with explicit zeros,
//! so `0.0 × Inf = NaN` is *correct* for them wherever the fill sits in a
//! live block column.  Their oracle is therefore the **block-closure
//! CSR** — the input pattern widened with explicit zeros over every
//! touched block — which reproduces that semantic exactly.

use std::borrow::Cow;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::SeedableRng;
use sellkit_check::Validate;
use sellkit_core::{
    Apply, Baij, Codec, CooBuilder, Csr, ExecCtx, Isa, MatShape, Operator, Sbaij, Sell16, Sell4,
    Sell8, SellEsb, SellSigma8, VecView, VecViewMut,
};

use crate::gen::{assemble, make_x, MatrixCase, X_CLASSES};

/// The seven formats under differential test (CSR itself is the oracle;
/// its SIMD tiers are checked against its scalar tier separately).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FormatKind {
    /// The oracle format itself — used only for its SIMD-tier-vs-scalar
    /// self-check, never part of [`FORMATS`].
    Csr,
    Sell4,
    Sell8,
    Sell16,
    SellEsb,
    SellSigma8,
    Baij2,
    Sbaij2,
}

/// All seven, in sweep order.
pub const FORMATS: [FormatKind; 7] = [
    FormatKind::Sell4,
    FormatKind::Sell8,
    FormatKind::Sell16,
    FormatKind::SellEsb,
    FormatKind::SellSigma8,
    FormatKind::Baij2,
    FormatKind::Sbaij2,
];

impl FormatKind {
    /// Short stable name for reports and repro snippets.
    pub fn name(self) -> &'static str {
        match self {
            FormatKind::Csr => "csr",
            FormatKind::Sell4 => "sell4",
            FormatKind::Sell8 => "sell8",
            FormatKind::Sell16 => "sell16",
            FormatKind::SellEsb => "sell_esb",
            FormatKind::SellSigma8 => "sell_c_sigma8",
            FormatKind::Baij2 => "baij_bs2",
            FormatKind::Sbaij2 => "sbaij_bs2",
        }
    }

    /// Whether this format can represent `a` at all (block formats need
    /// divisible dimensions; SBAIJ needs symmetry, asserted upstream).
    pub fn supports(self, a: &Csr, symmetric: bool) -> bool {
        match self {
            FormatKind::Baij2 => a.nrows().is_multiple_of(2) && a.ncols().is_multiple_of(2),
            FormatKind::Sbaij2 => {
                symmetric && a.nrows() == a.ncols() && a.nrows().is_multiple_of(2)
            }
            _ => true,
        }
    }

    /// Whether the format densifies blocks (needs the closure oracle).
    pub fn block_filled(self) -> bool {
        matches!(self, FormatKind::Baij2 | FormatKind::Sbaij2)
    }

    /// Whether this format can store values under `codec` — only the
    /// SELL family (and its σ-sorted wrapper) has a packed-value path.
    pub fn supports_codec(self, codec: Codec) -> bool {
        codec == Codec::F64
            || matches!(
                self,
                FormatKind::Sell4 | FormatKind::Sell8 | FormatKind::Sell16 | FormatKind::SellSigma8
            )
    }
}

/// One self-contained failing input: everything needed to rebuild and
/// re-run a single divergence.  A sweep builds several thousand of these
/// per case, so the triplets and the vector are shared, not copied.
#[derive(Clone, Debug)]
pub struct Repro {
    pub nrows: usize,
    pub ncols: usize,
    pub entries: Arc<[(u32, u32, f64)]>,
    pub x: Arc<[f64]>,
    pub format: FormatKind,
    pub threads: usize,
    /// `true` → `spmv_add_ctx` from a zeroed `y`; `false` → `spmv_ctx`.
    pub add: bool,
    /// `Some(tier)` forces `spmv_isa`/`spmm_isa` (serial); `None` uses
    /// the format's default dispatch through [`Operator::apply`].
    pub isa: Option<Isa>,
    /// Right-hand-side block width: `1` is classic SpMV; `k > 1` runs the
    /// blocked SpMM path with `x` holding `k` row-interleaved vectors
    /// (`x[col*k + v]`) and compares against the column-by-column
    /// scalar-CSR oracle.
    pub k: usize,
    /// Value codec for the packed SELL formats; `Codec::F64` everywhere
    /// else.  A reduced codec switches the oracle to the scalar-CSR
    /// product over the **codec-quantized** matrix (see [`quantize_csr`]).
    pub codec: Codec,
}

/// A confirmed divergence or panic.
#[derive(Clone, Debug)]
pub struct Finding {
    pub case_name: String,
    pub detail: String,
    pub repro: Repro,
}

/// Engine knobs.
pub struct Config {
    /// Thread counts for the `spmv_ctx` sweep.
    pub threads: Vec<usize>,
    /// Maximum finite disagreement in units in the last place.
    pub ulp_bound: u64,
    /// Absolute floor under which any finite disagreement passes
    /// (protects near-zero cancellation noise from spurious ULP blowup).
    pub abs_floor: f64,
}

impl Default for Config {
    fn default() -> Self {
        Self {
            threads: vec![1, 2, 4, 7],
            ulp_bound: 4096,
            abs_floor: 1e-11,
        }
    }
}

/// Persistent pools, built once per run: spawning threads per case would
/// dominate the fuzz budget.
pub struct Ctxs {
    ctxs: Vec<(usize, ExecCtx)>,
}

impl Ctxs {
    pub fn new(threads: &[usize]) -> Self {
        Self {
            ctxs: threads.iter().map(|&t| (t, ExecCtx::new(t))).collect(),
        }
    }

    fn get(&self, threads: usize) -> &ExecCtx {
        &self
            .ctxs
            .iter()
            .find(|(t, _)| *t == threads)
            .expect("thread count not prebuilt")
            .1
    }
}

/// Distance in units-in-the-last-place between two finite doubles, via
/// the ordered-integer mapping (adjacent floats differ by 1).
pub fn ulp_distance(a: f64, b: f64) -> u64 {
    // Monotone bits→integer mapping: negatives are mirrored below zero,
    // so adjacent floats (of either sign) differ by exactly 1 and
    // ±0.0 map to the same key.
    fn ordered(v: f64) -> i64 {
        let bits = v.to_bits() as i64;
        if bits < 0 {
            i64::MIN.wrapping_sub(bits)
        } else {
            bits
        }
    }
    ordered(a).abs_diff(ordered(b))
}

/// Compares `got` against the oracle under the class + ULP policy.
/// Returns a human-readable mismatch description, or `None` if they agree.
pub fn compare(got: &[f64], want: &[f64], cfg: &Config) -> Option<String> {
    if got.len() != want.len() {
        return Some(format!("length {} vs oracle {}", got.len(), want.len()));
    }
    for i in 0..got.len() {
        let (g, w) = (got[i], want[i]);
        let class_ok = match (g.is_nan(), w.is_nan()) {
            (true, true) => continue,
            (false, false) => true,
            _ => false,
        };
        if !class_ok {
            return Some(format!("row {i}: {g:e} vs oracle {w:e} (NaN class)"));
        }
        if g.is_infinite() || w.is_infinite() {
            if g == w {
                continue;
            }
            return Some(format!("row {i}: {g:e} vs oracle {w:e} (Inf class)"));
        }
        if (g - w).abs() <= cfg.abs_floor {
            continue;
        }
        let ulps = ulp_distance(g, w);
        if ulps > cfg.ulp_bound {
            return Some(format!(
                "row {i}: {g:e} vs oracle {w:e} ({ulps} ulps > {})",
                cfg.ulp_bound
            ));
        }
    }
    None
}

/// Widens `a`'s pattern to whole `bs × bs` blocks with explicit zeros —
/// the semantic a block format actually multiplies with.
pub fn block_closure(a: &Csr, bs: usize) -> Csr {
    let mut touched: Vec<(u32, u32)> = Vec::new();
    for i in 0..a.nrows() {
        for &c in a.row_cols(i) {
            touched.push(((i / bs) as u32, c / bs as u32));
        }
    }
    touched.sort_unstable();
    touched.dedup();
    let mut b = CooBuilder::new(a.nrows(), a.ncols());
    for &(bi, bj) in &touched {
        for r in 0..bs {
            for c in 0..bs {
                b.push(bi as usize * bs + r, bj as usize * bs + c, 0.0);
            }
        }
    }
    for i in 0..a.nrows() {
        for (k, &c) in a.row_cols(i).iter().enumerate() {
            b.push(i, c as usize, a.row_vals(i)[k]);
        }
    }
    b.to_csr()
}

/// Scalar-CSR oracle: `y = A·x` (or `+=`) at the `Scalar` tier.
fn oracle(a: &Csr, x: &[f64], add: bool, y: &mut [f64]) {
    if add {
        // Scalar-tier add: spmv into scratch, then accumulate — matches
        // the trait default, with the scalar kernel forced.
        let mut tmp = vec![0.0; y.len()];
        a.spmv_isa(Isa::Scalar, x, &mut tmp);
        for (yi, ti) in y.iter_mut().zip(&tmp) {
            *yi += ti;
        }
    } else {
        a.spmv_isa(Isa::Scalar, x, y);
    }
}

/// What the engine asks of a format under test: the product and the
/// structural check.
pub trait Format: Operator + Validate {}
impl<T: Operator + Validate> Format for T {}

/// Boxes one concrete format built from `a` under `codec` (only the
/// SELL family stores reduced-precision values; every other kind
/// requires `Codec::F64`, enforced by [`FormatKind::supports_codec`]).
/// The one place a [`FormatKind`] becomes a type.
pub fn build_format(kind: FormatKind, a: &Csr, codec: Codec) -> Box<dyn Format> {
    match kind {
        FormatKind::Csr => Box::new(a.clone()),
        FormatKind::Sell4 => Box::new(Sell4::from_csr_codec(a, codec)),
        FormatKind::Sell8 => Box::new(Sell8::from_csr_codec(a, codec)),
        FormatKind::Sell16 => Box::new(Sell16::from_csr_codec(a, codec)),
        FormatKind::SellEsb => Box::new(SellEsb::from_csr(a)),
        FormatKind::SellSigma8 => Box::new(SellSigma8::from_csr_sigma_codec(a, 16, codec)),
        FormatKind::Baij2 => Box::new(Baij::from_csr(a, 2)),
        FormatKind::Sbaij2 => Box::new(Sbaij::from_csr(a, 2)),
    }
}

/// Structural validation via sellkit-check: each stream the format holds,
/// the packed value bytes included when `codec` is reduced.
fn validate_format(kind: FormatKind, a: &Csr, codec: Codec) -> Result<(), String> {
    build_format(kind, a, codec)
        .validate()
        .map_err(|e| format!("{e:?}"))
}

/// Scalar CSR over the codec-quantized values — the oracle matrix for a
/// packed repro.  The packed bytes are encoded with the rounding of
/// `codec.quantize(v)`, so packed kernels decode **bit-exactly** to this
/// matrix: the codec's unit roundoff enters the comparison through the
/// oracle's values, not a loosened tolerance, and the standard
/// class-first + ULP policy stays as tight as the f64 sweep.
pub fn quantize_csr(a: &Csr, codec: Codec) -> Csr {
    let mut b = CooBuilder::with_capacity(a.nrows(), a.ncols(), a.nnz());
    for i in 0..a.nrows() {
        for (k, &c) in a.row_cols(i).iter().enumerate() {
            b.push(i, c as usize, codec.quantize(a.row_vals(i)[k]));
        }
    }
    b.to_csr()
}

/// Re-runs exactly one `Repro` combination; `Some(detail)` if it still
/// fails.  This is the minimizer's predicate — and doubles as the
/// confirmation step for every reported finding.
pub fn repro_fails(r: &Repro, cfg: &Config, ctxs: &Ctxs) -> Option<String> {
    let built = catch_unwind(AssertUnwindSafe(|| assemble(r.nrows, r.ncols, &r.entries)));
    let a = match built {
        Ok(a) => a,
        Err(p) => return Some(format!("panic in assembly: {}", panic_msg(&p))),
    };
    let symmetric = r.format == FormatKind::Sbaij2;
    if !r.format.supports(&a, symmetric) || !r.format.supports_codec(r.codec) {
        return None;
    }
    // Structural invariants re-check: validation findings carry an empty
    // `x`, and this is what makes them reproducible (hence minimizable).
    match catch_unwind(AssertUnwindSafe(|| validate_format(r.format, &a, r.codec))) {
        Ok(Ok(())) => {}
        Ok(Err(e)) => return Some(format!("validation: {e}")),
        Err(p) => return Some(format!("panic in build/validate: {}", panic_msg(&p))),
    }
    if r.x.len() != a.ncols() * r.k.max(1) {
        // Structural-only repro; nothing numeric to run.
        return None;
    }
    product_fails(r, &a, &oracle_product(r, &a), cfg, ctxs)
}

/// What `r`'s product is compared against: the scalar-CSR product of each
/// of its `k` vectors on its own — the blocked product must agree with `k`
/// independent single-vector products, column for column — over the
/// oracle matrix of its format and codec.  It depends on `r`'s `x`, `k`,
/// `add`, codec and whether the format is block-filled, nothing else.
fn oracle_product(r: &Repro, a: &Csr) -> Vec<f64> {
    let k = r.k.max(1);
    let oracle_mat = if r.format.block_filled() {
        Cow::Owned(block_closure(a, 2))
    } else if r.codec != Codec::F64 {
        Cow::Owned(quantize_csr(a, r.codec))
    } else {
        Cow::Borrowed(a)
    };
    let mut want = vec![0.0; a.nrows() * k];
    let mut xcol = vec![0.0; a.ncols()];
    let mut wcol = vec![0.0; a.nrows()];
    for v in 0..k {
        for (i, xc) in xcol.iter_mut().enumerate() {
            *xc = r.x[i * k + v];
        }
        wcol.fill(0.0);
        oracle(&oracle_mat, &xcol, r.add, &mut wcol);
        for (i, wc) in wcol.iter().enumerate() {
            want[i * k + v] = *wc;
        }
    }
    want
}

/// Builds `r`'s format from `a`, runs exactly its product and compares it
/// with `want` ([`oracle_product`]); `Some(detail)` on a panic or a
/// disagreement.
fn product_fails(r: &Repro, a: &Csr, want: &[f64], cfg: &Config, ctxs: &Ctxs) -> Option<String> {
    let k = r.k.max(1);
    let run = catch_unwind(AssertUnwindSafe(|| {
        let m = build_format(r.format, a, r.codec);
        let c = r.codec;
        let mut y = vec![0.0; a.nrows() * k];
        match r.isa {
            // Forced-tier serial paths exist on CSR + the SELL family.
            Some(tier) if k == 1 => match r.format {
                FormatKind::Csr => a.spmv_isa(tier, &r.x, &mut y),
                FormatKind::Sell4 => Sell4::from_csr_codec(a, c).spmv_isa(tier, &r.x, &mut y),
                FormatKind::Sell8 => Sell8::from_csr_codec(a, c).spmv_isa(tier, &r.x, &mut y),
                FormatKind::Sell16 => Sell16::from_csr_codec(a, c).spmv_isa(tier, &r.x, &mut y),
                FormatKind::SellEsb => SellEsb::from_csr(a).spmv_isa(tier, &r.x, &mut y),
                _ => m.apply(
                    &ExecCtx::serial(),
                    (&r.x[..]).into(),
                    (&mut y).into(),
                    Apply::Set,
                ),
            },
            Some(tier) => match r.format {
                FormatKind::Csr => a.spmm_isa(tier, &r.x, &mut y, k),
                FormatKind::Sell4 => Sell4::from_csr_codec(a, c).spmm_isa(tier, &r.x, &mut y, k),
                FormatKind::Sell8 => Sell8::from_csr_codec(a, c).spmm_isa(tier, &r.x, &mut y, k),
                FormatKind::Sell16 => Sell16::from_csr_codec(a, c).spmm_isa(tier, &r.x, &mut y, k),
                _ => m.apply(
                    &ExecCtx::serial(),
                    VecView::blocked(&r.x, k),
                    VecViewMut::blocked(&mut y, k),
                    Apply::Set,
                ),
            },
            None => {
                let ctx = ctxs.get(r.threads);
                let mode = if r.add { Apply::Add } else { Apply::Set };
                m.apply(
                    ctx,
                    VecView::blocked(&r.x, k),
                    VecViewMut::blocked(&mut y, k),
                    mode,
                );
            }
        }
        y
    }));
    match run {
        Ok(y) => compare(&y, want, cfg),
        Err(p) => Some(format!("panic in spmv: {}", panic_msg(&p))),
    }
}

/// The sweeps' form of [`repro_fails`] for the combinations of one vector
/// `x` over one assembled, already validated matrix: the matrix is
/// borrowed and each oracle product is computed once per (`add`, oracle
/// matrix) rather than once per combination.
struct OneVector<'a> {
    a: &'a Csr,
    cfg: &'a Config,
    ctxs: &'a Ctxs,
    wants: Vec<((bool, bool, Codec), Vec<f64>)>,
}

impl<'a> OneVector<'a> {
    fn new(a: &'a Csr, cfg: &'a Config, ctxs: &'a Ctxs) -> Self {
        let wants = Vec::new();
        Self {
            a,
            cfg,
            ctxs,
            wants,
        }
    }

    /// `r` must carry this sweep's matrix, `x` and `k`.
    fn fails(&mut self, r: &Repro) -> Option<String> {
        let key = (r.add, r.format.block_filled(), r.codec);
        let at = match self.wants.iter().position(|(k, _)| *k == key) {
            Some(at) => at,
            None => {
                self.wants.push((key, oracle_product(r, self.a)));
                self.wants.len() - 1
            }
        };
        product_fails(r, self.a, &self.wants[at].1, self.cfg, self.ctxs)
    }
}

fn panic_msg(p: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = p.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = p.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string payload".to_string()
    }
}

/// The structural-only repro of `case` (empty `x`, serial f64 SELL-8
/// SpMV): the sweeps derive every combination from it by struct update,
/// sharing its triplets.
fn base_repro(case: &MatrixCase) -> Repro {
    Repro {
        nrows: case.nrows,
        ncols: case.ncols,
        entries: case.entries.as_slice().into(),
        x: Arc::new([]),
        format: FormatKind::Sell8,
        threads: 1,
        add: false,
        isa: None,
        k: 1,
        codec: Codec::F64,
    }
}

/// Runs the full differential sweep for one matrix case: every vector
/// hazard class × {CSR SIMD tiers, seven formats} × {serial ISA paths,
/// threaded ctx paths} × {set, add}.  Returns every finding.
pub fn run_case(case: &MatrixCase, cfg: &Config, ctxs: &Ctxs, seed: u64) -> Vec<Finding> {
    let mut findings = Vec::new();
    let base = base_repro(case);
    let a = match catch_unwind(AssertUnwindSafe(|| case.to_csr())) {
        Ok(a) => a,
        Err(p) => {
            findings.push(Finding {
                case_name: case.name.clone(),
                detail: format!("panic assembling CSR: {}", panic_msg(&p)),
                repro: base,
            });
            return findings;
        }
    };

    // Structural invariants first: a silently corrupt layout would make
    // every numeric comparison noise.
    for kind in FORMATS {
        if !kind.supports(&a, case.symmetric) {
            continue;
        }
        let checked = catch_unwind(AssertUnwindSafe(|| validate_format(kind, &a, Codec::F64)));
        let detail = match checked {
            Ok(Ok(())) => continue,
            Ok(Err(e)) => format!("validation: {e}"),
            Err(p) => format!("panic in build/validate: {}", panic_msg(&p)),
        };
        findings.push(Finding {
            case_name: case.name.clone(),
            detail: format!("{}: {detail}", kind.name()),
            repro: Repro {
                format: kind,
                ..base.clone()
            },
        });
    }

    let mut xrng = StdRng::seed_from_u64(seed.wrapping_mul(0x9e37_79b9));
    for class in X_CLASSES {
        let with_x = Repro {
            x: make_x(class, a.ncols(), &mut xrng).into(),
            ..base.clone()
        };
        let mut one = OneVector::new(&a, cfg, ctxs);

        // CSR's own SIMD tiers against its scalar tier.
        for tier in Isa::available_tiers() {
            let r = Repro {
                format: FormatKind::Csr,
                isa: Some(tier),
                ..with_x.clone()
            };
            if let Some(d) = one.fails(&r) {
                findings.push(Finding {
                    case_name: case.name.clone(),
                    detail: format!("csr@{tier} x={class:?}: {d}"),
                    repro: r,
                });
            }
        }

        for kind in FORMATS {
            if !kind.supports(&a, case.symmetric) {
                continue;
            }
            // Forced serial ISA tiers (SELL family exposes them).
            let tiers: Vec<Option<Isa>> = if matches!(
                kind,
                FormatKind::Sell4 | FormatKind::Sell8 | FormatKind::Sell16 | FormatKind::SellEsb
            ) {
                Isa::available_tiers().into_iter().map(Some).collect()
            } else {
                vec![]
            };
            for isa in tiers {
                let r = Repro {
                    format: kind,
                    isa,
                    ..with_x.clone()
                };
                if let Some(d) = one.fails(&r) {
                    findings.push(Finding {
                        case_name: case.name.clone(),
                        detail: format!("{}@{:?} x={class:?}: {d}", kind.name(), r.isa),
                        repro: r,
                    });
                }
            }
            // Threaded ctx paths, both modes.
            for &threads in &cfg.threads {
                for add in [false, true] {
                    let r = Repro {
                        format: kind,
                        threads,
                        add,
                        ..with_x.clone()
                    };
                    if let Some(d) = one.fails(&r) {
                        findings.push(Finding {
                            case_name: case.name.clone(),
                            detail: format!(
                                "{}@{}t {} x={class:?}: {d}",
                                kind.name(),
                                threads,
                                if add { "add" } else { "set" },
                            ),
                            repro: r,
                        });
                    }
                }
            }
        }
    }
    findings
}

/// Block widths for the SpMM differential sweep: every specialized size
/// (`SPECIALIZED_K`) plus a ragged `k = 7` that exercises the masked
/// tail of each vector tier's column-block loop.
pub const SPMM_KS: [usize; 5] = [1, 2, 4, 7, 8];

/// Runs the blocked (SpMM) differential sweep for one matrix case: every
/// vector hazard class × block width × {CSR SpMM tiers, seven formats} ×
/// {forced serial tiers, threaded ctx paths} × {set, add}, each compared
/// against the column-by-column scalar-CSR oracle.  The interleaved `X`
/// block reuses the same NaN/Inf hazard classes as the SpMV sweep, so
/// the §5.5 sentinel-padding fix is pinned at every block width (a
/// padded SELL lane must contribute exactly nothing, not `0.0 × Inf`).
pub fn run_spmm_case(case: &MatrixCase, cfg: &Config, ctxs: &Ctxs, seed: u64) -> Vec<Finding> {
    let mut findings = Vec::new();
    // Assembly panics are reported (with a repro) by `run_case`; this
    // sweep only adds numeric combinations on top of a buildable matrix.
    let Ok(a) = catch_unwind(AssertUnwindSafe(|| case.to_csr())) else {
        return findings;
    };
    let base = base_repro(case);
    let mut xrng = StdRng::seed_from_u64(seed ^ 0x5b3c_01d7_44ee_9921);
    for class in X_CLASSES {
        for k in SPMM_KS {
            // One independent hazard-class column per RHS, row-interleaved
            // into the blocked layout (`x[col*k + v]`).
            let mut x = vec![0.0; a.ncols() * k];
            for v in 0..k {
                let col = make_x(class, a.ncols(), &mut xrng);
                for i in 0..a.ncols() {
                    x[i * k + v] = col[i];
                }
            }
            let with_x = Repro {
                x: x.into(),
                k,
                ..base.clone()
            };
            let mut one = OneVector::new(&a, cfg, ctxs);

            // CSR's own SpMM tiers against the column-by-column oracle.
            for tier in Isa::available_tiers() {
                let r = Repro {
                    format: FormatKind::Csr,
                    isa: Some(tier),
                    ..with_x.clone()
                };
                if let Some(d) = one.fails(&r) {
                    findings.push(Finding {
                        case_name: case.name.clone(),
                        detail: format!("csr@{tier} k={k} x={class:?}: {d}"),
                        repro: r,
                    });
                }
            }

            for kind in FORMATS {
                if !kind.supports(&a, case.symmetric) {
                    continue;
                }
                // Forced serial SpMM tiers (the SELL family exposes them;
                // ESB and the rest run through default dispatch only).
                let tiers: Vec<Option<Isa>> = if matches!(
                    kind,
                    FormatKind::Sell4 | FormatKind::Sell8 | FormatKind::Sell16
                ) {
                    Isa::available_tiers().into_iter().map(Some).collect()
                } else {
                    vec![]
                };
                for isa in tiers {
                    let r = Repro {
                        format: kind,
                        isa,
                        ..with_x.clone()
                    };
                    if let Some(d) = one.fails(&r) {
                        findings.push(Finding {
                            case_name: case.name.clone(),
                            detail: format!("{}@{:?} k={k} x={class:?}: {d}", kind.name(), r.isa),
                            repro: r,
                        });
                    }
                }
                // Threaded ctx paths, both modes.
                for &threads in &cfg.threads {
                    for add in [false, true] {
                        let r = Repro {
                            format: kind,
                            threads,
                            add,
                            ..with_x.clone()
                        };
                        if let Some(d) = one.fails(&r) {
                            findings.push(Finding {
                                case_name: case.name.clone(),
                                detail: format!(
                                    "{}@{}t {} k={k} x={class:?}: {d}",
                                    kind.name(),
                                    threads,
                                    if add { "add" } else { "set" },
                                ),
                                repro: r,
                            });
                        }
                    }
                }
            }
        }
    }
    findings
}

/// The reduced-precision codecs under differential test.
pub const CODECS: [Codec; 2] = [Codec::F32, Codec::Bf16];

/// The formats with a packed-value path (the SELL family + its σ-sorted
/// wrapper) — the codec sweep's format axis.
pub const PACKED_FORMATS: [FormatKind; 4] = [
    FormatKind::Sell4,
    FormatKind::Sell8,
    FormatKind::Sell16,
    FormatKind::SellSigma8,
];

/// Runs the reduced-precision differential sweep for one matrix case:
/// every vector hazard class × [`CODECS`] × [`PACKED_FORMATS`], forced
/// through every available ISA tier (SpMV plus a ragged `k = 3` SpMM on
/// the tier-exposing Sell heights) and through the threaded ctx paths in
/// both apply modes — all against the scalar-CSR oracle over the
/// codec-quantized matrix (see [`quantize_csr`] for why the comparison
/// stays at the tight f64 ULP budget instead of a loosened
/// codec-scaled tolerance).
pub fn run_codec_case(case: &MatrixCase, cfg: &Config, ctxs: &Ctxs, seed: u64) -> Vec<Finding> {
    let mut findings = Vec::new();
    // Assembly panics are reported (with a repro) by `run_case`.
    let Ok(a) = catch_unwind(AssertUnwindSafe(|| case.to_csr())) else {
        return findings;
    };
    let base = base_repro(case);
    let packed = |format, codec| Repro {
        format,
        codec,
        ..base.clone()
    };
    let mut xrng = StdRng::seed_from_u64(seed ^ 0x00de_c0de_00de_c0de);
    for codec in CODECS {
        // The packed layout's invariants first (each stream it holds,
        // through sellkit-check): a corrupt layout would make every
        // numeric comparison below noise.
        for kind in PACKED_FORMATS {
            let checked = catch_unwind(AssertUnwindSafe(|| validate_format(kind, &a, codec)));
            let detail = match checked {
                Ok(Ok(())) => continue,
                Ok(Err(e)) => format!("validation: {e}"),
                Err(p) => format!("panic in build/validate: {}", panic_msg(&p)),
            };
            findings.push(Finding {
                case_name: case.name.clone(),
                detail: format!("{}[{}]: {detail}", kind.name(), codec.label()),
                repro: packed(kind, codec),
            });
        }
        for class in X_CLASSES {
            for kind in PACKED_FORMATS {
                // Forced serial tiers: SpMV and a ragged-k SpMM.  The
                // σ-sorted wrapper has no forced-tier entry point and is
                // covered by the ctx sweep below.
                if kind != FormatKind::SellSigma8 {
                    for tier in Isa::available_tiers() {
                        for k in [1usize, 3] {
                            let mut x = vec![0.0; a.ncols() * k];
                            for v in 0..k {
                                let col = make_x(class, a.ncols(), &mut xrng);
                                for i in 0..a.ncols() {
                                    x[i * k + v] = col[i];
                                }
                            }
                            let r = Repro {
                                x: x.into(),
                                isa: Some(tier),
                                k,
                                ..packed(kind, codec)
                            };
                            if let Some(d) = OneVector::new(&a, cfg, ctxs).fails(&r) {
                                findings.push(Finding {
                                    case_name: case.name.clone(),
                                    detail: format!(
                                        "{}[{}]@{tier} k={k} x={class:?}: {d}",
                                        kind.name(),
                                        codec.label(),
                                    ),
                                    repro: r,
                                });
                            }
                        }
                    }
                }
                // Threaded ctx paths, both modes.
                let x: Arc<[f64]> = make_x(class, a.ncols(), &mut xrng).into();
                let mut one = OneVector::new(&a, cfg, ctxs);
                for &threads in &cfg.threads {
                    for add in [false, true] {
                        let r = Repro {
                            x: x.clone(),
                            threads,
                            add,
                            ..packed(kind, codec)
                        };
                        if let Some(d) = one.fails(&r) {
                            findings.push(Finding {
                                case_name: case.name.clone(),
                                detail: format!(
                                    "{}[{}]@{}t {} x={class:?}: {d}",
                                    kind.name(),
                                    codec.label(),
                                    threads,
                                    if add { "add" } else { "set" },
                                ),
                                repro: r,
                            });
                        }
                    }
                }
            }
        }
    }
    findings
}

/// Shape-only sweep at near-`u32::MAX` dimensions: builders and
/// validators must survive sentinel/index arithmetic at the edge of the
/// 32-bit column space (no product — `x` would need 32 GiB).
pub fn run_huge_shape_case() -> Vec<Finding> {
    let mut findings = Vec::new();
    let huge = u32::MAX as usize; // sentinel becomes u32::MAX itself
    let mut b = CooBuilder::new(3, huge);
    b.push(0, huge - 1, 1.0);
    b.push(1, huge - 2, -2.0);
    b.push(2, 0, 0.5);
    let fail = |findings: &mut Vec<Finding>, kind: FormatKind, detail: String| {
        findings.push(Finding {
            case_name: "huge_shape".into(),
            detail: format!("{}: {detail}", kind.name()),
            repro: Repro {
                nrows: 3,
                ncols: huge,
                entries: Arc::new([
                    (0, (huge - 1) as u32, 1.0),
                    (1, (huge - 2) as u32, -2.0),
                    (2, 0, 0.5),
                ]),
                x: Arc::new([]),
                format: kind,
                threads: 1,
                add: false,
                isa: None,
                k: 1,
                codec: Codec::F64,
            },
        });
    };
    let a = match catch_unwind(AssertUnwindSafe(|| b.to_csr())) {
        Ok(a) => a,
        Err(p) => {
            fail(&mut findings, FormatKind::Csr, panic_msg(&p));
            return findings;
        }
    };
    for kind in std::iter::once(FormatKind::Csr).chain(FORMATS) {
        // Three rows: the block formats cannot hold this shape.
        if !kind.supports(&a, false) {
            continue;
        }
        match catch_unwind(AssertUnwindSafe(|| validate_format(kind, &a, Codec::F64))) {
            Ok(Ok(())) => {}
            Ok(Err(e)) => fail(&mut findings, kind, e),
            Err(p) => fail(&mut findings, kind, format!("panic: {}", panic_msg(&p))),
        }
    }
    findings
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::build;

    #[test]
    fn ulp_distance_basics() {
        assert_eq!(ulp_distance(1.0, 1.0), 0);
        assert_eq!(ulp_distance(1.0, f64::from_bits(1.0f64.to_bits() + 1)), 1);
        // ±0.0 map to the same ordered key.
        assert_eq!(ulp_distance(0.0, -0.0), 0);
        // Straddling zero: one step either side of ±0.0 is two apart.
        assert_eq!(ulp_distance(f64::from_bits(1), -f64::from_bits(1)), 2);
    }

    #[test]
    fn compare_policy() {
        let cfg = Config::default();
        assert!(compare(&[1.0], &[1.0], &cfg).is_none());
        assert!(compare(&[f64::NAN], &[f64::NAN], &cfg).is_none());
        // NaN class mismatch is always a finding.
        let d = compare(&[f64::NAN], &[1.0], &cfg).unwrap();
        assert!(d.contains("NaN class"), "{d}");
        // Inf sign mismatch likewise.
        let d = compare(&[f64::INFINITY], &[f64::NEG_INFINITY], &cfg).unwrap();
        assert!(d.contains("Inf class"), "{d}");
        // Tiny absolute noise passes the floor.
        assert!(compare(&[1e-13], &[0.0], &cfg).is_none());
        // A gross finite mismatch does not.
        assert!(compare(&[2.0], &[1.0], &cfg).is_some());
    }

    #[test]
    fn block_closure_widens_to_full_blocks() {
        let mut b = CooBuilder::new(4, 4);
        b.push(0, 0, 3.0);
        b.push(2, 3, -1.0);
        let a = b.to_csr();
        let c = block_closure(&a, 2);
        // Two touched 2×2 blocks, fully densified.
        assert_eq!(c.nnz(), 8);
        assert_eq!(c.row_cols(0), &[0, 1]);
        assert_eq!(c.row_cols(1), &[0, 1]);
        assert_eq!(c.row_cols(2), &[2, 3]);
        assert_eq!(c.row_vals(2), &[0.0, -1.0]);
    }

    #[test]
    fn corpus_families_run_clean() {
        // A fast spot-check on top of the full binary sweep: one seed per
        // hazard-focused family must produce zero findings.
        let cfg = Config {
            threads: vec![1, 2],
            ..Config::default()
        };
        let ctxs = Ctxs::new(&cfg.threads);
        for family in ["empty", "all_empty", "dense_row", "tail8", "dup_unsorted"] {
            let case = build(family, 42);
            let findings = run_case(&case, &cfg, &ctxs, 42);
            assert!(
                findings.is_empty(),
                "{family}: {:?}",
                findings.iter().map(|f| &f.detail).collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn huge_shape_sweep_is_clean() {
        assert!(run_huge_shape_case().is_empty());
    }

    #[test]
    fn codec_families_run_clean() {
        // One seed per hazard family through the reduced-precision sweep:
        // every packed format × {f32, bf16} × available tiers must agree
        // with the quantized-CSR oracle and validate stream by stream.
        let cfg = Config {
            threads: vec![1, 2],
            ..Config::default()
        };
        let ctxs = Ctxs::new(&cfg.threads);
        for family in ["empty", "dense_row", "tail8", "dup_unsorted"] {
            let case = build(family, 7);
            let findings = run_codec_case(&case, &cfg, &ctxs, 7);
            assert!(
                findings.is_empty(),
                "{family}: {:?}",
                findings.iter().map(|f| &f.detail).collect::<Vec<_>>()
            );
        }
    }
}
