//! The differential engine: every format × codec × block width × ISA
//! path × product mode against a scalar-CSR oracle.
//!
//! One walk, [`run_case`], covers it all.  Each [`Row`] of [`ROWS`] names
//! its codecs, its block widths and the salt of its vectors' RNG stream;
//! every format of [`FORMATS`] that can hold the case under a codec runs
//! every path — each available ISA tier forced on a serial context, then
//! the default tier on each pool of [`Config::threads`] — in both
//! [`Apply`] modes, over every vector hazard class.
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
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::SeedableRng;
use sellkit_check::Validate;
use sellkit_core::{
    Apply, Baij, Codec, CooBuilder, Csr, ExecCtx, Isa, MatShape, Operator, Sbaij, Sell16, Sell4,
    Sell8, SellEsb, SellSigma8, VecView, VecViewMut,
};

use crate::gen::{assemble, make_x, MatrixCase, XClass, X_CLASSES};

/// The eight formats under differential test.  CSR is one of them: its
/// SIMD tiers and pooled paths meet its own scalar tier, the oracle.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum FormatKind {
    Csr,
    Sell4,
    Sell8,
    Sell16,
    SellEsb,
    SellSigma8,
    Baij2,
    Sbaij2,
}

/// All eight, in sweep order.
pub const FORMATS: [FormatKind; 8] = [
    FormatKind::Csr,
    FormatKind::Sell4,
    FormatKind::Sell8,
    FormatKind::Sell16,
    FormatKind::SellEsb,
    FormatKind::SellSigma8,
    FormatKind::Baij2,
    FormatKind::Sbaij2,
];

impl FormatKind {
    /// Short stable name for reports.
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
    pub(crate) fn block_filled(self) -> bool {
        matches!(self, FormatKind::Baij2 | FormatKind::Sbaij2)
    }

    /// Whether a product can be forced to one ISA tier
    /// ([`Format::with_isa`]): every format but the block ones, whose
    /// kernels have a single tier.
    pub(crate) fn has_tiers(self) -> bool {
        !self.block_filled()
    }

    /// Whether this format can store values under `codec` — only the
    /// SELL family (and its σ-sorted wrapper) has a packed-value path.
    pub(crate) fn supports_codec(self, codec: Codec) -> bool {
        codec == Codec::F64
            || matches!(
                self,
                FormatKind::Sell4 | FormatKind::Sell8 | FormatKind::Sell16 | FormatKind::SellSigma8
            )
    }
}

/// One self-contained product: everything needed to rebuild and re-run a
/// single cell of the walk.  A walk builds several thousand of these per
/// case, so the triplets and the vector are shared, not copied.
#[derive(Clone, Debug)]
pub struct Repro {
    pub nrows: usize,
    pub ncols: usize,
    pub entries: Arc<[(u32, u32, f64)]>,
    pub x: Arc<[f64]>,
    pub format: FormatKind,
    /// Pool size of a default-tier product; `1` under a forced tier.
    pub threads: usize,
    /// [`Apply::Set`], or [`Apply::Add`] onto a zeroed `y`.
    pub mode: Apply,
    /// `Some(tier)` forces the tier ([`Format::with_isa`]) on a serial
    /// context; `None` runs the format's default dispatch on the pool of
    /// `threads` lanes.
    pub isa: Option<Isa>,
    /// Right-hand-side block width: `1` is classic SpMV; `k > 1` is the
    /// blocked product, `x` holding `k` row-interleaved vectors
    /// (`x[col*k + v]`), compared column by column with the scalar-CSR
    /// oracle.
    pub k: usize,
    /// Value codec for the packed SELL formats; `Codec::F64` everywhere
    /// else.  A reduced codec switches the oracle to the scalar-CSR
    /// product over the **codec-quantized** matrix (see `quantize_csr`).
    pub codec: Codec,
}

impl Repro {
    /// `format[codec]@path k=… mode` — the cell of the walk `self` runs.
    pub fn cell(&self) -> String {
        let path = match self.isa {
            Some(tier) => tier.to_string(),
            None => format!("{}t", self.threads),
        };
        format!(
            "{}[{}]@{path} k={} {:?}",
            self.format.name(),
            self.codec.label(),
            self.k,
            self.mode
        )
    }
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
    /// Pool sizes of the default-tier paths.
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
pub(crate) fn ulp_distance(a: f64, b: f64) -> u64 {
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
pub(crate) fn block_closure(a: &Csr, bs: usize) -> Csr {
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

/// What the engine asks of a format under test: the product, the
/// structural check, and a forced ISA tier.
pub trait Format: Operator + Validate {
    /// `self` with every later product run at `tier` — the format's own
    /// `with_isa`.  The block formats (`FormatKind::has_tiers` is
    /// false) have one kernel and come back unchanged.
    fn with_isa(self: Box<Self>, tier: Isa) -> Box<dyn Format>;
}

macro_rules! tiered {
    ($($t:ty),*) => {$(
        impl Format for $t {
            fn with_isa(self: Box<Self>, tier: Isa) -> Box<dyn Format> {
                Box::new(<$t>::with_isa(*self, tier))
            }
        }
    )*};
}
tiered!(Csr, Sell4, Sell8, Sell16, SellEsb, SellSigma8);

impl Format for Baij {
    fn with_isa(self: Box<Self>, _: Isa) -> Box<dyn Format> {
        self
    }
}

impl Format for Sbaij {
    fn with_isa(self: Box<Self>, _: Isa) -> Box<dyn Format> {
        self
    }
}

/// Boxes one concrete format built from `a` under `codec` (only the
/// SELL family stores reduced-precision values; every other kind
/// requires `Codec::F64`, enforced by `FormatKind::supports_codec`).
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

/// `r`'s format built from `a`, forced to `r.isa` when it names a tier.
fn build_path(r: &Repro, a: &Csr) -> Box<dyn Format> {
    let m = build_format(r.format, a, r.codec);
    match r.isa {
        Some(tier) => m.with_isa(tier),
        None => m,
    }
}

/// Structural validation via sellkit-check: each stream the format holds,
/// the packed value bytes included when `codec` is reduced.
/// `Some(detail)` on a violation or a panic in the build or the check.
fn layout_fails(kind: FormatKind, a: &Csr, codec: Codec) -> Option<String> {
    match catch_unwind(AssertUnwindSafe(|| build_format(kind, a, codec).validate())) {
        Ok(Ok(())) => None,
        Ok(Err(e)) => Some(format!("validation: {e:?}")),
        Err(p) => Some(format!("panic in build/validate: {}", panic_msg(&p))),
    }
}

/// Scalar CSR over the codec-quantized values — the oracle matrix for a
/// packed repro.  The packed bytes are encoded with the rounding of
/// `codec.quantize(v)`, so packed kernels decode **bit-exactly** to this
/// matrix: the codec's unit roundoff enters the comparison through the
/// oracle's values, not a loosened tolerance, and the standard
/// class-first + ULP policy stays as tight as the f64 sweep.
pub(crate) fn quantize_csr(a: &Csr, codec: Codec) -> Csr {
    let mut b = CooBuilder::with_capacity(a.nrows(), a.ncols(), a.nnz());
    for i in 0..a.nrows() {
        for (k, &c) in a.row_cols(i).iter().enumerate() {
            b.push(i, c as usize, codec.quantize(a.row_vals(i)[k]));
        }
    }
    b.to_csr()
}

/// One row of the walk: the codecs it stores values under, the block
/// widths it multiplies, and the salt of its vectors' RNG stream.
#[derive(Clone, Copy, Debug)]
pub struct Row {
    codecs: &'static [Codec],
    ks: &'static [usize],
    salt: u64,
}

impl fmt::Display for Row {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let codecs: Vec<&str> = self.codecs.iter().map(|c| c.label()).collect();
        write!(f, "{} k={:?}", codecs.join(","), self.ks)
    }
}

/// Block widths of the SpMM row: every monomorphized size (1, 2, 4, 8)
/// plus a ragged `k = 7` that exercises the masked tail of each vector
/// tier's column-block loop.
pub(crate) const SPMM_KS: [usize; 5] = [1, 2, 4, 7, 8];

/// The reduced-precision codecs under differential test.
pub const CODECS: [Codec; 2] = [Codec::F32, Codec::Bf16];

/// The walk's rows: f64 SpMV, f64 SpMM at every `SPMM_KS` width, and
/// the packed [`CODECS`] at SpMV and a ragged `k = 3` (against the
/// scalar-CSR oracle over the codec-quantized matrix, see
/// `quantize_csr`).  Every width reuses the NaN/Inf hazard classes, so
/// the §5.5 sentinel-padding fix is pinned at each: a padded SELL lane
/// must contribute exactly nothing, not `0.0 × Inf`.  `sellkit-fuzz
/// --codec-only` walks the last row alone.
pub const ROWS: [Row; 3] = [
    Row {
        codecs: &[Codec::F64],
        ks: &[1],
        salt: 0x9e37_79b9,
    },
    Row {
        codecs: &[Codec::F64],
        ks: &SPMM_KS,
        salt: 0x5b3c_01d7_44ee_9921,
    },
    Row {
        codecs: &CODECS,
        ks: &[1, 3],
        salt: 0x00de_c0de_00de_c0de,
    },
];

/// Re-runs exactly one `Repro` combination; `Some(detail)` if it still
/// fails.  This is the minimizer's predicate, the confirmation step for
/// every reported finding, and what an emitted test snippet asserts.
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
    if let Some(detail) = layout_fails(r.format, &a, r.codec) {
        return Some(detail);
    }
    if r.x.len() != a.ncols() * r.k {
        // Structural-only repro; nothing numeric to run.
        return None;
    }
    // The build cannot panic: validation just built the same format.
    product_fails(r, &*build_path(r, &a), &oracle_product(r, &a), cfg, ctxs)
}

/// What `r`'s product is compared against, the oracle: the scalar-tier
/// CSR product of each of its `k` vectors on its own — the blocked product
/// must agree with `k` independent single-vector products, column for
/// column — over the oracle matrix of its format and codec.  `y` starts zeroed, so both
/// modes want the same values.  It depends on `r`'s `x`, `k`, codec and
/// whether the format is block-filled, nothing else.
fn oracle_product(r: &Repro, a: &Csr) -> Vec<f64> {
    let k = r.k;
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
        oracle_mat.spmv_isa(Isa::Scalar, &xcol, &mut wcol);
        for (i, wc) in wcol.iter().enumerate() {
            want[i * k + v] = *wc;
        }
    }
    want
}

/// Runs `r`'s product on `m` (built by [`build_path`]) into a zeroed `y`
/// and compares it with `want` ([`oracle_product`]); `Some(detail)` on a
/// panic or a disagreement.
fn product_fails(
    r: &Repro,
    m: &dyn Format,
    want: &[f64],
    cfg: &Config,
    ctxs: &Ctxs,
) -> Option<String> {
    let run = catch_unwind(AssertUnwindSafe(|| {
        let serial = ExecCtx::serial();
        let ctx = match r.isa {
            Some(_) => &serial,
            None => ctxs.get(r.threads),
        };
        let mut y = vec![0.0; want.len()];
        m.apply(
            ctx,
            VecView::blocked(&r.x, r.k),
            VecViewMut::blocked(&mut y, r.k),
            r.mode,
        );
        y
    }));
    match run {
        Ok(y) => compare(&y, want, cfg),
        Err(p) => Some(format!("panic in product: {}", panic_msg(&p))),
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

/// The structural-only repro of `case` (empty `x`, serial f64 CSR SpMV):
/// the walk derives every combination from it by struct update, sharing
/// its triplets.
fn base_repro(case: &MatrixCase) -> Repro {
    Repro {
        nrows: case.nrows,
        ncols: case.ncols,
        entries: case.entries.as_slice().into(),
        x: Arc::new([]),
        format: FormatKind::Csr,
        threads: 1,
        mode: Apply::Set,
        isa: None,
        k: 1,
        codec: Codec::F64,
    }
}

/// Every cell `rows` ask of `case` (assembled as `a`), with the hazard
/// class of its vector: row × codec × format × path × class × width ×
/// mode.  The vectors of a row are
/// drawn once and shared by its codecs, formats and paths; the cells of a
/// path are adjacent, so the walk builds each path's matrix once.
fn combinations(
    case: &MatrixCase,
    a: &Csr,
    rows: &[Row],
    threads: &[usize],
    seed: u64,
) -> Vec<(XClass, Repro)> {
    let base = base_repro(case);
    let mut out = Vec::new();
    for row in rows {
        let mut xrng = StdRng::seed_from_u64(seed ^ row.salt);
        let mut xs: Vec<(XClass, usize, Arc<[f64]>)> = Vec::new();
        for class in X_CLASSES {
            for &k in row.ks {
                // One independent hazard-class column per RHS,
                // row-interleaved into the blocked layout (`x[col*k + v]`).
                let mut x = vec![0.0; a.ncols() * k];
                for v in 0..k {
                    for (i, xi) in make_x(class, a.ncols(), &mut xrng).into_iter().enumerate() {
                        x[i * k + v] = xi;
                    }
                }
                xs.push((class, k, x.into()));
            }
        }
        for &codec in row.codecs {
            for format in FORMATS {
                if !format.supports(a, case.symmetric) || !format.supports_codec(codec) {
                    continue;
                }
                let tiers = if format.has_tiers() {
                    Isa::available_tiers()
                } else {
                    Vec::new()
                };
                let paths = tiers
                    .into_iter()
                    .map(|tier| (Some(tier), 1))
                    .chain(threads.iter().map(|&t| (None, t)));
                for (isa, threads) in paths {
                    for &(class, k, ref x) in &xs {
                        for mode in [Apply::Set, Apply::Add] {
                            let r = Repro {
                                x: x.clone(),
                                format,
                                threads,
                                mode,
                                isa,
                                k,
                                codec,
                                ..base.clone()
                            };
                            out.push((class, r));
                        }
                    }
                }
            }
        }
    }
    out
}

/// The layout and forced tier a walk's matrix was built for.
type Path = (FormatKind, Codec, Option<Isa>);

/// The oracle matrix a cell meets: block closure or not, and the codec.
type OracleMat = (bool, Codec);

/// What one case's walk found, and how many products it compared.
pub struct Sweep {
    pub findings: Vec<Finding>,
    pub products: usize,
}

/// Walks `rows` over one matrix case: every format that holds it under
/// each codec is validated stream by stream, then every cell of
/// `combinations` is run against the oracle.  Returns every finding.
pub fn run_case(case: &MatrixCase, rows: &[Row], cfg: &Config, ctxs: &Ctxs, seed: u64) -> Sweep {
    let finding = |detail: String, repro: Repro| Finding {
        case_name: case.name.clone(),
        detail,
        repro,
    };
    let a = match catch_unwind(AssertUnwindSafe(|| case.to_csr())) {
        Ok(a) => a,
        Err(p) => {
            let detail = format!("panic assembling CSR: {}", panic_msg(&p));
            return Sweep {
                findings: vec![finding(detail, base_repro(case))],
                products: 0,
            };
        }
    };
    let cells = combinations(case, &a, rows, &cfg.threads, seed);

    // Structural invariants first: a silently corrupt layout would make
    // every numeric comparison noise, so its products are skipped.
    let mut findings = Vec::new();
    let mut checked: Vec<(FormatKind, Codec)> = Vec::new();
    let mut broken = Vec::new();
    for (_, r) in &cells {
        let layout = (r.format, r.codec);
        if checked.contains(&layout) {
            continue;
        }
        checked.push(layout);
        if let Some(detail) = layout_fails(r.format, &a, r.codec) {
            broken.push(layout);
            let detail = format!("{}[{}]: {detail}", r.format.name(), r.codec.label());
            let repro = Repro {
                format: r.format,
                codec: r.codec,
                ..base_repro(case)
            };
            findings.push(finding(detail, repro));
        }
    }

    // Each oracle product is computed once per (vector, oracle matrix),
    // each path's matrix once per run of its adjacent cells.
    let mut wants: Vec<(Arc<[f64]>, OracleMat, Vec<f64>)> = Vec::new();
    let mut built: Option<(Path, Box<dyn Format>)> = None;
    let mut products = 0;
    for (class, r) in &cells {
        if broken.contains(&(r.format, r.codec)) {
            continue;
        }
        let path = (r.format, r.codec, r.isa);
        let m = match built.take() {
            Some((p, m)) if p == path => m,
            // Validation built the same layout, so this cannot panic.
            _ => build_path(r, &a),
        };
        let mat = (r.format.block_filled(), r.codec);
        let at = match wants
            .iter()
            .position(|w| Arc::ptr_eq(&w.0, &r.x) && w.1 == mat)
        {
            Some(at) => at,
            None => {
                wants.push((r.x.clone(), mat, oracle_product(r, &a)));
                wants.len() - 1
            }
        };
        products += 1;
        if let Some(d) = product_fails(r, &*m, &wants[at].2, cfg, ctxs) {
            let detail = format!("{} x={class:?}: {d}", r.cell());
            findings.push(finding(detail, r.clone()));
        }
        built = Some((path, m));
    }
    Sweep { findings, products }
}

/// Shape-only sweep at near-`u32::MAX` dimensions: builders and
/// validators must survive sentinel/index arithmetic at the edge of the
/// 32-bit column space (no product — `x` would need 32 GiB).
pub fn run_huge_shape_case() -> Vec<Finding> {
    let case = MatrixCase {
        name: "huge_shape".into(),
        nrows: 3,
        ncols: u32::MAX as usize, // the sentinel becomes u32::MAX itself
        entries: vec![(0, u32::MAX - 1, 1.0), (1, u32::MAX - 2, -2.0), (2, 0, 0.5)],
        symmetric: false,
    };
    let fail = |format: FormatKind, detail: String| Finding {
        case_name: case.name.clone(),
        detail: format!("{}: {detail}", format.name()),
        repro: Repro {
            format,
            ..base_repro(&case)
        },
    };
    let a = match catch_unwind(AssertUnwindSafe(|| case.to_csr())) {
        Ok(a) => a,
        Err(p) => return vec![fail(FormatKind::Csr, panic_msg(&p))],
    };
    // Three rows: the block formats cannot hold this shape.
    FORMATS
        .into_iter()
        .filter(|format| format.supports(&a, false))
        .filter_map(|format| Some(fail(format, layout_fails(format, &a, Codec::F64)?)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::build;
    use std::collections::HashSet;

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
            let findings = run_case(&case, &ROWS, &cfg, &ctxs, 42).findings;
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
        // One seed per hazard family through the codec row: every packed
        // format × {f32, bf16} × path must agree with the quantized-CSR
        // oracle and validate stream by stream.
        let cfg = Config {
            threads: vec![1, 2],
            ..Config::default()
        };
        let ctxs = Ctxs::new(&cfg.threads);
        for family in ["empty", "dense_row", "tail8", "dup_unsorted"] {
            let case = build(family, 7);
            let findings = run_case(&case, &ROWS[2..], &cfg, &ctxs, 7).findings;
            assert!(
                findings.is_empty(),
                "{family}: {:?}",
                findings.iter().map(|f| &f.detail).collect::<Vec<_>>()
            );
        }
    }

    /// A cell of the walk: (format, codec, k, forced tier, pool size, add).
    type Cell = (FormatKind, Codec, usize, Option<Isa>, usize, bool);

    #[test]
    fn the_walk_covers_every_cell_of_the_three_parent_sweeps() {
        let threads = [1usize, 3];
        let case = build("symmetric", 3);
        let a = case.to_csr();
        // Even and symmetric: every format holds it, so no cell is skipped.
        assert!(FORMATS.iter().all(|f| f.supports(&a, case.symmetric)));
        let walked: HashSet<Cell> = combinations(&case, &a, &ROWS, &threads, 3)
            .iter()
            .map(|(_, r)| {
                (
                    r.format,
                    r.codec,
                    r.k,
                    r.isa,
                    r.threads,
                    r.mode == Apply::Add,
                )
            })
            .collect();

        // The cells of the sweeps this walk replaced, spelled out from
        // their loops: forced tiers ran `Set` only on a serial context,
        // the pools ran both modes at the default tier.
        use FormatKind::*;
        let tiers = Isa::available_tiers();
        let non_csr = [Sell4, Sell8, Sell16, SellEsb, SellSigma8, Baij2, Sbaij2];
        let mut parent: Vec<Cell> = Vec::new();
        let pools = |parent: &mut Vec<Cell>, formats: &[FormatKind], codec, k| {
            for &f in formats {
                for &t in &threads {
                    for add in [false, true] {
                        parent.push((f, codec, k, None, t, add));
                    }
                }
            }
        };
        // SpMV: CSR's tiers, the SELL family and ESB at every tier, pools.
        for &tier in &tiers {
            for f in [Csr, Sell4, Sell8, Sell16, SellEsb] {
                parent.push((f, Codec::F64, 1, Some(tier), 1, false));
            }
        }
        pools(&mut parent, &non_csr, Codec::F64, 1);
        // SpMM: the same at every width, without ESB's tiers.
        for k in SPMM_KS {
            for &tier in &tiers {
                for f in [Csr, Sell4, Sell8, Sell16] {
                    parent.push((f, Codec::F64, k, Some(tier), 1, false));
                }
            }
            pools(&mut parent, &non_csr, Codec::F64, k);
        }
        // Codec: the SELL heights at every tier and k in {1, 3}; the
        // packed formats, σ-sorted included, on the pools at k = 1.
        for codec in [Codec::F32, Codec::Bf16] {
            for &tier in &tiers {
                for k in [1, 3] {
                    for f in [Sell4, Sell8, Sell16] {
                        parent.push((f, codec, k, Some(tier), 1, false));
                    }
                }
            }
            pools(&mut parent, &[Sell4, Sell8, Sell16, SellSigma8], codec, 1);
        }

        let missing: Vec<&Cell> = parent.iter().filter(|c| !walked.contains(c)).collect();
        assert!(missing.is_empty(), "cells the walk lost: {missing:?}");
        assert!(walked.len() > parent.iter().collect::<HashSet<_>>().len());
    }
}
