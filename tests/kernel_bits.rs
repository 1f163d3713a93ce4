//! Golden output bits of every kernel cell, pinned across refactors.
//!
//! `tests/golden/kernel_bits.txt` holds one FNV-1a hash (folded to 32 bits) of `y`'s
//! bit patterns per (matrix family, format, ISA tier, block width `k`,
//! Set/Add) cell — one line per (family, format, tier), one `k<k><s|a>=`
//! token per (k, mode).  Each hash folds two seeds of the family and three
//! input-vector classes (finite, NaN/±Inf planted, signed zeros).  A kernel
//! change that alters any result bit — a different reduction order, FMA
//! where there was mul+add, padding contributing anything but `+0.0` —
//! changes a hash.  The windowed path (a 3-thread [`ExecCtx`], i.e. up to
//! three slice/row windows) is asserted bitwise equal to the whole-matrix
//! path in place, so one hash covers both.
//!
//! NaN *payloads* are canonicalized before hashing: which NaN wins when two
//! meet in one instruction depends on operand order the compiler is free to
//! choose, so only NaN-ness is stable.  Everything else, including the sign
//! of zero, is hashed exactly.
//!
//! Lines for tiers the host lacks are skipped at check time.  To regenerate
//! after an intended change: `cargo test --test kernel_bits -- --ignored
//! bless`, then review the diff of the golden file line by line.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::OnceLock;

use rand::rngs::StdRng;
use rand::SeedableRng;
use sellkit::core::{
    Apply, Codec, CooBuilder, Csr, ExecCtx, Isa, MatShape, Operator, Sell, SellEsb, SellSigma8,
    VecView, VecViewMut,
};
use sellkit_fuzz::gen::{build, make_x, XClass, FAMILIES};

const GOLDEN: &str = include_str!("golden/kernel_bits.txt");
const KS: [usize; 4] = [1, 2, 3, 8];
const X_CLASSES: [XClass; 3] = [XClass::Uniform, XClass::Mixed, XClass::SignedZeros];
const CODECS: [(Codec, &str); 3] = [
    (Codec::F64, "f64"),
    (Codec::F32, "f32"),
    (Codec::Bf16, "bf16"),
];

/// Every hashed/compared value with NaN payloads collapsed.
fn canon_bits(v: f64) -> u64 {
    if v.is_nan() {
        f64::NAN.to_bits()
    } else {
        v.to_bits()
    }
}

fn fnv1a(h: &mut u64, y: &[f64]) {
    for &v in y {
        for b in canon_bits(v).to_le_bytes() {
            *h ^= b as u64;
            *h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// The fuzz families (two seeds each) plus one matrix wide enough that a
/// packed slice must keep 4-byte column indices.
fn matrices(family: &str) -> Vec<Csr> {
    if family == "wide" {
        let n = 70_000usize;
        let mut b = CooBuilder::new(24, n);
        for i in 0..24 {
            b.push(i, i * 3, 1.0 + i as f64);
            if i < 8 {
                b.push(i, n - 1 - i, 0.5 * i as f64);
            }
        }
        return vec![b.to_csr()];
    }
    [1u64, 2]
        .iter()
        .map(|&s| build(family, s).to_csr())
        .collect()
}

/// One format under test: the operator at `tier`.
type Builder = Box<dyn Fn(&Csr, Isa) -> Box<dyn Operator>>;

fn sell_builder<const C: usize>(codec: Codec) -> Builder {
    Box::new(move |a, tier| Box::new(Sell::<C>::from_csr_codec(a, codec).with_isa(tier)))
}

fn formats() -> Vec<(String, Builder)> {
    let mut out: Vec<(String, Builder)> = vec![(
        "csr".into(),
        Box::new(|a, tier| Box::new(a.clone().with_isa(tier))),
    )];
    for (codec, cname) in CODECS {
        out.push((format!("sell4-{cname}"), sell_builder::<4>(codec)));
        out.push((format!("sell8-{cname}"), sell_builder::<8>(codec)));
        out.push((format!("sell16-{cname}"), sell_builder::<16>(codec)));
    }
    out.push((
        "sell8sigma-f64".into(),
        Box::new(|a, tier| Box::new(SellSigma8::from_csr_sigma(a, 16).with_isa(tier))),
    ));
    out.push((
        "esb".into(),
        Box::new(|a, tier| Box::new(SellEsb::from_csr(a).with_isa(tier))),
    ));
    out
}

/// `y0` for a product: a poison value in Set mode (a lane the kernel fails
/// to overwrite shows), a finite pattern with a few `-0.0` in Add mode.
fn y0(len: usize, mode: Apply) -> Vec<f64> {
    (0..len)
        .map(|i| match (mode, i % 5) {
            (Apply::Set, _) => 7.5,
            (Apply::Add, 2) => -0.0,
            (Apply::Add, r) => r as f64 * 0.5 - 1.0,
        })
        .collect()
}

/// The three input blocks of matrix `mi` at block width `k`.
fn inputs(a: &Csr, mi: usize, k: usize) -> Vec<Vec<f64>> {
    let mut rng = StdRng::seed_from_u64(0x5e11 + mi as u64);
    X_CLASSES
        .iter()
        .map(|&class| make_x(class, a.ncols() * k, &mut rng))
        .collect()
}

/// Hash of one (family, format, tier, k, mode) cell, folded to 32 bits;
/// asserts the windowed path reproduces the whole-matrix bits on the way.
/// `ops[mi]` is matrix `mi` with its operator, `xs[mi]` its input blocks.
fn cell(
    ops: &[(&Csr, Box<dyn Operator>)],
    xs: &[Vec<Vec<f64>>],
    k: usize,
    mode: Apply,
    ctx3: &ExecCtx,
    what: &str,
) -> u32 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for (mi, (a, op)) in ops.iter().enumerate() {
        for x in &xs[mi] {
            let mut full = y0(a.nrows() * k, mode);
            let xv = VecView::blocked(x, k);
            op.apply(
                &ExecCtx::serial(),
                xv,
                VecViewMut::blocked(&mut full, k),
                mode,
            );
            let mut win = y0(a.nrows() * k, mode);
            op.apply(ctx3, xv, VecViewMut::blocked(&mut win, k), mode);
            for i in 0..full.len() {
                assert!(
                    canon_bits(full[i]) == canon_bits(win[i]),
                    "{what} matrix {mi}: windowed row {i} {:e} != whole-matrix {:e}",
                    win[i],
                    full[i]
                );
            }
            fnv1a(&mut h, &full);
        }
    }
    (h >> 32) as u32 ^ h as u32
}

/// Every cell the host can run, as golden-file lines keyed by
/// `family format tier` (computed once per test process).
fn cells() -> &'static BTreeMap<String, String> {
    static CELLS: OnceLock<BTreeMap<String, String>> = OnceLock::new();
    CELLS.get_or_init(|| {
        let ctx3 = ExecCtx::new(3);
        let fmts = formats();
        let mut out = BTreeMap::new();
        for family in FAMILIES.iter().copied().chain(["wide"]) {
            let mats = matrices(family);
            let xs: Vec<Vec<Vec<Vec<f64>>>> = KS
                .iter()
                .map(|&k| {
                    mats.iter()
                        .enumerate()
                        .map(|(mi, a)| inputs(a, mi, k))
                        .collect()
                })
                .collect();
            for (fname, build_op) in &fmts {
                for tier in Isa::available_tiers() {
                    let ops: Vec<_> = mats.iter().map(|a| (a, build_op(a, tier))).collect();
                    let key = format!("{family} {fname} {tier}");
                    let mut tokens = String::new();
                    for (ki, k) in KS.into_iter().enumerate() {
                        for (mode, m) in [(Apply::Set, 's'), (Apply::Add, 'a')] {
                            let what = format!("{key} k{k}{m}");
                            let h = cell(&ops, &xs[ki], k, mode, &ctx3, &what);
                            write!(tokens, " k{k}{m}={h:08x}").expect("write to String");
                        }
                    }
                    out.insert(key, tokens);
                }
            }
        }
        out
    })
}

fn parse_golden() -> BTreeMap<String, String> {
    GOLDEN
        .lines()
        .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
        .map(|l| {
            let cut = l.match_indices(' ').nth(2).map_or(l.len(), |(i, _)| i);
            (l[..cut].to_string(), l[cut..].to_string())
        })
        .collect()
}

fn host_has(key: &str) -> bool {
    let tier = key.rsplit(' ').next().expect("key has a tier");
    Isa::available_tiers().iter().any(|t| t.to_string() == tier)
}

#[test]
fn kernel_output_bits_match_the_golden_file() {
    let golden = parse_golden();
    let got = cells();
    let mut bad = Vec::new();
    for (key, tokens) in got {
        let Some(want) = golden.get(key) else {
            bad.push(format!("{key}: missing from the golden file"));
            continue;
        };
        let want: BTreeMap<&str, &str> = want
            .split_whitespace()
            .filter_map(|t| t.split_once('='))
            .collect();
        for (cell, h) in tokens.split_whitespace().filter_map(|t| t.split_once('=')) {
            match want.get(cell) {
                Some(w) if *w == h => {}
                Some(w) => bad.push(format!("{key} {cell}: {h} != golden {w}")),
                None => bad.push(format!("{key} {cell}: missing from the golden file")),
            }
        }
    }
    for key in golden.keys().filter(|k| host_has(k)) {
        if !got.contains_key(key) {
            bad.push(format!("{key}: in the golden file but no longer computed"));
        }
    }
    assert!(
        bad.is_empty(),
        "{} cell(s) changed bits:\n{}",
        bad.len(),
        bad.join("\n")
    );
}

/// SELL-4/8/16 of the same matrix are bitwise equal at every tier, codec,
/// block width and mode: a row's products are accumulated in storage order
/// in its own lane whatever the slice height, and the extra padding a
/// taller slice brings contributes exactly `+0.0`.
#[test]
fn slice_height_does_not_change_a_single_bit() {
    let cells = cells();
    for (key, tokens) in cells {
        let Some((family, rest)) = key.split_once(" sell8-") else {
            continue;
        };
        for c in [4, 16] {
            let other = format!("{family} sell{c}-{rest}");
            assert_eq!(cells[&other], *tokens, "{other} vs {key}");
        }
    }
}

/// SELL-ESB and SELL-8 are bitwise equal at every tier wherever ESB runs
/// the same accumulation: a masked-off lane and a `+0.0` padding product
/// leave the same accumulator.  (`k >= 2` Add differs: ESB runs blocks
/// column by column, adding `y` last, where SELL SpMM preloads it.)
#[test]
fn esb_equals_sell8_bit_for_bit() {
    let cells = cells();
    let token = |line: &str, cell: &str| {
        let t = line.split_whitespace().find(|t| t.starts_with(cell));
        t.unwrap_or_else(|| panic!("{cell} missing from {line}"))
            .to_string()
    };
    for (key, tokens) in cells {
        let Some((family, tier)) = key.split_once(" esb ") else {
            continue;
        };
        let sell = &cells[&format!("{family} sell8-f64 {tier}")];
        for cell in ["k1s=", "k1a=", "k2s=", "k3s=", "k8s="] {
            assert_eq!(token(tokens, cell), token(sell, cell), "{key} vs sell8-f64");
        }
    }
}

/// Rewrites the golden file from the kernels as they are now, keeping the
/// lines of tiers this host cannot run.
#[test]
#[ignore = "regenerates tests/golden/kernel_bits.txt"]
fn bless() {
    let mut lines = parse_golden();
    lines.retain(|k, _| !host_has(k));
    lines.extend(cells().clone());
    let mut text = String::from(
        "# FNV-1a hashes of y's bit patterns (NaN payloads canonicalized); see tests/kernel_bits.rs.\n\
         # family format tier  k<k><s|a>=hash ...\n",
    );
    for (key, tokens) in &lines {
        writeln!(text, "{key}{tokens}").expect("write to String");
    }
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/kernel_bits.txt");
    std::fs::write(path, text).expect("golden file writable");
}
