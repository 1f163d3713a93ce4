//! Adversarial matrix and vector generators.
//!
//! Every generator is deterministic per `(family, seed)`, so a corpus
//! line reproduces its case forever.  The families target the known
//! hazard surface of padded SIMD SpMV formats:
//!
//! * shape degeneracies — empty matrix, all-empty rows, single column,
//!   a lone dense row among empties, rectangular extremes;
//! * slice-tail raggedness — `nrows % C ∈ 1..C` for every slice height;
//! * index-form boundaries — slices whose live columns span exactly
//!   `0xFFFD`, `0xFFFE` (2-byte offsets, the largest next to the `0xFFFF`
//!   padding sentinel) and `0xFFFF` (must keep 4-byte indices);
//! * assembly hazards — duplicated and unsorted COO input;
//! * value hazards — vectors carrying NaN, ±Inf, subnormals, and signed
//!   zeros that padded lanes must never touch.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sellkit_core::{CooBuilder, Csr};

/// A generated matrix under test, kept as raw COO so the assembly path
/// (sorting, duplicate merge) is part of the tested surface.
#[derive(Clone, Debug)]
pub struct MatrixCase {
    /// `family:seed` label for reports.
    pub name: String,
    pub nrows: usize,
    pub ncols: usize,
    /// Raw triplets in *push order* — duplicates and disorder preserved.
    pub entries: Vec<(u32, u32, f64)>,
    /// Whether the pattern and values are symmetric (enables SBAIJ).
    pub symmetric: bool,
}

impl MatrixCase {
    /// Assembles through the production `CooBuilder` path.
    pub fn to_csr(&self) -> Csr {
        assemble(self.nrows, self.ncols, &self.entries)
    }
}

/// Assembles triplets (in push order) through the production `CooBuilder`
/// path.
pub fn assemble(nrows: usize, ncols: usize, entries: &[(u32, u32, f64)]) -> Csr {
    let mut b = CooBuilder::new(nrows, ncols);
    for &(i, j, v) in entries {
        b.push(i as usize, j as usize, v);
    }
    b.to_csr()
}

/// Every generator family the corpus can name.
pub const FAMILIES: &[&str] = &[
    "empty",
    "all_empty",
    "dense_row",
    "single_col",
    "tail4",
    "tail8",
    "tail16",
    "dup_unsorted",
    "rect_wide",
    "rect_tall",
    "random",
    "power_law",
    "banded",
    "symmetric",
    "narrow_edge",
];

/// Builds the matrix for a corpus `(family, seed)` pair.
///
/// # Panics
/// On an unknown family name — corpus files are validated input.
pub fn build(family: &str, seed: u64) -> MatrixCase {
    let mut rng = StdRng::seed_from_u64(seed ^ hash_family(family));
    let name = format!("{family}:{seed}");
    match family {
        "empty" => MatrixCase {
            name,
            nrows: 0,
            ncols: 0,
            entries: vec![],
            symmetric: true,
        },
        "all_empty" => {
            // Nonzero shape, zero entries; odd row count leaves ragged
            // tails in every SELL width.
            let n = 2 * rng.gen_range(1usize..16) + 1;
            MatrixCase {
                name,
                nrows: n + 1, // even, so block formats participate
                ncols: n + 1,
                entries: vec![],
                symmetric: true,
            }
        }
        "dense_row" => {
            // One dense row among empties: maximal padding skew.
            let n = 2 * rng.gen_range(2usize..20);
            let hot = rng.gen_range(0usize..n) as u32;
            let entries = (0..n as u32)
                .map(|j| (hot, j, small_val(&mut rng)))
                .collect();
            MatrixCase {
                name,
                nrows: n,
                ncols: n,
                entries,
                symmetric: false,
            }
        }
        "single_col" => {
            // Every row references the same single column.
            let n = 2 * rng.gen_range(1usize..20);
            let col = rng.gen_range(0usize..n) as u32;
            let entries = (0..n as u32)
                .map(|i| (i, col, small_val(&mut rng)))
                .collect();
            MatrixCase {
                name,
                nrows: n,
                ncols: n,
                entries,
                symmetric: false,
            }
        }
        "tail4" => tail_case(name, 4, &mut rng),
        "tail8" => tail_case(name, 8, &mut rng),
        "tail16" => tail_case(name, 16, &mut rng),
        "dup_unsorted" => {
            // Heavy duplication, pushed in reverse/shuffled order.
            let n = 2 * rng.gen_range(2usize..14);
            let mut entries: Vec<(u32, u32, f64)> = Vec::new();
            let raw = rng.gen_range(10usize..120);
            for _ in 0..raw {
                let i = rng.gen_range(0usize..n) as u32;
                let j = rng.gen_range(0usize..n) as u32;
                let v = small_val(&mut rng);
                let dups = rng.gen_range(1usize..4);
                for _ in 0..dups {
                    entries.push((i, j, v));
                }
            }
            entries.reverse();
            MatrixCase {
                name,
                nrows: n,
                ncols: n,
                entries,
                symmetric: false,
            }
        }
        "rect_wide" => rect_case(
            name,
            rng.gen_range(1usize..9),
            rng.gen_range(20usize..64),
            &mut rng,
        ),
        "rect_tall" => rect_case(
            name,
            rng.gen_range(20usize..64),
            rng.gen_range(1usize..9),
            &mut rng,
        ),
        "random" => {
            let n = 2 * rng.gen_range(1usize..24);
            let nnz = rng.gen_range(0usize..(4 * n + 1));
            let entries = (0..nnz)
                .map(|_| {
                    (
                        rng.gen_range(0usize..n) as u32,
                        rng.gen_range(0usize..n) as u32,
                        small_val(&mut rng),
                    )
                })
                .collect();
            MatrixCase {
                name,
                nrows: n,
                ncols: n,
                entries,
                symmetric: false,
            }
        }
        "power_law" => {
            // Row lengths ~ 1/rank: a few hub rows, a long tail of
            // single-entry rows — the SELL-C-σ motivating distribution.
            let n = 2 * rng.gen_range(4usize..24);
            let mut entries = Vec::new();
            for i in 0..n {
                let len = (n / (i + 1)).clamp(1, n);
                for _ in 0..len {
                    entries.push((
                        i as u32,
                        rng.gen_range(0usize..n) as u32,
                        small_val(&mut rng),
                    ));
                }
            }
            MatrixCase {
                name,
                nrows: n,
                ncols: n,
                entries,
                symmetric: false,
            }
        }
        "banded" => {
            let n = 2 * rng.gen_range(3usize..24);
            let band = rng.gen_range(1usize..4);
            let mut entries = Vec::new();
            for i in 0..n {
                for d in 0..=band {
                    entries.push((i as u32, ((i + d) % n) as u32, small_val(&mut rng)));
                }
            }
            MatrixCase {
                name,
                nrows: n,
                ncols: n,
                entries,
                symmetric: false,
            }
        }
        "symmetric" => {
            // Structurally and numerically symmetric — the SBAIJ family.
            let n = 2 * rng.gen_range(2usize..16);
            let mut entries = Vec::new();
            for i in 0..n {
                entries.push((i as u32, i as u32, small_val(&mut rng).abs() + 1.0));
            }
            let off = rng.gen_range(0usize..(2 * n));
            for _ in 0..off {
                let i = rng.gen_range(0usize..n);
                let j = rng.gen_range(0usize..n);
                if i != j {
                    let v = small_val(&mut rng);
                    entries.push((i as u32, j as u32, v));
                    entries.push((j as u32, i as u32, v));
                }
            }
            MatrixCase {
                name,
                nrows: n,
                ncols: n,
                entries,
                symmetric: true,
            }
        }
        "narrow_edge" => narrow_edge_case(name, &mut rng),
        other => panic!("unknown fuzz family {other:?} (known: {FAMILIES:?})"),
    }
}

/// `nrows % C` sweeps every residue 1..C as seeds advance, with skewed
/// row lengths concentrated in the final (partial) slice.
fn tail_case(name: String, c: usize, rng: &mut StdRng) -> MatrixCase {
    let rem = 1 + (rng.gen_range(0usize..(c - 1)));
    let slices = rng.gen_range(1usize..4);
    let n = slices * c + rem;
    let mut entries = Vec::new();
    for i in 0..n {
        let len = if i >= slices * c {
            // Tail rows: long, so the partial slice carries real work.
            rng.gen_range(1usize..(n.min(8) + 1))
        } else {
            rng.gen_range(0usize..3)
        };
        for _ in 0..len {
            entries.push((i as u32, rng.gen_range(0usize..n) as u32, small_val(rng)));
        }
    }
    MatrixCase {
        name,
        nrows: n,
        ncols: n,
        entries,
        symmetric: false,
    }
}

/// The boundaries of SELL's per-slice narrow (u16 offset) index form.
///
/// Rows come in groups of 16 — one SELL-16 slice, two SELL-8, four SELL-4 —
/// and one *hot* row per group holds the first and the last column of the
/// group's span (plus a few between, so every other lane of its slice is
/// padded), the other rows staying inside it: whatever the slice height,
/// the slice with the hot row has exactly that span and the group's other
/// slices are narrower or empty.  In order: span `0xFFFD` (narrow), span
/// `0xFFFE` (narrow, the largest live offset sits next to the `0xFFFF`
/// sentinel), span `0xFFFF` (must go wide), an empty group (all-padding
/// slices: narrow, base 0), span `0xFFFE` ending on `ncols − 1`, and a
/// ragged last slice of span `0xFFFD`.
fn narrow_edge_case(name: String, rng: &mut StdRng) -> MatrixCase {
    const GROUP: usize = 16;
    let ncols = 0x1_0000 + 2 * rng.gen_range(1usize..32);
    let tail = rng.gen_range(1usize..GROUP);
    let last = ncols as u32 - 1;
    // (first column, span) per group; the final one is the ragged tail.
    let groups = [
        Some((rng.gen_range(0u32..3), 0xFFFD)),
        Some((rng.gen_range(0u32..3), 0xFFFE)),
        Some((rng.gen_range(0u32..3), 0xFFFF)),
        None,
        Some((last - 0xFFFE, 0xFFFE)),
        Some((rng.gen_range(0u32..3), 0xFFFD)),
    ];
    let nrows = (groups.len() - 1) * GROUP + tail;
    let mut entries = Vec::new();
    for (g, group) in groups.iter().enumerate() {
        let Some((lo, span)) = *group else { continue };
        let rows = g * GROUP..nrows.min((g + 1) * GROUP);
        let hot = rng.gen_range(rows.clone());
        for row in rows {
            let inside = if row == hot {
                entries.push((row as u32, lo, small_val(rng)));
                entries.push((row as u32, lo + span, small_val(rng)));
                rng.gen_range(2usize..5)
            } else {
                rng.gen_range(0usize..3)
            };
            for _ in 0..inside {
                entries.push((row as u32, lo + rng.gen_range(0..span + 1), small_val(rng)));
            }
        }
    }
    MatrixCase {
        name,
        nrows,
        ncols,
        entries,
        symmetric: false,
    }
}

fn rect_case(name: String, m: usize, n: usize, rng: &mut StdRng) -> MatrixCase {
    let nnz = rng.gen_range(0usize..(2 * (m + n)));
    let entries = (0..nnz)
        .map(|_| {
            (
                rng.gen_range(0usize..m) as u32,
                rng.gen_range(0usize..n) as u32,
                small_val(rng),
            )
        })
        .collect();
    MatrixCase {
        name,
        nrows: m,
        ncols: n,
        entries,
        symmetric: false,
    }
}

/// Values bounded well away from overflow so that the *class* (finite /
/// ±Inf / NaN) of any partial sum is order-independent.
fn small_val(rng: &mut StdRng) -> f64 {
    let v = rng.gen_range(-8.0f64..8.0);
    // Snap a third of the values to exact small numbers: exact products
    // make more comparisons bitwise-tight.
    match rng.gen_range(0u32..3) {
        0 => v.round(),
        _ => v,
    }
}

/// The input-vector hazard classes the engine sweeps per matrix.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum XClass {
    /// Plain finite values.
    Uniform,
    /// A NaN planted in one referenced column.
    NanAt,
    /// +Inf planted in one column.
    InfAt,
    /// −Inf planted in one column.
    NegInfAt,
    /// Every entry +Inf.
    AllInf,
    /// Deep-subnormal magnitudes (gradual underflow).
    Subnormal,
    /// Alternating ±0.0.
    SignedZeros,
    /// Finite values mixed with one NaN, one +Inf, and one −Inf.
    Mixed,
}

/// All hazard classes, in sweep order.
pub const X_CLASSES: [XClass; 8] = [
    XClass::Uniform,
    XClass::NanAt,
    XClass::InfAt,
    XClass::NegInfAt,
    XClass::AllInf,
    XClass::Subnormal,
    XClass::SignedZeros,
    XClass::Mixed,
];

/// Materializes an input vector of the given class.
pub fn make_x(class: XClass, ncols: usize, rng: &mut StdRng) -> Vec<f64> {
    let mut x: Vec<f64> = (0..ncols)
        .map(|i| ((i % 7) as f64) * 0.25 - 0.75 + rng.gen_range(-1.0f64..1.0).round())
        .collect();
    if ncols == 0 {
        return x;
    }
    match class {
        XClass::Uniform => {}
        XClass::NanAt => x[rng.gen_range(0usize..ncols)] = f64::NAN,
        XClass::InfAt => x[rng.gen_range(0usize..ncols)] = f64::INFINITY,
        XClass::NegInfAt => x[rng.gen_range(0usize..ncols)] = f64::NEG_INFINITY,
        XClass::AllInf => x.iter_mut().for_each(|v| *v = f64::INFINITY),
        XClass::Subnormal => {
            let grain = f64::MIN_POSITIVE / 64.0;
            for (i, v) in x.iter_mut().enumerate() {
                *v = (i % 9) as f64 * grain;
            }
        }
        XClass::SignedZeros => {
            for (i, v) in x.iter_mut().enumerate() {
                *v = if i % 2 == 0 { 0.0 } else { -0.0 };
            }
        }
        XClass::Mixed => {
            x[rng.gen_range(0usize..ncols)] = f64::NAN;
            x[rng.gen_range(0usize..ncols)] = f64::INFINITY;
            x[rng.gen_range(0usize..ncols)] = f64::NEG_INFINITY;
        }
    }
    x
}

/// Cheap deterministic string hash (FNV-1a) decorrelating the random
/// streams of different families at the same seed.
fn hash_family(family: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in family.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}
