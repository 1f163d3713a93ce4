//! Shrinking minimizer: reduces a failing [`Repro`] to a (locally)
//! minimal one and renders it as a self-contained Rust test snippet.
//!
//! The strategy is ddmin-flavoured greedy reduction, re-running the
//! failure predicate (the binary passes [`crate::diff::repro_fails`])
//! after every step:
//!
//! 1. drop chunks of COO entries (halving granularity, then singles);
//! 2. shrink the dimensions to the live bounding box;
//! 3. simplify surviving values to `1.0` where the failure persists;
//! 4. simplify `x` — finite entries to `1.0`/`0.0`, specials kept;
//! 5. minimize the thread count.

use std::sync::Arc;

use crate::diff::Repro;

/// Greedily shrinks `r`, preserving "still `fails`"; step 5 tries the
/// pool sizes in `threads`.  Returns the smaller repro and the (possibly
/// changed) failure detail.
pub fn minimize(
    r: &Repro,
    threads: &[usize],
    mut fails: impl FnMut(&Repro) -> Option<String>,
) -> (Repro, String) {
    let mut cur = r.clone();
    // Validation-only repros carry an empty `x` (and possibly enormous
    // ncols); never materialize a vector for them.
    let numeric = r.x.len() == r.ncols * r.k;
    let mut detail = fails(&cur).unwrap_or_else(|| {
        // Not reproducible in isolation (e.g. flaky scheduling): keep the
        // original so the report still carries the full input.
        "original failure did not re-fire during minimization".to_string()
    });

    // 1. Entry reduction, coarse to fine.
    let mut chunk = (cur.entries.len() / 2).max(1);
    while chunk >= 1 && !cur.entries.is_empty() {
        let mut i = 0;
        let mut progressed = false;
        while i < cur.entries.len() {
            let mut cand = cur.clone();
            let hi = (i + chunk).min(cur.entries.len());
            cand.entries = [&cur.entries[..i], &cur.entries[hi..]].concat().into();
            if let Some(d) = fails(&cand) {
                cur = cand;
                detail = d;
                progressed = true;
                // Do not advance: the next chunk slid into position i.
            } else {
                i += chunk;
            }
        }
        if chunk == 1 && !progressed {
            break;
        }
        chunk = if chunk > 1 { chunk / 2 } else { 1 };
        if chunk == 1 && cur.entries.is_empty() {
            break;
        }
    }

    // 2. Dimension shrink to the live bounding box (block formats need
    // even dimensions, so round up to the block multiple).
    let max_row = cur
        .entries
        .iter()
        .map(|e| e.0 as usize + 1)
        .max()
        .unwrap_or(0);
    let max_col = cur
        .entries
        .iter()
        .map(|e| e.1 as usize + 1)
        .max()
        .unwrap_or(0);
    for (rows, cols) in [
        (max_row, max_col),
        (max_row.next_multiple_of(2), max_col.next_multiple_of(2)),
        (max_row.next_multiple_of(8), max_col.next_multiple_of(8)),
    ] {
        if rows < cur.nrows || cols < cur.ncols {
            let mut cand = cur.clone();
            cand.nrows = rows;
            cand.ncols = cols;
            if numeric {
                // `x[col*k + v]`: whole columns go or come at the end.
                let mut x = cur.x.to_vec();
                x.resize(cols * cur.k, 1.0);
                cand.x = x.into();
            }
            if let Some(d) = fails(&cand) {
                cur = cand;
                detail = d;
                break;
            }
        }
    }

    // 3. Value simplification.
    for k in 0..cur.entries.len() {
        if cur.entries[k].2 != 1.0 {
            let mut cand = cur.clone();
            Arc::make_mut(&mut cand.entries)[k].2 = 1.0;
            if let Some(d) = fails(&cand) {
                cur = cand;
                detail = d;
            }
        }
    }

    // 4. Vector simplification: finite entries → 0.0, then 1.0; NaN/Inf
    // stay (they are usually the point).
    for target in [0.0f64, 1.0] {
        for k in 0..cur.x.len() {
            if cur.x[k].is_finite() && cur.x[k] != target {
                let mut cand = cur.clone();
                Arc::make_mut(&mut cand.x)[k] = target;
                if let Some(d) = fails(&cand) {
                    cur = cand;
                    detail = d;
                }
            }
        }
    }

    // 5. Smallest failing thread count.
    for &t in threads {
        if t < cur.threads {
            let mut cand = cur.clone();
            cand.threads = t;
            if let Some(d) = fails(&cand) {
                cur = cand;
                detail = d;
                break;
            }
        }
    }

    (cur, detail)
}

/// Renders one f64 as Rust source that reproduces it bit-exactly.
fn f64_src(v: f64) -> String {
    if v.is_nan() {
        "f64::NAN".to_string()
    } else if v == f64::INFINITY {
        "f64::INFINITY".to_string()
    } else if v == f64::NEG_INFINITY {
        "f64::NEG_INFINITY".to_string()
    } else if v == 0.0 && v.is_sign_negative() {
        "-0.0".to_string()
    } else if v == v.trunc() && v.abs() < 1e15 {
        format!("{v:.1}")
    } else {
        // Exact round trip for awkward values (subnormals, long
        // fractions) without printing 17 significant digits.
        format!("f64::from_bits(0x{:016x})", v.to_bits())
    }
}

/// Emits a self-contained `#[test]` snippet that replays the failure
/// through the engine's own predicate, [`crate::diff::repro_fails`]:
/// paste it into any file under `tests/` and run.
pub fn emit_test_snippet(r: &Repro, detail: &str) -> String {
    let (isa, uses) = match r.isa {
        Some(tier) => (format!("Some(Isa::{tier:?})"), "Apply, Codec, Isa"),
        None => ("None".to_string(), "Apply, Codec"),
    };
    let entries: String = r
        .entries
        .iter()
        .map(|&(i, j, v)| format!("            ({i}, {j}, {}),\n", f64_src(v)))
        .collect();
    let x: Vec<String> = r.x.iter().map(|&v| f64_src(v)).collect();
    format!(
        "// Minimized by sellkit-fuzz.  Failure: {detail}
#[test]
fn fuzz_repro() {{
    use sellkit::core::{{{uses}}};
    use sellkit_fuzz::diff::{{repro_fails, Config, Ctxs, FormatKind, Repro}};
    use std::sync::Arc;
    let r = Repro {{
        nrows: {nrows},
        ncols: {ncols},
        entries: Arc::new([
{entries}        ]),
        x: Arc::new([{x}]),
        format: FormatKind::{format:?},
        threads: {threads},
        mode: Apply::{mode:?},
        isa: {isa},
        k: {k},
        codec: Codec::{codec:?},
    }};
    let ctxs = Ctxs::new(&[{threads}]);
    assert_eq!(repro_fails(&r, &Config::default(), &ctxs), None);
}}
",
        nrows = r.nrows,
        ncols = r.ncols,
        x = x.join(", "),
        format = r.format,
        threads = r.threads,
        mode = r.mode,
        k = r.k,
        codec = r.codec,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diff::{repro_fails, Config, Ctxs, FormatKind};
    use sellkit_core::{Apply, Codec, Isa};

    #[test]
    fn f64_src_round_trips() {
        for v in [
            0.0,
            -0.0,
            1.0,
            -3.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            0.1,
            f64::MIN_POSITIVE / 64.0,
        ] {
            let src = f64_src(v);
            // Integers and specials render readably; everything else must
            // fall back to the bit-exact form.
            if src.starts_with("f64::from_bits") {
                let hex = src
                    .trim_start_matches("f64::from_bits(0x")
                    .trim_end_matches(')');
                let bits = u64::from_str_radix(hex, 16).unwrap();
                assert_eq!(bits, v.to_bits());
            }
        }
        assert_eq!(f64_src(f64::NAN), "f64::NAN");
        assert_eq!(f64_src(-0.0), "-0.0");
        assert_eq!(f64_src(2.0), "2.0");
    }

    #[test]
    fn snippet_contains_everything_needed() {
        let r = Repro {
            nrows: 2,
            ncols: 2,
            entries: Arc::new([(0, 0, 1.0), (1, 1, -2.0)]),
            x: Arc::new([f64::INFINITY, 2.0]),
            format: FormatKind::Sell8,
            threads: 4,
            mode: Apply::Add,
            isa: None,
            k: 1,
            codec: Codec::F64,
        };
        let s = emit_test_snippet(&r, "row 0: NaN vs inf");
        assert!(s.contains("#[test]"), "{s}");
        assert!(s.contains("nrows: 2,"), "{s}");
        assert!(s.contains("(0, 0, 1.0),"), "{s}");
        assert!(s.contains("(1, 1, -2.0),"), "{s}");
        assert!(s.contains("x: Arc::new([f64::INFINITY, 2.0])"), "{s}");
        assert!(s.contains("format: FormatKind::Sell8"), "{s}");
        assert!(s.contains("mode: Apply::Add"), "{s}");
        assert!(s.contains("isa: None"), "{s}");
        assert!(s.contains("codec: Codec::F64"), "{s}");
        assert!(s.contains("Ctxs::new(&[4])"), "{s}");
        // The engine's predicate is the oracle: no second one is written.
        assert!(
            s.contains("repro_fails(&r, &Config::default(), &ctxs), None"),
            "{s}"
        );
        assert!(!s.contains("spmv_isa"), "{s}");
    }

    #[test]
    fn blocked_snippet_uses_the_column_oracle() {
        // A blocked repro carries its width and its whole interleaved
        // block; `repro_fails` compares it column by column.
        let r = Repro {
            nrows: 2,
            ncols: 2,
            entries: Arc::new([(0, 0, 1.0), (1, 1, -2.0)]),
            x: Arc::new([1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]),
            format: FormatKind::Sell16,
            threads: 1,
            mode: Apply::Set,
            isa: Some(Isa::Scalar),
            k: 4,
            codec: Codec::Bf16,
        };
        let s = emit_test_snippet(&r, "row 0: 1 vs 2");
        assert!(s.contains("k: 4,"), "{s}");
        assert!(
            s.contains("x: Arc::new([1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0])"),
            "{s}"
        );
        assert!(s.contains("isa: Some(Isa::Scalar)"), "{s}");
        assert!(s.contains("use sellkit::core::{Apply, Codec, Isa};"), "{s}");
        assert!(s.contains("codec: Codec::Bf16"), "{s}");
        assert!(s.contains("mode: Apply::Set"), "{s}");
        // And the repro it renders passes the engine it replays through.
        let ctxs = Ctxs::new(&[1]);
        assert_eq!(repro_fails(&r, &Config::default(), &ctxs), None);
    }

    #[test]
    fn minimize_keeps_a_passing_repro_intact_enough() {
        // A repro that does NOT fail: minimize must not loop forever and
        // must report that it could not re-fire.
        let cfg = Config {
            threads: vec![1],
            ..Config::default()
        };
        let ctxs = Ctxs::new(&cfg.threads);
        let r = Repro {
            nrows: 3,
            ncols: 3,
            entries: Arc::new([(0, 0, 1.0), (1, 1, 1.0), (2, 2, 1.0)]),
            x: Arc::new([1.0, 2.0, 3.0]),
            format: FormatKind::Sell4,
            threads: 1,
            mode: Apply::Set,
            isa: None,
            k: 1,
            codec: Codec::F64,
        };
        let (small, detail) = minimize(&r, &cfg.threads, |c| repro_fails(c, &cfg, &ctxs));
        assert!(detail.contains("did not re-fire"), "{detail}");
        assert_eq!(small.entries.len(), r.entries.len());
    }

    #[test]
    fn minimize_shrinks_a_blocked_repro() {
        // A fake failure that needs one entry and, like `repro_fails`, a
        // whole `ncols · k` block to run at all.
        let fails = |c: &Repro| {
            let runs = c.x.len() == c.ncols * c.k;
            let present = c.entries.iter().any(|&(i, j, _)| (i, j) == (2, 3));
            (runs && present).then(|| "fake".to_string())
        };
        let (nrows, ncols, k) = (10, 12, 3);
        let r = Repro {
            nrows,
            ncols,
            entries: Arc::new([(0, 11, 1.0), (2, 3, -2.5), (9, 0, 4.0), (5, 5, 0.5)]),
            x: (0..ncols * k).map(|v| v as f64).collect::<Vec<_>>().into(),
            format: FormatKind::Sell8,
            threads: 3,
            mode: Apply::Add,
            isa: None,
            k,
            codec: Codec::F64,
        };
        let (small, detail) = minimize(&r, &[1, 3], fails);
        assert_eq!(detail, "fake");
        assert_eq!(&small.entries[..], &[(2, 3, 1.0)]);
        assert!(small.nrows < nrows && small.ncols < ncols, "{small:?}");
        assert_eq!(small.x.len(), small.ncols * k);
        assert_eq!(small.threads, 1);
    }
}
