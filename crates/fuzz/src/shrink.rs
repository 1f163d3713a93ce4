//! Shrinking minimizer: reduces a failing [`Repro`] to a (locally)
//! minimal one and renders it as a self-contained Rust test snippet.
//!
//! The strategy is ddmin-flavoured greedy reduction, re-running the
//! failure predicate ([`crate::diff::repro_fails`]) after every step:
//!
//! 1. drop chunks of COO entries (halving granularity, then singles);
//! 2. shrink the dimensions to the live bounding box;
//! 3. simplify surviving values to `1.0` where the failure persists;
//! 4. simplify `x` — finite entries to `1.0`/`0.0`, specials kept;
//! 5. minimize the thread count.

use std::sync::Arc;

use crate::diff::{repro_fails, Config, Ctxs, Repro};
use sellkit_core::Codec;

/// Greedily shrinks `r`, preserving "still fails".  Returns the smaller
/// repro and the (possibly changed) failure detail.
pub fn minimize(r: &Repro, cfg: &Config, ctxs: &Ctxs) -> (Repro, String) {
    let mut cur = r.clone();
    // Validation-only repros carry an empty `x` (and possibly enormous
    // ncols); never materialize a vector for them.
    let numeric = r.x.len() == r.ncols;
    let mut detail = repro_fails(&cur, cfg, ctxs).unwrap_or_else(|| {
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
            if let Some(d) = repro_fails(&cand, cfg, ctxs) {
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
                let mut x = cur.x.to_vec();
                x.resize(cols, 1.0);
                cand.x = x.into();
            }
            if let Some(d) = repro_fails(&cand, cfg, ctxs) {
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
            if let Some(d) = repro_fails(&cand, cfg, ctxs) {
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
                if let Some(d) = repro_fails(&cand, cfg, ctxs) {
                    cur = cand;
                    detail = d;
                }
            }
        }
    }

    // 5. Smallest failing thread count.
    for &t in &cfg.threads {
        if t < cur.threads {
            let mut cand = cur.clone();
            cand.threads = t;
            if let Some(d) = repro_fails(&cand, cfg, ctxs) {
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

/// Emits a self-contained `#[test]` snippet reproducing the failure:
/// paste into any file under `tests/` and run.
pub fn emit_test_snippet(r: &Repro, detail: &str) -> String {
    let mut s = String::new();
    s.push_str("// Minimized by sellkit-fuzz.  Failure: ");
    s.push_str(detail);
    s.push('\n');
    s.push_str("#[test]\nfn fuzz_repro() {\n");
    s.push_str("    use sellkit::core::*;\n");
    s.push_str(&format!(
        "    let mut b = CooBuilder::new({}, {});\n",
        r.nrows, r.ncols
    ));
    for &(i, j, v) in r.entries.iter() {
        s.push_str(&format!("    b.push({i}, {j}, {});\n", f64_src(v)));
    }
    s.push_str("    let a = b.to_csr();\n");
    let build = if r.codec != Codec::F64 {
        let c = format!("Codec::{:?}", r.codec);
        match r.format.name() {
            "sell4" => format!("Sell4::from_csr_codec(&a, {c})"),
            "sell8" => format!("Sell8::from_csr_codec(&a, {c})"),
            "sell16" => format!("Sell16::from_csr_codec(&a, {c})"),
            "sell_c_sigma8" => format!("SellSigma8::from_csr_sigma_codec(&a, 16, {c})"),
            other => unreachable!("format {other} has no packed-codec path"),
        }
    } else {
        match r.format.name() {
            "csr" => "a.clone()".to_string(),
            "sell4" => "Sell4::from_csr(&a)".to_string(),
            "sell8" => "Sell8::from_csr(&a)".to_string(),
            "sell16" => "Sell16::from_csr(&a)".to_string(),
            "sell_esb" => "SellEsb::from_csr(&a)".to_string(),
            "sell_c_sigma8" => "SellSigma8::from_csr_sigma(&a, 16)".to_string(),
            "baij_bs2" => "Baij::from_csr(&a, 2)".to_string(),
            _ => "Sbaij::from_csr(&a, 2)".to_string(),
        }
    };
    s.push_str(&format!("    let m = {build};\n"));
    if r.codec != Codec::F64 {
        // The oracle runs over the codec-quantized matrix — exactly what
        // the packed format's value bytes decode to.
        s.push_str(&format!(
            "    let mut bq = CooBuilder::new({}, {});\n",
            r.nrows, r.ncols
        ));
        s.push_str(&format!("    for i in 0..{} {{\n", r.nrows));
        s.push_str("        for (e, &c) in a.row_cols(i).iter().enumerate() {\n");
        s.push_str(&format!(
            "            bq.push(i, c as usize, Codec::{:?}.quantize(a.row_vals(i)[e]));\n",
            r.codec
        ));
        s.push_str("        }\n    }\n");
        s.push_str("    let a = bq.to_csr();\n");
    }
    let k = r.k.max(1);
    if r.x.len() != r.ncols * k {
        // Validation-only repro: the layout itself is the failure.
        s.push_str("    use sellkit_check::Validate;\n");
        s.push_str("    assert_eq!(m.validate(), Ok(()));\n}\n");
        return s;
    }
    let xs: Vec<String> = r.x.iter().map(|&v| f64_src(v)).collect();
    s.push_str(&format!("    let x = vec![{}];\n", xs.join(", ")));
    s.push_str(&format!("    let mut y = vec![0.0; {}];\n", r.nrows * k));
    s.push_str(&format!("    let mut want = vec![0.0; {}];\n", r.nrows * k));
    if k == 1 {
        s.push_str("    // Scalar-CSR oracle.\n");
        s.push_str("    a.spmv_isa(Isa::Scalar, &x, &mut want);\n");
    } else {
        s.push_str("    // Column-by-column scalar-CSR oracle over the k-block.\n");
        s.push_str(&format!(
            "    let (k, nc, nr) = ({k}usize, {}, {});\n",
            r.ncols, r.nrows
        ));
        s.push_str("    let mut xcol = vec![0.0; nc];\n");
        s.push_str("    let mut wcol = vec![0.0; nr];\n");
        s.push_str("    for v in 0..k {\n");
        s.push_str("        for i in 0..nc {\n            xcol[i] = x[i * k + v];\n        }\n");
        s.push_str("        wcol.fill(0.0);\n");
        s.push_str("        a.spmv_isa(Isa::Scalar, &xcol, &mut wcol);\n");
        s.push_str("        for i in 0..nr {\n            want[i * k + v] = wcol[i];\n        }\n");
        s.push_str("    }\n");
    }
    match r.isa {
        Some(tier) if k == 1 => {
            s.push_str(&format!("    m.spmv_isa(Isa::{tier:?}, &x, &mut y);\n"));
        }
        Some(tier) => {
            s.push_str(&format!("    m.spmm_isa(Isa::{tier:?}, &x, &mut y, k);\n"));
        }
        None => {
            s.push_str(&format!("    let ctx = ExecCtx::new({});\n", r.threads));
            if k == 1 {
                s.push_str(&format!(
                    "    m.apply(&ctx, (&x).into(), (&mut y).into(), Apply::{});\n",
                    if r.add { "Add" } else { "Set" }
                ));
            } else {
                s.push_str(&format!(
                    "    m.apply(&ctx, VecView::blocked(&x, k), \
                     VecViewMut::blocked(&mut y, k), Apply::{});\n",
                    if r.add { "Add" } else { "Set" }
                ));
            }
        }
    }
    s.push_str(
        "    for i in 0..y.len() {\n        assert!(\n            \
         (y[i] - want[i]).abs() <= 1e-9 * (1.0 + want[i].abs())\n                \
         || (y[i].is_nan() && want[i].is_nan()),\n            \
         \"row {i}: {} vs {}\", y[i], want[i]\n        );\n    }\n}\n",
    );
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diff::FormatKind;

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
            x: Arc::new([f64::INFINITY, 0.5]),
            format: FormatKind::Sell8,
            threads: 4,
            add: true,
            isa: None,
            k: 1,
            codec: Codec::F64,
        };
        let s = emit_test_snippet(&r, "row 0: NaN vs inf");
        assert!(s.contains("CooBuilder::new(2, 2)"));
        assert!(s.contains("b.push(0, 0, 1.0)"));
        assert!(s.contains("f64::INFINITY"));
        assert!(s.contains("Sell8::from_csr"));
        assert!(s.contains("Apply::Add"));
        assert!(s.contains("ExecCtx::new(4)"));
        assert!(s.contains("#[test]"));
    }

    #[test]
    fn blocked_snippet_uses_the_column_oracle() {
        let r = Repro {
            nrows: 2,
            ncols: 2,
            entries: Arc::new([(0, 0, 1.0), (1, 1, -2.0)]),
            x: Arc::new([1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]),
            format: FormatKind::Sell8,
            threads: 2,
            add: false,
            isa: None,
            k: 4,
            codec: Codec::F64,
        };
        let s = emit_test_snippet(&r, "row 0: 1 vs 2");
        assert!(s.contains("VecView::blocked(&x, k)"), "{s}");
        assert!(s.contains("xcol[i] = x[i * k + v]"), "{s}");
        assert!(s.contains("Apply::Set"), "{s}");
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
            add: false,
            isa: None,
            k: 1,
            codec: Codec::F64,
        };
        let (small, detail) = minimize(&r, &cfg, &ctxs);
        assert!(detail.contains("did not re-fire"), "{detail}");
        assert_eq!(small.entries.len(), r.entries.len());
    }
}
