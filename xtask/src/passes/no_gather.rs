//! No-hardware-gather pass: `sellkit-core` reads `x` with scalar loads
//! handed to `Lanes::build` on every tier.  `vgatherdpd` is microcoded
//! on the host this repository is measured on (gather-mitigation
//! microcode) and was 1.6–2.8× behind the scalar loads out of cache
//! (EXPERIMENTS.md §5.5), so the `_mm*_i32gather_*` / `_mm*_i64gather_*`
//! intrinsics — masked forms included — may not come back under
//! `crates/core/` through a new lane operation.  `crates/bench` keeps one,
//! as the measured stand-in of the `gather` exhibit.

use crate::diag::Finding;
use crate::scan::SourceFile;

const PASS: &str = "no-gather";

pub fn run(tree: &[SourceFile]) -> Vec<Finding> {
    let mut findings = Vec::new();
    for file in tree.iter().filter(|f| f.rel.starts_with("crates/core/")) {
        for (line, code) in file.code.iter().enumerate() {
            if code.contains("i32gather") || code.contains("i64gather") {
                findings.push(Finding::new(
                    &file.rel,
                    line + 1,
                    PASS,
                    "hardware-gather intrinsic in sellkit-core — build the vector from scalar \
                     loads with `Lanes::build`"
                        .into(),
                ));
            }
        }
    }
    findings
}

#[cfg(test)]
mod tests {
    use super::*;

    const GATHER: &str = "pub unsafe fn g(x: *const f64, i: __m256i) -> __m512d {\n    // not _mm512_i64gather_pd\n    unsafe { _mm512_mask_i32gather_pd::<8>(z, k, i, x) }\n}\n";

    #[test]
    fn a_gather_intrinsic_in_core_is_flagged_once_per_line() {
        let f = run(&[SourceFile::new("crates/core/src/kernels/lanes.rs", GATHER)]);
        assert_eq!(f.len(), 1, "{f:#?}");
        assert_eq!((f[0].line, f[0].pass), (3, PASS));
    }

    #[test]
    fn the_bench_stand_in_and_comments_are_exempt() {
        let tree = [
            SourceFile::new("crates/bench/src/measure.rs", GATHER),
            SourceFile::new("crates/core/src/isa.rs", "// _mm256_i32gather_pd\n"),
        ];
        assert!(run(&tree).is_empty());
    }
}
