//! The static-analysis passes against the *real* workspace, clean and
//! mutated.
//!
//! The clean tree must produce zero findings (this is the same gate CI
//! runs).  Each mutation test then seeds exactly one violation — deleting
//! an assertion, dropping a contract clause, downgrading an ordering —
//! and proves the passes catch it.  Together these are the acceptance
//! criterion for the contract system: every checked invariant is load-
//! bearing, none of the green is vacuous.

use sellkit_verify::policy::Policy;
use xtask::passes::{self, load_tree};
use xtask::scan::SourceFile;
use xtask::workspace_root;

fn real_tree() -> Vec<SourceFile> {
    load_tree(&workspace_root()).expect("workspace sources readable")
}

fn real_policy() -> Policy {
    sellkit_verify::policy::load(&workspace_root()).expect("POLICY.toml parses")
}

/// Replaces `from` with `to` in the named file of the tree, asserting the
/// pattern actually occurred (otherwise the mutation tests rot silently).
fn mutate(tree: &mut [SourceFile], rel: &str, from: &str, to: &str) {
    let f = tree
        .iter_mut()
        .find(|f| f.rel == rel)
        .unwrap_or_else(|| panic!("{rel} not in tree"));
    let raw = f.raw.join("\n");
    assert!(
        raw.contains(from),
        "mutation pattern not found in {rel}: {from:?}"
    );
    *f = SourceFile::new(rel, &raw.replace(from, to));
}

#[test]
fn clean_workspace_has_zero_findings() {
    let findings = passes::run_all(&real_tree(), &real_policy());
    assert!(
        findings.is_empty(),
        "clean tree must lint clean:\n{}",
        findings
            .iter()
            .map(|f| f.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
}

const DISPATCH: &str = "crates/core/src/kernels/checked.rs";

#[test]
fn deleting_a_dispatch_assert_fails_the_contract_pass() {
    let mut tree = real_tree();
    // Remove the monotone assertion under its marker: the marker loses its
    // anchor.
    mutate(
        &mut tree,
        DISPATCH,
        "    debug_assert!(rowptr.windows(2).all(|w| w[0] <= w[1]), \"rowptr monotone\");\n",
        "",
    );
    let findings = passes::contract::run(&tree);
    assert!(
        findings
            .iter()
            .any(|f| f.pass == "contract" && f.message.contains("not anchored")),
        "{findings:#?}"
    );
}

#[test]
fn deleting_marker_and_assert_fails_the_helper_declaration() {
    let mut tree = real_tree();
    mutate(
        &mut tree,
        DISPATCH,
        "    // discharges: monotone(rowptr)\n",
        "",
    );
    mutate(
        &mut tree,
        DISPATCH,
        "    debug_assert!(rowptr.windows(2).all(|w| w[0] <= w[1]), \"rowptr monotone\");\n",
        "",
    );
    let findings = passes::contract::run(&tree);
    assert!(
        findings.iter().any(|f| {
            f.message.contains("no matching `discharges:` marker")
                && f.clause.as_deref() == Some("monotone(rowptr)")
        }),
        "{findings:#?}"
    );
}

/// The narrow index form is every codec's stream: `check_sell` discharges
/// its clause with no codec exemption, and a checker that stopped doing so
/// no longer licenses the SELL bodies.
#[test]
fn dropping_the_narrow_index_discharge_fails_the_contract_pass() {
    let mut tree = real_tree();
    mutate(
        &mut tree,
        DISPATCH,
        "    // discharges: narrow_cols_in_bounds(cidx16, cbase, x)\n",
        "",
    );
    mutate(
        &mut tree,
        DISPATCH,
        ", narrow_cols_in_bounds(cidx16, cbase, x)`\nfn check_sell",
        "`\nfn check_sell",
    );
    let findings = passes::contract::run(&tree);
    assert!(
        findings.iter().any(|f| {
            f.message.contains("without discharging its clause")
                && f.clause.as_deref() == Some("narrow_cols_in_bounds(cidx16,cbase,x)")
        }),
        "{findings:#?}"
    );
}

#[test]
fn dropping_a_requires_clause_fails_the_reverse_check() {
    let mut tree = real_tree();
    mutate(
        &mut tree,
        "crates/core/src/kernels/sell.rs",
        "/// * `requires: monotone(sliceptr)` — slice offsets are nondecreasing.\n",
        "",
    );
    let findings = passes::contract::run(&tree);
    assert!(
        findings.iter().any(|f| {
            f.message.contains("asserted but undocumented")
                && f.clause.as_deref() == Some("monotone(sliceptr)")
        }),
        "{findings:#?}"
    );
}

#[test]
fn dropping_the_feature_clause_fails_the_evidence_check() {
    let mut tree = real_tree();
    mutate(
        &mut tree,
        "crates/core/src/kernels/lanes.rs",
        "    /// * `requires: feature(avx512f,avx512vl)` — and the contract of `op`'s\n",
        "    /// * and the contract of `op`'s\n",
    );
    let findings = passes::contract::run(&tree);
    assert!(
        findings.iter().any(|f| {
            f.message.contains("target_feature")
                && f.clause.as_deref() == Some("feature(avx512f,avx512vl)")
        }),
        "{findings:#?}"
    );
}

#[test]
fn dropping_a_helper_call_fails_the_forward_check() {
    let mut tree = real_tree();
    // sell_spmv no longer validates anything before dispatching.
    mutate(
        &mut tree,
        DISPATCH,
        "    check_sell::<C>(m, x, y, 1);\n    struct Op<'a, D: Stored, const C: usize, const ADD: bool, const UNROLL: bool> {",
        "    struct Op<'a, D: Stored, const C: usize, const ADD: bool, const UNROLL: bool> {",
    );
    let findings = passes::contract::run(&tree);
    assert!(
        findings
            .iter()
            .any(|f| f.message.contains("without discharging its clause")),
        "{findings:#?}"
    );
}

#[test]
fn borrowing_another_body_s_clause_fails_the_helper_call_check() {
    let mut tree = real_tree();
    // The CSR body reaches for the narrow-index gather: only the SELL body
    // states `narrow_cols_in_bounds`, and that is another function.
    mutate(
        &mut tree,
        "crates/core/src/kernels/csr.rs",
        "l.gather(xp, cp.add(idx))",
        "l.gather_live_narrow(xp, x.len(), cp.add(idx).cast(), 0)",
    );
    let findings = passes::contract::run(&tree);
    assert!(
        findings.iter().any(|f| {
            f.message.contains("`spmv` calls `gather_live_narrow`")
                && f.clause.as_deref() == Some("narrow_cols_in_bounds(cidx16,cbase,x)")
        }),
        "{findings:#?}"
    );
}

#[test]
fn downgrading_the_epoch_publish_ordering_fails_the_atomics_pass() {
    let mut tree = real_tree();
    let pool = tree
        .iter()
        .find(|f| f.rel == "crates/core/src/pool.rs")
        .expect("pool.rs present");
    let raw = pool.raw.join("\n");
    // Find one SeqCst epoch operation and downgrade it.
    assert!(raw.contains("Ordering::SeqCst"), "pool.rs uses SeqCst");
    mutate(
        &mut tree,
        "crates/core/src/pool.rs",
        "Ordering::SeqCst",
        "Ordering::Relaxed",
    );
    let findings = passes::atomics::run(&tree, &real_policy());
    assert!(
        findings
            .iter()
            .any(|f| f.message.contains("does not match any POLICY.toml")),
        "{findings:#?}"
    );
}

#[test]
fn unwrap_in_a_kernel_fails_the_panic_freedom_pass() {
    let mut tree = real_tree();
    mutate(
        &mut tree,
        "crates/core/src/kernels/csr.rs",
        "let nrows = y.len();",
        "let nrows = y.len(); let _ = rowptr.first().unwrap();",
    );
    let findings = passes::panic_freedom::run(&tree);
    assert!(
        findings.iter().any(|f| f.message.contains("unwrap")),
        "{findings:#?}"
    );
}

#[test]
fn a_hardware_gather_in_a_lane_operation_fails_the_no_gather_pass() {
    let mut tree = real_tree();
    mutate(
        &mut tree,
        "crates/core/src/kernels/lanes.rs",
        "unsafe { _mm512_setr_pd(f(0), f(1), f(2), f(3), f(4), f(5), f(6), f(7)) }",
        "unsafe { _mm512_i32gather_pd::<8>(idx, x) }",
    );
    let findings = passes::no_gather::run(&tree);
    assert!(
        findings.len() == 1 && findings[0].pass == "no-gather",
        "{findings:#?}"
    );
}

#[test]
fn unsafe_outside_the_allowlist_fails_the_audit() {
    let mut tree = real_tree();
    mutate(
        &mut tree,
        "crates/grid/src/lib.rs",
        "#![forbid(unsafe_code)]",
        "",
    );
    let grid = tree
        .iter_mut()
        .find(|f| f.rel == "crates/grid/src/lib.rs")
        .expect("grid lib.rs");
    let mut raw = grid.raw.join("\n");
    raw.push_str("\nfn sneaky(p: *const u8) -> u8 { unsafe { *p } }\n");
    *grid = SourceFile::new("crates/grid/src/lib.rs", &raw);
    let findings = passes::unsafe_audit::run(&tree, &real_policy());
    assert!(
        findings
            .iter()
            .any(|f| f.pass == "unsafe-audit" && f.path == "crates/grid/src/lib.rs"),
        "{findings:#?}"
    );
}

#[test]
fn calling_a_kernel_outside_dispatch_is_flagged() {
    let mut tree = real_tree();
    mutate(
        &mut tree,
        "crates/core/src/exec.rs",
        "use crate::pool::WorkerPool;",
        "use crate::pool::WorkerPool;\n#[cfg(target_arch = \"x86_64\")]\n#[allow(dead_code)]\nfn rogue(r: &[usize], c: &[u32], v: &[f64], x: &[f64], y: &mut [f64]) {\n    unsafe { crate::kernels::csr::spmv::<crate::kernels::lanes::Scalar, false>(crate::kernels::lanes::Scalar, r, c, v, x, y) }\n}",
    );
    let findings = passes::contract::run(&tree);
    assert!(
        findings
            .iter()
            .any(|f| f.message.contains("called outside checked.rs")),
        "{findings:#?}"
    );
}
