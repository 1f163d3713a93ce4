//! Safety-contract pass: machine-checked `requires:` clauses.
//!
//! Every `unsafe fn` under `crates/core/src/kernels/` documents its
//! preconditions as machine-readable clauses inside its `# Safety`
//! section, one per backticked group:
//!
//! ```text
//! /// # Safety
//! /// * `requires: feature(avx512f,avx512vl)`
//! /// * `requires: cols_in_bounds_or_sentinel(colidx, x)`
//! ```
//!
//! On the dispatch side (`kernels/checked.rs`, the checked entry points),
//! discharge *markers* tie each clause to the assertion that establishes it:
//!
//! ```text
//! // discharges: monotone(sliceptr)
//! debug_assert!(sliceptr.windows(2).all(|w| w[0] <= w[1]));
//! ```
//!
//! Shared check helpers declare the clause set they discharge in their
//! docs (`` `discharges: a, b, c` ``); the declaration is only accepted if
//! every declared clause has a matching marker in the helper's body (or
//! comes from a nested helper call, with const-generic substitution — so
//! `check_sell::<8>` turns `slices(nrows, C)` into `slices(nrows, 8)`).
//!
//! An entry point hands its generic body to the one `Isa` match through a
//! local `impl Kernel` whose `on` forwards to the body; such nested
//! functions belong to the entry point that contains them — their calls
//! are its calls, checked against its discharged set.
//!
//! The pass then proves, per *dispatch path*:
//!
//! * **forward**: every clause of every unsafe kernel a dispatch function
//!   can reach is in that function's *effective set* — its own markers and
//!   helper calls, plus the intersection of every caller's effective set
//!   (a clause only a *some* callers establish does not count);
//! * **reverse**: every param-relevant clause a path discharges is
//!   documented on the kernel it calls — asserting what the kernel does
//!   not state is drift in the other direction;
//! * **evidence**: clauses that are visible in the kernel body itself must
//!   be documented — `#[target_feature(enable = "S")]` demands
//!   `feature(S)`, aligned loads demand `aligned(…, 64)`, and gathers/raw
//!   `x` derefs demand a `cols_in_bounds*` clause;
//! * **helper calls**: wherever one unsafe kernel function calls another
//!   (a body calling a `Lanes` memory operation or a slice-column helper,
//!   an operation calling a private helper), the *calling* function's own
//!   contract (or a same-file marker) must establish every clause of the
//!   callee — so `narrow_cols_in_bounds` cannot be borrowed from a body in
//!   another file; a pointer-extent clause (`readable`/`writable`) needs
//!   the caller to state an extent of its own (`len`, `in_bounds`,
//!   `packed_vals`, `bits_cover_window`, or a pointer extent it was
//!   handed); a private helper's feature set must be covered by a public
//!   `#[target_feature]` function of its file;
//! * unsafe kernels may be *called* only from `checked.rs` or the kernel
//!   directory itself;
//! * markers must sit directly above an assertion, and every marker clause
//!   must exist somewhere in the contract — stale markers fail.

use std::collections::{BTreeMap, BTreeSet};

use crate::diag::Finding;
use crate::scan::{calls_in, is_word_at, parse_fns, split_top_level, Call, FnInfo, SourceFile};

const PASS: &str = "contract";
const KERNEL_DIR: &str = "crates/core/src/kernels/";
const DISPATCH: &str = "crates/core/src/kernels/checked.rs";

/// Clause heads that are predicate names, not argument identifiers.
const PREDICATES: [&str; 14] = [
    "len",
    "slices",
    "monotone",
    "in_bounds",
    "aligned",
    "aligned_offsets",
    "cols_in_bounds",
    "cols_in_bounds_or_sentinel",
    "narrow_cols_in_bounds",
    "packed_vals",
    "bits_cover_window",
    "readable",
    "writable",
    "feature",
];

/// The clauses that license dereferencing `x` through stored indices.
const COLS_CLAUSES: [&str; 3] = [
    "cols_in_bounds(colidx,x)",
    "cols_in_bounds_or_sentinel(colidx,x)",
    "narrow_cols_in_bounds(cidx16,cbase,x)",
];

/// Predicates that bound how far a pointer or array may be accessed.
const EXTENTS: [&str; 6] = [
    "len",
    "in_bounds",
    "packed_vals",
    "bits_cover_window",
    "readable",
    "writable",
];

/// Whether a caller whose contract is `have` establishes its callee's
/// clause `want`: by stating it, by stating any extent for a pointer-extent
/// clause (which pointer and how far is the call site's `SAFETY` argument),
/// or through the two implications among the column clauses — an
/// always-live index is in particular live-or-sentinel, and a narrow entry
/// resolves to an in-bounds column or the sentinel.
fn establishes(have: &BTreeSet<String>, want: &str) -> bool {
    if want.starts_with("readable(") || want.starts_with("writable(") {
        return have.iter().any(|c| {
            EXTENTS
                .iter()
                .any(|p| crate::scan::find_word(c, p).is_some())
        });
    }
    have.contains(want)
        || want == COLS_CLAUSES[1]
            && (have.contains(COLS_CLAUSES[0]) || have.contains(COLS_CLAUSES[2]))
}

/// Call sites inside `body` — free, path or method form — of the functions
/// named in `names`, as `(name, 0-based line)`.
fn named_calls(
    file: &SourceFile,
    body: (usize, usize),
    names: &BTreeMap<String, BTreeSet<String>>,
) -> Vec<(String, usize)> {
    let mut out = Vec::new();
    for line in body.0..=body.1.min(file.code.len() - 1) {
        let code = &file.code[line];
        for name in names.keys() {
            let mut from = 0usize;
            while let Some(pos) = code[from..].find(name.as_str()) {
                let start = from + pos;
                from = start + name.len();
                let rest = code[from..].trim_start();
                let is_call = rest.starts_with('(') || rest.starts_with("::<");
                let is_decl = code[..start].trim_end().ends_with("fn");
                if is_word_at(code, start, name.len()) && is_call && !is_decl {
                    out.push((name.clone(), line));
                }
            }
        }
    }
    out
}

/// Whitespace-insensitive canonical form of a clause.
fn normalize(clause: &str) -> String {
    clause
        .chars()
        .filter(|c| !c.is_whitespace())
        .collect::<String>()
        .trim_matches('`')
        .to_string()
}

/// Argument identifiers of a normalized clause (predicate heads, feature
/// names, and numbers excluded).
fn clause_idents(clause: &str) -> Vec<String> {
    if clause.starts_with("feature(") {
        return Vec::new();
    }
    let mut out = Vec::new();
    let mut cur = String::new();
    for c in clause.chars().chain(std::iter::once(' ')) {
        if c.is_alphanumeric() || c == '_' {
            cur.push(c);
        } else {
            if !cur.is_empty()
                && !PREDICATES.contains(&cur.as_str())
                && !cur.chars().next().is_some_and(|c| c.is_ascii_digit())
            {
                out.push(std::mem::take(&mut cur));
            }
            cur.clear();
        }
    }
    out
}

/// Substitutes const-generic names for turbofish arguments, token-wise.
fn subst(clause: &str, binding: &BTreeMap<String, String>) -> String {
    if binding.is_empty() {
        return clause.to_string();
    }
    let mut out = String::new();
    let mut cur = String::new();
    for c in clause.chars().chain(std::iter::once('\0')) {
        if c.is_alphanumeric() || c == '_' {
            cur.push(c);
        } else {
            if let Some(rep) = binding.get(&cur) {
                out.push_str(rep);
            } else {
                out.push_str(&cur);
            }
            cur.clear();
            if c != '\0' {
                out.push(c);
            }
        }
    }
    out
}

/// Extracts `` `requires: …` `` clauses (with their doc text) from a doc
/// block.  Returns normalized clauses; a `requires:` without a closing
/// backtick is reported as malformed.
fn requires_clauses(
    doc: &[String],
    path: &str,
    line: usize,
    findings: &mut Vec<Finding>,
) -> Vec<String> {
    let mut out = Vec::new();
    for text in doc {
        let mut from = 0usize;
        while let Some(pos) = text[from..].find("requires:") {
            let start = from + pos + "requires:".len();
            from = start;
            match text[start..].find('`') {
                Some(end) => out.push(normalize(&text[start..start + end])),
                None => findings.push(Finding::new(
                    path,
                    line + 1,
                    PASS,
                    "malformed `requires:` clause: missing closing backtick".into(),
                )),
            }
        }
    }
    out
}

/// Extracts a helper's declared `` `discharges: a, b` `` set from its docs.
fn declared_clauses(doc: &[String]) -> Option<Vec<String>> {
    for text in doc {
        if let Some(pos) = text.find("discharges:") {
            let start = pos + "discharges:".len();
            let end = text[start..].find('`').map_or(text.len(), |e| start + e);
            let list = split_top_level(&text[start..end], ',')
                .into_iter()
                .map(|c| normalize(&c))
                .collect::<Vec<_>>();
            return Some(list);
        }
    }
    None
}

/// A discharge marker inside a function body.
struct Marker {
    clauses: Vec<String>,
}

/// Collects `// discharges:` markers inside `body`, checking that each is
/// anchored directly above an assertion (another marker in between means
/// the annotated assertion was deleted).
fn markers_in(file: &SourceFile, body: (usize, usize), findings: &mut Vec<Finding>) -> Vec<Marker> {
    let mut out = Vec::new();
    for line in body.0..=body.1.min(file.comment.len() - 1) {
        let comment = &file.comment[line];
        let Some(pos) = comment.find("discharges:") else {
            continue;
        };
        let list = split_top_level(&comment[pos + "discharges:".len()..], ',')
            .into_iter()
            .map(|c| normalize(&c))
            .collect::<Vec<_>>();
        // Find the anchored assertion: the next line with code, with no
        // other marker in between.
        let mut anchored = false;
        for next in line + 1..=body.1.min(file.code.len() - 1) {
            if file.comment[next].contains("discharges:") {
                break;
            }
            let code = file.code[next].trim();
            if code.is_empty() {
                continue;
            }
            anchored = code.contains("assert") || code.contains("debug_check");
            break;
        }
        if !anchored {
            findings.push(Finding::new(
                &file.rel,
                line + 1,
                PASS,
                "`discharges:` marker is not anchored to an assertion on the next line".into(),
            ));
            continue;
        }
        out.push(Marker { clauses: list });
    }
    out
}

/// One unsafe kernel function and its parsed contract.
struct KernelFn {
    module: String,
    name: String,
    clauses: BTreeSet<String>,
    params: Vec<String>,
}

pub fn run(tree: &[SourceFile]) -> Vec<Finding> {
    let mut findings = Vec::new();

    let kernel_files: Vec<&SourceFile> = tree
        .iter()
        .filter(|f| {
            f.rel.starts_with(KERNEL_DIR) && f.rel != DISPATCH && !f.rel.ends_with("/mod.rs")
        })
        .collect();
    let dispatch = tree.iter().find(|f| f.rel == DISPATCH);
    if kernel_files.is_empty() {
        return findings; // fixture tree without kernels: nothing to check
    }

    // ---- Kernel side: parse contracts, evidence checks, containment ----
    let mut kernels: Vec<KernelFn> = Vec::new();
    // Clauses provable by same-file markers (e.g. `in_bounds(y, base,
    // lanes)` ahead of a store helper call) and all marker clauses seen
    // anywhere, for the stale-marker check.
    let mut all_marker_clauses: BTreeSet<String> = BTreeSet::new();

    // The contract of every unsafe function in the kernel directory, by
    // name (a trait operation and its impls state the same clauses; the
    // union holds a call to whichever is meant to all of them).
    let mut contracts: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
    for file in &kernel_files {
        for f in parse_fns(file).into_iter().filter(|f| f.is_unsafe) {
            contracts.entry(f.name.clone()).or_default().extend(
                requires_clauses(&f.doc, &file.rel, f.header_line, &mut Vec::new())
                    .into_iter()
                    .filter(|c| !c.starts_with("feature(")),
            );
        }
    }

    for file in &kernel_files {
        let module = file
            .rel
            .rsplit('/')
            .next()
            .and_then(|n| n.strip_suffix(".rs"))
            .unwrap_or("")
            .to_string();
        let fns = parse_fns(file);
        let mut file_markers: BTreeSet<String> = BTreeSet::new();
        for f in &fns {
            if let Some(body) = f.body {
                for m in markers_in(file, body, &mut findings) {
                    file_markers.extend(m.clauses.iter().cloned());
                    all_marker_clauses.extend(m.clauses);
                }
            }
        }
        let unsafes: Vec<&FnInfo> = fns.iter().filter(|f| f.is_unsafe).collect();

        for f in &unsafes {
            let clauses = requires_clauses(&f.doc, &file.rel, f.header_line, &mut findings);
            if clauses.is_empty() {
                findings.push(Finding::new(
                    &file.rel,
                    f.header_line + 1,
                    PASS,
                    format!(
                        "unsafe kernel fn `{}` has no machine-readable `requires:` clause",
                        f.name
                    ),
                ));
            }
            let clause_set: BTreeSet<String> = clauses.iter().cloned().collect();

            // Evidence: target_feature demands a matching feature clause.
            for feat in &f.target_features {
                let want = format!("feature({feat})");
                if !clause_set.contains(&want) {
                    findings.push(
                        Finding::new(
                            &file.rel,
                            f.header_line + 1,
                            PASS,
                            format!(
                                "undocumented contract: `{}` is #[target_feature(enable = \"{feat}\")] \
                                 but does not state the clause",
                                f.name
                            ),
                        )
                        .with_clause(&want),
                    );
                }
            }
            if let Some(body) = f.body {
                let body_code = file.code[body.0..=body.1].join("\n");
                // Evidence: aligned loads demand aligned(…, 64) clauses.
                for intrinsic in [
                    "_mm512_load_pd(",
                    "_mm512_maskz_load_pd(",
                    "_mm256_load_pd(",
                    "_mm256_load_si256(",
                    "_mm_load_si128(",
                ] {
                    let mut from = 0usize;
                    while let Some(pos) = body_code[from..].find(intrinsic) {
                        let at = from + pos + intrinsic.len();
                        from = at;
                        let args_end = body_code[at..]
                            .find(';')
                            .map_or(body_code.len(), |e| at + e);
                        let args = &body_code[at..args_end];
                        for arr in ["val", "colidx", "p", "ci"] {
                            let want = format!("aligned({arr},64)");
                            if crate::scan::find_word(args, arr).is_some()
                                && !clause_set.contains(&want)
                            {
                                findings.push(
                                    Finding::new(
                                        &file.rel,
                                        f.header_line + 1,
                                        PASS,
                                        format!(
                                            "undocumented contract: `{}` issues an aligned load of \
                                             `{arr}` but does not state the clause",
                                            f.name
                                        ),
                                    )
                                    .with_clause(&want),
                                );
                            }
                        }
                    }
                }
                // Evidence: gathers / raw x derefs demand a cols clause.
                let gathers = ["gather", "xp.add(", "x.add(", "x.get_unchecked"]
                    .iter()
                    .any(|g| body_code.contains(g));
                let has_cols = COLS_CLAUSES.iter().any(|c| clause_set.contains(*c));
                if gathers && !has_cols {
                    findings.push(
                        Finding::new(
                            &file.rel,
                            f.header_line + 1,
                            PASS,
                            format!(
                                "undocumented contract: `{}` gathers from `x` through column \
                                 indices but states no `cols_in_bounds*` clause",
                                f.name
                            ),
                        )
                        .with_clause(
                            "cols_in_bounds(colidx, x) | cols_in_bounds_or_sentinel(colidx, x)",
                        ),
                    );
                }
            }

            // Helper calls: this function's own contract (or a same-file
            // marker) establishes every clause of each unsafe kernel
            // function it calls.
            let mut have = clause_set.clone();
            have.extend(file_markers.iter().cloned());
            for (callee, line) in f
                .body
                .map_or(Vec::new(), |b| named_calls(file, b, &contracts))
            {
                for c in contracts[&callee].iter().filter(|c| !establishes(&have, c)) {
                    findings.push(
                        Finding::new(
                            &file.rel,
                            line + 1,
                            PASS,
                            format!(
                                "`{}` calls `{callee}` without stating the clause it requires",
                                f.name
                            ),
                        )
                        .with_clause(c),
                    );
                }
            }

            // Private helpers: a feature set must be covered by a public
            // `#[target_feature]` function of the file.
            if !f.is_pub {
                for c in &clause_set {
                    let Some(feats) = c.strip_prefix("feature(").and_then(|r| r.strip_suffix(')'))
                    else {
                        continue;
                    };
                    let need: BTreeSet<&str> = feats.split(',').collect();
                    let ok = unsafes.iter().filter(|g| g.is_pub).any(|g| {
                        g.target_features.iter().any(|s| {
                            let have: BTreeSet<&str> = s.split(',').collect();
                            need.is_subset(&have)
                        })
                    });
                    if !ok {
                        findings.push(
                            Finding::new(
                                &file.rel,
                                f.header_line + 1,
                                PASS,
                                format!(
                                    "private helper `{}` requires a feature set no public \
                                     kernel of its file enables",
                                    f.name
                                ),
                            )
                            .with_clause(c),
                        );
                    }
                }
            }

            kernels.push(KernelFn {
                module: module.clone(),
                name: f.name.clone(),
                clauses: clause_set,
                params: f.params.clone(),
            });
        }
    }

    // ---- Dispatch side ----
    let Some(dispatch) = dispatch else {
        findings.push(Finding::new(
            DISPATCH,
            1,
            PASS,
            "checked.rs missing: unsafe kernels have no checked entry point".into(),
        ));
        return findings;
    };
    // A function nested in another's body (an entry point's local
    // `impl Kernel`) is part of that entry point, not a path of its own.
    let all = parse_fns(dispatch);
    let nested = |f: &FnInfo| {
        all.iter().any(|outer| {
            outer
                .body
                .is_some_and(|(lo, hi)| lo < f.header_line && f.header_line < hi)
        })
    };
    let dfns: Vec<&FnInfo> = all.iter().filter(|f| !nested(f)).collect();
    let by_name: BTreeMap<&str, &FnInfo> = dfns.iter().map(|f| (f.name.as_str(), *f)).collect();
    let declared: BTreeMap<&str, Vec<String>> = dfns
        .iter()
        .filter_map(|f| declared_clauses(&f.doc).map(|d| (f.name.as_str(), d)))
        .collect();

    let calls_of =
        |f: &FnInfo| -> Vec<Call> { f.body.map(|b| calls_in(dispatch, b)).unwrap_or_default() };

    // Anchoring validation for every dispatch marker, exactly once.
    for f in &dfns {
        if let Some(body) = f.body {
            for m in markers_in(dispatch, body, &mut findings) {
                all_marker_clauses.extend(m.clauses);
            }
        }
    }

    // Binding of a helper call's const generics to its turbofish args.
    let binding_for = |callee: &FnInfo, call: &Call| -> BTreeMap<String, String> {
        let args = call
            .turbofish
            .as_deref()
            .map(|t| split_top_level(t, ','))
            .unwrap_or_default();
        callee.const_generics.iter().cloned().zip(args).collect()
    };

    // Validate helper declarations: every declared clause needs a marker
    // in the helper's body or a (substituted) declaration of a callee.
    for f in &dfns {
        let Some(decl) = declared.get(f.name.as_str()) else {
            continue;
        };
        let mut provable: BTreeSet<String> = BTreeSet::new();
        if let Some(body) = f.body {
            for m in markers_in(dispatch, body, &mut Vec::new()) {
                provable.extend(m.clauses);
            }
        }
        for call in calls_of(f) {
            if call.path.len() == 1 {
                if let (Some(callee), Some(cd)) = (
                    by_name.get(call.path[0].as_str()),
                    declared.get(call.path[0].as_str()),
                ) {
                    let b = binding_for(callee, &call);
                    provable.extend(cd.iter().map(|c| subst(c, &b)));
                }
            }
        }
        for c in decl {
            if !provable.contains(c) {
                findings.push(
                    Finding::new(
                        &dispatch.rel,
                        f.header_line + 1,
                        PASS,
                        format!(
                            "helper `{}` declares a clause with no matching `discharges:` \
                             marker or nested check",
                            f.name
                        ),
                    )
                    .with_clause(c),
                );
            }
        }
    }

    // Direct sets and the call graph among dispatch functions.
    let mut direct: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
    let mut callers: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
    for f in &dfns {
        let mut set: BTreeSet<String> = BTreeSet::new();
        if let Some(body) = f.body {
            for m in markers_in(dispatch, body, &mut Vec::new()) {
                set.extend(m.clauses);
            }
        }
        for call in calls_of(f) {
            if call.path.len() == 1 {
                let callee = call.path[0].as_str();
                if let (Some(ci), Some(cd)) = (by_name.get(callee), declared.get(callee)) {
                    let b = binding_for(ci, &call);
                    set.extend(cd.iter().map(|c| subst(c, &b)));
                }
                if by_name.contains_key(callee) && callee != f.name {
                    callers
                        .entry(callee.to_string())
                        .or_default()
                        .insert(f.name.clone());
                }
            }
        }
        direct.insert(f.name.clone(), set);
    }

    // Effective sets: direct ∪ intersection over callers' effective sets.
    fn effective(
        name: &str,
        direct: &BTreeMap<String, BTreeSet<String>>,
        callers: &BTreeMap<String, BTreeSet<String>>,
        memo: &mut BTreeMap<String, BTreeSet<String>>,
        visiting: &mut BTreeSet<String>,
    ) -> BTreeSet<String> {
        if let Some(m) = memo.get(name) {
            return m.clone();
        }
        if !visiting.insert(name.to_string()) {
            return direct.get(name).cloned().unwrap_or_default();
        }
        let mut set = direct.get(name).cloned().unwrap_or_default();
        if let Some(cs) = callers.get(name) {
            let mut inherited: Option<BTreeSet<String>> = None;
            for c in cs {
                let e = effective(c, direct, callers, memo, visiting);
                inherited = Some(match inherited {
                    None => e,
                    Some(prev) => prev.intersection(&e).cloned().collect(),
                });
            }
            if let Some(i) = inherited {
                set.extend(i);
            }
        }
        visiting.remove(name);
        memo.insert(name.to_string(), set.clone());
        set
    }
    let mut memo = BTreeMap::new();
    for f in &dfns {
        effective(&f.name, &direct, &callers, &mut memo, &mut BTreeSet::new());
    }

    // Forward + reverse checks on every dispatch → kernel edge.
    let kernel_by_path: BTreeMap<(String, String), &KernelFn> = kernels
        .iter()
        .map(|k| ((k.module.clone(), k.name.clone()), k))
        .collect();
    for f in &dfns {
        let eff = memo.get(&f.name).cloned().unwrap_or_default();
        for call in calls_of(f) {
            if call.path.len() < 2 {
                continue;
            }
            let (module, fname) = (
                &call.path[call.path.len() - 2],
                &call.path[call.path.len() - 1],
            );
            let Some(k) = kernel_by_path.get(&(module.clone(), fname.clone())) else {
                continue;
            };
            for c in &k.clauses {
                if !eff.contains(c) {
                    findings.push(
                        Finding::new(
                            &dispatch.rel,
                            call.line + 1,
                            PASS,
                            format!(
                                "unasserted on this dispatch path: `{}` calls `{module}::{fname}` \
                                 without discharging its clause",
                                f.name
                            ),
                        )
                        .with_clause(c),
                    );
                }
            }
            for c in &eff {
                if c.starts_with("feature(") || k.clauses.contains(c) {
                    continue;
                }
                let idents = clause_idents(c);
                if !idents.is_empty() && idents.iter().all(|i| k.params.contains(i)) {
                    findings.push(
                        Finding::new(
                            &dispatch.rel,
                            call.line + 1,
                            PASS,
                            format!(
                                "asserted but undocumented: this path discharges a clause that \
                                 `{module}::{fname}` does not state in its `# Safety` contract"
                            ),
                        )
                        .with_clause(c),
                    );
                }
            }
        }
    }

    let contract_union: BTreeSet<String> = kernels
        .iter()
        .flat_map(|k| k.clauses.iter().cloned())
        .chain(declared.values().flat_map(|d| d.iter().cloned()))
        .collect();
    for c in &all_marker_clauses {
        if !contract_union.contains(c) {
            findings.push(
                Finding::new(
                    &dispatch.rel,
                    1,
                    PASS,
                    "stale `discharges:` marker: no kernel requires this clause and no helper \
                     declares it"
                        .into(),
                )
                .with_clause(c),
            );
        }
    }

    // Unsafe kernels may be entered only from checked.rs (or the kernel
    // directory itself: bodies call the lane operations and helpers).
    for file in tree {
        if file.rel == DISPATCH || file.rel.starts_with(KERNEL_DIR) {
            continue;
        }
        for f in parse_fns(file) {
            let Some(body) = f.body else { continue };
            for call in calls_in(file, body) {
                if call.path.len() < 2 {
                    continue;
                }
                let (module, fname) = (
                    &call.path[call.path.len() - 2],
                    &call.path[call.path.len() - 1],
                );
                if kernel_by_path.contains_key(&(module.clone(), fname.clone())) {
                    findings.push(Finding::new(
                        &file.rel,
                        call.line + 1,
                        PASS,
                        format!(
                            "unsafe kernel `{module}::{fname}` called outside checked.rs — \
                             the contract checks cannot see this entry point"
                        ),
                    ));
                }
            }
        }
    }

    findings
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A minimal well-formed kernel + dispatch pair.
    fn kernel_src() -> &'static str {
        "/// Kernel.\n///\n/// # Safety\n///\n/// * `requires: feature(avx2)`\n/// * `requires: len(colidx) == len(val)`\n/// * `requires: cols_in_bounds(colidx, x)`\n#[target_feature(enable = \"avx2\")]\npub unsafe fn spmv(colidx: &[u32], val: &[f64], x: &[f64], y: &mut [f64]) {\n    let _ = (colidx, val, x, y);\n    let xp = x.as_ptr();\n    let _ = unsafe { *xp.add(0) };\n}\n"
    }

    fn dispatch_src() -> &'static str {
        "/// `discharges: len(colidx) == len(val), cols_in_bounds(colidx, x)`\nfn debug_check(colidx: &[u32], val: &[f64], x: &[f64]) {\n    // discharges: len(colidx) == len(val)\n    debug_assert_eq!(colidx.len(), val.len());\n    // discharges: cols_in_bounds(colidx, x)\n    debug_assert!(colidx.iter().all(|&c| (c as usize) < x.len()));\n}\n\npub fn spmv(colidx: &[u32], val: &[f64], x: &[f64], y: &mut [f64]) {\n    debug_check(colidx, val, x);\n    // discharges: feature(avx2)\n    assert!(true);\n    unsafe { super::mini::spmv(colidx, val, x, y) }\n}\n"
    }

    fn tree(kernel: &str, dispatch: &str) -> Vec<SourceFile> {
        vec![
            SourceFile::new("crates/core/src/kernels/mini.rs", kernel),
            SourceFile::new("crates/core/src/kernels/checked.rs", dispatch),
        ]
    }

    #[test]
    fn well_formed_contract_passes() {
        let f = run(&tree(kernel_src(), dispatch_src()));
        assert!(f.is_empty(), "{f:#?}");
    }

    #[test]
    fn kernel_without_requires_clause_is_flagged() {
        let kernel = kernel_src()
            .replace("/// * `requires: feature(avx2)`\n", "")
            .replace("/// * `requires: len(colidx) == len(val)`\n", "")
            .replace("/// * `requires: cols_in_bounds(colidx, x)`\n", "");
        let f = run(&tree(&kernel, dispatch_src()));
        assert!(
            f.iter()
                .any(|f| f.message.contains("no machine-readable `requires:`")),
            "{f:#?}"
        );
    }

    #[test]
    fn removing_one_clause_fails_reverse_and_evidence() {
        // Drop only the cols clause: the dispatch path still discharges it
        // (asserted-but-undocumented) and the body evidence demands it.
        let kernel = kernel_src().replace("/// * `requires: cols_in_bounds(colidx, x)`\n", "");
        let f = run(&tree(&kernel, dispatch_src()));
        assert!(
            f.iter()
                .any(|f| f.message.contains("asserted but undocumented")),
            "{f:#?}"
        );
        assert!(
            f.iter().any(|f| f.message.contains("cols_in_bounds")),
            "{f:#?}"
        );
    }

    #[test]
    fn removing_the_assert_under_a_marker_fails_anchoring() {
        let dispatch =
            dispatch_src().replace("    debug_assert_eq!(colidx.len(), val.len());\n", "");
        let f = run(&tree(kernel_src(), &dispatch));
        assert!(
            f.iter()
                .any(|f| f.message.contains("not anchored to an assertion")),
            "{f:#?}"
        );
    }

    #[test]
    fn removing_marker_and_assert_fails_the_forward_check() {
        let dispatch = dispatch_src()
            .replace("    // discharges: len(colidx) == len(val)\n", "")
            .replace("    debug_assert_eq!(colidx.len(), val.len());\n", "");
        let f = run(&tree(kernel_src(), &dispatch));
        // The helper's declaration is now unproven AND the dispatch path
        // no longer discharges the clause the kernel requires.
        assert!(
            f.iter()
                .any(|f| f.message.contains("no matching `discharges:` marker")),
            "{f:#?}"
        );
    }

    #[test]
    fn dropping_the_helper_call_fails_every_declared_clause() {
        let dispatch = dispatch_src().replace("    debug_check(colidx, val, x);\n", "");
        let f = run(&tree(kernel_src(), &dispatch));
        assert!(
            f.iter()
                .any(|f| f.message.contains("without discharging its clause")),
            "{f:#?}"
        );
    }

    #[test]
    fn undocumented_target_feature_is_flagged() {
        let kernel = kernel_src().replace("/// * `requires: feature(avx2)`\n", "");
        let f = run(&tree(&kernel, dispatch_src()));
        assert!(
            f.iter()
                .any(|f| f.clause.as_deref() == Some("feature(avx2)")
                    && f.message.contains("target_feature")),
            "{f:#?}"
        );
    }

    #[test]
    fn stale_marker_is_flagged() {
        let dispatch = dispatch_src().replace(
            "    // discharges: feature(avx2)\n",
            "    // discharges: feature(avx2), ghost_clause(colidx)\n",
        );
        let f = run(&tree(kernel_src(), &dispatch));
        assert!(
            f.iter()
                .any(|f| f.message.contains("stale `discharges:` marker")
                    && f.clause.as_deref() == Some("ghost_clause(colidx)")),
            "{f:#?}"
        );
    }

    #[test]
    fn const_generic_substitution_bridges_helper_and_kernel() {
        let kernel = "/// K.\n///\n/// # Safety\n/// * `requires: feature(avx2)`\n/// * `requires: len(sliceptr) == slices(nrows, 8) + 1`\n#[target_feature(enable = \"avx2\")]\npub unsafe fn spmv(sliceptr: &[usize], nrows: usize) {\n    let _ = (sliceptr, nrows);\n}\n";
        let dispatch = "/// `discharges: len(sliceptr) == slices(nrows, C) + 1`\nfn debug_check<const C: usize>(sliceptr: &[usize], nrows: usize) {\n    // discharges: len(sliceptr) == slices(nrows, C) + 1\n    debug_assert_eq!(sliceptr.len(), nrows.div_ceil(C) + 1);\n}\n\npub fn spmv(sliceptr: &[usize], nrows: usize) {\n    debug_check::<8>(sliceptr, nrows);\n    // discharges: feature(avx2)\n    assert!(true);\n    unsafe { super::mini::spmv(sliceptr, nrows) }\n}\n";
        let f = run(&tree(kernel, dispatch));
        assert!(f.is_empty(), "{f:#?}");
        // With the wrong height the substituted clause no longer matches.
        let bad = dispatch.replace("debug_check::<8>", "debug_check::<4>");
        let f = run(&tree(kernel, &bad));
        assert!(
            f.iter()
                .any(|f| f.message.contains("without discharging its clause")),
            "{f:#?}"
        );
    }

    #[test]
    fn nested_kernel_impl_is_checked_as_part_of_its_entry_point() {
        // The entry point forwards to the kernel from a local `impl`: the
        // nested `on` is no path of its own, its call is the entry point's.
        let dispatch = "/// `discharges: len(colidx) == len(val), cols_in_bounds(colidx, x)`\nfn debug_check(colidx: &[u32], val: &[f64], x: &[f64]) {\n    // discharges: len(colidx) == len(val)\n    debug_assert_eq!(colidx.len(), val.len());\n    // discharges: cols_in_bounds(colidx, x)\n    debug_assert!(colidx.iter().all(|&c| (c as usize) < x.len()));\n}\n\npub fn spmv(colidx: &[u32], val: &[f64], x: &[f64], y: &mut [f64]) {\n    debug_check(colidx, val, x);\n    struct Op<'a>(&'a [u32], &'a [f64], &'a [f64], &'a mut [f64]);\n    impl Kernel for Op<'_> {\n        unsafe fn on(self) {\n            unsafe { super::mini::spmv(self.0, self.1, self.2, self.3) }\n        }\n    }\n    // discharges: feature(avx2)\n    assert!(true);\n    unsafe { run(Op(colidx, val, x, y)) }\n}\n";
        let f = run(&tree(kernel_src(), dispatch));
        assert!(f.is_empty(), "{f:#?}");
        let unchecked = dispatch.replace("    debug_check(colidx, val, x);\n", "");
        let f = run(&tree(kernel_src(), &unchecked));
        assert!(
            f.iter().any(|f| f
                .message
                .contains("`spmv` calls `mini::spmv` without discharging")),
            "{f:#?}"
        );
    }

    /// A second kernel file: a lane operation with its own contract.
    fn lanes_src() -> &'static str {
        "/// Gather.\n///\n/// # Safety\n///\n/// * `requires: readable(ci, W)`\n/// * `requires: narrow_cols_in_bounds(cidx16, cbase, x)`\npub unsafe fn gather_narrow(x: *const f64, ci: *const u16) -> f64 {\n    unsafe { *x.add(*ci as usize) }\n}\n"
    }

    #[test]
    fn helper_call_needs_the_clause_on_the_calling_function() {
        // `mini::spmv` calls the lane operation but states neither of its
        // clauses' equals: the column clause it has is the strict CSR one.
        let kernel = kernel_src().replace(
            "let _ = unsafe { *xp.add(0) };",
            "let _ = unsafe { gather_narrow(xp, colidx.as_ptr().cast()) };",
        );
        let mut t = tree(&kernel, dispatch_src());
        t.push(SourceFile::new(
            "crates/core/src/kernels/lanes.rs",
            lanes_src(),
        ));
        let f = run(&t);
        assert!(
            f.iter()
                .any(|f| f.message.contains("`spmv` calls `gather_narrow`")
                    && f.clause.as_deref() == Some("narrow_cols_in_bounds(cidx16,cbase,x)")),
            "{f:#?}"
        );
        // The extent clause is covered: the caller states `len(..)`.
        assert!(
            !f.iter()
                .any(|f| f.clause.as_deref() == Some("readable(ci,W)")),
            "{f:#?}"
        );
        // A body in *another* file stating the clause does not help.
        t.push(SourceFile::new(
            "crates/core/src/kernels/other.rs",
            "/// Other.\n///\n/// # Safety\n///\n/// * `requires: narrow_cols_in_bounds(cidx16, cbase, x)`\npub unsafe fn other(x: &[f64]) {\n    let _ = x;\n}\n",
        ));
        assert!(run(&t)
            .iter()
            .any(|f| f.message.contains("`spmv` calls `gather_narrow`")),);
    }

    #[test]
    fn pointer_extent_needs_an_extent_on_the_caller() {
        let kernel = kernel_src()
            .replace("/// * `requires: len(colidx) == len(val)`\n", "")
            .replace(
                "let _ = unsafe { *xp.add(0) };",
                "let _ = unsafe { gather_narrow(xp, colidx.as_ptr().cast()) };",
            );
        let dispatch = dispatch_src()
            .replace("len(colidx) == len(val), ", "")
            .replace(
                "    // discharges: len(colidx) == len(val)\n    debug_assert_eq!(colidx.len(), val.len());\n",
                "",
            );
        let mut t = tree(&kernel, &dispatch);
        t.push(SourceFile::new(
            "crates/core/src/kernels/lanes.rs",
            lanes_src(),
        ));
        let f = run(&t);
        assert!(
            f.iter()
                .any(|f| f.clause.as_deref() == Some("readable(ci,W)")),
            "{f:#?}"
        );
    }

    #[test]
    fn column_clause_implications_run_one_way() {
        let have = |c: &str| BTreeSet::from([normalize(c)]);
        let sentinel = COLS_CLAUSES[1];
        assert!(establishes(&have("cols_in_bounds(colidx, x)"), sentinel));
        assert!(establishes(
            &have("narrow_cols_in_bounds(cidx16, cbase, x)"),
            sentinel
        ));
        assert!(!establishes(&have(sentinel), COLS_CLAUSES[0]));
        assert!(!establishes(&have(sentinel), COLS_CLAUSES[2]));
    }

    #[test]
    fn kernels_called_outside_dispatch_are_flagged() {
        let mut t = tree(kernel_src(), dispatch_src());
        t.push(SourceFile::new(
            "crates/core/src/lib.rs",
            "pub fn sneaky(colidx: &[u32], val: &[f64], x: &[f64], y: &mut [f64]) {\n    unsafe { kernels::mini::spmv(colidx, val, x, y) }\n}\n",
        ));
        let f = run(&t);
        assert!(
            f.iter()
                .any(|f| f.message.contains("called outside checked.rs")),
            "{f:#?}"
        );
    }

    #[test]
    fn caller_intersection_requires_every_path_to_discharge() {
        // Two wrappers call the shared dispatcher; only one checks.  The
        // intersection must drop the clause, failing the kernel edge.
        let dispatch = "/// `discharges: len(colidx) == len(val), cols_in_bounds(colidx, x)`\nfn debug_check(colidx: &[u32], val: &[f64], x: &[f64]) {\n    // discharges: len(colidx) == len(val)\n    debug_assert_eq!(colidx.len(), val.len());\n    // discharges: cols_in_bounds(colidx, x)\n    debug_assert!(colidx.iter().all(|&c| (c as usize) < x.len()));\n}\n\npub fn spmv(colidx: &[u32], val: &[f64], x: &[f64], y: &mut [f64]) {\n    debug_check(colidx, val, x);\n    dispatch_any(colidx, val, x, y);\n}\n\npub fn spmv_unchecked(colidx: &[u32], val: &[f64], x: &[f64], y: &mut [f64]) {\n    dispatch_any(colidx, val, x, y);\n}\n\nfn dispatch_any(colidx: &[u32], val: &[f64], x: &[f64], y: &mut [f64]) {\n    // discharges: feature(avx2)\n    assert!(true);\n    unsafe { super::mini::spmv(colidx, val, x, y) }\n}\n";
        let f = run(&tree(kernel_src(), dispatch));
        assert!(
            f.iter()
                .any(|f| f.message.contains("without discharging its clause")),
            "{f:#?}"
        );
    }
}
