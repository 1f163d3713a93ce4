//! CLI driver: replay the checked-in corpus, then walk derived random
//! seeds until the time budget runs out.  Any finding is minimized,
//! printed as a paste-ready test snippet, written to an artifact file,
//! and fails the process with exit code 1.

#![forbid(unsafe_code)]

use std::io::Write as _;
use std::time::{Duration, Instant};

use sellkit_core::Isa;
use sellkit_fuzz::diff::{
    repro_fails, run_case, run_huge_shape_case, Config, Ctxs, Finding, Row, FORMATS, ROWS,
};
use sellkit_fuzz::gen::{build, FAMILIES, X_CLASSES};
use sellkit_fuzz::shrink::{emit_test_snippet, minimize};

struct Args {
    seconds: u64,
    seed: u64,
    corpus: Option<String>,
    artifact: String,
    /// Walk only the last row of `ROWS`, the packed codecs (the CI codec
    /// leg), skipping the f64 rows and the huge-shape sweep.
    codec_only: bool,
}

fn parse_args() -> Args {
    let mut args = Args {
        seconds: 60,
        seed: 0xC0FFEE,
        corpus: None,
        artifact: "target/sellkit-fuzz-repro.rs".to_string(),
        codec_only: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut val = |name: &str| {
            it.next()
                .unwrap_or_else(|| panic!("{name} requires a value"))
        };
        match flag.as_str() {
            "--seconds" => args.seconds = val("--seconds").parse().expect("--seconds: integer"),
            "--seed" => args.seed = val("--seed").parse().expect("--seed: integer"),
            "--corpus" => args.corpus = Some(val("--corpus")),
            "--artifact" => args.artifact = val("--artifact"),
            "--codec-only" => args.codec_only = true,
            "--help" | "-h" => {
                eprintln!(
                    "sellkit-fuzz: differential fuzzer\n\
                     --seconds N    time budget after corpus replay (default 60)\n\
                     --seed N       base seed for derived cases (default 0xC0FFEE)\n\
                     --corpus PATH  corpus file (default: crates/fuzz/corpus/seed.txt)\n\
                     --artifact P   where to write a minimized repro on failure\n\
                     --codec-only   walk only the f32/bf16 packed-codec row"
                );
                std::process::exit(0);
            }
            other => panic!("unknown flag {other:?} (see --help)"),
        }
    }
    args
}

/// Corpus format: one `family seed` pair per line; `#` starts a comment.
fn load_corpus(path: &str) -> Vec<(String, u64)> {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("cannot read corpus {path:?}: {e}"));
    let mut out = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        let line = line.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let mut parts = line.split_whitespace();
        let family = parts.next().unwrap().to_string();
        let seed: u64 = parts
            .next()
            .and_then(|s| s.parse().ok())
            .unwrap_or_else(|| panic!("{path}:{}: expected `family seed`", lineno + 1));
        if !FAMILIES.contains(&family.as_str()) {
            panic!("{path}:{}: unknown family {family:?}", lineno + 1);
        }
        out.push((family, seed));
    }
    out
}

fn report(findings: &[Finding], cfg: &Config, ctxs: &Ctxs, artifact: &str) {
    eprintln!("\n=== {} finding(s) ===", findings.len());
    // Minimize only the first finding: later ones are usually the same
    // root cause seen through other format/thread combinations.
    for (i, f) in findings.iter().enumerate() {
        eprintln!("[{i}] {}: {}", f.case_name, f.detail);
    }
    let first = &findings[0];
    eprintln!("\nminimizing finding [0] ...");
    let (small, detail) = minimize(&first.repro, &cfg.threads, |r| repro_fails(r, cfg, ctxs));
    let snippet = emit_test_snippet(&small, &detail);
    eprintln!(
        "minimized: {} entries, {}x{}, {}\n",
        small.entries.len(),
        small.nrows,
        small.ncols,
        small.cell()
    );
    eprintln!("{snippet}");
    if let Some(dir) = std::path::Path::new(artifact).parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    match std::fs::File::create(artifact).and_then(|mut f| f.write_all(snippet.as_bytes())) {
        Ok(()) => eprintln!("repro written to {artifact}"),
        Err(e) => eprintln!("could not write {artifact}: {e}"),
    }
}

fn main() {
    let args = parse_args();
    let corpus_path = args
        .corpus
        .clone()
        .unwrap_or_else(|| format!("{}/corpus/seed.txt", env!("CARGO_MANIFEST_DIR")));
    let corpus = load_corpus(&corpus_path);
    let cfg = Config::default();
    let ctxs = Ctxs::new(&cfg.threads);

    // The engine catches panics per combination; silence the default
    // hook so expected catch_unwind probes don't spam stderr.
    std::panic::set_hook(Box::new(|_| {}));

    let rows: &[Row] = if args.codec_only {
        &ROWS[ROWS.len() - 1..]
    } else {
        &ROWS
    };
    let start = Instant::now();
    let budget = Duration::from_secs(args.seconds);
    let mut cases = 0usize;
    let mut products = 0usize;
    let mut findings: Vec<Finding> = Vec::new();

    // Phase 1: shape-only sweep at the edge of 32-bit column space
    // (skipped by the codec-only leg — it has no packed angle).
    if !args.codec_only {
        findings.extend(run_huge_shape_case());
        cases += 1;
    }

    let mut walk = |family: &str, seed: u64, findings: &mut Vec<Finding>| {
        let sweep = run_case(&build(family, seed), rows, &cfg, &ctxs, seed);
        cases += 1;
        products += sweep.products;
        findings.extend(sweep.findings);
    };

    // Phase 2: replay the checked-in corpus (always runs to completion —
    // these are the known-adversarial regressions).
    for (family, seed) in &corpus {
        walk(family, *seed, &mut findings);
        if !findings.is_empty() {
            break;
        }
    }

    // Phase 3: derived random seeds until the budget expires.
    let mut round = 0u64;
    'outer: while findings.is_empty() && start.elapsed() < budget {
        for family in FAMILIES {
            let seed = args
                .seed
                .wrapping_add(round.wrapping_mul(0x9e37_79b9_7f4a_7c15));
            walk(family, seed, &mut findings);
            if !findings.is_empty() || start.elapsed() >= budget {
                break 'outer;
            }
        }
        round += 1;
    }

    let _ = std::panic::take_hook();
    let elapsed = start.elapsed().as_secs_f64();
    if findings.is_empty() {
        let rows: Vec<String> = rows.iter().map(Row::to_string).collect();
        println!(
            "sellkit-fuzz: OK — {cases} cases ({} corpus{} + {round} random rounds), \
             {products} products: {} families x {} vector classes x rows [{}] \
             x up to {} formats x (ISA tiers {:?} serial + default tier at {:?} threads) \
             x set/add, {elapsed:.1}s, 0 divergences, 0 panics",
            corpus.len(),
            if args.codec_only { "" } else { " + huge-shape" },
            FAMILIES.len(),
            X_CLASSES.len(),
            rows.join("; "),
            FORMATS.len(),
            Isa::available_tiers(),
            cfg.threads,
        );
    } else {
        report(&findings, &cfg, &ctxs, &args.artifact);
        eprintln!(
            "sellkit-fuzz: FAILED — {} finding(s) in {cases} cases after {elapsed:.1}s",
            findings.len()
        );
        std::process::exit(1);
    }
}
