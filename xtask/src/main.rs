//! `cargo run -p xtask -- <command>`: repo verification tooling.
//!
//! * `lint [--json] [--pass NAME]` — run the static-analysis passes
//!   (unsafe-audit, contract, panic-freedom, no-gather, atomics) over the
//!   workspace against `POLICY.toml`.  Exit 1 on any finding.
//! * `verify [--json] [--quick]` — `lint`, then the pool-protocol model
//!   checker (`cargo run --release -p sellkit-verify`).  The complete
//!   offline correctness gate.

#![forbid(unsafe_code)]

use std::process::ExitCode;

use xtask::diag::{render_table, to_json};
use xtask::passes;
use xtask::workspace_root;

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let Some(cmd) = args.next() else {
        return usage();
    };
    let mut json = false;
    let mut quick = false;
    let mut pass_filter: Option<String> = None;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--json" => json = true,
            "--quick" => quick = true,
            "--pass" => match args.next() {
                Some(p) => pass_filter = Some(p),
                None => return usage(),
            },
            _ => return usage(),
        }
    }
    match cmd.as_str() {
        "lint" => lint(json, pass_filter.as_deref()),
        "verify" => {
            let lint_status = lint(json, pass_filter.as_deref());
            let model_status = model_checker(quick);
            if lint_status != ExitCode::SUCCESS || model_status != ExitCode::SUCCESS {
                ExitCode::FAILURE
            } else {
                ExitCode::SUCCESS
            }
        }
        _ => usage(),
    }
}

fn lint(json: bool, pass_filter: Option<&str>) -> ExitCode {
    let root = workspace_root();
    let policy = match sellkit_verify::policy::load(&root) {
        Ok(p) => p,
        Err(msg) => {
            let f = vec![xtask::diag::Finding::new("POLICY.toml", 1, "policy", msg)];
            if json {
                println!("{}", to_json(&f));
            } else {
                print!("{}", render_table(&mut f.clone()));
            }
            return ExitCode::FAILURE;
        }
    };
    let tree = match passes::load_tree(&root) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("xtask: cannot read workspace sources: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut findings = passes::run_all(&tree, &policy);
    if let Some(p) = pass_filter {
        findings.retain(|f| f.pass == p);
    }
    if json {
        println!("{}", to_json(&findings));
    } else if findings.is_empty() {
        println!(
            "xtask lint: {} files, 0 findings (unsafe-audit, contract, panic-freedom, no-gather, atomics)",
            tree.len()
        );
    } else {
        print!("{}", render_table(&mut findings));
        println!("xtask lint: {} finding(s)", findings.len());
    }
    if findings.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn model_checker(quick: bool) -> ExitCode {
    let mut cmd = std::process::Command::new(env!("CARGO"));
    cmd.current_dir(workspace_root())
        .args(["run", "--release", "-p", "sellkit-verify", "--"]);
    if quick {
        cmd.arg("--quick");
    }
    match cmd.status() {
        Ok(st) if st.success() => ExitCode::SUCCESS,
        Ok(_) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("xtask: failed to launch the model checker: {e}");
            ExitCode::FAILURE
        }
    }
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: cargo run -p xtask -- <command>\n\
         \n\
         commands:\n\
         \x20 lint       [--json] [--pass NAME]  static passes over the workspace\n\
         \x20 verify     [--json] [--quick]      lint + pool-protocol model checker"
    );
    ExitCode::from(2)
}
