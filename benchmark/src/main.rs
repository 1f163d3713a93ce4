//! The layer-ladder benchmark: one workload per invocation, timed from
//! outside the program through its public functions.
//!
//! ```text
//! sellkit-benchmark --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//!                   [--quick] [--check-repeat]
//! ```
//!
//! Prints every metric as `workload metric value unit`, writes
//! `benchmark/out/results.<workload>[.quick][.traced].json` (and, traced,
//! `trace.<workload>.json`), and ends with the one-line JSON result the
//! driver reads.  See `benchmark/README.md`.

mod harness;
mod machine;
mod openloop;
mod spans;
mod stats;
mod workloads;
mod wrap;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::ExitCode;

use harness::{Cx, Outcome};
use sellkit_obs::Json;
use workloads::spmv::Kind;

/// The benchmark's contract: names, units, directions and bounds of every
/// metric.  The one source for what this program prints.
const CONTRACT: &str = include_str!("../../BENCHMARK.json");
const OUT_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/out");
/// The contract's timings, in the order of `Outcome::slots`.
const SLOT_KEYS: [&str; 2] = ["op_ms", "ref_ms"];
/// Workloads this program runs that `BENCHMARK.json` does not list, so no
/// change is held to them: on a shared two-core host their timings differ
/// between runs of the same code by more than any bound the contract admits.
const UNGATED: [&str; 2] = ["spmv_irregular", "apply_small"];

struct Metric {
    name: String,
    unit: String,
    higher_is_better: bool,
    /// Share of the baseline by which the metric may worsen; end-to-end
    /// metrics only.
    bound: Option<f64>,
}

struct Contract {
    run_seconds: f64,
    workloads: Vec<String>,
    end_to_end: Vec<Metric>,
    per_layer: Vec<Metric>,
}

fn contract() -> Contract {
    let json = sellkit_obs::parse_json(CONTRACT).expect("BENCHMARK.json is valid JSON");
    let list = |key: &str| json.get(key).and_then(Json::as_arr).unwrap_or(&[]).to_vec();
    let text = |j: &Json, key: &str| j.get(key).and_then(Json::as_str).unwrap_or("").to_string();
    let metrics = |key: &str| {
        list(key)
            .iter()
            .map(|m| Metric {
                name: text(m, "name"),
                unit: text(m, "unit"),
                higher_is_better: text(m, "better") == "higher",
                bound: m.get("bound").and_then(Json::as_f64),
            })
            .collect()
    };
    Contract {
        run_seconds: json
            .get("run_seconds")
            .and_then(Json::as_f64)
            .unwrap_or(10.0),
        workloads: list("workloads").iter().map(|w| text(w, "name")).collect(),
        end_to_end: metrics("end_to_end"),
        per_layer: metrics("per_layer"),
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
    check_repeat: bool,
}

fn parse_args(contract: &Contract) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 42,
        seconds: contract.run_seconds,
        trace: false,
        quick: false,
        check_repeat: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => args.trace = value()? == "1",
            "--traced" => args.trace = true,
            "--quick" => args.quick = true,
            "--check-repeat" => args.check_repeat = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !contract.workloads.contains(&args.workload) && !UNGATED.contains(&&*args.workload) {
        return Err(format!(
            "--workload must be one of {}, {}",
            contract.workloads.join(", "),
            UNGATED.join(", ")
        ));
    }
    if !(args.seconds > 0.0 && args.seconds <= 60.0) {
        return Err("--seconds must be in (0, 60]".into());
    }
    if args.quick {
        args.seconds = args.seconds.min(1.0);
    }
    Ok(args)
}

fn run_workload(cx: &Cx, name: &str) -> Outcome {
    match name {
        "spmv_dram" => workloads::spmv::run(cx, Kind::Dram),
        "spmv_irregular" => workloads::spmv::run(cx, Kind::Irregular),
        "apply_small" => workloads::apply_small::run(cx),
        "krylov_frozen" => workloads::krylov_frozen::run(cx),
        "gray_scott_solve" => workloads::gray_scott_solve::run(cx),
        "serve_open" => workloads::serve_open::run(cx),
        other => unreachable!("{other} passed the contract's workload list"),
    }
}

/// One run's metrics by contract name, and whether its outputs were right.
struct RunResult {
    correct: bool,
    attempted: u64,
    failed: u64,
    end_to_end: BTreeMap<String, f64>,
    per_layer: BTreeMap<String, f64>,
}

fn report(args: &Args, contract: &Contract, out: &Outcome) -> Result<RunResult, String> {
    let w = &args.workload;
    let mut end_to_end = BTreeMap::new();
    end_to_end.insert("setup_s".to_string(), out.setup_s);
    for (key, slot) in SLOT_KEYS.iter().zip(&out.slots) {
        end_to_end.insert(key.to_string(), slot.ms);
    }

    // A per-layer metric the workload does not exercise reads 0; one it
    // reports that the contract does not name is a bug here.
    let mut per_layer = BTreeMap::new();
    let rss = ("process.peak_rss_mib".to_string(), out.peak_rss_mib);
    for (name, value) in out.layer.iter().chain(args.trace.then_some(&rss)) {
        if !contract.per_layer.iter().any(|m| &m.name == name) {
            return Err(format!("per-layer metric {name} is not in BENCHMARK.json"));
        }
        per_layer.insert(name.clone(), *value);
    }

    for m in &contract.end_to_end {
        let value = end_to_end
            .get(&m.name)
            .ok_or(format!("end-to-end metric {} is not measured", m.name))?;
        println!("{w} {} {value} {}", m.name, m.unit);
    }
    for (i, slot) in out.slots.iter().enumerate() {
        let s = &slot.samples;
        println!(
            "{w} {} {} {}  # {}: n {} min {} low {} q1 {} median {} q3 {} ms",
            slot.name,
            slot.value,
            slot.unit,
            SLOT_KEYS
                .get(i)
                .map_or("ungated".into(), |k| format!("is {k}")),
            s.n,
            s.min,
            s.low,
            s.q1,
            s.median,
            s.q3
        );
    }
    println!("{w} peak_rss_mib {} MiB", out.peak_rss_mib);
    println!(
        "{w} fail_frac {} 1  # {} of {}",
        out.failed as f64 / out.attempted.max(1) as f64,
        out.failed,
        out.attempted
    );
    for m in contract
        .per_layer
        .iter()
        .filter(|m| per_layer.contains_key(&m.name))
    {
        println!("{w} {} {} {}", m.name, per_layer[&m.name], m.unit);
    }
    for note in &out.notes {
        eprintln!("{w}: FAILED {note}");
    }

    let finite = end_to_end
        .values()
        .chain(per_layer.values())
        .all(|v| v.is_finite());
    if !finite {
        eprintln!("{w}: FAILED a metric is not a finite number");
    }
    Ok(RunResult {
        correct: out.failed == 0 && out.attempted > 0 && finite,
        attempted: out.attempted,
        failed: out.failed,
        end_to_end,
        per_layer,
    })
}

fn json_metrics(metrics: &[Metric], values: &BTreeMap<String, f64>) -> String {
    let fields: Vec<String> = metrics
        .iter()
        .map(|m| {
            let v = values.get(&m.name).copied().filter(|v| v.is_finite());
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                v.unwrap_or(0.0),
                m.unit
            )
        })
        .collect();
    format!("{{{}}}", fields.join(", "))
}

fn write_files(args: &Args, contract: &Contract, out: &Outcome, r: &RunResult) {
    let suffix = format!(
        "{}{}",
        if args.quick { ".quick" } else { "" },
        if args.trace { ".traced" } else { "" }
    );
    let mut body = String::new();
    let _ = write!(
        body,
        "{{\n  \"workload\": \"{}\",\n  \"seed\": {},\n  \"seconds\": {},\n  \"traced\": {},\n  \
         \"comparable\": {},\n  \"threads\": {{\"available\": {}, \"pool\": {}}},\n  \
         \"loadavg\": \"{}\",\n  \"correct\": {},\n  \"attempted\": {},\n  \"failed\": {},\n  \
         \"end_to_end\": {},\n  \"per_layer\": {},\n  \"slots\": [",
        args.workload,
        args.seed,
        args.seconds,
        args.trace,
        !args.quick,
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        machine::t_pool(),
        machine::loadavg(),
        r.correct,
        r.attempted,
        r.failed,
        json_metrics(&contract.end_to_end, &r.end_to_end),
        json_metrics(&contract.per_layer, &r.per_layer),
    );
    let slots: Vec<String> = out
        .slots
        .iter()
        .map(|s| {
            format!(
                "\n    {{\"name\": \"{}\", \"value\": {}, \"unit\": \"{}\", \"samples\": {}, \
                 \"ms\": {}, \"min_ms\": {}, \"low_ms\": {}, \"q1_ms\": {}, \"median_ms\": {}, \
                 \"q3_ms\": {}}}",
                s.name,
                s.value,
                s.unit,
                s.samples.n,
                s.ms,
                s.samples.min,
                s.samples.low,
                s.samples.q1,
                s.samples.median,
                s.samples.q3
            )
        })
        .collect();
    let _ = writeln!(body, "{}\n  ]\n}}", slots.join(","));
    let write = |file: String, text: &str| {
        if let Err(e) = std::fs::create_dir_all(OUT_DIR)
            .and_then(|()| std::fs::write(format!("{OUT_DIR}/{file}"), text))
        {
            eprintln!("cannot write {OUT_DIR}/{file}: {e}");
        }
    };
    write(format!("results.{}{suffix}.json", args.workload), &body);
    if args.trace {
        write(
            format!("trace.{}.json", args.workload),
            &spans::chrome_trace(&out.spans),
        );
    }
}

/// A/A test: the second run's end-to-end metrics against the first's, each
/// within its bound.
fn repeats_agree(contract: &Contract, first: &RunResult, second: &RunResult) -> bool {
    let mut agree = true;
    for m in &contract.end_to_end {
        let (a, b) = (first.end_to_end[&m.name], second.end_to_end[&m.name]);
        let worse = if m.higher_is_better {
            (a - b) / a
        } else {
            (b - a) / a
        };
        let bound = m.bound.unwrap_or(0.0);
        let ok = worse <= bound;
        agree &= ok;
        println!(
            "check-repeat {} first {a} second {b} {} worse by {:.4} of bound {bound} {}",
            m.name,
            m.unit,
            worse.max(0.0),
            if ok { "ok" } else { "REGRESSED" }
        );
    }
    agree
}

fn main() -> ExitCode {
    let contract = contract();
    let args = match parse_args(&contract) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\nusage: --workload <name> [--seed N] [--seconds S] [--trace 0|1] [--quick] [--check-repeat]");
            return ExitCode::from(2);
        }
    };
    // End-to-end numbers are measured with the program's registry off.
    harness::tracing(false);
    let cx = Cx {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        quick: args.quick,
        pool: machine::t_pool(),
    };
    println!(
        "# {} seed {} seconds {} traced {} comparable {} threads {} loadavg {}",
        args.workload,
        args.seed,
        args.seconds,
        args.trace,
        !args.quick,
        cx.pool,
        machine::loadavg()
    );

    let mut runs = Vec::new();
    for _ in 0..if args.check_repeat { 2 } else { 1 } {
        let out = run_workload(&cx, &args.workload);
        let result = match report(&args, &contract, &out) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("{e}");
                return ExitCode::from(2);
            }
        };
        write_files(&args, &contract, &out, &result);
        runs.push(result);
    }
    let agree = runs.len() < 2 || repeats_agree(&contract, &runs[0], &runs[1]);

    let last = runs.last().expect("one run was made");
    let (metrics, values) = if args.trace {
        (&contract.per_layer, &last.per_layer)
    } else {
        (&contract.end_to_end, &last.end_to_end)
    };
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        last.correct,
        last.attempted,
        last.failed,
        json_metrics(metrics, values)
    );
    if last.correct && agree {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
