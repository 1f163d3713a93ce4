//! Cross-crate observability properties: sharded-merge correctness under
//! arbitrary thread counts, Chrome-trace well-formedness, schema
//! stability of the JSON export, and the enabled-vs-disabled overhead
//! contract on the §7 Gray-Scott stack.

mod common;
#[path = "common/ring.rs"]
mod ring;

use std::collections::{BTreeMap, BTreeSet, HashMap};

use proptest::prelude::*;
use sellkit::obs::{parse_json, validate_report_json, Registry};

/// Histogram samples including the hostile corners: NaN and +Inf clamp
/// to the top bucket, negatives and −Inf to the zero bucket, and the
/// clamping must commute with shard merging.
fn hist_sample() -> impl Strategy<Value = f64> {
    prop_oneof![
        8 => 1e-3f64..1e4,
        1 => Just(f64::NAN),
        1 => Just(f64::INFINITY),
        1 => Just(f64::NEG_INFINITY),
        1 => Just(-3.5f64),
        1 => Just(1e300f64),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Merging per-thread shards must equal the serial totals — the same
    /// events recorded from 1, 2, 4, or 7 threads always sum to the same
    /// count / seconds / flops.
    #[test]
    fn sharded_merge_equals_serial_totals(
        counts in prop::collection::vec(1usize..40, 7),
    ) {
        for threads in [1usize, 2, 4, 7] {
            let reg = Registry::new();
            let total: usize = counts.iter().take(threads).sum();
            std::thread::scope(|s| {
                for &n in counts.iter().take(threads) {
                    let reg = &reg;
                    s.spawn(move || {
                        for _ in 0..n {
                            reg.record("MatMult", 0.001, 10.0);
                            reg.counter("halo.msgs", 2.0);
                        }
                    });
                }
            });
            let rep = reg.report();
            let mm = rep.event("MatMult").expect("merged event");
            prop_assert_eq!(mm.count, total as u64, "threads={}", threads);
            prop_assert!((mm.flops - 10.0 * total as f64).abs() < 1e-9);
            prop_assert!((mm.seconds - 0.001 * total as f64).abs() < 1e-9);
            let msgs = rep.counters.get("halo.msgs").copied().unwrap_or(0.0);
            prop_assert!((msgs - 2.0 * total as f64).abs() < 1e-9);
            prop_assert_eq!(rep.threads.len(), threads);
        }
    }

    /// Histogram shard-merge correctness: samples recorded from N threads
    /// and merged at report time must give the **bucket-exact** same
    /// snapshot — count, sum, min, max, and every percentile — as the
    /// same samples pooled into a single-threaded registry.  Samples
    /// deliberately include NaN/±Inf/negatives: range clamping happens
    /// per-record, so it must be invariant under sharding, and every
    /// reported moment and percentile must stay finite.
    #[test]
    fn hist_shard_merge_equals_pooled(
        shards in prop::collection::vec(
            prop::collection::vec(hist_sample(), 1..40),
            1..6,
        ),
    ) {
        let sharded = Registry::new();
        std::thread::scope(|s| {
            for samples in &shards {
                let sharded = &sharded;
                s.spawn(move || {
                    for &v in samples {
                        sharded.hist("lat", v);
                    }
                });
            }
        });
        let pooled = Registry::new();
        for v in shards.iter().flatten() {
            pooled.hist("lat", *v);
        }

        let m = &sharded.report().hists["lat"];
        let p = &pooled.report().hists["lat"];
        prop_assert_eq!(m.count, p.count);
        prop_assert!((m.sum - p.sum).abs() <= 1e-9 * p.sum.abs());
        prop_assert_eq!(m.min, p.min);
        prop_assert_eq!(m.max, p.max);
        prop_assert!(m.sum.is_finite() && m.min.is_finite() && m.max.is_finite());
        for q in [0.0, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0] {
            prop_assert_eq!(
                m.percentile(q), p.percentile(q),
                "q={} diverged between merged and pooled", q
            );
            prop_assert!(m.percentile(q).is_finite(), "q={} non-finite", q);
        }
        prop_assert_eq!(m.buckets(), p.buckets(), "bucket vectors identical");
    }
}

#[test]
fn chrome_trace_is_wellformed_with_monotone_timestamps() {
    let reg = Registry::new();
    std::thread::scope(|s| {
        for _ in 0..4 {
            s.spawn(|| {
                for _ in 0..10 {
                    let _outer = reg.span("KSPSolve");
                    let _inner = reg.span("MatMult");
                }
            });
        }
    });
    let trace = reg.report().chrome_trace();
    let doc = parse_json(&trace).expect("trace is well-formed JSON");
    let events = doc
        .get("traceEvents")
        .and_then(|e| e.as_arr())
        .expect("traceEvents array");

    let mut last_ts: HashMap<u64, f64> = HashMap::new();
    let mut named_tracks = 0usize;
    let mut spans = 0usize;
    for e in events {
        match e.get("ph").and_then(|p| p.as_str()) {
            Some("M") => {
                assert_eq!(e.get("name").and_then(|n| n.as_str()), Some("thread_name"));
                assert!(e
                    .get("args")
                    .and_then(|a| a.get("name"))
                    .and_then(|n| n.as_str())
                    .is_some());
                named_tracks += 1;
            }
            Some("X") => {
                let tid = e.get("tid").and_then(|t| t.as_f64()).expect("tid") as u64;
                let ts = e.get("ts").and_then(|t| t.as_f64()).expect("ts");
                let dur = e.get("dur").and_then(|d| d.as_f64()).expect("dur");
                assert!(ts >= 0.0 && dur >= 0.0);
                if let Some(&prev) = last_ts.get(&tid) {
                    assert!(prev <= ts, "timestamps monotone within track {tid}");
                }
                last_ts.insert(tid, ts);
                spans += 1;
            }
            other => panic!("unexpected event phase {other:?}"),
        }
    }
    assert_eq!(named_tracks, 4, "one metadata record per recording thread");
    assert_eq!(spans, 4 * 10 * 2, "every span lands in the trace");
}

#[test]
fn json_export_is_schema_stable_under_load() {
    let reg = Registry::new();
    {
        let _solve = reg.span("KSPSolve");
        let _mm = reg.span_traffic("MatMult", 2000.0, 12_000.0);
    }
    reg.gauge("serve.queue_depth", 1.25);
    reg.series_point("ksp.rnorm", 0.0, 1.0);
    reg.series_point("ksp.rnorm", 1.0, 0.1);
    let text = reg.report().to_json(Some(100.0));
    validate_report_json(&text).expect("schema-valid");
    let doc = parse_json(&text).expect("parses");
    // The nested path carries the stage prefix.
    let events = doc.get("events").and_then(|e| e.as_arr()).unwrap();
    assert!(events
        .iter()
        .any(|e| e.get("path").and_then(|p| p.as_str()) == Some("KSPSolve>MatMult")));
    assert!(
        doc.get("series").and_then(|s| s.get("ksp.rnorm")).is_some(),
        "residual series exported"
    );
}

/// One CN step of the §7 Gray-Scott stack (the overhead-contract fixture).
fn gray_scott_step(grid: usize) -> f64 {
    use sellkit::grid::interpolation_chain;
    use sellkit::solvers::ksp::KspConfig;
    use sellkit::solvers::pc::mg::{CoarseSolve, Multigrid, MultigridConfig};
    use sellkit::solvers::snes::NewtonConfig;
    use sellkit::solvers::ts::{ThetaConfig, ThetaStepper};
    use sellkit::workloads::{GrayScott, GrayScottParams};
    use sellkit::Sell8;

    let gs = GrayScott::new(grid, GrayScottParams::default());
    let interps = interpolation_chain(gs.grid(), 3);
    let cfg = ThetaConfig {
        theta: 0.5,
        dt: 1.0,
        newton: NewtonConfig {
            rtol: 1e-8,
            ksp: KspConfig {
                rtol: 1e-5,
                restart: 30,
                ..Default::default()
            },
            ..Default::default()
        },
    };
    let mg_cfg = MultigridConfig {
        coarse: CoarseSolve::Jacobi(8),
        ..Default::default()
    };
    let mut u = gs.initial_condition(42);
    let mut ts = ThetaStepper::new(cfg);
    let t0 = std::time::Instant::now();
    let res = ts.step::<Sell8, _, _>(&gs, &mut u, |j| {
        Multigrid::<Sell8>::new(j, &interps, mg_cfg)
    });
    assert!(res.converged());
    t0.elapsed().as_secs_f64()
}

/// The ISSUE acceptance bound: running the 256² Gray-Scott step with
/// logging enabled must cost < 2 % over the disabled path — and the
/// disabled path itself is measured with the **always-on flight
/// recorder** armed, so its idle cost (one relaxed atomic per guarded
/// site) is inside the same contract.  Wall-clock sensitive, so ignored
/// by default; run explicitly with
/// `cargo test --release --test obs -- --ignored`.
#[test]
#[ignore = "timing-sensitive acceptance check; run with --release --ignored"]
fn enabled_overhead_under_two_percent() {
    use sellkit::obs::flight;
    let best = |on: bool| {
        sellkit::obs::set_enabled(on);
        flight::set_enabled(true); // always-on in both arms
        let t = (0..3)
            .map(|_| gray_scott_step(256))
            .fold(f64::INFINITY, f64::min);
        sellkit::obs::set_enabled(false);
        t
    };
    let _warmup = gray_scott_step(256);
    let off = best(false);
    let on = best(true);
    let overhead = on / off - 1.0;
    assert!(
        overhead < 0.02,
        "enabled overhead {:.2}% (off {off:.3}s, on {on:.3}s)",
        overhead * 100.0
    );
}

/// Disabled flight recorder records nothing and stays empty no matter
/// how hot the record path is hit — the semantic half of the overhead
/// contract (the timing half rides in the ignored test above).
#[test]
fn disabled_flight_recorder_records_nothing() {
    use sellkit::obs::flight;
    flight::set_enabled(false);
    flight::clear();
    for i in 0..10_000u64 {
        flight::record("spam", &[i], i as f64, 0.0);
    }
    assert!(
        flight::snapshot().is_empty(),
        "disabled recorder must stay empty"
    );
    flight::set_enabled(true);
    flight::record("armed", &[7], 1.0, 2.0);
    let events = flight::snapshot();
    assert!(
        events.iter().any(|e| e.kind == "armed" && e.ids == [7]),
        "re-enabled recorder captures again: {events:?}"
    );
    flight::clear();
}

/// Solver attribution on the global registry (process-wide, so the checks
/// share one `#[test]`): each of the five Krylov entries opens exactly one
/// `KSPSolve` span per solve, and a distributed Newton solve is staged
/// under the names and the nesting the serial one has.
#[test]
fn krylov_and_distributed_newton_solves_are_attributed() {
    use sellkit::core::Csr;
    use sellkit::dist::dist_newton;
    use sellkit::solvers::ksp::{bicgstab, cg, fgmres, gmres, tfqmr, KspConfig, KspResult};
    use sellkit::solvers::operator::{MatOperator, SeqDot};
    use sellkit::solvers::pc::JacobiPc;
    use sellkit::solvers::snes::newton::{newton, NewtonConfig};

    /// Completed spans per stage path so far.
    fn counts() -> BTreeMap<String, u64> {
        let mut out = BTreeMap::new();
        for e in sellkit::obs::report().events {
            *out.entry(e.path).or_insert(0) += e.count;
        }
        out
    }
    /// The stage paths that completed spans between two snapshots.
    fn grown(before: &BTreeMap<String, u64>, after: &BTreeMap<String, u64>) -> BTreeSet<String> {
        let old = |p: &String| before.get(p).copied().unwrap_or(0);
        let it = after.iter().filter(|(p, &c)| c > old(p));
        it.map(|(p, _)| p.clone()).collect()
    }

    sellkit::obs::set_enabled(true);

    // SPD, so that CG is among the methods.
    let n = 64;
    let (a, _) = common::laplace_1d_hierarchy(n);
    let b = vec![1.0; n];
    let pc = JacobiPc::from_csr(&a);
    let op = MatOperator(&a);
    let cfg = KspConfig::default();
    type Solve<'s> = &'s dyn Fn(&mut [f64]) -> KspResult;
    let methods: [(&str, Solve<'_>); 5] = [
        ("gmres", &|x| gmres(&op, &pc, &SeqDot, &b, x, &cfg)),
        ("fgmres", &|x| fgmres(&op, &pc, &SeqDot, &b, x, &cfg)),
        ("cg", &|x| cg(&op, &pc, &SeqDot, &b, x, &cfg)),
        ("bicgstab", &|x| bicgstab(&op, &pc, &SeqDot, &b, x, &cfg)),
        ("tfqmr", &|x| tfqmr(&op, &pc, &SeqDot, &b, x, &cfg)),
    ];
    for (name, solve) in methods {
        let before = counts();
        let _ = solve(&mut vec![0.0; n]);
        let after = counts();
        let spans = |c: &BTreeMap<String, u64>| c.get("KSPSolve").copied().unwrap_or(0);
        assert_eq!(spans(&after) - spans(&before), 1, "{name}: KSPSolve spans");
        assert!(
            grown(&before, &after).contains("KSPSolve>MatMult"),
            "{name}: its MatMults nest under KSPSolve"
        );
    }

    let ring_n = 48;
    let newton_cfg = NewtonConfig::default();
    let c0 = counts();
    let res = newton::<Csr, _, _>(
        &ring::Ring::new(ring_n),
        &mut vec![0.4; ring_n],
        &newton_cfg,
        JacobiPc::from_csr,
    );
    assert!(res.converged());
    let c1 = counts();
    sellkit::mpisim::run(2, move |comm| {
        let p = ring::Ring::new(ring_n);
        let mut x = vec![0.4; p.rows_of(comm).len()];
        let res = dist_newton::<Csr, _, _>(comm, &p, &mut x, &newton_cfg, 100, JacobiPc::from_csr);
        assert!(res.converged());
    });
    let c2 = counts();
    sellkit::obs::set_enabled(false);

    let (serial, dist) = (grown(&c0, &c1), grown(&c1, &c2));
    for path in [
        "SNESSolve",
        "SNESSolve>SNESFunctionEval",
        "SNESSolve>SNESJacobianEval",
        "SNESSolve>SNESJacobianEval>PCSetUp",
        "SNESSolve>KSPSolve",
        "SNESSolve>KSPSolve>MatMult",
    ] {
        assert!(
            serial.contains(path),
            "serial Newton: no {path} in {serial:?}"
        );
    }
    let missing: Vec<_> = serial.difference(&dist).collect();
    assert!(
        missing.is_empty(),
        "stages of the serial Newton solve the distributed one lacks: {missing:?}"
    );
}
