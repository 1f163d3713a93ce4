//! Property-based and fuzz-style tests spanning crates: message passing
//! under random traffic patterns, SpGEMM algebra, ILU robustness, Matrix
//! Market round trips, and scatter-plan coverage.

use proptest::prelude::*;
use sellkit::core::{matops, Apply, Baij, CooBuilder, Csr, ExecCtx, Operator, Sbaij, Sell8};
use sellkit::dist::{split_rows, DistMat, DistVec, VecScatter};
use sellkit::mpisim::run;
use sellkit::solvers::pc::spgemm::spgemm;
use sellkit::solvers::pc::{Ilu0, Precond};
use sellkit::workloads::matrix_market::{read_mtx, write_mtx};

fn random_square(n: usize, entries: &[(usize, usize, f64)]) -> Csr {
    let mut b = CooBuilder::new(n, n);
    for &(i, j, v) in entries {
        b.push(i % n, j % n, v);
    }
    b.to_csr()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// (A·B)·C == A·(B·C) on random sparse triples.
    #[test]
    fn spgemm_is_associative(
        n in 2usize..14,
        ea in prop::collection::vec((0usize..14, 0usize..14, -3.0f64..3.0), 1..40),
        eb in prop::collection::vec((0usize..14, 0usize..14, -3.0f64..3.0), 1..40),
        ec in prop::collection::vec((0usize..14, 0usize..14, -3.0f64..3.0), 1..40),
    ) {
        let a = random_square(n, &ea);
        let b = random_square(n, &eb);
        let c = random_square(n, &ec);
        let left = spgemm(&spgemm(&a, &b), &c).to_dense();
        let right = spgemm(&a, &spgemm(&b, &c)).to_dense();
        for k in 0..n * n {
            prop_assert!((left[k] - right[k]).abs() < 1e-9, "entry {k}");
        }
    }

    /// SpGEMM against A: (A·B)x == A(Bx).
    #[test]
    fn spgemm_matches_composed_spmv(
        n in 2usize..16,
        ea in prop::collection::vec((0usize..16, 0usize..16, -3.0f64..3.0), 1..50),
        eb in prop::collection::vec((0usize..16, 0usize..16, -3.0f64..3.0), 1..50),
    ) {
        let a = random_square(n, &ea);
        let b = random_square(n, &eb);
        let ab = spgemm(&a, &b);
        let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.4).sin()).collect();
        let mut bx = vec![0.0; n];
        b.apply(&ExecCtx::serial(), (&x).into(), (&mut bx).into(), Apply::Set);
        let mut abx1 = vec![0.0; n];
        a.apply(&ExecCtx::serial(), (&bx).into(), (&mut abx1).into(), Apply::Set);
        let mut abx2 = vec![0.0; n];
        ab.apply(&ExecCtx::serial(), (&x).into(), (&mut abx2).into(), Apply::Set);
        for i in 0..n {
            prop_assert!((abx1[i] - abx2[i]).abs() < 1e-10);
        }
    }

    /// ILU(0) on strictly diagonally dominant matrices never breaks down
    /// and its application reduces the residual of `Az = r`.
    #[test]
    fn ilu_on_diagonally_dominant(
        n in 2usize..24,
        entries in prop::collection::vec((0usize..24, 0usize..24, -1.0f64..1.0), 0..80),
    ) {
        let mut b = CooBuilder::new(n, n);
        let mut rowsum = vec![0.0f64; n];
        for &(i, j, v) in &entries {
            let (i, j) = (i % n, j % n);
            if i != j {
                b.push(i, j, v);
                rowsum[i] += v.abs();
            }
        }
        for (i, rs) in rowsum.iter().enumerate() {
            b.push(i, i, rs + 1.0);
        }
        let a = b.to_csr();
        let ilu = Ilu0::factor(&a);
        let r = vec![1.0; n];
        let mut z = vec![0.0; n];
        ilu.apply(&r, &mut z);
        let mut az = vec![0.0; n];
        a.apply(&ExecCtx::serial(), (&z).into(), (&mut az).into(), Apply::Set);
        let res: f64 = az.iter().zip(&r).map(|(x, y)| (x - y) * (x - y)).sum::<f64>().sqrt();
        let r0: f64 = (n as f64).sqrt();
        prop_assert!(res < r0, "ILU must improve on the zero guess: {res} vs {r0}");
    }

    /// Matrix Market writer/reader round-trips arbitrary sparse matrices.
    #[test]
    fn mtx_round_trip(
        m in 1usize..20,
        n in 1usize..20,
        entries in prop::collection::vec((0usize..20, 0usize..20, -5.0f64..5.0), 0..60),
    ) {
        let mut b = CooBuilder::new(m, n);
        for &(i, j, v) in &entries {
            b.push(i % m, j % n, v);
        }
        let a = b.to_csr();
        let mut buf = Vec::new();
        write_mtx(&a, &mut buf).expect("serialize");
        let back = read_mtx(buf.as_slice()).expect("parse");
        prop_assert_eq!(back.to_dense(), a.to_dense());
    }

    /// Scatter plans fetch exactly the requested entries under arbitrary
    /// garrays and rank counts.
    #[test]
    fn scatter_plan_fuzz(
        nranks in 1usize..6,
        n in 6usize..40,
        wanted in prop::collection::btree_set(0usize..40, 0..12),
    ) {
        let garray: Vec<u32> = wanted.iter().filter(|&&g| g < n).map(|&g| g as u32).collect();
        let out = run(nranks, move |comm| {
            let ranges = split_rows(n, comm.size());
            let me = ranges[comm.rank()];
            let x_local: Vec<f64> = (me.start..me.end).map(|g| g as f64 + 0.25).collect();
            let plan = VecScatter::build(comm, &ranges, &garray, 3);
            let mut ghost = vec![f64::NAN; plan.nghost()];
            let h = plan.begin(comm, &x_local, &mut ghost);
            plan.end(comm, h, &mut ghost);
            (garray.clone(), ghost)
        });
        for (ga, ghost) in out {
            for (k, &g) in ga.iter().enumerate() {
                prop_assert_eq!(ghost[k], g as f64 + 0.25);
            }
        }
    }

    /// Distributed SpMV equals sequential for arbitrary matrices and rank
    /// counts (the fundamental §2.2 equivalence).
    #[test]
    fn distmat_fuzz(
        nranks in 1usize..5,
        n in 4usize..28,
        entries in prop::collection::vec((0usize..28, 0usize..28, -2.0f64..2.0), 1..100),
    ) {
        let a = random_square(n, &entries);
        let x: Vec<f64> = (0..n).map(|g| (g as f64 * 0.9).cos()).collect();
        let mut want = vec![0.0; n];
        a.apply(&ExecCtx::serial(), (&x).into(), (&mut want).into(), Apply::Set);
        let out = run(nranks, move |comm| {
            let dm = DistMat::<Sell8>::from_global_csr(comm, &a, 2);
            let me = dm.row_range();
            let mut y = vec![0.0; me.len()];
            dm.mult(comm, &x[me.start..me.end], &mut y);
            let mut yv = DistVec::zeros(comm, n);
            yv.local_mut().copy_from_slice(&y);
            yv.gather_all(comm)
        });
        for y in out {
            for i in 0..n {
                prop_assert!((y[i] - want[i]).abs() < 1e-10, "row {i}");
            }
        }
    }

    /// MatAXPY/MatShift/MatScale algebra against dense arithmetic.
    #[test]
    fn matops_algebra(
        n in 1usize..15,
        ea in prop::collection::vec((0usize..15, 0usize..15, -4.0f64..4.0), 0..50),
        eb in prop::collection::vec((0usize..15, 0usize..15, -4.0f64..4.0), 0..50),
        alpha in -3.0f64..3.0,
        sigma in -3.0f64..3.0,
    ) {
        let a = random_square(n, &ea);
        let b = random_square(n, &eb);
        let axpy = matops::axpy(alpha, &a, &b).to_dense();
        let (da, db) = (a.to_dense(), b.to_dense());
        for k in 0..n * n {
            prop_assert!((axpy[k] - (alpha * da[k] + db[k])).abs() < 1e-10);
        }
        let shifted = matops::shift(&a, sigma).to_dense();
        for i in 0..n {
            for j in 0..n {
                let want = da[i * n + j] + if i == j { sigma } else { 0.0 };
                prop_assert!((shifted[i * n + j] - want).abs() < 1e-12);
            }
        }
        let scaled = matops::scale(&a, alpha).to_dense();
        for k in 0..n * n {
            prop_assert!((scaled[k] - alpha * da[k]).abs() < 1e-12);
        }
    }

    /// Adversarial generator pool through the full differential engine:
    /// any (family, seed) pair — ragged tails, dense-row skew, duplicate
    /// and unsorted COO, empty shapes — must produce zero divergences
    /// across every format, ISA path, vector hazard class and product mode
    /// of the walk's f64 SpMV row when checked against the scalar-CSR
    /// oracle (`tests/fuzz_smoke.rs` walks every row, one case a family).
    #[test]
    fn adversarial_pool_has_no_divergence(
        family_ix in 0usize..sellkit_fuzz::gen::FAMILIES.len(),
        seed in 0u64..1_000_000,
    ) {
        use sellkit_fuzz::diff::{run_case, Config, Ctxs, ROWS};
        use sellkit_fuzz::gen::{build, FAMILIES};

        let cfg = Config { threads: vec![1, 3], ..Config::default() };
        let ctxs = Ctxs::new(&cfg.threads);
        let case = build(FAMILIES[family_ix], seed);
        let findings = run_case(&case, &ROWS[..1], &cfg, &ctxs, seed).findings;
        prop_assert!(
            findings.is_empty(),
            "{}: {:?}",
            case.name,
            findings.iter().map(|f| &f.detail).collect::<Vec<_>>()
        );
    }

    /// Symmetric matrices survive Sbaij and Baij equally.
    #[test]
    fn sbaij_equals_baij_on_symmetric(
        nb in 1usize..8,
        entries in prop::collection::vec((0usize..16, 0usize..16, -2.0f64..2.0), 0..40),
    ) {
        let n = nb * 2;
        let mut b = CooBuilder::new(n, n);
        for i in 0..n {
            b.push(i, i, 8.0);
        }
        for &(i, j, v) in &entries {
            let (i, j) = (i % n, j % n);
            if i != j {
                b.push(i, j, v);
                b.push(j, i, v);
            }
        }
        let a = b.to_csr();
        let x: Vec<f64> = (0..n).map(|g| 0.1 * g as f64 - 0.7).collect();
        let mut y1 = vec![0.0; n];
        let mut y2 = vec![0.0; n];
        Baij::from_csr(&a, 2).apply(&ExecCtx::serial(), (&x).into(), (&mut y1).into(), Apply::Set);
        Sbaij::from_csr(&a, 2).apply(&ExecCtx::serial(), (&x).into(), (&mut y2).into(), Apply::Set);
        for i in 0..n {
            prop_assert!((y1[i] - y2[i]).abs() < 1e-10, "row {i}");
        }
    }
}

/// Random traffic fuzz for the message-passing runtime: every rank sends
/// random counts of tagged messages to random peers; totals must match.
#[test]
fn mpisim_random_traffic() {
    for seed in 0..5u64 {
        let out = run(4, move |comm| {
            // Deterministic per-rank pseudo-random plan.
            let me = comm.rank() as u64;
            let mut state = seed * 1000 + me + 1;
            let mut next = move || {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (state >> 33) as usize
            };
            // Everyone sends `k` messages to each peer, tagged by sender.
            let mut sent_sum = 0u64;
            for dst in 0..comm.size() {
                if dst == comm.rank() {
                    continue;
                }
                let k = next() % 7;
                comm.isend(dst, 1000 + me, k as u64); // header: count
                for _ in 0..k {
                    let v = (next() % 1000) as u64;
                    sent_sum += v;
                    comm.isend(dst, me, v);
                }
            }
            // Receive all, in arbitrary peer order.
            let mut recv_sum = 0u64;
            for src in (0..comm.size()).rev() {
                if src == comm.rank() {
                    continue;
                }
                let k = comm.recv::<u64>(src, 1000 + src as u64);
                for _ in 0..k {
                    recv_sum += comm.recv::<u64>(src, src as u64);
                }
            }
            (sent_sum, recv_sum)
        });
        let total_sent: u64 = out.iter().map(|(s, _)| s).sum();
        let total_recv: u64 = out.iter().map(|(_, r)| r).sum();
        assert_eq!(total_sent, total_recv, "seed {seed}");
    }
}
