//! Collective operations built on point-to-point messaging.
//!
//! Krylov solvers need reductions (dot products, norms) on every iteration;
//! these are implemented as gather-to-root + broadcast, which is simple,
//! deterministic (reduction order is always rank order, so results are
//! bitwise reproducible run-to-run), and plenty fast for in-process ranks.

use crate::comm::Comm;

/// Reserved tag space for collectives, far above user tags.
const COLL_TAG: u64 = u64::MAX - 0xFF;

impl Comm {
    /// Blocks until every rank has entered the barrier.
    pub fn barrier(&self) {
        let _ = self.allgather(());
    }

    /// Gathers one value from every rank onto all ranks, ordered by rank.
    pub fn allgather<T: Clone + Send + 'static>(&self, value: T) -> Vec<T> {
        if self.size() == 1 {
            return vec![value];
        }
        if self.rank() == 0 {
            let mut all = Vec::with_capacity(self.size());
            all.push(value);
            for src in 1..self.size() {
                all.push(self.recv::<T>(src, COLL_TAG));
            }
            for dst in 1..self.size() {
                self.isend(dst, COLL_TAG + 1, all.clone());
            }
            all
        } else {
            self.isend(0, COLL_TAG, value);
            self.recv::<Vec<T>>(0, COLL_TAG + 1)
        }
    }

    /// Sum-reduction of a double across all ranks (deterministic rank
    /// order), result available on every rank (`MPI_Allreduce` + `MPI_SUM`).
    pub fn allreduce_sum(&self, value: f64) -> f64 {
        self.allgather(value).into_iter().sum()
    }

    /// Sum-reduction of a vector across all ranks, elementwise.
    pub fn allreduce_sum_vec(&self, value: &[f64]) -> Vec<f64> {
        let all = self.allgather(value.to_vec());
        let mut out = vec![0.0; value.len()];
        for contrib in &all {
            assert_eq!(contrib.len(), out.len(), "allreduce vector length mismatch");
            for (o, c) in out.iter_mut().zip(contrib) {
                *o += c;
            }
        }
        out
    }

    /// Max-reduction across all ranks.
    pub fn allreduce_max(&self, value: f64) -> f64 {
        self.allgather(value)
            .into_iter()
            .fold(f64::NEG_INFINITY, f64::max)
    }

    /// Broadcasts `value` from `root` to every rank.
    pub fn broadcast<T: Clone + Send + 'static>(&self, root: usize, value: Option<T>) -> T {
        assert!(root < self.size());
        if self.size() == 1 {
            return value.expect("root must supply the broadcast value");
        }
        if self.rank() == root {
            let v = value.expect("root must supply the broadcast value");
            for dst in 0..self.size() {
                if dst != root {
                    self.isend(dst, COLL_TAG + 2, v.clone());
                }
            }
            v
        } else {
            self.recv::<T>(root, COLL_TAG + 2)
        }
    }

    /// Exclusive prefix sum of `value` over ranks (`MPI_Exscan`): rank `r`
    /// receives the sum of values from ranks `0..r` (0 on rank 0).  Used to
    /// compute row-range offsets when building distributed matrices.
    pub fn exscan_sum(&self, value: usize) -> usize {
        let all = self.allgather(value);
        all[..self.rank()].iter().sum()
    }

    /// Inclusive prefix sum (`MPI_Scan` + `MPI_SUM`).
    pub fn scan_sum(&self, value: f64) -> f64 {
        let all = self.allgather(value);
        all[..=self.rank()].iter().sum()
    }

    /// Gathers one value from every rank onto `root` only (`MPI_Gather`);
    /// other ranks receive `None`.
    pub fn gather<T: Clone + Send + 'static>(&self, root: usize, value: T) -> Option<Vec<T>> {
        assert!(root < self.size());
        if self.size() == 1 {
            return Some(vec![value]);
        }
        if self.rank() == root {
            let mut all: Vec<Option<T>> = (0..self.size()).map(|_| None).collect();
            all[root] = Some(value);
            for src in 0..self.size() {
                if src != root {
                    all[src] = Some(self.recv::<T>(src, COLL_TAG + 3));
                }
            }
            Some(
                all.into_iter()
                    .map(|v| v.expect("every slot filled"))
                    .collect(),
            )
        } else {
            self.isend(root, COLL_TAG + 3, value);
            None
        }
    }

    /// Scatters one chunk per rank from `root` (`MPI_Scatter`); only the
    /// root supplies `chunks` (exactly `size` of them, in rank order).
    pub fn scatter_from_root<T: Clone + Send + 'static>(
        &self,
        root: usize,
        chunks: Option<Vec<T>>,
    ) -> T {
        assert!(root < self.size());
        if self.rank() == root {
            let chunks = chunks.expect("root must supply the chunks");
            assert_eq!(chunks.len(), self.size(), "need one chunk per rank");
            let mut mine = None;
            for (dst, chunk) in chunks.into_iter().enumerate() {
                if dst == self.rank() {
                    mine = Some(chunk);
                } else {
                    self.isend(dst, COLL_TAG + 4, chunk);
                }
            }
            mine.expect("root keeps its own chunk")
        } else {
            self.recv::<T>(root, COLL_TAG + 4)
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::comm::run;

    #[test]
    fn allgather_ordered_by_rank() {
        let out = run(6, |comm| comm.allgather(comm.rank() * 10));
        for r in out {
            assert_eq!(r, vec![0, 10, 20, 30, 40, 50]);
        }
    }

    #[test]
    fn allreduce_sum_deterministic() {
        let out = run(8, |comm| comm.allreduce_sum(0.1 * (comm.rank() + 1) as f64));
        let expect = out[0];
        for v in &out {
            assert_eq!(
                v.to_bits(),
                expect.to_bits(),
                "allreduce must be bitwise identical on all ranks"
            );
        }
        assert!((expect - 3.6).abs() < 1e-12);
    }

    #[test]
    fn allreduce_vec() {
        let out = run(3, |comm| comm.allreduce_sum_vec(&[comm.rank() as f64, 1.0]));
        for v in out {
            assert_eq!(v, vec![3.0, 3.0]);
        }
    }

    #[test]
    fn max_min() {
        let out = run(4, |comm| comm.allreduce_max(comm.rank() as f64 - 1.5));
        for mx in out {
            assert_eq!(mx, 1.5);
        }
    }

    #[test]
    fn broadcast_from_nonzero_root() {
        let out = run(5, |comm| {
            let v = if comm.rank() == 3 {
                Some("hello".to_string())
            } else {
                None
            };
            comm.broadcast(3, v)
        });
        assert!(out.iter().all(|s| s == "hello"));
    }

    #[test]
    fn exscan_offsets() {
        let out = run(4, |comm| comm.exscan_sum(comm.rank() + 1));
        assert_eq!(out, vec![0, 1, 3, 6]);
    }

    #[test]
    fn scan_is_inclusive_prefix() {
        let out = run(4, |comm| comm.scan_sum((comm.rank() + 1) as f64));
        assert_eq!(out, vec![1.0, 3.0, 6.0, 10.0]);
    }

    #[test]
    fn gather_collects_on_root_only() {
        let out = run(3, |comm| comm.gather(1, comm.rank() * 2));
        assert_eq!(out[0], None);
        assert_eq!(out[1], Some(vec![0, 2, 4]));
        assert_eq!(out[2], None);
    }

    #[test]
    fn scatter_distributes_chunks() {
        let out = run(3, |comm| {
            let chunks =
                (comm.rank() == 0).then(|| vec!["a".to_string(), "b".to_string(), "c".to_string()]);
            comm.scatter_from_root(0, chunks)
        });
        assert_eq!(out, vec!["a", "b", "c"]);
    }

    #[test]
    fn gather_then_scatter_round_trips() {
        let out = run(4, |comm| {
            let gathered = comm.gather(0, comm.rank() as u64 + 100);

            comm.scatter_from_root(0, gathered)
        });
        assert_eq!(out, vec![100, 101, 102, 103]);
    }

    #[test]
    fn barrier_completes() {
        // Just exercise it for liveness across several rounds.
        run(4, |comm| {
            for _ in 0..10 {
                comm.barrier();
            }
        });
    }

    #[test]
    fn collectives_interleave_with_p2p() {
        let out = run(3, |comm| {
            let next = (comm.rank() + 1) % 3;
            let prev = (comm.rank() + 2) % 3;
            comm.isend(next, 500, comm.rank() as f64);
            let sum = comm.allreduce_sum(1.0); // collective between post and wait
            let got = comm.recv::<f64>(prev, 500);
            (sum, got)
        });
        for (r, (sum, got)) in out.iter().enumerate() {
            assert_eq!(*sum, 3.0);
            assert_eq!(*got, ((r + 2) % 3) as f64);
        }
    }
}
