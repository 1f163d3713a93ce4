//! Distributed vectors: each rank owns a contiguous block of entries.

use sellkit_mpisim::Comm;
use sellkit_solvers::vecops;

use crate::partition::{split_rows, RowRange};

/// A vector distributed by contiguous row blocks, one block per rank.
///
/// Only the local block is stored; global reductions go through the
/// communicator.  Reduction order is rank order, so results are
/// deterministic.
#[derive(Clone, Debug)]
pub struct DistVec {
    range: RowRange,
    global_len: usize,
    local: Vec<f64>,
}

impl DistVec {
    /// Creates a zero vector of `global_len` entries distributed over the
    /// communicator's ranks.
    pub fn zeros(comm: &Comm, global_len: usize) -> Self {
        let range = split_rows(global_len, comm.size())[comm.rank()];
        Self {
            range,
            global_len,
            local: vec![0.0; range.len()],
        }
    }

    /// Creates a vector with entry `g` set to `f(g)` for every global `g`.
    pub fn from_fn(comm: &Comm, global_len: usize, f: impl Fn(usize) -> f64) -> Self {
        let mut v = Self::zeros(comm, global_len);
        for (i, x) in v.local.iter_mut().enumerate() {
            *x = f(v.range.start + i);
        }
        v
    }

    /// Global length.
    pub fn global_len(&self) -> usize {
        self.global_len
    }

    /// This rank's row range.
    pub fn range(&self) -> RowRange {
        self.range
    }

    /// The locally owned block.
    pub fn local(&self) -> &[f64] {
        &self.local
    }

    /// Mutable access to the locally owned block.
    pub fn local_mut(&mut self) -> &mut [f64] {
        &mut self.local
    }

    /// Global inner product (deterministic rank-ordered reduction).
    pub fn dot(&self, comm: &Comm, other: &DistVec) -> f64 {
        assert_eq!(self.global_len, other.global_len);
        comm.allreduce_sum(vecops::dot(&self.local, &other.local))
    }

    /// Global 2-norm.
    pub fn norm2(&self, comm: &Comm) -> f64 {
        self.dot(comm, self).sqrt()
    }

    /// `self += alpha * other` (purely local).
    pub fn axpy(&mut self, alpha: f64, other: &DistVec) {
        assert_eq!(self.global_len, other.global_len);
        for (a, b) in self.local.iter_mut().zip(&other.local) {
            *a += alpha * b;
        }
    }

    /// Gathers the full vector onto every rank (test/diagnostic helper —
    /// never used in the solve path).
    pub fn gather_all(&self, comm: &Comm) -> Vec<f64> {
        let parts = comm.allgather(self.local.clone());
        parts.concat()
    }

    /// `self *= alpha` (purely local).
    pub fn scale(&mut self, alpha: f64) {
        for v in &mut self.local {
            *v *= alpha;
        }
    }

    /// `self = x` (purely local; partitions must match).
    pub fn copy_from(&mut self, x: &DistVec) {
        assert_eq!(self.global_len, x.global_len);
        assert_eq!(self.range, x.range, "copy between different partitions");
        self.local.copy_from_slice(&x.local);
    }

    /// Global ∞-norm.
    pub fn norm_inf(&self, comm: &Comm) -> f64 {
        let local = self.local.iter().fold(0.0f64, |m, v| m.max(v.abs()));
        comm.allreduce_max(local)
    }

    /// Global sum of all entries.
    pub fn sum(&self, comm: &Comm) -> f64 {
        let local: f64 = self.local.iter().sum();
        comm.allreduce_sum(local)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sellkit_mpisim::run;

    #[test]
    fn from_fn_covers_all_entries() {
        let out = run(3, |comm| {
            let v = DistVec::from_fn(comm, 10, |g| g as f64);
            v.gather_all(comm)
        });
        let want: Vec<f64> = (0..10).map(|g| g as f64).collect();
        for got in out {
            assert_eq!(got, want);
        }
    }

    #[test]
    fn dot_matches_sequential() {
        let out = run(4, |comm| {
            let a = DistVec::from_fn(comm, 33, |g| g as f64);
            let b = DistVec::from_fn(comm, 33, |g| 1.0 / (g + 1) as f64);
            a.dot(comm, &b)
        });
        let want: f64 = (0..33).map(|g| g as f64 / (g + 1) as f64).sum();
        for v in out {
            assert!((v - want).abs() < 1e-12);
        }
    }

    #[test]
    fn norm_and_axpy() {
        let out = run(2, |comm| {
            let mut a = DistVec::from_fn(comm, 8, |_| 3.0);
            let b = DistVec::from_fn(comm, 8, |_| 1.0);
            a.axpy(-3.0, &b);
            a.norm2(comm)
        });
        for v in out {
            assert_eq!(v, 0.0);
        }
    }

    #[test]
    fn scale_copy_inf_norm_and_sum() {
        let out = run(3, |comm| {
            let mut a = DistVec::from_fn(comm, 11, |g| g as f64 - 5.0);
            let inf = a.norm_inf(comm);
            let total = a.sum(comm);
            a.scale(2.0);
            let mut b = DistVec::zeros(comm, 11);
            b.copy_from(&a);
            (inf, total, b.norm_inf(comm))
        });
        for (inf, total, inf2) in out {
            assert_eq!(inf, 5.0);
            assert_eq!(total, 0.0); // symmetric around zero
            assert_eq!(inf2, 10.0);
        }
    }

    #[test]
    fn dot_is_bitwise_deterministic_across_ranks() {
        let out = run(5, |comm| {
            let a = DistVec::from_fn(comm, 101, |g| (g as f64 * 0.7).sin());
            a.dot(comm, &a)
        });
        let first = out[0].to_bits();
        assert!(out.iter().all(|v| v.to_bits() == first));
    }
}
