//! VecScatter: the communication plan moving nonlocal vector entries into
//! each rank's ghost buffer (PETSc's `VecScatterBegin`/`VecScatterEnd`).
//!
//! The plan is split into *begin* (post nonblocking sends and receives) and
//! *end* (wait and unpack), so the caller can overlap the diagonal-block
//! multiply between the two — step 2 of the §2.2 parallel SpMV.

use sellkit_mpisim::{Comm, RecvRequest};

use crate::partition::{owner_of, RowRange};

/// A reusable scatter plan from distributed vector entries to a local
/// ghost buffer ordered like `garray`.
#[derive(Debug)]
pub struct VecScatter {
    /// Message tag; distinct scatters must use distinct tags.
    tag: u64,
    /// For each destination rank: local indices of owned entries to ship.
    sends: Vec<(usize, Vec<u32>)>,
    /// For each source rank: (src, length, offset into the ghost buffer).
    recvs: Vec<(usize, usize, usize)>,
    /// Entries of the ghost buffer this rank itself owns (local copies):
    /// (local index in x, offset in ghost buffer).
    local_copies: Vec<(u32, usize)>,
    /// Ghost buffer length.
    nghost: usize,
}

/// In-flight scatter: holds the posted receives between begin and end.
#[must_use = "a started scatter must be finished with VecScatter::end"]
pub struct ScatterHandle {
    reqs: Vec<(RecvRequest<Vec<f64>>, usize, usize)>,
}

impl VecScatter {
    /// Builds the plan for gathering the (sorted, deduplicated) global
    /// indices `garray` into a ghost buffer, given each rank's owned range.
    ///
    /// Collective: every rank must call this with its own `garray`.  `tag`
    /// is the plan's own: no other plan in flight on `comm` may use it, so
    /// a caller that owns the plan draws it from [`Comm::new_tag`].  Panics
    /// if `garray` is not strictly ascending.
    pub fn build(comm: &Comm, ranges: &[RowRange], garray: &[u32], tag: u64) -> Self {
        assert_eq!(ranges.len(), comm.size());
        assert!(
            garray.windows(2).all(|w| w[0] < w[1]),
            "garray must be sorted unique"
        );
        let me = comm.rank();

        // Group my needs by owner; garray is sorted and ownership ranges
        // are contiguous, so each owner's group is one contiguous run.
        let mut needs_by_owner: Vec<Vec<u32>> = vec![Vec::new(); comm.size()];
        for &g in garray {
            needs_by_owner[owner_of(ranges, g as usize)].push(g);
        }

        // Everyone learns everyone's needs (setup is collective and rare;
        // the solve path never does this again).
        let all_needs = comm.allgather(needs_by_owner.clone());

        // What I must send: for each other rank d, the entries *I own* that
        // d needs, converted to my local indexing.
        let my_start = ranges[me].start;
        let mut sends = Vec::new();
        for (d, needs) in all_needs.iter().enumerate() {
            if d == me {
                continue;
            }
            let from_me = &needs[me];
            if !from_me.is_empty() {
                let local: Vec<u32> = from_me
                    .iter()
                    .map(|&g| (g as usize - my_start) as u32)
                    .collect();
                sends.push((d, local));
            }
        }

        // What I will receive, and the local copies for self-owned ghosts.
        let mut recvs = Vec::new();
        let mut local_copies = Vec::new();
        let mut offset = 0usize;
        for (s, group) in needs_by_owner.iter().enumerate() {
            if group.is_empty() {
                continue;
            }
            if s == me {
                for (k, &g) in group.iter().enumerate() {
                    local_copies.push(((g as usize - my_start) as u32, offset + k));
                }
            } else {
                recvs.push((s, group.len(), offset));
            }
            offset += group.len();
        }
        debug_assert_eq!(offset, garray.len());

        Self {
            tag,
            sends,
            recvs,
            local_copies,
            nghost: garray.len(),
        }
    }

    /// Ghost buffer length this plan fills.
    pub fn nghost(&self) -> usize {
        self.nghost
    }

    /// Total values this rank sends per scatter (communication volume).
    pub fn send_volume(&self) -> usize {
        self.sends.iter().map(|(_, idx)| idx.len()).sum()
    }

    /// Number of point-to-point messages this rank sends per scatter.
    pub fn nmsgs(&self) -> usize {
        self.sends.len()
    }

    /// Posts all sends and receives; copies self-owned entries immediately.
    ///
    /// `x_local` is this rank's owned block; `ghost` is the buffer to fill
    /// (length [`VecScatter::nghost`]).  Compute on local data between
    /// `begin` and [`VecScatter::end`] to overlap communication.
    pub fn begin(&self, comm: &Comm, x_local: &[f64], ghost: &mut [f64]) -> ScatterHandle {
        assert_eq!(ghost.len(), self.nghost, "ghost buffer length mismatch");
        // Step 1 of §2.2: nonblocking requests for nonlocal data.
        for (dst, idx) in &self.sends {
            let payload: Vec<f64> = idx.iter().map(|&i| x_local[i as usize]).collect();
            comm.isend(*dst, self.tag, payload);
        }
        let reqs = self
            .recvs
            .iter()
            .map(|&(src, len, off)| (comm.irecv::<Vec<f64>>(src, self.tag), off, len))
            .collect();
        for &(i, off) in &self.local_copies {
            ghost[off] = x_local[i as usize];
        }
        ScatterHandle { reqs }
    }

    /// Waits for all transfers and unpacks them into the ghost buffer
    /// (step 3 of §2.2).
    pub fn end(&self, comm: &Comm, handle: ScatterHandle, ghost: &mut [f64]) {
        for (req, off, len) in handle.reqs {
            let data = req.wait(comm);
            assert_eq!(data.len(), len, "scatter payload length mismatch");
            ghost[off..off + len].copy_from_slice(&data);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::split_rows;
    use sellkit_mpisim::run;

    /// Every rank gathers a few entries owned by other ranks.
    #[test]
    fn scatter_gathers_remote_entries() {
        let n = 20;
        let out = run(4, |comm| {
            let ranges = split_rows(n, comm.size());
            let me = ranges[comm.rank()];
            let x_local: Vec<f64> = (me.start..me.end).map(|g| g as f64 * 10.0).collect();
            // Need the two entries "across the boundary" plus entry 0.
            let mut garray: Vec<u32> =
                vec![0, ((me.end) % n) as u32, ((me.start + n - 1) % n) as u32];
            garray.sort_unstable();
            garray.dedup();
            // Drop self-owned from the interesting set? Keep them — the plan
            // must handle local copies too.
            let plan = VecScatter::build(comm, &ranges, &garray, 77);
            let mut ghost = vec![f64::NAN; plan.nghost()];
            let h = plan.begin(comm, &x_local, &mut ghost);
            plan.end(comm, h, &mut ghost);
            (garray, ghost)
        });
        for (garray, ghost) in out {
            for (k, &g) in garray.iter().enumerate() {
                assert_eq!(ghost[k], g as f64 * 10.0, "ghost entry {k} (global {g})");
            }
        }
    }

    #[test]
    fn empty_garray_is_a_noop() {
        run(3, |comm| {
            let ranges = split_rows(9, comm.size());
            let plan = VecScatter::build(comm, &ranges, &[], 5);
            assert_eq!(plan.nghost(), 0);
            assert_eq!(plan.send_volume(), 0);
            let x = vec![1.0; 3];
            let mut ghost = vec![];
            let h = plan.begin(comm, &x, &mut ghost);
            plan.end(comm, h, &mut ghost);
        });
    }

    #[test]
    #[should_panic(expected = "garray must be sorted unique")]
    fn an_unsorted_garray_is_refused() {
        // Built, rank 0's plan would fill ghost[0] with x[1], not x[5].
        run(2, |comm| {
            let ranges = split_rows(8, comm.size());
            let garray: &[u32] = if comm.rank() == 0 { &[5, 1] } else { &[] };
            let _ = VecScatter::build(comm, &ranges, garray, 3);
        });
    }

    #[test]
    fn two_plans_in_flight_keep_their_own_payloads() {
        let out = run(2, |comm| {
            let ranges = split_rows(8, comm.size());
            let me = ranges[comm.rank()];
            let other = ranges[1 - comm.rank()];
            // Plan a fetches the other rank's first two entries, plan b its
            // last two, each from a vector of its own.
            let ga = [other.start as u32, other.start as u32 + 1];
            let gb = [other.end as u32 - 2, other.end as u32 - 1];
            let a = VecScatter::build(comm, &ranges, &ga, comm.new_tag());
            let b = VecScatter::build(comm, &ranges, &gb, comm.new_tag());
            let xa: Vec<f64> = (me.start..me.end).map(|g| g as f64).collect();
            let xb: Vec<f64> = (me.start..me.end).map(|g| -(g as f64)).collect();
            let (mut ghost_a, mut ghost_b) = ([0.0; 2], [0.0; 2]);
            let ha = a.begin(comm, &xa, &mut ghost_a);
            let hb = b.begin(comm, &xb, &mut ghost_b);
            b.end(comm, hb, &mut ghost_b);
            a.end(comm, ha, &mut ghost_a);
            (ga, ghost_a, gb, ghost_b)
        });
        for (ga, ghost_a, gb, ghost_b) in out {
            assert_eq!(ghost_a, ga.map(|g| g as f64), "plan a's ghosts");
            assert_eq!(ghost_b, gb.map(|g| -(g as f64)), "plan b's ghosts");
        }
    }

    #[test]
    fn repeated_scatters_reuse_plan() {
        let out = run(2, |comm| {
            let ranges = split_rows(8, comm.size());
            let me = ranges[comm.rank()];
            // Each rank needs everything from the other rank.
            let other = 1 - comm.rank();
            let garray: Vec<u32> = (ranges[other].start..ranges[other].end)
                .map(|g| g as u32)
                .collect();
            let plan = VecScatter::build(comm, &ranges, &garray, 9);
            let mut results = Vec::new();
            for round in 0..5 {
                let x_local: Vec<f64> = (me.start..me.end)
                    .map(|g| (g * (round + 1)) as f64)
                    .collect();
                let mut ghost = vec![0.0; plan.nghost()];
                let h = plan.begin(comm, &x_local, &mut ghost);
                plan.end(comm, h, &mut ghost);
                results.push(ghost);
            }
            results
        });
        for (rank, rounds) in out.iter().enumerate() {
            let other_start = if rank == 0 { 4 } else { 0 };
            for (round, ghost) in rounds.iter().enumerate() {
                for (k, &v) in ghost.iter().enumerate() {
                    assert_eq!(v, ((other_start + k) * (round + 1)) as f64);
                }
            }
        }
    }
}
