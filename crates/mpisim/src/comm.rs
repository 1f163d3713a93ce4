//! The communicator: point-to-point messaging between rank threads.

use std::any::Any;
use std::cell::{Cell, RefCell};
use std::collections::{HashMap, HashSet, VecDeque};
use std::panic::{self, AssertUnwindSafe};
use std::sync::OnceLock;

use crossbeam::channel::{unbounded, Receiver, Sender};

use crate::request::RecvRequest;

/// A message in flight: source rank, user tag, type-erased payload.
pub(crate) struct Envelope {
    pub src: usize,
    pub tag: u64,
    pub payload: Box<dyn Any + Send>,
}

/// The payload a panicking rank sends every peer before it unwinds: a
/// receive that waits on it can then fail instead of blocking forever.
struct RankPanicked;

/// Per-rank communicator handle, analogous to `MPI_COMM_WORLD`.
///
/// A `Comm` lives on exactly one rank thread.  Sends are *buffered*: they
/// enqueue and return immediately (MPI eager protocol), so the classic
/// overlap pattern — post sends, compute on local data, then wait for
/// receives — behaves as on a real cluster.
pub struct Comm {
    rank: usize,
    size: usize,
    senders: Vec<Sender<Envelope>>,
    inbox: Receiver<Envelope>,
    /// Messages that arrived before anyone asked for them, keyed by
    /// (source, tag) — MPI's unexpected-message queue.
    pending: RefCell<HashMap<(usize, u64), VecDeque<Box<dyn Any + Send>>>>,
    /// Ranks whose [`RankPanicked`] notice has arrived.
    dead: RefCell<HashSet<usize>>,
    /// Tags [`Comm::new_tag`] has handed out so far.
    drawn_tags: Cell<u64>,
}

/// [`Comm::new_tag`]'s range: `NEW_TAG_BASE + k` for `k < NEW_TAG_COUNT`.
const NEW_TAG_BASE: u64 = 1 << 63;
const NEW_TAG_COUNT: u64 = (1 << 62) - 0x100;

impl Comm {
    /// This rank's index in `0..size`.
    #[inline]
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of ranks in the communicator.
    #[inline]
    pub fn size(&self) -> usize {
        self.size
    }

    /// A message tag no earlier call on this communicator returned, for an
    /// object that sends messages (PETSc's `PetscCommGetNewTag`).  A
    /// per-rank counter that sends nothing: every rank draws its tags in
    /// the same collective order, so its `k`-th tag is every rank's.
    ///
    /// The `k`-th tag is `2⁶³ + k`, `k < 2⁶² − 256`: clear of user tags
    /// (below `2⁶²`) and of the collectives' block `u64::MAX − 0xFF..`.
    /// Panics once the range is spent.
    pub fn new_tag(&self) -> u64 {
        let k = self.drawn_tags.get();
        assert!(k < NEW_TAG_COUNT, "rank {}: no tag left to draw", self.rank);
        self.drawn_tags.set(k + 1);
        NEW_TAG_BASE + k
    }

    /// Nonblocking buffered send of `data` to rank `dst` with tag `tag`.
    ///
    /// Completes immediately; the payload is moved, not copied.  Sending to
    /// self is allowed (the message loops through this rank's own inbox).
    pub fn isend<T: Send + 'static>(&self, dst: usize, tag: u64, data: T) {
        assert!(dst < self.size, "destination rank {dst} out of range");
        self.senders[dst]
            .send(Envelope {
                src: self.rank,
                tag,
                payload: Box::new(data),
            })
            .expect("receiver thread exited before communication completed");
    }

    /// Posts a nonblocking receive for a `T` from `(src, tag)`.
    ///
    /// The returned [`RecvRequest`] must be `wait`ed to obtain the data —
    /// computation placed between `irecv` and `wait` overlaps with the
    /// sender's progress, exactly the §2.2 MatMult structure.
    pub fn irecv<T: Send + 'static>(&self, src: usize, tag: u64) -> RecvRequest<T> {
        RecvRequest::new(src, tag)
    }

    /// Blocking receive of a `T` from `(src, tag)`.
    ///
    /// Panics if the matching message has a different payload type — that
    /// is a programming error, as it would be in MPI — and if rank `src`
    /// panicked before sending it.
    pub fn recv<T: Send + 'static>(&self, src: usize, tag: u64) -> T {
        assert!(src < self.size, "source rank {src} out of range");
        // First check the unexpected-message queue.
        if let Some(q) = self.pending.borrow_mut().get_mut(&(src, tag)) {
            if let Some(payload) = q.pop_front() {
                return Self::downcast(payload, src, tag);
            }
        }
        // Drain the inbox until the matching envelope arrives.  A rank's
        // messages arrive in the order it sent them, so once its panic
        // notice is in, nothing more from it will come.
        loop {
            if self.dead.borrow().contains(&src) {
                panic!(
                    "rank {}: receive from (src, tag) = ({src}, {tag}) cannot complete: \
                     rank {src} panicked",
                    self.rank
                );
            }
            let env = self
                .inbox
                .recv()
                .expect("all senders dropped while a receive was outstanding");
            if env.src == src && env.tag == tag && !env.payload.is::<RankPanicked>() {
                return Self::downcast(env.payload, src, tag);
            }
            self.stash(env);
        }
    }

    /// Files an envelope nobody asked for yet: a panic notice marks its
    /// sender dead, anything else joins the unexpected-message queue.
    fn stash(&self, env: Envelope) {
        if env.payload.is::<RankPanicked>() {
            self.dead.borrow_mut().insert(env.src);
        } else {
            self.pending
                .borrow_mut()
                .entry((env.src, env.tag))
                .or_default()
                .push_back(env.payload);
        }
    }

    /// Whether a message from `(src, tag)` is already available (a cheap
    /// `MPI_Iprobe`): never blocks.
    pub(crate) fn probe(&self, src: usize, tag: u64) -> bool {
        if self
            .pending
            .borrow()
            .get(&(src, tag))
            .is_some_and(|q| !q.is_empty())
        {
            return true;
        }
        // Drain whatever is currently queued without blocking.
        while let Ok(env) = self.inbox.try_recv() {
            let hit = env.src == src && env.tag == tag && !env.payload.is::<RankPanicked>();
            self.stash(env);
            if hit {
                return true;
            }
        }
        false
    }

    fn downcast<T: 'static>(payload: Box<dyn Any + Send>, src: usize, tag: u64) -> T {
        *payload.downcast::<T>().unwrap_or_else(|_| {
            panic!(
                "type mismatch receiving from rank {src} tag {tag}: expected {}",
                std::any::type_name::<T>()
            )
        })
    }
}

/// Spawns `size` rank threads, gives each a [`Comm`], runs `f`, and returns
/// every rank's result ordered by rank (the `mpiexec -n size` analogue).
///
/// A panic in any rank propagates after all ranks finish or die.  The
/// panicking rank first notifies its peers, so a receive blocked on it
/// panics instead of hanging, and `run` re-raises the first rank's panic,
/// not the ones it caused.
pub fn run<R, F>(size: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(&Comm) -> R + Sync,
{
    assert!(size > 0, "communicator must have at least one rank");
    let mut senders = Vec::with_capacity(size);
    let mut receivers = Vec::with_capacity(size);
    for _ in 0..size {
        let (tx, rx) = unbounded();
        senders.push(tx);
        receivers.push(rx);
    }

    let f = &f;
    let first_panic = &OnceLock::new();
    let mut results: Vec<_> = crossbeam::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(size);
        for (rank, inbox) in receivers.into_iter().enumerate() {
            let senders = senders.clone();
            handles.push(scope.spawn(move |_| {
                let comm = Comm {
                    rank,
                    size,
                    senders,
                    inbox,
                    pending: RefCell::new(HashMap::new()),
                    dead: RefCell::new(HashSet::new()),
                    drawn_tags: Cell::new(0),
                };
                panic::catch_unwind(AssertUnwindSafe(|| f(&comm))).inspect_err(|_| {
                    let _ = first_panic.set(rank);
                    for tx in &comm.senders {
                        // A peer that already returned has no inbox left.
                        let _ = tx.send(Envelope {
                            src: rank,
                            tag: 0,
                            payload: Box::new(RankPanicked),
                        });
                    }
                })
            }));
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("rank panics are caught in the rank"))
            .collect()
    })
    .expect("mpisim scope failed");
    if let Some(&rank) = first_panic.get() {
        if let Err(payload) = results.swap_remove(rank) {
            panic::resume_unwind(payload);
        }
    }
    results
        .into_iter()
        .map(|r| r.unwrap_or_else(|e| panic::resume_unwind(e)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_rank_runs() {
        let out = run(1, |comm| {
            assert_eq!(comm.rank(), 0);
            assert_eq!(comm.size(), 1);
            42
        });
        assert_eq!(out, vec![42]);
    }

    #[test]
    fn ring_pass() {
        let out = run(5, |comm| {
            let next = (comm.rank() + 1) % comm.size();
            let prev = (comm.rank() + comm.size() - 1) % comm.size();
            comm.isend(next, 1, comm.rank());
            comm.recv::<usize>(prev, 1)
        });
        assert_eq!(out, vec![4, 0, 1, 2, 3]);
    }

    #[test]
    fn tag_matching_reorders() {
        let out = run(2, |comm| {
            if comm.rank() == 0 {
                comm.isend(1, 10, "ten".to_string());
                comm.isend(1, 20, "twenty".to_string());
                0
            } else {
                // Receive in the opposite order of sending.
                let b = comm.recv::<String>(0, 20);
                let a = comm.recv::<String>(0, 10);
                assert_eq!((a.as_str(), b.as_str()), ("ten", "twenty"));
                1
            }
        });
        assert_eq!(out, vec![0, 1]);
    }

    #[test]
    fn self_send() {
        run(1, |comm| {
            comm.isend(0, 3, vec![1.0f64, 2.0]);
            let v = comm.recv::<Vec<f64>>(0, 3);
            assert_eq!(v, vec![1.0, 2.0]);
        });
    }

    #[test]
    fn fifo_per_source_and_tag() {
        let out = run(2, |comm| {
            if comm.rank() == 0 {
                for i in 0..100u32 {
                    comm.isend(1, 5, i);
                }
                0
            } else {
                let mut last = None;
                for _ in 0..100 {
                    let v = comm.recv::<u32>(0, 5);
                    if let Some(l) = last {
                        assert!(v > l, "messages must stay ordered per (src, tag)");
                    }
                    last = Some(v);
                }
                1
            }
        });
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn probe_sees_pending() {
        run(2, |comm| {
            if comm.rank() == 0 {
                comm.isend(1, 9, 7u8);
            } else {
                while !comm.probe(0, 9) {
                    std::thread::yield_now();
                }
                assert_eq!(comm.recv::<u8>(0, 9), 7);
            }
        });
    }

    /// Runs `f` on its own thread and fails if it has not returned within
    /// 10 s, so a hang fails the test instead of stalling the suite.
    fn within_watchdog<R: Send + 'static>(f: impl FnOnce() -> R + Send + 'static) -> R {
        let (done, finished) = std::sync::mpsc::channel::<()>();
        let worker = std::thread::spawn(move || {
            // Dropped, which disconnects `finished`, when `f` returns or unwinds.
            let _done = done;
            f()
        });
        let waited = finished.recv_timeout(std::time::Duration::from_secs(10));
        assert!(
            waited != Err(std::sync::mpsc::RecvTimeoutError::Timeout),
            "mpisim::run hung after a rank panicked"
        );
        worker.join().unwrap_or_else(|e| panic::resume_unwind(e))
    }

    #[test]
    fn a_panicking_rank_fails_the_run_with_its_own_panic() {
        let outcome = within_watchdog(|| {
            panic::catch_unwind(|| {
                run(3, |comm| match comm.rank() {
                    1 => panic!("rank one fails"),
                    _ => comm.recv::<u8>(1, 4),
                })
            })
        });
        let payload = outcome.expect_err("the run must fail");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"rank one fails"));
    }

    #[test]
    fn a_receive_from_a_panicked_rank_names_it() {
        let seen = within_watchdog(|| {
            let seen = std::sync::Mutex::new(String::new());
            let _ = panic::catch_unwind(AssertUnwindSafe(|| {
                run(2, |comm| {
                    if comm.rank() == 1 {
                        panic!("rank one fails");
                    }
                    let err = panic::catch_unwind(AssertUnwindSafe(|| comm.recv::<u8>(1, 4)))
                        .expect_err("the receive must fail");
                    *seen.lock().expect("unpoisoned") =
                        err.downcast_ref::<String>().cloned().unwrap_or_default();
                })
            }));
            seen.into_inner().expect("unpoisoned")
        });
        assert_eq!(
            seen,
            "rank 0: receive from (src, tag) = (1, 4) cannot complete: rank 1 panicked"
        );
    }

    #[test]
    fn new_tags_agree_across_ranks_and_stay_clear_of_every_other_range() {
        let out = run(3, |comm| (0..4).map(|_| comm.new_tag()).collect::<Vec<_>>());
        assert!(out.iter().all(|tags| *tags == out[0]), "{out:?}");
        assert!(out[0].windows(2).all(|w| w[1] == w[0] + 1), "{out:?}");
        let last = NEW_TAG_BASE + NEW_TAG_COUNT - 1;
        for t in [out[0][0], out[0][3], last] {
            assert!(t >= 1 << 62, "{t:#x} meets the user tags");
            assert!(
                t < crate::collective::COLL_TAG,
                "{t:#x} meets the collectives' block"
            );
        }
    }

    #[test]
    #[should_panic(expected = "type mismatch")]
    fn type_mismatch_panics() {
        run(1, |comm| {
            comm.isend(0, 0, 1u32);
            let _ = comm.recv::<f64>(0, 0);
        });
    }
}
