//! Shim memory + scheduler primitives for the exhaustive model checker.
//!
//! This is a hand-rolled, loom-style simulator: threads are *modeled* as
//! explicit state machines (never OS threads), and memory is a small
//! release/acquire machine precise enough to distinguish the orderings
//! the pool protocol depends on.
//!
//! # Memory model
//!
//! Every thread `t` carries a vector clock `clocks[t]` counting its own
//! non-atomic memory events and the events of other threads it has
//! synchronized with:
//!
//! * an atomic location carries, besides its value, the clock attached by
//!   its latest store (`Release`/`SeqCst` stores attach the writer's
//!   clock; `Relaxed` stores attach nothing; RMWs *join* their clock into
//!   the existing one, modeling C11 release sequences through RMW chains);
//! * an acquiring load (`Acquire`/`SeqCst`, and the read half of an
//!   acquiring RMW) joins the location's clock into the reader's;
//! * a non-atomic read must have the location's last *write* in its
//!   clock, and a non-atomic write must additionally have every recorded
//!   *read* in its clock — otherwise the access is unsynchronized and the
//!   simulator reports it as a data race.
//!
//! Two deliberate simplifications, both documented in DESIGN.md §14:
//! atomic loads always observe the latest value in modification order
//! (stronger than C11 coherence, which also allows stale-but-coherent
//! values — the protocol only spins on such loads, so admitting stale
//! values would add schedules equivalent to "not scheduled yet"), and no
//! extra total order is modeled for `SeqCst` beyond release/acquire (an
//! IRIW-style distinction the protocol never relies on).  `park`/`unpark`
//! are modeled with *no* synchronization — weaker than std's guarantee —
//! so any protocol that passes here does not lean on the parking edge.

use std::collections::HashSet;
use std::hash::{Hash, Hasher};

/// Memory ordering of an atomic access, mirroring `std::sync::atomic`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemOrd {
    Relaxed,
    Acquire,
    Release,
    AcqRel,
    SeqCst,
}

impl MemOrd {
    fn acquires(self) -> bool {
        matches!(self, MemOrd::Acquire | MemOrd::AcqRel | MemOrd::SeqCst)
    }
    fn releases(self) -> bool {
        matches!(self, MemOrd::Release | MemOrd::AcqRel | MemOrd::SeqCst)
    }
}

/// A vector clock over thread event counters.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub(crate) struct Clock(Vec<u32>);

impl Clock {
    fn new(nthreads: usize) -> Self {
        Clock(vec![0; nthreads])
    }
    fn join(&mut self, other: &Clock) {
        for (a, b) in self.0.iter_mut().zip(&other.0) {
            *a = (*a).max(*b);
        }
    }
    fn covers(&self, thread: usize, event: u32) -> bool {
        self.0[thread] >= event
    }
}

#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct Atom {
    val: u64,
    /// Clock released into this location by its store history.
    clock: Clock,
}

#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct Cell {
    val: u64,
    /// Last write as a `(thread, event)` pair; `None` while unwritten.
    writer: Option<(usize, u32)>,
    /// Last read event per thread (0 = never read since the last write).
    reads: Vec<u32>,
}

/// The shared memory of one model state: atomics, plain cells, clocks.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) struct Mem {
    atomics: Vec<Atom>,
    cells: Vec<Cell>,
    clocks: Vec<Clock>,
}

impl Mem {
    pub fn new(natomics: usize, ncells: usize, nthreads: usize) -> Self {
        Mem {
            atomics: (0..natomics)
                .map(|_| Atom {
                    val: 0,
                    clock: Clock::new(nthreads),
                })
                .collect(),
            cells: (0..ncells)
                .map(|_| Cell {
                    val: 0,
                    writer: None,
                    reads: vec![0; nthreads],
                })
                .collect(),
            clocks: (0..nthreads).map(|_| Clock::new(nthreads)).collect(),
        }
    }

    /// Atomic load; always observes the latest value (see module docs).
    pub fn load(&mut self, t: usize, a: usize, ord: MemOrd) -> u64 {
        if ord.acquires() {
            let clock = self.atomics[a].clock.clone();
            self.clocks[t].join(&clock);
        }
        self.atomics[a].val
    }

    /// Atomic store.  A releasing store attaches the writer's clock; a
    /// relaxed store *replaces* the attachment (no release edge).
    pub fn store(&mut self, t: usize, a: usize, v: u64, ord: MemOrd) {
        self.atomics[a].val = v;
        self.atomics[a].clock = if ord.releases() {
            self.clocks[t].clone()
        } else {
            Clock::new(self.clocks.len())
        };
    }

    /// Atomic read-modify-write storing `new`; returns the old value.
    /// RMWs continue the location's release sequence: the existing clock
    /// is kept and (when releasing) joined with the writer's.
    pub(crate) fn rmw(&mut self, t: usize, a: usize, new: u64, ord: MemOrd) -> u64 {
        if ord.acquires() {
            let clock = self.atomics[a].clock.clone();
            self.clocks[t].join(&clock);
        }
        let old = self.atomics[a].val;
        self.atomics[a].val = new;
        if ord.releases() {
            let clock = self.clocks[t].clone();
            self.atomics[a].clock.join(&clock);
        }
        old
    }

    /// Current value of an atomic without any memory effect — only for
    /// computing the `new` argument of [`Mem::rmw`] within the same
    /// indivisible step.
    pub(crate) fn peek(&self, a: usize) -> u64 {
        self.atomics[a].val
    }

    /// Non-atomic read.  Errors if the latest write is not in the
    /// reader's clock (an unsynchronized — racy — read).
    pub(crate) fn na_read(&mut self, t: usize, c: usize) -> Result<u64, String> {
        if let Some((wt, we)) = self.cells[c].writer {
            if wt != t && !self.clocks[t].covers(wt, we) {
                return Err(format!(
                    "data race: thread {t} reads cell {c} without happens-before from \
                     thread {wt}'s write (stale data would be observed)"
                ));
            }
        }
        self.clocks[t].0[t] += 1;
        let event = self.clocks[t].0[t];
        self.cells[c].reads[t] = event;
        Ok(self.cells[c].val)
    }

    /// Non-atomic write.  Errors if the latest write or any recorded read
    /// is not in the writer's clock.
    pub(crate) fn na_write(&mut self, t: usize, c: usize, v: u64) -> Result<(), String> {
        if let Some((wt, we)) = self.cells[c].writer {
            if wt != t && !self.clocks[t].covers(wt, we) {
                return Err(format!(
                    "data race: thread {t} overwrites cell {c} without happens-before \
                     from thread {wt}'s write"
                ));
            }
        }
        for (rt, &re) in self.cells[c].reads.iter().enumerate() {
            if re != 0 && rt != t && !self.clocks[t].covers(rt, re) {
                return Err(format!(
                    "data race: thread {t} overwrites cell {c} while thread {rt}'s read \
                     is not ordered before the write"
                ));
            }
        }
        self.clocks[t].0[t] += 1;
        let event = self.clocks[t].0[t];
        self.cells[c].val = v;
        self.cells[c].writer = Some((t, event));
        self.cells[c].reads = vec![0; self.clocks.len()];
        Ok(())
    }

    /// Current value of a cell with no memory effect — only for model
    /// invariant checks (e.g. "this part already ran"), never for
    /// protocol data flow.
    pub(crate) fn peek_cell(&self, c: usize) -> u64 {
        self.cells[c].val
    }

    /// Direct synchronization edge `from → into` (models `join`).
    pub(crate) fn sync_threads(&mut self, into: usize, from: usize) {
        let clock = self.clocks[from].clone();
        self.clocks[into].join(&clock);
    }
}

// ---------------------------------------------------------------------------
// Explorer
// ---------------------------------------------------------------------------

/// One schedulable transition out of a state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Choice {
    /// Run thread `t` for one step.
    Step(usize),
    /// Wake thread `t` from `park()` spuriously (budget-limited).
    Spurious(usize),
}

/// A model the explorer can drive: a transition system over `Self`.
pub(crate) trait Model: Clone + Eq + Hash {
    /// Enabled transitions; empty + `!is_terminal` = deadlock.
    fn choices(&self) -> Vec<Choice>;
    /// Applies one transition, returning a human-readable step label.
    /// `Err` is a verification failure (race, assertion, …).
    fn apply(&mut self, choice: Choice) -> Result<String, String>;
    /// Whether every thread has terminated.
    fn is_terminal(&self) -> bool;
}

/// Exploration statistics of a successful run.
#[derive(Debug, Clone, Default)]
pub struct Stats {
    pub states: u64,
    pub executions: u64,
    pub max_depth: usize,
}

/// A failing schedule: the step labels leading to the violation.
#[derive(Debug, Clone)]
pub struct Counterexample {
    pub trace: Vec<String>,
    pub violation: String,
}

/// The verdict of an exploration.
#[derive(Debug, Clone)]
pub enum Outcome {
    /// Every reachable state explored; no violation.
    Pass(Stats),
    /// A violating schedule was found.
    Fail(Counterexample),
    /// A resource cap was hit before the space was exhausted: **not** a
    /// proof.  Callers must treat this as failure to verify.
    Capped(Stats),
}

/// Resource bounds for one exploration.
#[derive(Debug, Clone, Copy)]
pub struct Limits {
    pub max_states: u64,
    pub max_seconds: u64,
}

impl Default for Limits {
    fn default() -> Self {
        Limits {
            max_states: 12_000_000,
            max_seconds: 240,
        }
    }
}

fn fingerprint<S: Hash>(state: &S) -> u128 {
    // Two independent 64-bit hashes; a collision would silently prune a
    // distinct state, so make the probability negligible (~n²/2¹²⁸).
    let mut sip = std::collections::hash_map::DefaultHasher::new();
    state.hash(&mut sip);
    let mut fnv = Fnv(0xcbf2_9ce4_8422_2325);
    state.hash(&mut fnv);
    ((sip.finish() as u128) << 64) | fnv.0 as u128
}

struct Fnv(u64);

impl Hasher for Fnv {
    fn finish(&self) -> u64 {
        self.0
    }
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// Exhaustive DFS over every interleaving of `initial`, with full-state
/// deduplication.  Returns the first violation found (with its schedule),
/// `Pass` when the reachable space is exhausted, or `Capped`.
pub(crate) fn explore<M: Model>(initial: M, limits: Limits) -> Outcome {
    struct Frame<M> {
        state: M,
        choices: Vec<Choice>,
        next: usize,
    }
    let started = std::time::Instant::now();
    let mut stats = Stats::default();
    let mut visited: HashSet<u128> = HashSet::new();
    visited.insert(fingerprint(&initial));
    stats.states = 1;
    let choices = initial.choices();
    if choices.is_empty() && !initial.is_terminal() {
        return Outcome::Fail(Counterexample {
            trace: vec![],
            violation: "deadlock in the initial state".into(),
        });
    }
    let mut stack = vec![Frame {
        state: initial,
        choices,
        next: 0,
    }];
    // Labels of the steps that led to stack[i+1], for counterexamples.
    let mut labels: Vec<String> = Vec::new();

    while let Some(frame) = stack.last_mut() {
        if frame.next >= frame.choices.len() {
            stack.pop();
            labels.pop();
            continue;
        }
        let choice = frame.choices[frame.next];
        frame.next += 1;
        let mut state = frame.state.clone();
        let label = match state.apply(choice) {
            Ok(label) => label,
            Err(violation) => {
                let mut trace = labels.clone();
                trace.push(format!("<step that failed: thread choice {choice:?}>"));
                return Outcome::Fail(Counterexample { trace, violation });
            }
        };
        if state.is_terminal() {
            stats.executions += 1;
            continue;
        }
        if !visited.insert(fingerprint(&state)) {
            continue;
        }
        stats.states += 1;
        if stats.states > limits.max_states
            || (stats.states % 65_536 == 0 && started.elapsed().as_secs() >= limits.max_seconds)
        {
            return Outcome::Capped(stats);
        }
        let choices = state.choices();
        if choices.is_empty() {
            let mut trace = labels.clone();
            trace.push(label);
            return Outcome::Fail(Counterexample {
                trace,
                violation: "deadlock: no thread is runnable (lost wakeup)".into(),
            });
        }
        labels.push(label);
        stats.max_depth = stats.max_depth.max(stack.len() + 1);
        stack.push(Frame {
            state,
            choices,
            next: 0,
        });
    }
    Outcome::Pass(stats)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relaxed_store_drops_release_edge() {
        let mut m = Mem::new(1, 1, 2);
        m.na_write(0, 0, 7).expect("own write");
        m.store(0, 0, 1, MemOrd::Relaxed);
        assert_eq!(m.load(1, 0, MemOrd::SeqCst), 1);
        // Thread 1 saw the flag but has no happens-before to the data.
        assert!(m.na_read(1, 0).is_err());
    }

    #[test]
    fn release_acquire_transfers_clock() {
        let mut m = Mem::new(1, 1, 2);
        m.na_write(0, 0, 7).expect("own write");
        m.store(0, 0, 1, MemOrd::Release);
        assert_eq!(m.load(1, 0, MemOrd::Acquire), 1);
        assert_eq!(m.na_read(1, 0).expect("synchronized"), 7);
    }

    #[test]
    fn relaxed_acquire_side_is_also_racy() {
        let mut m = Mem::new(1, 1, 2);
        m.na_write(0, 0, 7).expect("own write");
        m.store(0, 0, 1, MemOrd::SeqCst);
        assert_eq!(m.load(1, 0, MemOrd::Relaxed), 1);
        assert!(m.na_read(1, 0).is_err());
    }

    #[test]
    fn rmw_chain_extends_release_sequence() {
        let mut m = Mem::new(1, 2, 3);
        // T0 writes data, releases into the counter.
        m.na_write(0, 0, 1).expect("write");
        m.store(0, 0, 0, MemOrd::SeqCst);
        // T1 writes its own data and RMWs the counter.
        m.na_write(1, 1, 2).expect("write");
        let old = m.rmw(1, 0, m.peek(0) + 1, MemOrd::SeqCst);
        assert_eq!(old, 0);
        // T2 acquire-loads the counter once and must see *both* writes.
        m.load(2, 0, MemOrd::SeqCst);
        assert_eq!(m.na_read(2, 0).expect("t0 data"), 1);
        assert_eq!(m.na_read(2, 1).expect("t1 data"), 2);
    }

    #[test]
    fn write_after_unsynchronized_read_races() {
        let mut m = Mem::new(1, 1, 2);
        m.na_write(0, 0, 1).expect("write");
        m.store(0, 0, 1, MemOrd::SeqCst);
        m.load(1, 0, MemOrd::SeqCst);
        m.na_read(1, 0).expect("synchronized read");
        // Thread 0 rewrites without having synchronized with the read.
        assert!(m.na_write(0, 0, 2).is_err());
    }
}
