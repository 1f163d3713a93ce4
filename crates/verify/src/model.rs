//! Exhaustive model of the worker-pool region protocol in
//! `crates/core/src/pool.rs`.
//!
//! The model mirrors the real protocol step for step — every pc below is
//! annotated with the `pool.rs` operation it models — and is explored
//! over *every* interleaving by `crate::sim::explore`.  What a passing
//! run proves, for the modeled lane/region bounds:
//!
//! * **no lost wakeup**: no reachable state deadlocks, even though
//!   `park`/`unpark` are modeled with zero synchronization and a bounded
//!   spurious-wakeup budget;
//! * **no part runs twice and none is skipped**: each part's result cell
//!   is written exactly once per region and the caller observes every
//!   result after its completion wait;
//! * **every part happens-before `run` returning**: the caller's
//!   post-wait reads of the result cells (and its rewrite of the region
//!   slot) are race-checked against the release/acquire clocks, so a
//!   worker write that is not ordered before `run`'s return fails the
//!   check — this is the lifetime-erasure soundness argument;
//! * **panic-capture delivery**: a payload pushed by a panicking part
//!   (caller- or worker-side, through the modeled mutex) is observed by
//!   the caller exactly once after the region completes.
//!
//! The orderings are injected through [`Config`]; [`Config::VERIFIED`]
//! matches `pool.rs`, and [`mutations`] enumerates known-bad downgrades
//! that the checker must — and does — reject.  The `model = "…"` keys in
//! `POLICY.toml` tie each real atomic access site to the [`Config`] field
//! verified here; `tests/pinning.rs` fails if they drift apart.

use crate::sim::{explore, Choice, Limits, Mem, MemOrd, Model, Outcome};

/// Memory orderings (and protocol mutations) under test, one field per
/// `Ordering::*` site in `pool.rs` (test module excluded).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Config {
    /// `run`: `done.store(0, _)` resetting the completion counter.
    pub done_reset: MemOrd,
    /// `run`: `epoch.fetch_add(1, _)` publishing the region slot.
    pub epoch_publish: MemOrd,
    /// `run`: the caller's `done.load(_)` completion wait.
    pub done_wait: MemOrd,
    /// `Drop`: `shutdown.store(true, _)`.
    pub shutdown_set: MemOrd,
    /// `Drop`: `epoch.fetch_add(1, _)` waking spinning workers.
    pub epoch_shutdown_bump: MemOrd,
    /// `worker_loop`: `epoch.load(_)` observing a published region.
    pub epoch_load: MemOrd,
    /// `worker_loop`: both `shutdown.load(_)` checks.
    pub shutdown_check: MemOrd,
    /// `worker_loop`: `done.fetch_add(1, _)` reporting completion.
    pub done_inc: MemOrd,
    /// Protocol mutation: the last worker omits `caller.unpark()`.
    pub skip_final_unpark: bool,
}

impl Config {
    /// The configuration `pool.rs` actually uses: SeqCst everywhere.
    pub const VERIFIED: Config = Config {
        done_reset: MemOrd::SeqCst,
        epoch_publish: MemOrd::SeqCst,
        done_wait: MemOrd::SeqCst,
        shutdown_set: MemOrd::SeqCst,
        epoch_shutdown_bump: MemOrd::SeqCst,
        epoch_load: MemOrd::SeqCst,
        shutdown_check: MemOrd::SeqCst,
        done_inc: MemOrd::SeqCst,
        skip_final_unpark: false,
    };

    /// The ordering verified for a `POLICY.toml` `model = "…"` key, or
    /// `None` for an unknown key.  This is the pinning surface between
    /// the checker and the atomics-hygiene table.
    pub fn verified_ordering(key: &str) -> Option<&'static str> {
        // All SeqCst today; keep the per-key map so a future relaxation
        // must be re-verified here before the policy table can change.
        const KEYS: [&str; 8] = [
            "done_reset",
            "epoch_publish",
            "done_wait",
            "shutdown_set",
            "epoch_shutdown_bump",
            "epoch_load",
            "shutdown_check",
            "done_inc",
        ];
        KEYS.contains(&key).then_some("SeqCst")
    }
}

/// One bounded protocol instance to explore.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Scenario {
    /// Execution lanes: the caller plus `lanes - 1` workers (≥ 2).
    pub lanes: usize,
    /// Consecutive regions dispatched through the one slot.
    pub regions: usize,
    /// Parts per region; lane `l` runs parts `l, l + lanes, …`.
    pub nparts: usize,
    /// A part whose body panics instead of producing a result.
    pub panic_part: Option<usize>,
}

impl std::fmt::Display for Scenario {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} lanes x {} regions x {} parts{}",
            self.lanes,
            self.regions,
            self.nparts,
            match self.panic_part {
                Some(p) => format!(", part {p} panics"),
                None => String::new(),
            }
        )
    }
}

/// The verified scenario suite: every entry must pass under
/// [`Config::VERIFIED`].
pub fn scenarios() -> Vec<Scenario> {
    vec![
        // Residue wrap: 2 lanes, caller runs parts {0, 2}, worker part 1.
        Scenario {
            lanes: 2,
            regions: 2,
            nparts: 3,
            panic_part: None,
        },
        // Acceptance bound: two workers racing over two consecutive regions.
        Scenario {
            lanes: 3,
            regions: 2,
            nparts: 3,
            panic_part: None,
        },
        // Multiple parts per worker lane.
        Scenario {
            lanes: 3,
            regions: 1,
            nparts: 5,
            panic_part: None,
        },
        // Multiple parts per lane across consecutive regions.
        Scenario {
            lanes: 3,
            regions: 2,
            nparts: 5,
            panic_part: None,
        },
        // Three workers contending on one region.
        Scenario {
            lanes: 4,
            regions: 1,
            nparts: 4,
            panic_part: None,
        },
        // Panic capture through the mutex on a worker lane.
        Scenario {
            lanes: 2,
            regions: 1,
            nparts: 2,
            panic_part: Some(1),
        },
        // Panic on the helping caller lane.
        Scenario {
            lanes: 2,
            regions: 1,
            nparts: 2,
            panic_part: Some(0),
        },
    ]
}

/// Known-bad protocol mutations: `(name, config, scenario)`.  Every entry
/// must make the checker report a violation — they are the evidence that
/// the passes above are not vacuous.
pub fn mutations() -> Vec<(&'static str, Config, Scenario)> {
    let base = Scenario {
        lanes: 2,
        regions: 2,
        nparts: 3,
        panic_part: None,
    };
    vec![
        (
            "relaxed-epoch-publish",
            Config {
                epoch_publish: MemOrd::Relaxed,
                ..Config::VERIFIED
            },
            base,
        ),
        (
            "relaxed-epoch-load",
            Config {
                epoch_load: MemOrd::Relaxed,
                ..Config::VERIFIED
            },
            base,
        ),
        (
            "relaxed-done-inc",
            Config {
                done_inc: MemOrd::Relaxed,
                ..Config::VERIFIED
            },
            base,
        ),
        (
            "relaxed-done-wait",
            Config {
                done_wait: MemOrd::Relaxed,
                ..Config::VERIFIED
            },
            base,
        ),
        (
            "drop-final-unpark",
            Config {
                skip_final_unpark: true,
                ..Config::VERIFIED
            },
            Scenario {
                lanes: 2,
                regions: 1,
                nparts: 2,
                panic_part: None,
            },
        ),
    ]
}

// Atomic locations.
const EPOCH: usize = 0;
const DONE: usize = 1;
const SHUTDOWN: usize = 2;
const PLOCK: usize = 3; // the `panics: Mutex<Vec<_>>` lock word

// Non-atomic cells: SLOT, then one result cell per part, then the panic
// vector's length.  SLOT holds `region + 1` when published, 0 when clear;
// a result cell holds `region + 1` once its part ran in that region.
const SLOT: usize = 0;

/// Program counter of the caller (thread 0), one variant per shared-memory
/// step of `WorkerPool::run` / `Drop`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum CallerPc {
    /// `*shared.region.0.get() = Some(Region { … })`
    WriteSlot,
    /// `done.store(0, _)`
    ResetDone,
    /// `epoch.fetch_add(1, _)`
    Publish,
    /// `w.thread().unpark()` for one worker.
    Wake,
    /// One `f(p)` call of the caller's helping loop.
    RunPart,
    /// `done.load(_)` of the completion wait.
    WaitLoad,
    /// `std::thread::park()` inside the completion wait.
    WaitPark,
    /// `*shared.region.0.get() = None`
    ClearSlot,
    /// `panics.lock()` (modeled as a CAS spinlock acquire).
    DrainLock,
    /// Reading + draining the captured payloads under the lock.
    DrainRead,
    /// Dropping the lock guard.
    DrainUnlock,
    /// One post-return read of a part's result — the property "every part
    /// happens-before `run` returning" made observable.
    CheckResult,
    /// `Drop`: `shutdown.store(true, _)`
    ShutdownSet,
    /// `Drop`: `epoch.fetch_add(1, _)`
    ShutdownBump,
    /// `Drop`: one worker unpark.
    ShutdownWake,
    /// `Drop`: `w.join()` — enabled once every worker terminated.
    Join,
    Done,
}

/// Program counter of one worker, one variant per shared-memory step of
/// `worker_loop`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum WorkerPc {
    /// `epoch.load(_)`
    LoadEpoch,
    /// `shutdown.load(_)` on the parked (epoch-unchanged) path.
    CheckShutPark,
    /// `std::thread::park()`
    Park,
    /// `shutdown.load(_)` after observing a new epoch.
    CheckShutRun,
    /// The `&*shared.region.0.get()` slot read.
    ReadSlot,
    /// One `f(p)` call of this lane's residue class.
    RunPart,
    /// `panics.lock()` in the part's catch handler.
    PanicLock,
    /// `panics.push(payload)` under the lock.
    PanicWrite,
    /// Dropping the lock guard.
    PanicUnlock,
    /// `done.fetch_add(1, _)` (+ conditional `caller.unpark()`).
    IncDone,
    Done,
}

#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct CallerState {
    pc: CallerPc,
    region: u64,
    /// Next own part (`p` of the helping loop).
    p: usize,
    /// Next worker to unpark in Wake / ShutdownWake.
    wake: usize,
    /// Next part whose result to verify in CheckResult.
    check: usize,
    /// Whether one of the caller's own parts panicked this region.
    own_panic: bool,
}

#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct WorkerState {
    pc: WorkerPc,
    /// Last epoch value this worker processed (`seen` in `worker_loop`).
    seen: u64,
    /// Next part of this lane's residue class.
    p: usize,
}

/// One explorable state of the pool protocol.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) struct PoolModel {
    cfg: Config,
    sc: Scenario,
    mem: Mem,
    caller: CallerState,
    workers: Vec<WorkerState>,
    /// Park tokens, `std::thread::unpark` semantics (index = thread id).
    tokens: Vec<bool>,
    /// Remaining spurious-wakeup budget per thread.
    spurious: Vec<u8>,
}

impl PoolModel {
    pub fn new(cfg: Config, sc: Scenario) -> Self {
        assert!(sc.lanes >= 2 && sc.regions >= 1 && sc.nparts >= 1);
        if let Some(p) = sc.panic_part {
            assert!(
                p < sc.nparts && sc.regions == 1,
                "panic scenarios model one region"
            );
        }
        let nthreads = sc.lanes;
        PoolModel {
            cfg,
            sc,
            mem: Mem::new(4, 1 + sc.nparts + 1, nthreads),
            caller: CallerState {
                pc: CallerPc::WriteSlot,
                region: 0,
                p: 0,
                wake: 0,
                check: 0,
                own_panic: false,
            },
            workers: (0..nthreads - 1)
                .map(|_| WorkerState {
                    pc: WorkerPc::LoadEpoch,
                    seen: 0,
                    p: 0,
                })
                .collect(),
            tokens: vec![false; nthreads],
            spurious: vec![1; nthreads],
        }
    }

    fn result_cell(p: usize) -> usize {
        1 + p
    }

    fn panics_cell(&self) -> usize {
        1 + self.sc.nparts
    }

    /// Skips over the scenario's panicking part in the caller's helping
    /// loop, recording the caught payload as pending local state.
    fn caller_skip_panics(&mut self) {
        while self.caller.p < self.sc.nparts && self.sc.panic_part == Some(self.caller.p) {
            self.caller.own_panic = true;
            self.caller.p += self.sc.lanes;
        }
    }

    /// Advances `check` past the panicking part (it produced no result).
    fn caller_skip_checks(&mut self) {
        while self.caller.check < self.sc.nparts && self.sc.panic_part == Some(self.caller.check) {
            self.caller.check += 1;
        }
    }

    fn nworkers(&self) -> usize {
        self.sc.lanes - 1
    }

    fn step_caller(&mut self) -> Result<String, String> {
        let region_tag = self.caller.region + 1;
        match self.caller.pc {
            CallerPc::WriteSlot => {
                self.mem.na_write(0, SLOT, region_tag)?;
                self.caller.pc = CallerPc::ResetDone;
                Ok(format!(
                    "caller: write region slot (region {})",
                    self.caller.region
                ))
            }
            CallerPc::ResetDone => {
                self.mem.store(0, DONE, 0, self.cfg.done_reset);
                self.caller.pc = CallerPc::Publish;
                Ok("caller: done.store(0)".into())
            }
            CallerPc::Publish => {
                let next = self.mem.peek(EPOCH) + 1;
                self.mem.rmw(0, EPOCH, next, self.cfg.epoch_publish);
                self.caller.wake = 0;
                self.caller.pc = CallerPc::Wake;
                Ok(format!("caller: epoch.fetch_add -> {next}"))
            }
            CallerPc::Wake => {
                let w = self.caller.wake;
                self.tokens[w + 1] = true;
                self.caller.wake += 1;
                if self.caller.wake == self.nworkers() {
                    self.caller.p = 0;
                    self.caller_skip_panics();
                    self.caller.pc = if self.caller.p < self.sc.nparts {
                        CallerPc::RunPart
                    } else {
                        CallerPc::WaitLoad
                    };
                }
                Ok(format!("caller: unpark worker {w}"))
            }
            CallerPc::RunPart => {
                let p = self.caller.p;
                if self.mem.peek_cell(Self::result_cell(p)) == region_tag {
                    return Err(format!(
                        "part {p} ran twice in region {}",
                        self.caller.region
                    ));
                }
                self.mem.na_write(0, Self::result_cell(p), region_tag)?;
                self.caller.p += self.sc.lanes;
                self.caller_skip_panics();
                if self.caller.p >= self.sc.nparts {
                    self.caller.pc = CallerPc::WaitLoad;
                }
                Ok(format!("caller: run part {p}"))
            }
            CallerPc::WaitLoad => {
                let done = self.mem.load(0, DONE, self.cfg.done_wait);
                if done >= self.nworkers() as u64 {
                    self.caller.pc = CallerPc::ClearSlot;
                } else {
                    self.caller.pc = CallerPc::WaitPark;
                }
                Ok(format!("caller: done.load -> {done}"))
            }
            CallerPc::WaitPark => {
                // Only reached via Choice::Step when a token is present
                // (see `choices`); Spurious wakes are handled in `apply`.
                debug_assert!(self.tokens[0]);
                self.tokens[0] = false;
                self.caller.pc = CallerPc::WaitLoad;
                Ok("caller: park -> unparked".into())
            }
            CallerPc::ClearSlot => {
                self.mem.na_write(0, SLOT, 0)?;
                self.caller.pc = CallerPc::DrainLock;
                Ok("caller: clear region slot".into())
            }
            CallerPc::DrainLock => {
                if self.mem.peek(PLOCK) == 0 {
                    self.mem.rmw(0, PLOCK, 1, MemOrd::Acquire);
                    self.caller.pc = CallerPc::DrainRead;
                    Ok("caller: panics.lock()".into())
                } else {
                    Ok("caller: panics.lock() contended".into())
                }
            }
            CallerPc::DrainRead => {
                let captured = self.mem.na_read(0, self.panics_cell())?;
                let total = captured + u64::from(self.caller.own_panic);
                let expected = u64::from(self.sc.panic_part.is_some());
                if total != expected {
                    return Err(format!(
                        "panic delivery broken: {total} payload(s) observed after the \
                         region, expected {expected}"
                    ));
                }
                self.mem.na_write(0, self.panics_cell(), 0)?;
                self.caller.own_panic = false;
                self.caller.pc = CallerPc::DrainUnlock;
                Ok(format!("caller: drain {total} panic payload(s)"))
            }
            CallerPc::DrainUnlock => {
                self.mem.store(0, PLOCK, 0, MemOrd::Release);
                self.caller.check = 0;
                self.caller_skip_checks();
                self.caller.pc = if self.caller.check < self.sc.nparts {
                    CallerPc::CheckResult
                } else {
                    self.end_region()
                };
                Ok("caller: unlock panics".into())
            }
            CallerPc::CheckResult => {
                let p = self.caller.check;
                let got = self.mem.na_read(0, Self::result_cell(p))?;
                if got != region_tag {
                    return Err(format!(
                        "part {p} skipped: result tag {got} after run() returned, \
                         expected {region_tag}"
                    ));
                }
                self.caller.check += 1;
                self.caller_skip_checks();
                if self.caller.check >= self.sc.nparts {
                    self.caller.pc = self.end_region();
                }
                Ok(format!("caller: observe result of part {p}"))
            }
            CallerPc::ShutdownSet => {
                self.mem.store(0, SHUTDOWN, 1, self.cfg.shutdown_set);
                self.caller.pc = CallerPc::ShutdownBump;
                Ok("caller: shutdown.store(true)".into())
            }
            CallerPc::ShutdownBump => {
                let next = self.mem.peek(EPOCH) + 1;
                self.mem.rmw(0, EPOCH, next, self.cfg.epoch_shutdown_bump);
                self.caller.wake = 0;
                self.caller.pc = CallerPc::ShutdownWake;
                Ok("caller: shutdown epoch bump".into())
            }
            CallerPc::ShutdownWake => {
                let w = self.caller.wake;
                self.tokens[w + 1] = true;
                self.caller.wake += 1;
                if self.caller.wake == self.nworkers() {
                    self.caller.pc = CallerPc::Join;
                }
                Ok(format!("caller: shutdown unpark worker {w}"))
            }
            CallerPc::Join => {
                // Only enabled when all workers terminated; join is a
                // synchronization edge.
                for w in 1..self.sc.lanes {
                    self.mem.sync_threads(0, w);
                }
                self.caller.pc = CallerPc::Done;
                Ok("caller: join workers".into())
            }
            CallerPc::Done => Err("stepped a terminated caller".into()),
        }
    }

    /// Region epilogue: advance to the next region or start shutdown.
    fn end_region(&mut self) -> CallerPc {
        self.caller.region += 1;
        if self.caller.region == self.sc.regions as u64 {
            CallerPc::ShutdownSet
        } else {
            CallerPc::WriteSlot
        }
    }

    fn step_worker(&mut self, w: usize) -> Result<String, String> {
        let t = w + 1; // thread id == lane index
        let lanes = self.sc.lanes;
        match self.workers[w].pc {
            WorkerPc::LoadEpoch => {
                let e = self.mem.load(t, EPOCH, self.cfg.epoch_load);
                if e == self.workers[w].seen {
                    self.workers[w].pc = WorkerPc::CheckShutPark;
                } else {
                    self.workers[w].seen = e;
                    self.workers[w].pc = WorkerPc::CheckShutRun;
                }
                Ok(format!("worker {w}: epoch.load -> {e}"))
            }
            WorkerPc::CheckShutPark => {
                let s = self.mem.load(t, SHUTDOWN, self.cfg.shutdown_check);
                self.workers[w].pc = if s != 0 {
                    WorkerPc::Done
                } else {
                    WorkerPc::Park
                };
                Ok(format!("worker {w}: shutdown.load -> {s} (parked path)"))
            }
            WorkerPc::Park => {
                debug_assert!(self.tokens[t]);
                self.tokens[t] = false;
                self.workers[w].pc = WorkerPc::LoadEpoch;
                Ok(format!("worker {w}: park -> unparked"))
            }
            WorkerPc::CheckShutRun => {
                let s = self.mem.load(t, SHUTDOWN, self.cfg.shutdown_check);
                self.workers[w].pc = if s != 0 {
                    WorkerPc::Done
                } else {
                    WorkerPc::ReadSlot
                };
                Ok(format!("worker {w}: shutdown.load -> {s}"))
            }
            WorkerPc::ReadSlot => {
                let tag = self.mem.na_read(t, SLOT)?;
                if tag == 0 {
                    return Err(format!(
                        "worker {w}: epoch advanced without a published region (slot empty)"
                    ));
                }
                if tag != self.workers[w].seen {
                    return Err(format!(
                        "worker {w}: slot tag {tag} does not match observed epoch {}",
                        self.workers[w].seen
                    ));
                }
                self.workers[w].p = t;
                self.workers[w].pc = if t < self.sc.nparts {
                    WorkerPc::RunPart
                } else {
                    WorkerPc::IncDone
                };
                Ok(format!("worker {w}: read region slot (tag {tag})"))
            }
            WorkerPc::RunPart => {
                let p = self.workers[w].p;
                if self.sc.panic_part == Some(p) {
                    self.workers[w].pc = WorkerPc::PanicLock;
                    return Ok(format!("worker {w}: part {p} panics"));
                }
                let tag = self.workers[w].seen;
                if self.mem.peek_cell(Self::result_cell(p)) == tag {
                    return Err(format!("part {p} ran twice in epoch {tag}"));
                }
                self.mem.na_write(t, Self::result_cell(p), tag)?;
                self.workers[w].p += lanes;
                if self.workers[w].p >= self.sc.nparts {
                    self.workers[w].pc = WorkerPc::IncDone;
                }
                Ok(format!("worker {w}: run part {p}"))
            }
            WorkerPc::PanicLock => {
                if self.mem.peek(PLOCK) == 0 {
                    self.mem.rmw(t, PLOCK, 1, MemOrd::Acquire);
                    self.workers[w].pc = WorkerPc::PanicWrite;
                    Ok(format!("worker {w}: panics.lock()"))
                } else {
                    Ok(format!("worker {w}: panics.lock() contended"))
                }
            }
            WorkerPc::PanicWrite => {
                let n = self.mem.na_read(t, self.panics_cell())?;
                self.mem.na_write(t, self.panics_cell(), n + 1)?;
                self.workers[w].pc = WorkerPc::PanicUnlock;
                Ok(format!("worker {w}: panics.push (now {})", n + 1))
            }
            WorkerPc::PanicUnlock => {
                self.mem.store(t, PLOCK, 0, MemOrd::Release);
                self.workers[w].p += lanes;
                self.workers[w].pc = if self.workers[w].p < self.sc.nparts {
                    WorkerPc::RunPart
                } else {
                    WorkerPc::IncDone
                };
                Ok(format!("worker {w}: unlock panics"))
            }
            WorkerPc::IncDone => {
                let next = self.mem.peek(DONE) + 1;
                let old = self.mem.rmw(t, DONE, next, self.cfg.done_inc);
                let mut label = format!("worker {w}: done.fetch_add -> {next}");
                if old + 1 == self.nworkers() as u64 && !self.cfg.skip_final_unpark {
                    self.tokens[0] = true;
                    label.push_str(", unpark caller");
                }
                self.workers[w].pc = WorkerPc::LoadEpoch;
                Ok(label)
            }
            WorkerPc::Done => Err(format!("stepped terminated worker {w}")),
        }
    }
}

impl Model for PoolModel {
    fn choices(&self) -> Vec<Choice> {
        let mut out = Vec::with_capacity(self.sc.lanes);
        match self.caller.pc {
            CallerPc::Done => {}
            CallerPc::WaitPark => {
                if self.tokens[0] {
                    out.push(Choice::Step(0));
                } else if self.spurious[0] > 0 {
                    out.push(Choice::Spurious(0));
                }
            }
            CallerPc::Join => {
                if self.workers.iter().all(|w| w.pc == WorkerPc::Done) {
                    out.push(Choice::Step(0));
                }
            }
            _ => out.push(Choice::Step(0)),
        }
        for (w, ws) in self.workers.iter().enumerate() {
            let t = w + 1;
            match ws.pc {
                WorkerPc::Done => {}
                WorkerPc::Park => {
                    if self.tokens[t] {
                        out.push(Choice::Step(t));
                    } else if self.spurious[t] > 0 {
                        out.push(Choice::Spurious(t));
                    }
                }
                _ => out.push(Choice::Step(t)),
            }
        }
        out
    }

    fn apply(&mut self, choice: Choice) -> Result<String, String> {
        match choice {
            Choice::Step(0) => self.step_caller(),
            Choice::Step(t) => self.step_worker(t - 1),
            Choice::Spurious(t) => {
                self.spurious[t] -= 1;
                if t == 0 {
                    debug_assert_eq!(self.caller.pc, CallerPc::WaitPark);
                    self.caller.pc = CallerPc::WaitLoad;
                    Ok("caller: park -> spurious wakeup".into())
                } else {
                    debug_assert_eq!(self.workers[t - 1].pc, WorkerPc::Park);
                    self.workers[t - 1].pc = WorkerPc::LoadEpoch;
                    Ok(format!("worker {}: park -> spurious wakeup", t - 1))
                }
            }
        }
    }

    fn is_terminal(&self) -> bool {
        self.caller.pc == CallerPc::Done && self.workers.iter().all(|w| w.pc == WorkerPc::Done)
    }
}

/// Explores one `(config, scenario)` pair exhaustively.
pub fn check(cfg: Config, sc: Scenario, limits: Limits) -> Outcome {
    explore(PoolModel::new(cfg, sc), limits)
}
