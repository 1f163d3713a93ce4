//! Load generators for a request service: an open loop that sends on a
//! schedule whatever the service does, and a closed loop that keeps a fixed
//! number of requests outstanding.
//!
//! One thread both sends and collects.  It never sleeps: between sends it
//! polls the oldest outstanding request, so a completion is stamped within
//! a poll of when it happened, and it checks replies only after their
//! latency has been taken.

use std::collections::VecDeque;
use std::time::{Duration, Instant};

use crate::spans;

/// What the generators need of a service.  Replies come back in the order
/// the requests went in.
pub trait Service {
    type Pending;
    /// Sends request number `input`; `None` when the service refuses it.
    fn submit(&self, input: usize) -> Option<Self::Pending>;
    /// The reply if it is in; `Some(None)` when the request failed.
    fn poll(&self, pending: &Self::Pending) -> Option<Option<Vec<f64>>>;
    /// Whether `reply` is the right answer to request number `input`.
    fn correct(&self, input: usize, reply: &[f64]) -> bool;
}

/// What one phase of load produced.
#[derive(Default)]
pub struct Phase {
    pub sent: u64,
    /// Requests the service refused at `submit`.
    pub rejected: u64,
    /// Requests that failed, came back wrong or never came back.
    pub wrong: u64,
    /// Seconds from each answered request's due time to its reply.
    pub latency_s: Vec<f64>,
    /// Seconds each `submit` call took.
    pub submit_s: Vec<f64>,
    /// Seconds the generator sent each request after it was due.
    pub lag_s: Vec<f64>,
    /// Seconds into the phase at which each reply arrived.
    pub done_at_s: Vec<f64>,
    /// Requests outstanding at the middle and at the end of the schedule.
    pub backlog: (usize, usize),
}

impl Phase {
    /// Requests that missed: refused, failed or wrong.
    pub fn failed(&self) -> u64 {
        self.rejected + self.wrong
    }

    /// Latencies in milliseconds, sorted, with every miss counted as a
    /// latency longer than any measured (a miss meets no limit).
    pub fn latencies_ms(&self) -> Vec<f64> {
        let mut ms: Vec<f64> = self.latency_s.iter().map(|s| s * 1e3).collect();
        ms.sort_by(f64::total_cmp);
        let worst = ms.last().copied().unwrap_or(0.0).max(1e3);
        ms.extend(std::iter::repeat_n(2.0 * worst, self.failed() as usize));
        ms
    }
}

struct InFlight<P> {
    op: u64,
    input: usize,
    due: Instant,
    submit: (Instant, Instant),
    pending: P,
}

/// How long a phase waits for replies after its last send before it
/// counts the rest as lost.
const DRAIN: Duration = Duration::from_secs(5);
/// Replies that may wait to be checked; beyond it the generator checks
/// before it goes on, so that a busy phase holds a bounded amount of memory.
const UNCHECKED_CAP: usize = 32;

struct Run<'a, S: Service> {
    svc: &'a S,
    start: Instant,
    flying: VecDeque<InFlight<S::Pending>>,
    unchecked: VecDeque<(usize, Vec<f64>)>,
    phase: Phase,
}

impl<'a, S: Service> Run<'a, S> {
    fn new(svc: &'a S) -> Self {
        Run {
            svc,
            start: Instant::now(),
            flying: VecDeque::new(),
            unchecked: VecDeque::new(),
            phase: Phase::default(),
        }
    }

    fn send(&mut self, input: usize, due: Instant) {
        let t0 = Instant::now();
        let pending = self.svc.submit(input);
        let t1 = Instant::now();
        self.phase.sent += 1;
        self.phase.lag_s.push((t0 - due).as_secs_f64());
        self.phase.submit_s.push((t1 - t0).as_secs_f64());
        match pending {
            Some(pending) => self.flying.push_back(InFlight {
                op: self.phase.sent,
                input,
                due,
                submit: (t0, t1),
                pending,
            }),
            None => self.phase.rejected += 1,
        }
    }

    /// Takes every reply that is in, oldest first; returns how many.
    fn collect(&mut self) -> usize {
        let mut taken = 0;
        while let Some(reply) = self.flying.front().and_then(|f| self.svc.poll(&f.pending)) {
            let now = Instant::now();
            let f = self.flying.pop_front().expect("front was polled");
            match reply {
                Some(y) => {
                    self.phase.latency_s.push((now - f.due).as_secs_f64());
                    self.phase.done_at_s.push((now - self.start).as_secs_f64());
                    self.unchecked.push_back((f.input, y));
                    let id = spans::record("serve.request", f.op, 0, f.due, now);
                    spans::record("serve.submit", f.op, id, f.submit.0, f.submit.1);
                }
                None => self.phase.wrong += 1,
            }
            taken += 1;
            if self.unchecked.len() > UNCHECKED_CAP {
                self.check_one();
            }
        }
        taken
    }

    /// Checks one reply whose latency is already taken, if any waits.
    fn check_one(&mut self) {
        match self.unchecked.pop_front() {
            Some((input, y)) => {
                if !self.svc.correct(input, &y) {
                    self.phase.wrong += 1;
                }
            }
            None => std::hint::spin_loop(),
        }
    }

    fn finish(mut self) -> Phase {
        let deadline = Instant::now() + DRAIN;
        while !self.flying.is_empty() && Instant::now() < deadline {
            self.collect();
        }
        self.phase.wrong += self.flying.len() as u64;
        while !self.unchecked.is_empty() {
            self.check_one();
        }
        self.phase
    }
}

/// Open loop: request `i` is due at `schedule[i]` after the start and is
/// sent then or as soon after as the generator gets to it; its latency
/// runs from when it was due, so a stall in the service or the generator
/// is charged to every request it delayed.  Inputs cycle through
/// `0..inputs`.
pub fn open_loop<S: Service>(svc: &S, schedule: &[Duration], inputs: usize) -> Phase {
    let mut run = Run::new(svc);
    let mut next = 0;
    while next < schedule.len() {
        run.collect();
        let due = run.start + schedule[next];
        if Instant::now() >= due {
            run.send(next % inputs, due);
            next += 1;
            if next == schedule.len() / 2 {
                run.phase.backlog.0 = run.flying.len();
            }
        } else {
            run.check_one();
        }
    }
    run.phase.backlog.1 = run.flying.len();
    run.finish()
}

/// Closed loop: `outstanding` requests are kept in flight from one thread
/// for `duration`; a reply's latency runs from its own send.
pub fn closed_loop<S: Service>(
    svc: &S,
    outstanding: usize,
    duration: Duration,
    inputs: usize,
) -> Phase {
    let mut run = Run::new(svc);
    let end = run.start + duration;
    let mut next = 0;
    while Instant::now() < end {
        while run.flying.len() < outstanding {
            run.send(next % inputs, Instant::now());
            next += 1;
        }
        if run.collect() == 0 {
            run.check_one();
        }
    }
    run.finish()
}

/// Poisson arrivals: `rate` requests a second for `duration`, with
/// exponential gaps drawn from `uniform`, a source of values in [0, 1).
pub fn poisson_schedule(
    rate: f64,
    duration: Duration,
    mut uniform: impl FnMut() -> f64,
) -> Vec<Duration> {
    let mut at = 0.0;
    let mut out = Vec::new();
    loop {
        at += -(1.0 - uniform()).ln() / rate;
        if at >= duration.as_secs_f64() {
            return out;
        }
        out.push(Duration::from_secs_f64(at));
    }
}

/// Replies per second in each of `windows` equal windows of `duration`.
pub fn window_rates(done_at_s: &[f64], duration: Duration, windows: usize) -> Vec<f64> {
    let len = duration.as_secs_f64() / windows as f64;
    let mut counts = vec![0u64; windows];
    for &t in done_at_s {
        if let Some(c) = counts.get_mut((t / len) as usize) {
            *c += 1;
        }
    }
    counts.iter().map(|&c| c as f64 / len).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    /// Answers at once, except that one `submit` blocks for `stall`.
    struct Stalling {
        stall_at: usize,
        stall: Duration,
        sent: Cell<usize>,
    }

    impl Service for Stalling {
        type Pending = usize;
        fn submit(&self, input: usize) -> Option<usize> {
            let n = self.sent.get();
            self.sent.set(n + 1);
            if n == self.stall_at {
                std::thread::sleep(self.stall);
            }
            Some(input)
        }
        fn poll(&self, input: &usize) -> Option<Option<Vec<f64>>> {
            Some(Some(vec![*input as f64]))
        }
        fn correct(&self, input: usize, reply: &[f64]) -> bool {
            reply == [input as f64]
        }
    }

    #[test]
    fn a_stall_is_charged_to_every_request_it_delayed() {
        let svc = Stalling {
            stall_at: 10,
            stall: Duration::from_millis(40),
            sent: Cell::new(0),
        };
        // One request a millisecond; the tenth send blocks for 40 ms, so
        // some thirty later requests fall due while the generator is stuck.
        let schedule: Vec<Duration> = (1..=100).map(Duration::from_millis).collect();
        let phase = open_loop(&svc, &schedule, 4);
        assert_eq!((phase.sent, phase.failed()), (100, 0));
        assert_eq!(phase.latency_s.len(), 100);

        // Timed from its send, every request but the stalled one would
        // look instant.  Timed from when it was due, each request the
        // stall delayed carries the part of the stall it waited out.
        let delayed = phase.latency_s.iter().filter(|&&l| l > 0.005).count();
        assert!(delayed >= 25, "only {delayed} requests show the stall");
        let worst = phase.latency_s.iter().copied().fold(0.0, f64::max);
        assert!(worst >= 0.039, "worst latency {worst}");
        let lag = phase.lag_s.iter().copied().fold(0.0, f64::max);
        assert!(lag >= 0.030, "generator lag {lag}");
        // Requests before the stall were on time.
        assert!(phase.latency_s[..10].iter().all(|&l| l < 0.005));
    }

    #[test]
    fn refused_failed_and_wrong_requests_all_miss() {
        struct Flaky;
        impl Service for Flaky {
            type Pending = usize;
            fn submit(&self, input: usize) -> Option<usize> {
                (input != 0).then_some(input)
            }
            fn poll(&self, input: &usize) -> Option<Option<Vec<f64>>> {
                Some((*input != 1).then(|| vec![*input as f64]))
            }
            fn correct(&self, input: usize, _: &[f64]) -> bool {
                input != 2
            }
        }
        let schedule: Vec<Duration> = (0..40).map(Duration::from_micros).collect();
        let phase = open_loop(&Flaky, &schedule, 4);
        assert_eq!((phase.sent, phase.rejected, phase.wrong), (40, 10, 20));
        assert_eq!(phase.latency_s.len(), 20);
        let ms = phase.latencies_ms();
        assert_eq!(ms.len(), 50);
        assert!(ms[49] >= 2e3 && ms[19] < 1e3);
    }

    #[test]
    fn closed_loop_keeps_the_window_full() {
        let svc = Stalling {
            stall_at: usize::MAX,
            stall: Duration::ZERO,
            sent: Cell::new(0),
        };
        let phase = closed_loop(&svc, 16, Duration::from_millis(20), 4);
        assert!(phase.sent >= 16);
        assert_eq!(phase.failed(), 0);
        assert_eq!(phase.latency_s.len() as u64, phase.sent);
    }

    #[test]
    fn poisson_schedule_has_the_asked_rate_and_window_rates_count() {
        let mut state = 1u64;
        let uniform = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        let s = poisson_schedule(2000.0, Duration::from_secs(5), uniform);
        assert!((9_500..10_500).contains(&s.len()), "{} arrivals", s.len());
        assert!(s.windows(2).all(|w| w[0] <= w[1]));

        let r = window_rates(&[0.1, 0.2, 0.6, 2.0], Duration::from_secs(1), 2);
        assert_eq!(r, [4.0, 2.0]);
    }
}
