//! What the host is and how fast its memory is: the benchmark's own probe.
//! The program only models a machine; every roofline fraction reported
//! here has a bandwidth measured in the same run as its denominator.

use std::time::Duration;

use crate::stats::{sample_interleaved, Summary};

/// Threads the pool workloads use: the caller plus `T_pool - 1` workers,
/// never more runnable threads than cores.
pub fn t_pool() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get().min(4))
}

fn parse_size(text: &str) -> Option<u64> {
    let text = text.trim();
    let (digits, unit) = match text.as_bytes().last()? {
        b'K' => (&text[..text.len() - 1], 1 << 10),
        b'M' => (&text[..text.len() - 1], 1 << 20),
        b'G' => (&text[..text.len() - 1], 1 << 30),
        _ => (text, 1),
    };
    digits.parse::<u64>().ok().map(|n| n * unit)
}

/// Size of the largest cache cpu0 reports, from sysfs.
pub fn llc_bytes() -> Option<u64> {
    (0..8)
        .filter_map(|i| {
            let path = format!("/sys/devices/system/cpu/cpu0/cache/index{i}/size");
            parse_size(&std::fs::read_to_string(path).ok()?)
        })
        .max()
}

fn proc_kib(path: &str, key: &str) -> Option<u64> {
    let text = std::fs::read_to_string(path).ok()?;
    let line = text.lines().find(|l| l.starts_with(key))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// `MemAvailable` in bytes.
pub fn mem_available() -> Option<u64> {
    proc_kib("/proc/meminfo", "MemAvailable:").map(|k| k << 10)
}

/// Peak resident set of this process (`VmHWM`) in MiB.
pub fn peak_rss_mib() -> f64 {
    proc_kib("/proc/self/status", "VmHWM:").map_or(0.0, |k| k as f64 / 1024.0)
}

/// `/proc/loadavg`, for the record of what else the host was doing.
pub fn loadavg() -> String {
    std::fs::read_to_string("/proc/loadavg").map_or_else(|_| "unknown".into(), |s| s.trim().into())
}

/// Result of the STREAM probe, in GB/s by STREAM's counting (triad 24 and
/// copy 16 bytes per element).
#[derive(Clone, Copy, Debug)]
pub struct Stream {
    pub llc_bytes: u64,
    pub array_bytes: u64,
    pub triad_t1: f64,
    pub copy_t1: f64,
    pub triad_pool: f64,
    pub copy_pool: f64,
}

impl Stream {
    /// The single-thread roof: the higher of triad and copy.  A plain store
    /// first reads the line it overwrites, so triad moves 32 bytes for every
    /// 24 it counts, and a kernel that mostly reads can run past it;
    /// `copy_from_slice` stores without that read and comes closer to what
    /// one core sustains.
    pub fn roof_t1(&self) -> f64 {
        self.triad_t1.max(self.copy_t1)
    }
}

/// Elements per array: at least 4 × LLC, capped so that the three arrays
/// together stay within a quarter of `MemAvailable`.
fn array_len(llc: u64, available: u64) -> usize {
    let want = 4 * llc;
    let cap = available / 4 / 3;
    (want.min(cap) / 8) as usize
}

fn triad(threads: usize, a: &mut [f64], b: &[f64], c: &[f64]) {
    let chunk = a.len().div_ceil(threads);
    std::thread::scope(|s| {
        for ((a, b), c) in a
            .chunks_mut(chunk)
            .zip(b.chunks(chunk))
            .zip(c.chunks(chunk))
        {
            s.spawn(move || {
                for i in 0..a.len() {
                    a[i] = b[i] + 3.0 * c[i];
                }
            });
        }
    });
}

fn copy(threads: usize, dst: &mut [f64], src: &[f64]) {
    let chunk = dst.len().div_ceil(threads);
    std::thread::scope(|s| {
        for (d, a) in dst.chunks_mut(chunk).zip(src.chunks(chunk)) {
            s.spawn(move || d.copy_from_slice(a));
        }
    });
}

/// Measures triad and copy bandwidth at one thread and at `pool` threads,
/// each a median over at least `min` passes within `budget`.  `elems`
/// overrides the array length the sizing rule gives (the smoke run).
pub fn stream_probe(pool: usize, budget: Duration, min: usize, elems: Option<usize>) -> Stream {
    let llc = llc_bytes().unwrap_or(32 << 20);
    let n = elems.unwrap_or_else(|| array_len(llc, mem_available().unwrap_or(1 << 30)));
    let arrays = std::cell::RefCell::new((vec![1.0f64; n], vec![2.0f64; n], vec![0.5f64; n]));
    let gbs = |threads: usize| {
        let s = sample_interleaved(
            budget / 2,
            min,
            &mut [
                &mut || {
                    let (a, b, c) = &mut *arrays.borrow_mut();
                    triad(threads, a, b, c);
                },
                &mut || {
                    let (a, _, c) = &mut *arrays.borrow_mut();
                    copy(threads, c, a);
                },
            ],
        );
        let gb = |per_elem: usize| (per_elem * n) as f64 / 1e9;
        (
            gb(24) / Summary::of(&s[0]).median,
            gb(16) / Summary::of(&s[1]).median,
        )
    };
    let (triad_t1, copy_t1) = gbs(1);
    let (triad_pool, copy_pool) = gbs(pool);
    std::hint::black_box(&arrays);
    Stream {
        llc_bytes: llc,
        array_bytes: 8 * n as u64,
        triad_t1,
        copy_t1,
        triad_pool,
        copy_pool,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sysfs_sizes_parse() {
        assert_eq!(parse_size("48K\n"), Some(48 << 10));
        assert_eq!(parse_size("266240K"), Some(266_240 << 10));
        assert_eq!(parse_size("2M"), Some(2 << 20));
        assert_eq!(parse_size("512"), Some(512));
        assert_eq!(parse_size(""), None);
    }

    #[test]
    fn arrays_are_four_llc_unless_memory_caps_them() {
        assert_eq!(array_len(32 << 20, 64 << 30), (128 << 20) / 8);
        assert_eq!(array_len(256 << 20, 6 << 30), (512 << 20) / 8);
    }

    #[test]
    fn probe_reports_positive_bandwidth() {
        let s = stream_probe(2, Duration::ZERO, 2, Some(1 << 20));
        assert!(s.triad_t1 > 0.0 && s.copy_t1 > 0.0 && s.triad_pool > 0.0 && s.copy_pool > 0.0);
        assert_eq!(s.array_bytes, 8 << 20);
        assert!(s.roof_t1() >= s.triad_t1);
    }
}
