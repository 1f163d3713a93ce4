//! The *measured* STREAM point of this host (McCalpin's copy and triad):
//! the roof a number measured here is a fraction of.
//!
//! Sizing is the benchmark's rule: each array is at least 4 × the largest
//! cache sysfs reports for cpu0 (so no pass is served from it), capped at
//! `MemAvailable / 12` (three arrays together stay within a quarter of what
//! is free).  A bandwidth is the median over five passes, in STREAM's
//! counting: copy 16 and triad 24 bytes per element.

use std::time::Instant;

/// Timed passes per probe; the median is reported.
const PASSES: usize = 5;

/// The two STREAM kernels that bracket what one core sustains.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StreamKernel {
    /// `c[i] = a[i]` as `copy_from_slice`.  A plain store first reads the
    /// line it overwrites, so triad moves 32 bytes for every 24 it counts;
    /// the copy stores without that read and comes closer to what the cores
    /// sustain — the roof a kernel that mostly reads is judged against.
    Copy,
    /// `a[i] = b[i] + 3·c[i]`.
    Triad,
}

/// Result of [`stream_probe`].
#[derive(Clone, Copy, Debug)]
pub struct StreamPoint {
    /// The largest cache of cpu0 (32 MiB assumed where sysfs has none).
    pub llc_bytes: u64,
    /// Bytes in each array the kernel ran over.
    pub array_bytes: u64,
    /// Median bandwidth in GB/s.
    pub gbs: f64,
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
fn llc_bytes() -> Option<u64> {
    (0..8)
        .filter_map(|i| {
            let path = format!("/sys/devices/system/cpu/cpu0/cache/index{i}/size");
            parse_size(&std::fs::read_to_string(path).ok()?)
        })
        .max()
}

/// `MemAvailable` in bytes.
fn mem_available() -> Option<u64> {
    let text = std::fs::read_to_string("/proc/meminfo").ok()?;
    let line = text.lines().find(|l| l.starts_with("MemAvailable:"))?;
    Some(line.split_whitespace().nth(1)?.parse::<u64>().ok()? << 10)
}

/// Elements per array: 4 × LLC, capped at a twelfth of `available`.
fn array_len(llc: u64, available: u64) -> usize {
    ((4 * llc).min(available / 12) / 8) as usize
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

/// `n` elements of `value`, each chunk first touched by the thread that
/// will stream it (STREAM's parallel initialisation: page placement, and on
/// a guest where a fault costs microseconds, half the set-up time).
fn filled(threads: usize, n: usize, value: f64) -> Vec<f64> {
    let mut v = vec![0.0f64; n];
    let chunk = n.div_ceil(threads);
    std::thread::scope(|s| {
        for part in v.chunks_mut(chunk) {
            s.spawn(move || part.fill(value));
        }
    });
    v
}

/// Median seconds of `PASSES` calls of `pass`.
fn median_seconds(mut pass: impl FnMut()) -> f64 {
    let mut t: Vec<f64> = (0..PASSES)
        .map(|_| {
            let t0 = Instant::now();
            pass();
            t0.elapsed().as_secs_f64()
        })
        .collect();
    t.sort_by(f64::total_cmp);
    t[PASSES / 2]
}

/// Measures `kernel`'s bandwidth on `threads` threads.  `elems` overrides
/// the array length the sizing rule gives (a smoke run; the number is then
/// a cache bandwidth, not the roof).
pub fn stream_probe(kernel: StreamKernel, threads: usize, elems: Option<usize>) -> StreamPoint {
    let threads = threads.max(1);
    let llc = llc_bytes().unwrap_or(32 << 20);
    let n = elems.unwrap_or_else(|| array_len(llc, mem_available().unwrap_or(1 << 30)));
    assert!(n > 0, "STREAM arrays must hold something");
    let (mut a, mut c) = (filled(threads, n, 1.0), filled(threads, n, 0.5));
    let (per_elem, seconds) = match kernel {
        StreamKernel::Copy => (16, median_seconds(|| copy(threads, &mut c, &a))),
        StreamKernel::Triad => {
            let b = filled(threads, n, 2.0);
            (24, median_seconds(|| triad(threads, &mut a, &b, &c)))
        }
    };
    std::hint::black_box((&a, &c));
    StreamPoint {
        llc_bytes: llc,
        array_bytes: 8 * n as u64,
        gbs: (per_elem * n) as f64 / 1e9 / seconds,
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
    fn probe_reports_positive_bandwidth_and_the_kernels_compute() {
        for (kernel, threads) in [(StreamKernel::Copy, 1), (StreamKernel::Triad, 3)] {
            let s = stream_probe(kernel, threads, Some(1 << 16));
            assert!(s.gbs > 0.0, "{s:?}");
            assert_eq!(s.array_bytes, 8 << 16);
        }
        let (mut a, b, mut c) = (vec![1.0; 10], vec![2.0; 10], vec![0.5; 10]);
        copy(3, &mut c, &a);
        assert_eq!(c, vec![1.0; 10]);
        triad(3, &mut a, &b, &c);
        assert_eq!(a, vec![5.0; 10]);
    }
}
