//! Machine provenance recorded with every result: parallelism, cache sizes,
//! peak memory and a copy-bandwidth probe.

use std::hint::black_box;
use std::time::Instant;

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Size in KiB of cpu0's unified cache at `level`, from sysfs; 0 when the
/// kernel does not expose it.
pub fn cache_kib(level: u32) -> u64 {
    let base = "/sys/devices/system/cpu/cpu0/cache";
    let Ok(dir) = std::fs::read_dir(base) else { return 0 };
    for entry in dir.flatten() {
        let read = |f: &str| std::fs::read_to_string(entry.path().join(f)).unwrap_or_default();
        if read("level").trim() == level.to_string() && read("type").trim() == "Unified" {
            let size = read("size");
            let size = size.trim();
            let (num, scale) = match size.strip_suffix('K') {
                Some(n) => (n, 1),
                None => match size.strip_suffix('M') {
                    Some(n) => (n, 1024),
                    None => (size, 1),
                },
            };
            return num.parse::<u64>().map_or(0, |n| n * scale);
        }
    }
    0
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Single-thread copy bandwidth in GB/s (bytes read plus bytes written per
/// second) over two buffers of `bytes` each; best of five copies.
pub fn copy_gbps(bytes: usize) -> f64 {
    let n = bytes / 8;
    let src: Vec<u64> = (0..n as u64).collect();
    let mut dst = vec![0u64; n];
    let mut best = f64::MAX;
    for _ in 0..5 {
        let t = Instant::now();
        dst.copy_from_slice(black_box(&src));
        black_box(&mut dst);
        best = best.min(t.elapsed().as_secs_f64());
    }
    (2 * n * 8) as f64 / best / 1e9
}
