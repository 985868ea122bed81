//! Host clocks, summary statistics and the model hash.

/// On-CPU nanoseconds of the calling thread (`CLOCK_THREAD_CPUTIME_ID`).
///
/// This is the same counter `/proc/thread-self/schedstat` prints, but
/// read live: the procfs value is only refreshed when the scheduler next
/// updates the task, so for the running thread it lags by up to a tick.
#[cfg(target_os = "linux")]
pub fn thread_cpu_ns() -> u64 {
    use std::ffi::{c_int, c_long};
    #[repr(C)]
    struct Timespec {
        sec: c_long,
        nsec: c_long,
    }
    extern "C" {
        fn clock_gettime(clock: c_int, ts: *mut Timespec) -> c_int;
    }
    const CLOCK_THREAD_CPUTIME_ID: c_int = 3;
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a live, writable `struct timespec` (two C longs on
    // Linux) for the whole call, and the clock id is a valid Linux clock.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "the thread CPU clock is always readable on Linux");
    ts.sec as u64 * 1_000_000_000 + ts.nsec as u64
}

#[cfg(not(target_os = "linux"))]
pub fn thread_cpu_ns() -> u64 {
    panic!("simbench reads the Linux thread CPU clock")
}

/// CPU time [`calibrate`] takes on a host at reference speed. Host-time
/// metrics are scaled to this speed.
pub const REFERENCE_CALIBRATION_NS: f64 = 50e6;

/// CPU ns of a fixed piece of work that never changes with the
/// simulator: a priority queue and random read-modify-writes over a
/// 4 MB table, the mix of branches and cache misses of an event loop.
/// The table is larger than a core's private caches so that, like the
/// simulator, the kernel feels other tenants' use of the shared
/// last-level cache. The host's speed drifts by 10–20% over minutes as
/// those tenants come and go; this kernel drifts with it, so it measures
/// the speed of the host at the time of a run.
pub fn calibrate() -> u64 {
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;
    let t0 = thread_cpu_ns();
    let mut heap = BinaryHeap::with_capacity(8192);
    let mut table = vec![0u64; 1 << 19];
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut acc = 0u64;
    for i in 0..1_500_000u64 {
        // xorshift64
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        heap.push(Reverse(x >> 32));
        if heap.len() > 4096 {
            acc = acc.wrapping_add(heap.pop().map_or(0, |Reverse(v)| v));
        }
        let j = (x as usize) & (table.len() - 1);
        table[j] = table[j].wrapping_add(i ^ acc);
        if table[j] & 7 == 3 {
            acc = acc.rotate_left(3);
        }
    }
    std::hint::black_box((acc, &table));
    thread_cpu_ns() - t0
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

/// The `parts - 1` cut points that split `values` into `parts` equal
/// groups, by the same "exclusive" interpolation as Python's
/// `statistics.quantiles(values, n=parts)`.
///
/// # Panics
///
/// Panics if `values` is empty.
pub fn quantiles(values: &[f64], parts: usize) -> Vec<f64> {
    assert!(!values.is_empty(), "quantiles of no values");
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let len = data.len();
    if len == 1 {
        return vec![data[0]; parts - 1];
    }
    let m = len + 1;
    (1..parts)
        .map(|i| {
            let j = (i * m / parts).clamp(1, len - 1);
            let delta = (i * m) as f64 - (j * parts) as f64;
            (data[j - 1] * (parts as f64 - delta) + data[j] * delta) / parts as f64
        })
        .collect()
}

/// First quartile, median and third quartile.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let q = quantiles(values, 4);
    (q[0], q[1], q[2])
}

/// FNV-1a of a Compat stats dump without its `host_events` line: every
/// simulated statistic, none of the simulator's own effort counters.
pub fn model_hash(stats_text: &str) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for line in stats_text.lines().filter(|l| !l.starts_with("host_events")) {
        for byte in line.bytes().chain([b'\n']) {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x100_0000_01b3);
        }
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), (0.75, 1.5, 2.25));
        // Python refuses a single value; a one-rep run reports it as is.
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0, 7.0));
        // statistics.quantiles([1..=20], n=10)
        let v: Vec<f64> = (1..=20).map(f64::from).collect();
        let py = [2.1, 4.2, 6.3, 8.4, 10.5, 12.6, 14.7, 16.8, 18.9];
        assert_eq!(quantiles(&v, 10), py);
        // statistics.quantiles([5, 1, 4, 2, 3], n=10) extrapolates.
        assert_eq!(quantiles(&[5.0, 1.0, 4.0, 2.0, 3.0], 10)[0], 0.6);
    }

    #[test]
    fn model_hash_ignores_host_events_only() {
        let a = "sim_ticks 5\nhost_events 10\nsystem.nic.rxPackets 3\n";
        let b = "sim_ticks 5\nhost_events 99\nsystem.nic.rxPackets 3\n";
        let c = "sim_ticks 5\nhost_events 10\nsystem.nic.rxPackets 4\n";
        assert_eq!(model_hash(a), model_hash(b));
        assert_ne!(model_hash(a), model_hash(c));
    }

    #[test]
    fn clocks_read() {
        let t0 = thread_cpu_ns();
        let mut x = 0u64;
        for i in 0..1_000_000u64 {
            x = std::hint::black_box(x.wrapping_add(i));
        }
        assert!(thread_cpu_ns() > t0, "{x}");
        assert!(peak_rss_mb().expect("VmHWM") > 0.0);
    }
}
