//! Process resource readings from procfs (Linux).

/// Kernel clock ticks per second for the `/proc/<pid>/stat` CPU fields
/// (`USER_HZ`, fixed at 100 on Linux).
const TICKS_PER_SEC: u64 = 100;

/// User plus system CPU time of the whole process (every thread, live or
/// exited), in nanoseconds, at 10 ms resolution.
pub fn cpu_ns() -> u64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line, so 12 and 13 here.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let field = |i: usize| -> u64 {
        rest.split_whitespace()
            .nth(i)
            .and_then(|f| f.parse().ok())
            .unwrap_or(0)
    };
    (field(11) + field(12)) * (1_000_000_000 / TICKS_PER_SEC)
}

/// Peak resident set size (`VmHWM`) of this process, in KiB.
pub fn peak_rss_kib() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

/// Threads the host offers this process.
pub fn parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn procfs_readings_are_live() {
        let before = cpu_ns();
        let mut x = 0u64;
        let t = std::time::Instant::now();
        while t.elapsed().as_millis() < 60 {
            x = x.wrapping_add(std::hint::black_box(1));
        }
        assert!(x > 0);
        assert!(cpu_ns() > before, "60 ms of spinning must show as CPU time");
        assert!(peak_rss_kib() > 0);
    }
}
