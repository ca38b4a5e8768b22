//! Process CPU time and peak memory from Linux `/proc`.

/// Clock ticks per second of `/proc/<pid>/stat` times. The kernel
/// reports them in `USER_HZ`, which is 100 on every mainstream Linux
/// architecture.
const USER_HZ: f64 = 100.0;

/// User+sys CPU seconds of this process plus its waited-for children
/// (`utime + stime + cutime + cstime`): the worker processes of a
/// distributed job count once `run_distributed` has reaped them.
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name, which may contain
    // spaces; utime is field 14 of the whole line, i.e. index 11 here.
    let rest = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let ticks: u64 = rest
        .split_whitespace()
        .skip(11)
        .take(4)
        .filter_map(|f| f.parse::<u64>().ok())
        .sum();
    ticks as f64 / USER_HZ
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_and_rss_are_read() {
        let before = cpu_seconds();
        let t0 = std::time::Instant::now();
        let mut x = 0u64;
        while cpu_seconds() <= before && t0.elapsed().as_secs() < 10 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(1));
        }
        assert!(cpu_seconds() > before, "spinning shows as CPU time");
        assert!(peak_rss_mib() > 0.0);
    }
}
