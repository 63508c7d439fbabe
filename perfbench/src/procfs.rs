//! Readings from Linux `/proc`: peak resident memory, CPU time, and the
//! CPU time the hypervisor stole from this machine.

/// High-water mark of the process's resident set (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|line| line.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// `(stolen, total)` CPU ticks of the whole machine since boot, from the
/// first line of `/proc/stat`. Stolen ticks are time a virtual CPU was
/// runnable but the hypervisor ran something else.
pub fn steal_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let ticks: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .take(8)
        .map(|field| field.parse().ok())
        .collect::<Option<_>>()?;
    // user nice system idle iowait irq softirq steal
    Some((*ticks.get(7)?, ticks.iter().sum()))
}

/// Share of the machine's CPU time stolen between two [`steal_ticks`]
/// readings (0 when unknown).
pub fn steal_share(from: Option<(u64, u64)>, to: Option<(u64, u64)>) -> f64 {
    match (from, to) {
        (Some((steal_a, total_a)), Some((steal_b, total_b))) if total_b > total_a => {
            (steal_b - steal_a) as f64 / (total_b - total_a) as f64
        }
        _ => 0.0,
    }
}

/// User plus system CPU seconds consumed by the whole process so far,
/// threads that already exited included.
pub fn cpu_seconds() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // The command name may contain spaces; the fields after it are
    // positional. utime and stime are fields 14 and 15 of the whole line.
    let after_name = &stat[stat.rfind(')')? + 1..];
    let mut fields = after_name.split_whitespace().skip(11);
    let utime: f64 = fields.next()?.parse().ok()?;
    let stime: f64 = fields.next()?.parse().ok()?;
    // Linux reports these in USER_HZ ticks, 100 per second on every
    // mainstream architecture.
    Some((utime + stime) / 100.0)
}
