//! Process CPU time and peak memory from `/proc`, std-only.
//!
//! `/proc/self/stat` reports user and system time in clock ticks of
//! `USER_HZ`, which the kernel fixes at 100 per second for every
//! architecture Linux exports it on. A single reading therefore has 10 ms
//! resolution; summed over many measured calls the error averages out.

/// Clock ticks per second in `/proc/<pid>/stat` (`USER_HZ`).
pub const TICKS_PER_SEC: f64 = 100.0;

/// Parse `utime + stime` (fields 14 and 15) out of a `/proc/<pid>/stat`
/// line. The command name (field 2) is parenthesised and may itself hold
/// spaces or parentheses, so fields are counted from the last `)`.
pub fn parse_cpu_ticks(stat: &str) -> Option<u64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    // After the name: field 3 (state) is index 0, so utime (14) is index 11.
    let mut fields = rest.split_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// CPU ticks this process has used so far, all threads included (threads
/// that already exited count too). 0 when `/proc` is unavailable.
pub fn cpu_ticks() -> u64 {
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| parse_cpu_ticks(&s))
        .unwrap_or(0)
}

/// Read a `kB` field such as `VmHWM` out of `/proc/<pid>/status` text.
pub fn parse_status_kib(status: &str, key: &str) -> Option<u64> {
    status.lines().find_map(|line| {
        let rest = line.strip_prefix(key)?.strip_prefix(':')?;
        rest.split_whitespace().next()?.parse().ok()
    })
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    Some(parse_status_kib(&status, "VmHWM")? as f64 / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_utime_plus_stime() {
        let line = "4242 (perfbench) S 1 4242 4242 0 -1 4194560 900 0 0 0 \
                    137 25 0 0 20 0 3 0 77 1000 200 18446744073709551615";
        assert_eq!(parse_cpu_ticks(line), Some(162));
    }

    #[test]
    fn command_names_with_spaces_and_parens_do_not_shift_fields() {
        let line = "7 (a) b (c)) R 1 7 7 0 -1 0 0 0 0 0 5 6 0 0 20 0 1 0 9";
        assert_eq!(parse_cpu_ticks(line), Some(11));
    }

    #[test]
    fn truncated_lines_are_rejected() {
        assert_eq!(parse_cpu_ticks("1 (x) R 1 2 3"), None);
        assert_eq!(parse_cpu_ticks("no parenthesis here"), None);
    }

    #[test]
    fn reads_this_process() {
        let text = std::fs::read_to_string("/proc/self/stat").unwrap();
        assert!(parse_cpu_ticks(&text).is_some());
        assert!(peak_rss_mib().unwrap() > 0.0);
    }

    #[test]
    fn status_fields() {
        let status = "Name:\tx\nVmPeak:\t  2048 kB\nVmHWM:\t  1536 kB\n";
        assert_eq!(parse_status_kib(status, "VmHWM"), Some(1536));
        assert_eq!(parse_status_kib(status, "VmRSS"), None);
    }
}
