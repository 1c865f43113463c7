//! What the benchmark reads from the machine: peak memory of the current
//! process, the CPU to pin single-threaded stages to, and the facts every
//! report carries so numbers from different machines are never compared
//! by accident.

use std::process::Command;

/// The value of `key:` in a `/proc`-style "key:\tvalue" listing.
fn field<'a>(listing: &'a str, key: &str) -> Option<&'a str> {
    listing
        .lines()
        .find_map(|line| line.strip_prefix(key)?.strip_prefix(':'))
        .map(str::trim)
}

/// `VmHWM` ("high-water mark" of resident memory) in MiB, parsed from the
/// text of `/proc/<pid>/status`.
pub fn parse_vm_hwm_mib(status: &str) -> Option<f64> {
    let kib: f64 = field(status, "VmHWM")?
        .strip_suffix("kB")?
        .trim()
        .parse()
        .ok()?;
    Some(kib / 1024.0)
}

/// Peak resident memory of this process in MiB.
pub fn peak_rss_mib() -> Option<f64> {
    parse_vm_hwm_mib(&std::fs::read_to_string("/proc/self/status").ok()?)
}

/// The highest CPU in a `Cpus_allowed_list` such as `0-3,8,10-11`.
pub fn parse_highest_cpu(list: &str) -> Option<u32> {
    list.split(',')
        .filter_map(|range| range.rsplit('-').next()?.trim().parse().ok())
        .max()
}

/// The highest CPU this process may run on.
pub fn highest_allowed_cpu() -> Option<u32> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    parse_highest_cpu(field(&status, "Cpus_allowed_list")?)
}

fn first_line_of(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    if !out.status.success() {
        return None;
    }
    Some(
        String::from_utf8_lossy(&out.stdout)
            .lines()
            .next()?
            .trim()
            .to_string(),
    )
}

/// Facts about the machine and the build, recorded in every report.
#[derive(Clone, Debug)]
pub struct Env {
    pub nproc: usize,
    pub cpu_model: String,
    pub rustc: String,
    pub git_rev: String,
}

impl Env {
    pub fn probe() -> Env {
        let unknown = || "unknown".to_string();
        Env {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu_model: std::fs::read_to_string("/proc/cpuinfo")
                .ok()
                .and_then(|info| field(&info, "model name\t").map(str::to_string))
                .unwrap_or_else(unknown),
            rustc: first_line_of("rustc", &["-V"]).unwrap_or_else(unknown),
            git_rev: first_line_of("git", &["rev-parse", "--short", "HEAD"])
                .unwrap_or_else(unknown),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_status_fields() {
        let status =
            "Name:\tx\nVmPeak:\t   9000 kB\nVmHWM:\t    2048 kB\nCpus_allowed_list:\t0-1\n";
        assert_eq!(parse_vm_hwm_mib(status), Some(2.0));
        assert_eq!(field(status, "Cpus_allowed_list"), Some("0-1"));
        assert_eq!(parse_vm_hwm_mib("VmHWM:\t12 pages\n"), None);
    }

    #[test]
    fn highest_cpu_of_ranges() {
        assert_eq!(parse_highest_cpu("0-1"), Some(1));
        assert_eq!(parse_highest_cpu("0-3,8,10-11"), Some(11));
        assert_eq!(parse_highest_cpu("5"), Some(5));
        assert_eq!(parse_highest_cpu(""), None);
    }

    #[test]
    fn this_process_has_a_peak() {
        assert!(peak_rss_mib().expect("/proc/self/status is readable") > 0.0);
        assert!(highest_allowed_cpu().is_some());
    }
}
