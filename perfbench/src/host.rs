//! Host-side counters from `/proc` (std only) and order statistics.

use std::io;

/// Clock ticks per second of `/proc/<pid>/stat` times (`USER_HZ`, which
/// the kernel fixes at 100 in the user-facing ABI on every architecture
/// this runs on).
const USER_HZ: f64 = 100.0;

/// CPU time and page faults of this process so far.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Usage {
    /// User-mode CPU seconds.
    pub user_s: f64,
    /// Kernel-mode CPU seconds.
    pub sys_s: f64,
    /// Minor (no-I/O) page faults.
    pub minor_faults: u64,
}

impl Usage {
    /// Reads `/proc/self/stat`.
    ///
    /// # Errors
    ///
    /// Fails if the file is unreadable or not in the kernel's format.
    pub fn now() -> io::Result<Self> {
        parse_stat(&std::fs::read_to_string("/proc/self/stat")?)
    }

    /// The usage accrued since `earlier`.
    #[must_use]
    pub fn since(self, earlier: Self) -> Self {
        Self {
            user_s: self.user_s - earlier.user_s,
            sys_s: self.sys_s - earlier.sys_s,
            minor_faults: self.minor_faults - earlier.minor_faults,
        }
    }
}

fn bad(what: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, what.to_string())
}

/// Parses a `/proc/<pid>/stat` line. The command name (field 2) may hold
/// spaces and parentheses, so fields are counted from its closing `)`.
fn parse_stat(text: &str) -> io::Result<Usage> {
    let rest = &text[text.rfind(')').ok_or_else(|| bad("stat: no `)`"))? + 1..];
    // After the name: state(3) ... minflt(10) ... utime(14) stime(15).
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let field = |n: usize| -> io::Result<u64> {
        fields
            .get(n - 3)
            .and_then(|f| f.parse().ok())
            .ok_or_else(|| bad("stat: short or non-numeric line"))
    };
    Ok(Usage {
        user_s: field(14)? as f64 / USER_HZ,
        sys_s: field(15)? as f64 / USER_HZ,
        minor_faults: field(10)?,
    })
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
///
/// # Errors
///
/// Fails if `/proc/self/status` is unreadable or lacks `VmHWM`.
pub fn peak_rss_mb() -> io::Result<f64> {
    parse_hwm(&std::fs::read_to_string("/proc/self/status")?)
}

fn parse_hwm(status: &str) -> io::Result<f64> {
    let kb: u64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or_else(|| bad("status: no VmHWM"))?;
    Ok(kb as f64 / 1024.0)
}

/// Median of `xs` (mean of the middle pair for even counts; 0 if empty).
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Samples that must lie beyond the reported tail value.
pub const TAIL_BEYOND: usize = 10;

/// The highest percentile of a group of samples with [`TAIL_BEYOND`]
/// samples of the group beyond it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The sample at that percentile.
    pub value: f64,
    /// Which percentile it is (100 when a group has too few samples, i.e.
    /// the maximum).
    pub percentile: f64,
    /// Samples of one group strictly beyond it.
    pub beyond: usize,
}

/// The tail of `xs`, which holds whole groups of `group` samples (one
/// group per pass): the percentile with [`TAIL_BEYOND`] samples of a
/// group beyond it, taken over all groups pooled. With `TAIL_BEYOND` or
/// fewer samples per group it is the maximum.
pub fn tail(xs: &[f64], group: usize) -> Tail {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let beyond = if group > TAIL_BEYOND { TAIL_BEYOND } else { 0 };
    let groups = v.len().checked_div(group).unwrap_or(0);
    Tail {
        value: v
            .len()
            .checked_sub(1 + beyond * groups)
            .map_or(0.0, |i| v[i]),
        percentile: if group == 0 {
            100.0
        } else {
            100.0 * (group - beyond) as f64 / group as f64
        },
        beyond,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_fields_are_counted_after_the_name() {
        let line = "42 (a b) c) S 1 2 3 4 5 6 700 8 9 10 250 125 0 0";
        let u = parse_stat(line).expect("well-formed");
        assert_eq!(u.minor_faults, 700);
        assert!((u.user_s - 2.5).abs() < 1e-12);
        assert!((u.sys_s - 1.25).abs() < 1e-12);
        assert!(parse_stat("1 (x) S 1").is_err());
    }

    #[test]
    fn hwm_is_read_in_mib() {
        let status = "Name:\tx\nVmPeak:\t 9 kB\nVmHWM:\t    2048 kB\n";
        assert_eq!(parse_hwm(status).expect("present"), 2.0);
        assert!(parse_hwm("Name:\tx\n").is_err());
        assert!(peak_rss_mb().expect("linux") > 0.0);
        assert!(Usage::now().is_ok());
    }

    #[test]
    fn tail_handles_any_count() {
        assert_eq!(tail(&[], 0).value, 0.0);
        let one = tail(&[3.0], 1);
        assert_eq!((one.value, one.beyond, one.percentile), (3.0, 0, 100.0));
        let few: Vec<f64> = (1..=5).map(f64::from).collect();
        let t = tail(&few, 5);
        assert_eq!((t.value, t.beyond, t.percentile), (5.0, 0, 100.0));
        let eleven: Vec<f64> = (1..=11).map(f64::from).collect();
        assert_eq!(tail(&eleven, 11).value, 1.0);
        let hundred: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        let t = tail(&hundred, 100);
        assert_eq!((t.value, t.beyond, t.percentile), (90.0, 10, 90.0));
        let many: Vec<f64> = (1..=1000).map(f64::from).collect();
        let t = tail(&many, 1000);
        assert_eq!((t.value, t.beyond, t.percentile), (990.0, 10, 99.0));
        // Three passes of 100 jobs: 30 samples beyond, still p90.
        let pooled: Vec<f64> = (1..=300).map(f64::from).collect();
        let t = tail(&pooled, 100);
        assert_eq!((t.value, t.beyond, t.percentile), (270.0, 10, 90.0));
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }
}
