//! Small numeric helpers: the seed stream, order statistics and the
//! process's peak resident set.

/// One step of splitmix64: advances `state` and returns the next value.
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn sorted(v: &[f64]) -> Vec<f64> {
    let mut s = v.to_vec();
    s.sort_by(|a, b| a.partial_cmp(b).expect("metric values are finite"));
    s
}

/// Median of a non-empty sample.
pub fn median(v: &[f64]) -> f64 {
    quartiles(v).1
}

/// First quartile, median and third quartile of a non-empty sample, by
/// the "exclusive" method of Python's `statistics.quantiles(v, n=4)`.
pub fn quartiles(v: &[f64]) -> (f64, f64, f64) {
    assert!(!v.is_empty(), "quartiles of an empty sample");
    let s = sorted(v);
    if s.len() == 1 {
        return (s[0], s[0], s[0]);
    }
    let m = s.len() + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, s.len() - 1);
        let delta = (i * m) as f64 / 4.0 - j as f64;
        s[j - 1] + (s[j] - s[j - 1]) * delta
    };
    (q(1), q(2), q(3))
}

/// Peak resident set size of this process (`VmHWM`) since it started
/// or since the last `reset_peak_rss`, in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line in /proc/self/status");
    kib / 1024.0
}

/// Reset `VmHWM` to the current resident set size.
pub fn reset_peak_rss() {
    std::fs::write("/proc/self/clear_refs", "5")
        .expect("reset VmHWM through /proc/self/clear_refs");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4)
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        assert_eq!(median(&[4.0, 1.0]), 2.5);
    }
}
