//! Order statistics, digests and process memory.

use moscons::cache::KeyHasher;
use moscons::AttackReport;

/// Nearest-rank percentile (`p` in 0..=100) of unsorted values; 0 when empty.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The median (the mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len().is_multiple_of(2) {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    } else {
        sorted[mid]
    }
}

/// The mean; 0 when empty.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

/// Order-sensitive FNV-1a digest of a sequence of attack reports (`None`
/// marks an operation that panicked).
pub fn digest<'a>(reports: impl IntoIterator<Item = Option<&'a AttackReport>>) -> u64 {
    let mut h = KeyHasher::new();
    for r in reports {
        match r {
            Some(r) => h.write_str(&format!("{:?}", r)),
            None => h.write_str("panicked"),
        }
    }
    h.finish()
}

/// Peak resident set size of this process (`VmHWM`), MiB; 0 if unreadable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
