//! Small numeric and process helpers shared by the workloads.

/// Median of `values` (mean of the middle two for an even count); 0 for
/// an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let mut v: Vec<f64> = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Exact nearest-rank percentile of an ascending-sorted sample: the
/// smallest value with at least `q` of the sample at or below it. Returns
/// the value and how many samples lie strictly beyond its rank.
pub fn percentile(sorted: &[f64], q: f64) -> (f64, usize) {
    if sorted.is_empty() {
        return (0.0, 0);
    }
    let n = sorted.len();
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    (sorted[rank - 1], n - rank)
}

/// FNV-1a 64 over a label vector (each label as a little-endian u64).
pub fn label_hash(hash: u64, labels: &[usize]) -> u64 {
    let mut h = hash;
    for &l in labels {
        for b in (l as u64).to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// FNV-1a 64 offset basis, the starting value for [`label_hash`].
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// SplitMix64 step: derives independent sub-seeds from the workload seed.
pub fn mix_seed(seed: u64, stream: u64) -> u64 {
    let mut z = seed
        .wrapping_add(stream.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// This process's resident-set high-water mark (`VmHWM`) in MB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

/// The CPU model string from `/proc/cpuinfo`, or "unknown".
pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .and_then(|rest| rest.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.50), (50.0, 50));
        assert_eq!(percentile(&v, 0.95), (95.0, 5));
        assert_eq!(percentile(&v, 0.999), (100.0, 0));
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}

/// This process's CPU time (user + system, every thread, exited ones
/// included) in seconds, at clock-tick resolution.
pub fn process_cpu_s() -> f64 {
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|stat| {
            // Fields after the parenthesised command name; utime and stime
            // are the 14th and 15th fields of the whole line.
            let rest = stat.rsplit_once(')')?.1;
            let f: Vec<&str> = rest.split_whitespace().collect();
            let ticks: f64 = f.get(11)?.parse::<f64>().ok()? + f.get(12)?.parse::<f64>().ok()?;
            Some(ticks / 100.0)
        })
        .unwrap_or(0.0)
}
