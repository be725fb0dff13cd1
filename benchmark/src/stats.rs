//! Order statistics, the best-block estimator, and `/proc` readers.

/// Nearest-rank percentile of an ascending slice (`q` in `(0, 1]`): the
/// smallest value with at least `q` of the samples at or below it. With
/// fewer than 100 samples the 0.99 rank is the maximum.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median (mean of the two middle values for an even count).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The best of `blocks` once the `lucky` best ones are set aside. Every
/// block does the same work and interference only ever slows a block, so the
/// best blocks are the closest to the machine's undisturbed speed, and the
/// estimate holds as long as `lucky + 1` blocks of the run are left alone.
/// What counts as lucky is the caller's to say ([`crate::workload::Workload::lucky_blocks`]).
/// With fewer blocks than that it is the worst of them.
pub fn best_after(blocks: &[f64], higher_is_better: bool, lucky: usize) -> f64 {
    let mut v = blocks.to_vec();
    v.sort_by(f64::total_cmp);
    if higher_is_better {
        v.reverse();
    }
    v.get(lucky).or(v.last()).copied().unwrap_or(0.0)
}

/// FNV-1a 64 over `bytes`, continuing from `state`.
pub fn fnv1a64(state: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(state, |h, b| {
        (h ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// FNV-1a 64 offset basis.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Peak resident set of this process in MiB (`VmHWM`).
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

/// CPU time (user + system, all threads) this process has used, in ms.
/// `/proc/self/stat` counts in clock ticks; Linux fixes `USER_HZ` at 100.
pub fn cpu_ms() -> f64 {
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| {
            // Fields after the parenthesised command name; utime and stime
            // are the 14th and 15th of the whole line.
            let rest = s.rsplit_once(')')?.1.to_string();
            let mut fields = rest.split_whitespace().skip(11);
            let utime: f64 = fields.next()?.parse().ok()?;
            let stime: f64 = fields.next()?.parse().ok()?;
            Some((utime + stime) * 10.0)
        })
        .unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.50), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(
            percentile(&v[..22], 0.99),
            22.0,
            "under 100 samples: the max"
        );
        assert_eq!(percentile(&[], 0.5), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn best_after_ignores_slow_blocks_and_the_lucky_ones() {
        // Eleven of fourteen ops hit by a slow spell: the best op stands.
        let mut ops: Vec<f64> = (0..11).map(|i| 1340.0 + f64::from(i)).collect();
        ops.extend([1030.0, 1008.0, 1029.0]);
        assert_eq!(best_after(&ops, false, 0), 1008.0);
        // Three of five rounds hit by a burst, one lucky round set aside.
        assert_eq!(
            best_after(&[780.0, 900.0, 910.0, 781.0, 905.0], false, 1),
            781.0
        );
        assert_eq!(best_after(&[100.0, 60.0, 99.0, 61.0, 62.0], true, 1), 99.0);
        assert_eq!(best_after(&[5.0], false, 1), 5.0);
        assert_eq!(best_after(&[], false, 0), 0.0);
    }

    #[test]
    fn proc_readers_see_this_process() {
        assert!(peak_rss_mb() > 0.5);
        assert!(cpu_ms() >= 0.0);
        assert_ne!(fnv1a64(FNV_OFFSET, b"a"), fnv1a64(FNV_OFFSET, b"b"));
    }
}
