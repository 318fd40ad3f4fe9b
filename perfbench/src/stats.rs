//! Order statistics, the report digest and process probes.

use spottune_core::HptReport;
use std::time::Duration;

/// Nearest-rank percentile (`p` in 0..=100) of unsorted samples; `NaN`
/// for none.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median, over consecutive blocks of `block` samples (a ragged tail
/// joins the last block), of each block's nearest-rank `p` percentile; the
/// plain percentile when there are fewer than two blocks. A host episode
/// that slows a minority of the blocks leaves it where it was.
pub fn blocked_percentile(samples: &[f64], p: f64, block: usize) -> f64 {
    let blocks = samples.len() / block.max(1);
    if blocks < 2 {
        return percentile(samples, p);
    }
    let per_block: Vec<f64> = (0..blocks)
        .map(|b| {
            let end = if b + 1 == blocks {
                samples.len()
            } else {
                (b + 1) * block
            };
            percentile(&samples[b * block..end], p)
        })
        .collect();
    median(&per_block)
}

/// Median of unsorted samples: the mean of the middle two for an even
/// count; `NaN` for none.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len().is_multiple_of(2) {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    } else {
        sorted[mid]
    }
}

/// Milliseconds in `d`.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// FNV-1a (64-bit), the hash `spottune_mlsim::hp` derives configuration
/// seeds with (crate-private there, so restated here).
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Folds `bytes` into the hash.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// The hash so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Digest of reports in the given order over every field. `Debug` prints
/// each float in its shortest round-trip form, so equal digests mean
/// bit-equal reports, and a field added to [`HptReport`] joins the digest
/// without a change here.
pub fn report_digest<'a>(reports: impl IntoIterator<Item = &'a HptReport>) -> u64 {
    let mut h = Fnv::default();
    for report in reports {
        h.write(format!("{report:?}").as_bytes());
        h.write(b"\n");
    }
    h.finish()
}

/// Whether `gross == cost + refunded` holds to rounding.
pub fn books_balance(report: &HptReport) -> bool {
    (report.gross - report.cost - report.refunded).abs() <= 1e-9 * report.gross.abs().max(1.0)
}

/// Peak resident set size of this process in MB (`VmHWM`), if readable.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// CPU time (user + system) this process has used, threads that already
/// exited included, at clock-tick resolution (Linux `/proc/self/stat`,
/// which reports in units of 1/100 s).
pub fn process_cpu_s() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line.
    let rest = &stat[stat.rfind(')')? + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let utime: f64 = fields.get(11)?.parse().ok()?;
    let stime: f64 = fields.get(12)?.parse().ok()?;
    Some((utime + stime) / 100.0)
}

/// Time the host withheld from this machine's CPUs, in clock ticks of
/// 1/100 s (the `steal` column of `/proc/stat`, summed over CPUs): time a
/// virtual CPU wanted to run but the hypervisor ran something else.
/// Always 0 on bare metal.
pub fn host_steal_ticks() -> Option<u64> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let cpu = stat.lines().find(|l| l.starts_with("cpu "))?;
    cpu.split_whitespace().nth(8)?.parse().ok()
}

/// Logical cores available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), 5.0);
        assert_eq!(percentile(&xs, 90.0), 9.0);
        assert_eq!(percentile(&xs, 91.0), 10.0);
        assert_eq!(percentile(&xs, 100.0), 10.0);
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(percentile(&[3.0, 1.0, 2.0], 50.0), 2.0);
        assert!(percentile(&[], 50.0).is_nan());
    }

    #[test]
    fn blocked_percentile_takes_the_median_block() {
        // Blocks 1..=10, 11..=20 and 21..=31 (the ragged tail joins the
        // last); their 90th percentiles are 9, 19 and 30 (rank 10 of 11).
        let xs: Vec<f64> = (1..=31).map(f64::from).collect();
        assert_eq!(blocked_percentile(&xs, 90.0, 10), 19.0);
        // One slow block out of three leaves it unmoved.
        let mut spiked = vec![1.0; 30];
        spiked[10..20].fill(100.0);
        assert_eq!(blocked_percentile(&spiked, 90.0, 10), 1.0);
        // Fewer than two blocks: the plain percentile.
        assert_eq!(blocked_percentile(&xs[..19], 90.0, 10), 18.0);
        assert!(blocked_percentile(&[], 90.0, 10).is_nan());
    }

    #[test]
    fn median_averages_the_middle_pair() {
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn fnv_matches_the_reference_vectors() {
        let hash = |s: &str| {
            let mut h = Fnv::default();
            h.write(s.as_bytes());
            h.finish()
        };
        assert_eq!(hash(""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(hash("a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(hash("foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn process_probes_read_this_process() {
        assert!(peak_rss_mb().is_some_and(|mb| mb > 0.0));
        assert!(process_cpu_s().is_some_and(|s| s >= 0.0));
        assert!(host_steal_ticks().is_some());
    }
}
