//! Process and sample arithmetic behind the reported metrics: CPU time and
//! peak resident set from `/proc/self`, order statistics over per-pass and
//! per-job samples, and the stage accounting of the traced run.

/// Clock ticks per second of the `utime`/`stime` fields of
/// `/proc/<pid>/stat`. Linux exports these in `USER_HZ`, which is 100 on
/// every architecture the kernel's userspace ABI defines it for.
const USER_HZ: f64 = 100.0;

/// A level asked of [`percentile`] that the samples cannot support.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TooFewSamples {
    /// Samples available.
    pub samples: usize,
    /// Samples that lie beyond the requested level.
    pub beyond: usize,
}

/// Samples that must lie beyond a reported percentile, so one outlier
/// cannot move it.
pub const MIN_BEYOND: usize = 10;

/// The nearest-rank `q` percentile of `samples` (`0 < q < 1`), refused
/// unless at least [`MIN_BEYOND`] samples lie beyond it.
///
/// # Errors
///
/// [`TooFewSamples`] when fewer than [`MIN_BEYOND`] samples rank above
/// the level.
pub fn percentile(samples: &[f64], q: f64) -> Result<f64, TooFewSamples> {
    assert!(q > 0.0 && q < 1.0, "percentile level must lie in (0, 1)");
    let n = samples.len();
    let rank = (q * n as f64).ceil() as usize;
    let beyond = n - rank.min(n);
    if beyond < MIN_BEYOND {
        return Err(TooFewSamples { samples: n, beyond });
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Ok(sorted[rank - 1])
}

/// The median of a non-empty sample set, averaging the two middle values
/// of an even count. Used for the per-run medians over passes and set-up
/// repetitions, where the sample count is small by design.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        0.5 * (sorted[n / 2 - 1] + sorted[n / 2])
    }
}

/// User + system CPU seconds from the text of `/proc/<pid>/stat`.
///
/// The command name (field 2) is parenthesized and may itself contain
/// spaces or parentheses, so fields are counted from the last `)`.
pub fn parse_stat_cpu_seconds(stat: &str) -> Option<f64> {
    let after = &stat[stat.rfind(')')? + 1..];
    // After the command name come field 3 (state) onwards; utime and
    // stime are fields 14 and 15, i.e. the 12th and 13th from here.
    let mut fields = after.split_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some((utime + stime) as f64 / USER_HZ)
}

/// Peak resident set in MiB from the text of `/proc/<pid>/status`
/// (the `VmHWM` line, reported by the kernel in kB).
pub fn parse_status_hwm_mb(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let mut parts = line["VmHWM:".len()..].split_whitespace();
    let kb: f64 = parts.next()?.parse().ok()?;
    (parts.next()? == "kB").then_some(kb / 1024.0)
}

/// This process's user + system CPU seconds so far, all threads included
/// (threads that already exited are folded in by the kernel).
pub fn process_cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("/proc/self/stat is readable");
    parse_stat_cpu_seconds(&stat).expect("/proc/self/stat has utime and stime")
}

/// This process's peak resident set so far, MiB.
pub fn process_max_rss_mb() -> f64 {
    let status =
        std::fs::read_to_string("/proc/self/status").expect("/proc/self/status is readable");
    parse_status_hwm_mb(&status).expect("/proc/self/status has a VmHWM line")
}

/// One top-level stage interval of the traced run, in seconds from the
/// start of the traced phase.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StageSpan {
    /// Stage name, as printed in the per-layer table.
    pub stage: &'static str,
    /// Start offset, seconds.
    pub start: f64,
    /// End offset, seconds.
    pub end: f64,
}

impl StageSpan {
    /// The span's duration, seconds.
    pub fn seconds(&self) -> f64 {
        self.end - self.start
    }
}

/// Total seconds of the spans named `stage`.
pub fn stage_seconds(spans: &[StageSpan], stage: &str) -> f64 {
    spans
        .iter()
        .filter(|s| s.stage == stage)
        .fold(0.0, |sum, s| sum + s.seconds())
}

/// The traced wall time not covered by any stage span. Stage spans are
/// sequential calls made by one client thread, so they never overlap and
/// their durations add.
pub fn unaccounted_seconds(total: f64, spans: &[StageSpan]) -> f64 {
    total - spans.iter().map(StageSpan::seconds).sum::<f64>()
}

/// `numerator / denominator`, or 0 when nothing was attempted.
pub fn ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator > 0.0 {
        numerator / denominator
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_refuses_levels_without_ten_samples_beyond() {
        let samples: Vec<f64> = (1..=19).map(f64::from).collect();
        assert_eq!(
            percentile(&samples, 0.5),
            Err(TooFewSamples {
                samples: 19,
                beyond: 9
            })
        );
        let samples: Vec<f64> = (1..=20).rev().map(f64::from).collect();
        assert_eq!(percentile(&samples, 0.5), Ok(10.0));
        // p90 needs 100 samples: 90 at or below, 10 beyond.
        let samples: Vec<f64> = (1..=99).map(f64::from).collect();
        assert!(percentile(&samples, 0.9).is_err());
        let samples: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&samples, 0.9), Ok(90.0));
        assert!(percentile(&[], 0.5).is_err());
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn stage_sums_and_unaccounted_time() {
        let spans = [
            StageSpan {
                stage: "sram",
                start: 0.5,
                end: 2.0,
            },
            StageSpan {
                stage: "core.pipeline",
                start: 2.0,
                end: 3.25,
            },
            StageSpan {
                stage: "sram",
                start: 3.5,
                end: 4.0,
            },
        ];
        assert_eq!(stage_seconds(&spans, "sram"), 2.0);
        assert_eq!(stage_seconds(&spans, "core.pipeline"), 1.25);
        assert_eq!(stage_seconds(&spans, "transport"), 0.0);
        // 0.5 s before the first span and 0.25 s between the last two.
        assert_eq!(unaccounted_seconds(4.0, &spans), 0.75);
        assert_eq!(unaccounted_seconds(1.0, &[]), 1.0);
    }

    #[test]
    fn ratio_of_nothing_is_zero() {
        assert_eq!(ratio(3.0, 4.0), 0.75);
        assert_eq!(ratio(3.0, 0.0), 0.0);
    }

    #[test]
    fn stat_cpu_fields_counted_after_the_command_name() {
        // A command name with spaces and a closing parenthesis must not
        // shift the fields; utime = 250 ticks, stime = 30 ticks.
        let stat = "4242 (my (odd) cmd) R 1 4242 4242 0 -1 4194304 900 0 0 0 \
                    250 30 0 0 20 0 3 0 12345 1000000 300 18446744073709551615";
        assert_eq!(parse_stat_cpu_seconds(stat), Some(2.8));
        assert_eq!(parse_stat_cpu_seconds("4242 (cmd) R 1"), None);
        assert_eq!(parse_stat_cpu_seconds("no parenthesis"), None);
    }

    #[test]
    fn status_hwm_read_in_kib_and_reported_in_mib() {
        let status = "Name:\tfinrad\nVmPeak:\t  999999 kB\nVmHWM:\t    5120 kB\nVmRSS:\t 4096 kB\n";
        assert_eq!(parse_status_hwm_mb(status), Some(5.0));
        assert_eq!(parse_status_hwm_mb("Name:\tx\n"), None);
        assert_eq!(parse_status_hwm_mb("VmHWM:\t12 MB\n"), None);
    }

    #[test]
    fn live_proc_readings_are_positive() {
        let before = process_cpu_seconds();
        let mut x = 0u64;
        for i in 0..2_000_000u64 {
            x = x.wrapping_mul(31).wrapping_add(std::hint::black_box(i));
        }
        std::hint::black_box(x);
        assert!(process_cpu_seconds() >= before);
        assert!(process_max_rss_mb() > 0.0);
    }
}
