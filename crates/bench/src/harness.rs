//! A tiny, dependency-free micro-benchmark harness.
//!
//! The build environment has no registry access, so the workspace cannot
//! depend on `criterion`. This module provides what the benches use:
//! named benchmarks, a calibrated measurement loop, and per-iteration
//! setup via [`Bencher::iter_batched`]. Timings are printed as
//! `name ... <ns>/iter`, or `<ns>/item` for a batch routine timed with
//! [`Harness::bench_items`].
//!
//! The per-benchmark time budget defaults to 300 ms and can be changed with
//! the `FINRAD_BENCH_MS` environment variable (whole milliseconds, e.g.
//! `FINRAD_BENCH_MS=50`). A malformed value is rejected loudly: a warning
//! is printed to stderr and the documented 300 ms default is used.

use std::hint::black_box;
use std::time::{Duration, Instant};

/// Top-level harness: owns the time budget and prints results.
#[derive(Debug, Clone)]
pub struct Harness {
    budget: Duration,
}

impl Default for Harness {
    fn default() -> Self {
        Self::from_env()
    }
}

impl Harness {
    /// Builds a harness with the budget from `FINRAD_BENCH_MS` (default
    /// 300 ms per benchmark). A malformed value does not silently become
    /// the default: a warning goes to stderr first.
    pub fn from_env() -> Self {
        let raw = std::env::var("FINRAD_BENCH_MS").ok();
        let (ms, warning) = parse_bench_ms(raw.as_deref());
        if let Some(w) = warning {
            eprintln!("warning: {w}");
        }
        Self {
            budget: Duration::from_millis(ms),
        }
    }

    /// Runs one named benchmark. The closure receives a [`Bencher`] and
    /// must call [`Bencher::iter`] or [`Bencher::iter_batched`] exactly
    /// once.
    pub fn bench_function(&mut self, name: &str, f: impl FnMut(&mut Bencher)) {
        self.measure(name, 1, "iter", f);
    }

    /// Like [`Self::bench_function`] for a routine that does `items` units
    /// of work per call (a batch of rays, say): prints the time per item.
    pub fn bench_items(&mut self, name: &str, items: u64, f: impl FnMut(&mut Bencher)) {
        self.measure(name, items.max(1), "item", f);
    }

    fn measure(&mut self, name: &str, items: u64, unit: &str, mut f: impl FnMut(&mut Bencher)) {
        let mut b = Bencher {
            budget: self.budget,
            iters: 0,
            elapsed: Duration::ZERO,
        };
        f(&mut b);
        let per = if b.iters > 0 {
            b.elapsed.as_nanos() / (u128::from(b.iters) * u128::from(items))
        } else {
            0
        };
        println!("{name:<40} {per:>12} ns/{unit}  ({} iters)", b.iters);
    }
}

/// Default per-benchmark budget when `FINRAD_BENCH_MS` is unset or
/// malformed.
pub const DEFAULT_BENCH_MS: u64 = 300;

/// Parses a `FINRAD_BENCH_MS` value into a budget in milliseconds.
///
/// Unset means the documented [`DEFAULT_BENCH_MS`]; a value that is not a
/// whole number of milliseconds also falls back to the default but returns
/// a warning for the caller to surface (the old behaviour silently
/// swallowed typos like `FINRAD_BENCH_MS=0.5s`). A parsed `0` is clamped
/// to 1 ms so the calibration loop always has a budget.
fn parse_bench_ms(raw: Option<&str>) -> (u64, Option<String>) {
    match raw {
        None => (DEFAULT_BENCH_MS, None),
        Some(v) => match v.trim().parse::<u64>() {
            Ok(ms) => (ms.max(1), None),
            Err(_) => (
                DEFAULT_BENCH_MS,
                Some(format!(
                    "FINRAD_BENCH_MS={v:?} is not a whole number of milliseconds; \
                     using the default {DEFAULT_BENCH_MS} ms"
                )),
            ),
        },
    }
}

/// Measurement state for one benchmark.
#[derive(Debug)]
pub struct Bencher {
    budget: Duration,
    iters: u64,
    elapsed: Duration,
}

impl Bencher {
    /// Times `f` in a calibrated loop: a short warm-up sizes the iteration
    /// count so the measured loop fills the time budget.
    pub fn iter<T>(&mut self, mut f: impl FnMut() -> T) {
        let mut n: u64 = 1;
        let warmup = (self.budget / 20).max(Duration::from_millis(5));
        loop {
            let t0 = Instant::now();
            for _ in 0..n {
                black_box(f());
            }
            let dt = t0.elapsed();
            if dt >= warmup || n >= (1 << 30) {
                let per_ns = (dt.as_nanos() / u128::from(n)).max(1);
                let target = self.budget.as_nanos().saturating_sub(dt.as_nanos());
                let iters = (target / per_ns).clamp(1, 1_000_000_000) as u64;
                let t1 = Instant::now();
                for _ in 0..iters {
                    black_box(f());
                }
                self.iters = iters;
                self.elapsed = t1.elapsed();
                return;
            }
            n = n.saturating_mul(2);
        }
    }

    /// Like [`Self::iter`], but re-creates the routine input with `setup`
    /// before every call, excluding setup time from the measurement.
    pub fn iter_batched<S, T>(
        &mut self,
        mut setup: impl FnMut() -> S,
        mut routine: impl FnMut(S) -> T,
    ) {
        // Calibrate on a handful of timed single calls.
        let mut timed = Duration::ZERO;
        let mut calls: u64 = 0;
        while timed < (self.budget / 20).max(Duration::from_millis(5)) && calls < (1 << 20) {
            let input = setup();
            let t0 = Instant::now();
            black_box(routine(input));
            timed += t0.elapsed();
            calls += 1;
        }
        let per_ns = (timed.as_nanos() / u128::from(calls.max(1))).max(1);
        let target = self.budget.as_nanos().saturating_sub(timed.as_nanos());
        let iters = (target / per_ns).clamp(1, 10_000_000) as u64;
        let mut elapsed = Duration::ZERO;
        for _ in 0..iters {
            let input = setup();
            let t0 = Instant::now();
            black_box(routine(input));
            elapsed += t0.elapsed();
        }
        self.iters = iters + calls;
        self.elapsed = elapsed + timed;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_ms_parses_valid_values() {
        assert_eq!(parse_bench_ms(None), (DEFAULT_BENCH_MS, None));
        assert_eq!(parse_bench_ms(Some("50")), (50, None));
        assert_eq!(parse_bench_ms(Some(" 50 ")), (50, None));
        // Zero is clamped so the calibration loop has a budget.
        assert_eq!(parse_bench_ms(Some("0")), (1, None));
    }

    #[test]
    fn bench_ms_rejects_malformed_values_loudly() {
        for bad in ["0.5s", "abc", "", "-3", "1e3"] {
            let (ms, warning) = parse_bench_ms(Some(bad));
            assert_eq!(ms, DEFAULT_BENCH_MS, "fallback for {bad:?}");
            let w = warning.unwrap_or_else(|| panic!("no warning for {bad:?}"));
            assert!(w.contains("FINRAD_BENCH_MS"), "warning names the var: {w}");
        }
    }

    #[test]
    fn iter_measures_something() {
        let mut h = Harness {
            budget: Duration::from_millis(10),
        };
        h.bench_function("noop", |b| b.iter(|| 1 + 1));
    }

    #[test]
    fn iter_batched_measures_something() {
        let mut h = Harness {
            budget: Duration::from_millis(10),
        };
        h.bench_function("batched", |b| b.iter_batched(|| vec![1u8; 16], |v| v.len()));
    }

    #[test]
    fn bench_items_measures_something() {
        let mut h = Harness {
            budget: Duration::from_millis(10),
        };
        h.bench_items("batch", 64, |b| b.iter(|| (0..64u64).sum::<u64>()));
    }
}
