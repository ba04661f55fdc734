//! Dependency-free observability for the finrad workspace.
//!
//! Every layer of the pipeline — the SPICE Newton solver, the circuit-level
//! characterization, the array-level Monte Carlo, the campaign runtime —
//! reports what it did through this crate: monotonic **counters** (Newton
//! iterations, MC iterations, quarantined samples, recovery-ladder rung
//! attempts) and **histograms** of timings and throughputs (per-combo
//! characterization seconds, per-bin wall time, strike iterations/second).
//!
//! The design is deliberately minimal and zero-cost when unused:
//!
//! * [`Recorder`] is the sink trait. The workspace never assumes a
//!   particular implementation.
//! * Nothing is recorded until a process installs a global recorder with
//!   [`install`]. Before that, every [`counter_add`]/[`record`] call is a
//!   single atomic load and an untaken branch, and [`span`] never reads the
//!   clock — hot Monte-Carlo paths pay nothing in the default
//!   configuration. Instrumented code also batches its reports at chunk or
//!   solve granularity, never per random sample.
//! * [`InMemoryRecorder`] is the batteries-included sink: thread-safe
//!   aggregation into sorted maps, with a [`MetricsSnapshot`] that can
//!   also serialize itself to JSON. The end-to-end benchmark
//!   (`e2ebench/`) installs it for its traced run and reads its counters
//!   and histograms as the per-layer metrics (see `docs/observability.md`).
//!
//! # Examples
//!
//! ```
//! use finrad_observe::{InMemoryRecorder, Recorder};
//!
//! let rec = InMemoryRecorder::default();
//! rec.counter_add("core.strike.iterations", 4096);
//! rec.record("core.strike.chunk_seconds", 0.012);
//! let snap = rec.snapshot();
//! assert_eq!(snap.counters["core.strike.iterations"], 4096);
//! assert_eq!(snap.histograms["core.strike.chunk_seconds"].count, 1);
//! ```

#![forbid(unsafe_code)]
#![cfg_attr(
    not(test),
    warn(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::todo,
        clippy::unimplemented,
        clippy::unreachable,
        clippy::float_cmp,
        clippy::let_underscore_must_use
    )
)]
#![deny(rust_2018_idioms)]
#![warn(missing_docs)]

use std::collections::BTreeMap;
use std::fmt;
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

pub mod keys;

/// A metrics sink. Implementations must be cheap and thread-safe: the
/// instrumented code calls them from Monte-Carlo worker threads (at chunk
/// granularity, never per sample).
pub trait Recorder: Send + Sync {
    /// Adds `delta` to the monotonic counter named `key`.
    fn counter_add(&self, key: &str, delta: u64);

    /// Records one observation of `value` into the histogram named `key`.
    /// Timings are reported in seconds, throughputs in events/second.
    fn record(&self, key: &str, value: f64);
}

/// A recorder that discards everything — the explicit form of the default
/// "not installed" state, useful for tests of instrumented code paths.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoopRecorder;

impl Recorder for NoopRecorder {
    fn counter_add(&self, _key: &str, _delta: u64) {}
    fn record(&self, _key: &str, _value: f64) {}
}

static GLOBAL: OnceLock<&'static dyn Recorder> = OnceLock::new();

/// Error returned by [`install`] when a recorder is already installed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AlreadyInstalled;

impl fmt::Display for AlreadyInstalled {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("a global metrics recorder is already installed")
    }
}

impl std::error::Error for AlreadyInstalled {}

/// Installs the process-wide recorder. May succeed at most once per
/// process; the recorder is leaked so instrumented code can hold a
/// `'static` reference without synchronization on the hot path.
///
/// # Errors
///
/// [`AlreadyInstalled`] if a recorder was installed earlier (the earlier
/// one stays active).
pub fn install(recorder: Box<dyn Recorder>) -> Result<(), AlreadyInstalled> {
    let leaked: &'static dyn Recorder = Box::leak(recorder);
    install_ref(leaked)
}

/// Installs an already-`'static` recorder (see [`install`]).
///
/// # Errors
///
/// [`AlreadyInstalled`] if a recorder was installed earlier (the earlier
/// one stays active).
pub fn install_ref(recorder: &'static dyn Recorder) -> Result<(), AlreadyInstalled> {
    GLOBAL.set(recorder).map_err(|_| AlreadyInstalled)
}

/// Leaks and installs a fresh [`InMemoryRecorder`], returning the typed
/// handle so callers can still take [`InMemoryRecorder::snapshot`]s — the
/// one-liner for binaries and integration tests that want process-wide
/// metrics collection.
///
/// # Errors
///
/// [`AlreadyInstalled`] if a recorder was installed earlier (the earlier
/// one stays active; the freshly leaked recorder records nothing).
pub fn install_in_memory() -> Result<&'static InMemoryRecorder, AlreadyInstalled> {
    let rec: &'static InMemoryRecorder = Box::leak(Box::new(InMemoryRecorder::new()));
    install_ref(rec)?;
    Ok(rec)
}

/// The installed recorder, if any. Instrumented code should prefer the
/// free functions below, which fold the `None` branch away.
#[inline]
pub fn recorder() -> Option<&'static dyn Recorder> {
    GLOBAL.get().copied()
}

/// Whether a recorder is installed (one atomic load).
#[inline]
pub fn enabled() -> bool {
    GLOBAL.get().is_some()
}

/// Adds `delta` to counter `key` on the installed recorder, if any.
#[inline]
pub fn counter_add(key: &str, delta: u64) {
    if let Some(r) = recorder() {
        r.counter_add(key, delta);
    }
}

/// Records `value` into histogram `key` on the installed recorder, if any.
#[inline]
pub fn record(key: &str, value: f64) {
    if let Some(r) = recorder() {
        r.record(key, value);
    }
}

/// A scope timer: measures wall time from [`span`] to drop and records it
/// (in seconds) into the histogram named at creation. When no recorder is
/// installed the clock is never read.
#[derive(Debug)]
pub struct Span {
    key: &'static str,
    start: Option<Instant>,
}

impl Span {
    /// Seconds elapsed so far, or `None` when disabled.
    pub fn elapsed_seconds(&self) -> Option<f64> {
        self.start.map(|t| t.elapsed().as_secs_f64())
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if let (Some(start), Some(r)) = (self.start, recorder()) {
            r.record(self.key, start.elapsed().as_secs_f64());
        }
    }
}

/// Starts a [`Span`] recording into histogram `key` when dropped.
#[inline]
pub fn span(key: &'static str) -> Span {
    Span {
        key,
        start: enabled().then(Instant::now),
    }
}

/// Streaming summary of one histogram: count, sum, min, max.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HistogramSummary {
    /// Number of recorded observations.
    pub count: u64,
    /// Sum of all observations.
    pub sum: f64,
    /// Smallest observation.
    pub min: f64,
    /// Largest observation.
    pub max: f64,
}

impl HistogramSummary {
    fn new(value: f64) -> Self {
        Self {
            count: 1,
            sum: value,
            min: value,
            max: value,
        }
    }

    fn push(&mut self, value: f64) {
        self.count += 1;
        self.sum += value;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Mean of the observations (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }
}

#[derive(Debug, Default)]
struct Inner {
    counters: BTreeMap<String, u64>,
    histograms: BTreeMap<String, HistogramSummary>,
}

/// Thread-safe aggregating recorder: counters sum, histograms keep a
/// streaming [`HistogramSummary`]. Keys are reported sorted.
#[derive(Debug, Default)]
pub struct InMemoryRecorder {
    inner: Mutex<Inner>,
}

impl InMemoryRecorder {
    /// Creates an empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        // A panicking worker thread must not disable metrics for the rest
        // of the run; the aggregates stay internally consistent because
        // each update is a single guarded mutation. `finrad-observe` sits
        // below `finrad-spice` in the crate graph, so it cannot call the
        // workspace-sanctioned `finrad_spice::sync::lock_recovering` and
        // keeps the recovery idiom inline.
        // finrad-lint: allow(lock-order-audit)
        self.inner.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// A point-in-time copy of every counter and histogram.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let inner = self.lock();
        MetricsSnapshot {
            counters: inner.counters.clone(),
            histograms: inner.histograms.clone(),
        }
    }
}

impl Recorder for InMemoryRecorder {
    fn counter_add(&self, key: &str, delta: u64) {
        let mut inner = self.lock();
        let slot = inner.counters.entry(key.to_owned()).or_insert(0);
        *slot = slot.saturating_add(delta);
    }

    fn record(&self, key: &str, value: f64) {
        if !value.is_finite() {
            return; // quarantine poisoned observations at the sink boundary
        }
        let mut inner = self.lock();
        match inner.histograms.entry(key.to_owned()) {
            std::collections::btree_map::Entry::Vacant(e) => {
                e.insert(HistogramSummary::new(value));
            }
            std::collections::btree_map::Entry::Occupied(mut e) => e.get_mut().push(value),
        }
    }
}

/// A point-in-time copy of an [`InMemoryRecorder`]'s contents.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// Counter totals, sorted by key.
    pub counters: BTreeMap<String, u64>,
    /// Histogram summaries, sorted by key.
    pub histograms: BTreeMap<String, HistogramSummary>,
}

impl MetricsSnapshot {
    /// The counter's total, or 0 when never touched.
    pub fn counter(&self, key: &str) -> u64 {
        self.counters.get(key).copied().unwrap_or(0)
    }

    /// The histogram's summary, if any observation was recorded.
    pub fn histogram(&self, key: &str) -> Option<&HistogramSummary> {
        self.histograms.get(key)
    }

    /// Serializes the snapshot as a compact JSON object:
    /// `{"counters": {..}, "histograms": {"k": {"count":..,"sum":..,"min":..,"max":..}, ..}}`.
    /// Non-finite aggregate values (impossible through [`Recorder::record`],
    /// which rejects them) would serialize as `null`.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"counters\":{");
        for (i, (k, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&json_string(k));
            out.push(':');
            out.push_str(&v.to_string());
        }
        out.push_str("},\"histograms\":{");
        for (i, (k, h)) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&json_string(k));
            out.push_str(&format!(
                ":{{\"count\":{},\"sum\":{},\"min\":{},\"max\":{}}}",
                h.count,
                json_number(h.sum),
                json_number(h.min),
                json_number(h.max)
            ));
        }
        out.push_str("}}");
        out
    }
}

/// Escapes `s` as a JSON string literal (quotes included).
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Formats an `f64` as a JSON number (`null` for non-finite values, which
/// JSON cannot represent).
pub fn json_number(v: f64) -> String {
    if v.is_finite() {
        let s = format!("{v:?}"); // Debug format round-trips f64 exactly
        s
    } else {
        "null".to_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn counters_sum_and_saturate() {
        let rec = InMemoryRecorder::new();
        rec.counter_add("a", 2);
        rec.counter_add("a", 3);
        rec.counter_add("b", u64::MAX);
        rec.counter_add("b", 10); // saturates instead of wrapping
        let snap = rec.snapshot();
        assert_eq!(snap.counter("a"), 5);
        assert_eq!(snap.counter("b"), u64::MAX);
        assert_eq!(snap.counter("never-touched"), 0);
    }

    #[test]
    fn histograms_track_count_sum_min_max() {
        let rec = InMemoryRecorder::new();
        for v in [2.0, 0.5, 8.0] {
            rec.record("h", v);
        }
        rec.record("h", f64::NAN); // rejected at the sink boundary
        rec.record("h", f64::INFINITY);
        let snap = rec.snapshot();
        let h = snap.histogram("h").unwrap();
        assert_eq!(h.count, 3);
        assert!((h.sum - 10.5).abs() < 1e-12);
        assert_eq!(h.min, 0.5);
        assert_eq!(h.max, 8.0);
        assert!((h.mean() - 3.5).abs() < 1e-12);
        assert!(snap.histogram("missing").is_none());
    }

    #[test]
    fn snapshot_is_a_copy() {
        let rec = InMemoryRecorder::new();
        rec.counter_add("a", 1);
        let before = rec.snapshot();
        rec.counter_add("a", 1);
        assert_eq!(before.counter("a"), 1);
        assert_eq!(rec.snapshot().counter("a"), 2);
    }

    #[test]
    fn json_snapshot_shape() {
        let rec = InMemoryRecorder::new();
        rec.counter_add("x.count", 7);
        rec.record("x.seconds", 1.5);
        let json = rec.snapshot().to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"x.count\":7"));
        assert!(json.contains("\"x.seconds\":{\"count\":1,\"sum\":1.5,\"min\":1.5,\"max\":1.5}"));
    }

    #[test]
    fn json_escaping_and_numbers() {
        assert_eq!(json_string("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(json_number(2.5), "2.5");
        assert_eq!(json_number(f64::NAN), "null");
        assert_eq!(json_number(f64::NEG_INFINITY), "null");
    }

    #[test]
    fn noop_recorder_discards() {
        let rec = NoopRecorder;
        rec.counter_add("a", 1);
        rec.record("b", 1.0);
    }

    #[test]
    fn span_without_recorder_never_reads_clock() {
        // Before installation the span must be inert: no start time at all.
        // (This test must run before `install` succeeds anywhere in this
        // process; the install test below uses a child-free ordering trick
        // by asserting on a fresh span only when still disabled.)
        if !enabled() {
            let s = span("test.span");
            assert!(s.elapsed_seconds().is_none());
        }
    }

    /// Routes through the free functions after installing; counts with a
    /// custom recorder to prove trait-object dispatch.
    #[test]
    fn install_routes_free_functions() {
        struct Counting(AtomicU64);
        impl Recorder for Counting {
            fn counter_add(&self, _key: &str, delta: u64) {
                self.0.fetch_add(delta, Ordering::Relaxed);
            }
            fn record(&self, _key: &str, _value: f64) {
                self.0.fetch_add(1, Ordering::Relaxed);
            }
        }
        // Another test (or an earlier install) may have won the race; both
        // outcomes keep the invariants we assert.
        let installed = install(Box::new(Counting(AtomicU64::new(0)))).is_ok();
        assert!(enabled());
        counter_add("k", 5);
        record("h", 1.0);
        drop(span("s")); // records one observation when installed
        if installed {
            assert!(install(Box::new(NoopRecorder)).is_err());
        }
    }
}
