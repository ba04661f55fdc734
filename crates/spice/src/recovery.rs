//! The convergence-recovery ladder and its structured trace.
//!
//! When a Newton solve fails, the analyses in this crate do not give up
//! immediately: they escalate through a fixed ladder of progressively more
//! invasive homotopies, each of which preserves the solution of the
//! original problem when it converges:
//!
//! 1. [`RecoveryRung::Direct`] — plain damped Newton from the caller's
//!    initial guess (preserves the basin of attraction of bistable cells).
//! 2. [`RecoveryRung::GminStepping`] — solve with a strong leak
//!    conductance to ground, then relax it geometrically to the target
//!    `gmin`, warm-starting each stage (classic SPICE gmin stepping).
//! 3. [`RecoveryRung::SourceStepping`] — ramp every voltage source from
//!    0 V to its target value in fixed fractions, warm-starting each step
//!    (classic SPICE source stepping).
//! 4. [`RecoveryRung::ReducedTimestep`] — transient-only: halve the
//!    rejected timestep, bounded by both a halving budget and an absolute
//!    `dt` floor.
//!
//! Every attempt is recorded in a [`RecoveryTrace`] so callers and logs
//! can see what was retried and why, instead of a bare failure.

use std::fmt;

/// Maximum number of attempts a [`RecoveryTrace`] stores verbatim; further
/// attempts are only counted (deep transient halving cascades would
/// otherwise grow the trace without bound).
const MAX_RECORDED_ATTEMPTS: usize = 64;

/// One rung of the convergence-recovery ladder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecoveryRung {
    /// Plain damped Newton from the caller's initial guess.
    Direct,
    /// Geometric g-min relaxation with warm starts.
    GminStepping,
    /// Supply ramp: all voltage sources scaled up from zero.
    SourceStepping,
    /// Transient timestep halving toward the `min_dt` floor.
    ReducedTimestep,
}

impl fmt::Display for RecoveryRung {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            RecoveryRung::Direct => "direct",
            RecoveryRung::GminStepping => "gmin-stepping",
            RecoveryRung::SourceStepping => "source-stepping",
            RecoveryRung::ReducedTimestep => "reduced-timestep",
        })
    }
}

/// The outcome of one attempted rung.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveryAttempt {
    /// Which rung was tried.
    pub rung: RecoveryRung,
    /// Whether the rung produced a converged solution (for
    /// [`RecoveryRung::ReducedTimestep`]: whether the rejection could be
    /// handled by halving at all).
    pub succeeded: bool,
    /// Human-readable detail: gmin stage count, ramp fraction, rejected
    /// `dt` and floor, or the underlying solver error.
    pub detail: String,
}

/// Structured record of what the solver retried and why.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RecoveryTrace {
    attempts: Vec<RecoveryAttempt>,
    suppressed: usize,
}

impl RecoveryTrace {
    /// Creates an empty trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one attempt (only the first `MAX_RECORDED_ATTEMPTS` are
    /// stored verbatim; the rest increment [`suppressed`]).
    ///
    /// [`suppressed`]: RecoveryTrace::suppressed
    pub fn record(&mut self, rung: RecoveryRung, succeeded: bool, detail: impl Into<String>) {
        if finrad_observe::enabled() {
            let outcome = if succeeded { "ok" } else { "fail" };
            finrad_observe::counter_add(
                &format!(
                    "{}{rung}.{outcome}",
                    finrad_observe::keys::SPICE_RECOVERY_RUNG_PREFIX
                ),
                1,
            );
        }
        if self.attempts.len() < MAX_RECORDED_ATTEMPTS {
            self.attempts.push(RecoveryAttempt {
                rung,
                succeeded,
                detail: detail.into(),
            });
        } else {
            self.suppressed += 1;
        }
    }

    /// The recorded attempts, in order.
    pub fn attempts(&self) -> &[RecoveryAttempt] {
        &self.attempts
    }

    /// Attempts beyond the recording cap (counted, not stored).
    pub fn suppressed(&self) -> usize {
        self.suppressed
    }

    /// The distinct rungs attempted, in first-attempt order.
    pub fn rungs_attempted(&self) -> Vec<RecoveryRung> {
        let mut rungs = Vec::new();
        for a in &self.attempts {
            if !rungs.contains(&a.rung) {
                rungs.push(a.rung);
            }
        }
        rungs
    }

    /// Whether the solve ultimately succeeded only after at least one
    /// failed attempt (i.e. the ladder actually earned its keep).
    pub fn recovered(&self) -> bool {
        self.attempts.iter().any(|a| !a.succeeded) && self.attempts.iter().any(|a| a.succeeded)
    }

    /// Whether nothing was attempted (trivially clean solve).
    pub fn is_empty(&self) -> bool {
        self.attempts.is_empty() && self.suppressed == 0
    }
}

impl fmt::Display for RecoveryTrace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_empty() {
            return f.write_str("no recovery attempted");
        }
        for (i, a) in self.attempts.iter().enumerate() {
            if i > 0 {
                f.write_str(" -> ")?;
            }
            write!(
                f,
                "{}: {} ({})",
                a.rung,
                if a.succeeded { "ok" } else { "failed" },
                a.detail
            )?;
        }
        if self.suppressed > 0 {
            write!(f, " [+{} attempt(s) suppressed]", self.suppressed)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_records_and_dedups_rungs() {
        let mut t = RecoveryTrace::new();
        assert!(t.is_empty());
        assert!(!t.recovered());
        t.record(RecoveryRung::Direct, false, "iter budget");
        t.record(RecoveryRung::GminStepping, false, "stage 1");
        t.record(RecoveryRung::GminStepping, true, "stage 4");
        assert_eq!(
            t.rungs_attempted(),
            vec![RecoveryRung::Direct, RecoveryRung::GminStepping]
        );
        assert!(t.recovered());
        let s = t.to_string();
        assert!(s.contains("direct: failed"));
        assert!(s.contains("gmin-stepping: ok"));
    }

    #[test]
    fn trace_caps_recorded_attempts() {
        let mut t = RecoveryTrace::new();
        for i in 0..(MAX_RECORDED_ATTEMPTS + 10) {
            t.record(RecoveryRung::ReducedTimestep, true, format!("halving {i}"));
        }
        assert_eq!(t.attempts().len(), MAX_RECORDED_ATTEMPTS);
        assert_eq!(t.suppressed(), 10);
        assert!(t.to_string().contains("suppressed"));
    }

    #[test]
    fn clean_solve_is_not_a_recovery() {
        let mut t = RecoveryTrace::new();
        t.record(RecoveryRung::Direct, true, "converged");
        assert!(!t.recovered());
    }
}
