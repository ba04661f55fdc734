//! Shared plumbing for the figure-regeneration binaries and the
//! dependency-free micro-benchmark harness ([`harness`]).
//!
//! Every figure of the paper's evaluation section has a binary in
//! `src/bin/` that prints the corresponding series (normalized the same
//! way the paper normalizes); Figs. 9–11 share one sweep, so one binary,
//! `reproduce`, prints all three from [`SweepFigures`]. Two run scales are
//! supported:
//!
//! * **quick** (default) — minutes-scale, statistically coarser; enough to
//!   verify every trend.
//! * **full** (`FINRAD_FULL=1`) — paper-scale statistics (1000-sample
//!   variation MC, 10⁵–10⁶ strike iterations per energy).

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

pub mod figures;
pub mod harness;

pub use figures::SweepFigures;

use finrad_core::pipeline::PipelineConfig;
use finrad_sram::Variation;

/// Run scale selected through the `FINRAD_FULL` environment variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Minutes-scale statistics.
    Quick,
    /// Paper-scale statistics.
    Full,
}

impl Scale {
    /// Reads the scale from the environment: `FINRAD_FULL=1` selects
    /// [`Scale::Full`]; unset, empty or `0` selects [`Scale::Quick`]. Any
    /// other value is malformed and is rejected loudly — a warning goes to
    /// stderr and the quick scale (the documented default) is used, rather
    /// than the old behaviour of treating arbitrary garbage as "full".
    pub fn from_env() -> Self {
        let raw = std::env::var("FINRAD_FULL").ok();
        let (scale, warning) = parse_scale(raw.as_deref());
        if let Some(w) = warning {
            eprintln!("warning: {w}");
        }
        scale
    }

    /// Variation Monte-Carlo sample count.
    pub fn variation_samples(self) -> usize {
        match self {
            Scale::Quick => 150,
            Scale::Full => 1000, // the paper's count
        }
    }

    /// Strike-MC iterations per energy bin.
    pub fn strike_iterations(self) -> u64 {
        match self {
            Scale::Quick => 30_000,
            Scale::Full => 400_000,
        }
    }

    /// Energy bins per spectrum.
    pub fn energy_bins(self) -> usize {
        match self {
            Scale::Quick => 10,
            Scale::Full => 20,
        }
    }

    /// Device-level LUT traversals per energy point.
    pub fn lut_samples(self) -> u64 {
        match self {
            Scale::Quick => 20_000,
            Scale::Full => 200_000,
        }
    }
}

/// Parses a `FINRAD_FULL` value. Only `1` means full scale; unset, empty
/// and `0` mean quick. Anything else yields quick plus a warning for the
/// caller to print, so a typo like `FINRAD_FULL=yes` cannot silently start
/// an hours-long paper-scale run.
fn parse_scale(raw: Option<&str>) -> (Scale, Option<String>) {
    match raw.map(str::trim) {
        None | Some("") | Some("0") => (Scale::Quick, None),
        Some("1") => (Scale::Full, None),
        Some(other) => (
            Scale::Quick,
            Some(format!(
                "FINRAD_FULL={other:?} is not recognized (use \"1\" for full scale, \
                 \"0\" or unset for quick); using the quick scale"
            )),
        ),
    }
}

/// The pipeline configuration used by the figure binaries at `scale`.
pub fn figure_config(scale: Scale) -> PipelineConfig {
    let mut cfg = PipelineConfig::paper_baseline();
    cfg.variation = Variation::MonteCarlo {
        samples: scale.variation_samples(),
    };
    cfg.iterations_per_energy = scale.strike_iterations();
    cfg.energy_bins = scale.energy_bins();
    cfg.lut_samples = scale.lut_samples();
    cfg
}

/// The supply-voltage sweep of Figs. 9–11.
pub const VDD_SWEEP: [f64; 5] = [0.7, 0.8, 0.9, 1.0, 1.1];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_parses_documented_values() {
        assert_eq!(parse_scale(None), (Scale::Quick, None));
        assert_eq!(parse_scale(Some("")), (Scale::Quick, None));
        assert_eq!(parse_scale(Some("0")), (Scale::Quick, None));
        assert_eq!(parse_scale(Some("1")), (Scale::Full, None));
        assert_eq!(parse_scale(Some(" 1 ")), (Scale::Full, None));
    }

    #[test]
    fn scale_rejects_malformed_values_loudly() {
        for bad in ["garbage", "yes", "true", "2", "full"] {
            let (scale, warning) = parse_scale(Some(bad));
            assert_eq!(scale, Scale::Quick, "fallback for {bad:?}");
            let w = warning.unwrap_or_else(|| panic!("no warning for {bad:?}"));
            assert!(w.contains("FINRAD_FULL"), "warning names the var: {w}");
        }
    }

    #[test]
    fn quick_scale_is_smaller() {
        assert!(Scale::Quick.variation_samples() < Scale::Full.variation_samples());
        assert!(Scale::Quick.strike_iterations() < Scale::Full.strike_iterations());
        assert_eq!(Scale::Full.variation_samples(), 1000);
    }

    #[test]
    fn figure_config_matches_scale() {
        let cfg = figure_config(Scale::Quick);
        assert_eq!(cfg.iterations_per_energy, Scale::Quick.strike_iterations());
        assert_eq!(cfg.rows, 9);
        assert_eq!(cfg.cols, 9);
        for scale in [Scale::Quick, Scale::Full] {
            assert_eq!(figure_config(scale).lut_samples, scale.lut_samples());
        }
    }
}
