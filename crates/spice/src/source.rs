//! Time-dependent source waveforms.
//!
//! The radiation-induced parasitic current of the paper's Section 3.3 is a
//! rectangular pulse of width τ and amplitude Q/τ (Fig. 3(b)); the paper's
//! Section 4 additionally studies triangular pulses to show POF depends
//! only on the pulse *charge*. Both shapes are provided here.

use finrad_units::Charge;

/// Shape of a current pulse.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PulseShape {
    /// Constant amplitude over the pulse width (the paper's Fig. 3(b)).
    #[default]
    Rectangular,
    /// Linear rise to a peak at the midpoint, then linear fall. At equal
    /// *peak* amplitude a triangle carries half the rectangle's charge.
    Triangular,
}

/// A time-dependent scalar waveform for current sources.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SourceWaveform {
    /// Constant value.
    Dc(f64),
    /// A single pulse starting at `t_start` with the given width.
    Pulse {
        /// Peak value of the pulse, amperes.
        amplitude: f64,
        /// Pulse start time, seconds.
        t_start: f64,
        /// Pulse width, seconds.
        width: f64,
        /// Pulse shape.
        shape: PulseShape,
    },
}

impl SourceWaveform {
    /// A rectangular pulse carrying `charge` over `width` seconds, starting
    /// at `t_start`.
    ///
    /// # Panics
    ///
    /// Panics if `width` is not strictly positive.
    pub fn rectangular_charge(charge: Charge, t_start: f64, width: f64) -> Self {
        assert!(width > 0.0, "pulse width must be positive");
        SourceWaveform::Pulse {
            amplitude: charge.coulombs() / width,
            t_start,
            width,
            shape: PulseShape::Rectangular,
        }
    }

    /// A triangular pulse carrying the same `charge` over `width` seconds
    /// (peak = 2·charge/width), for the paper's pulse-shape study.
    ///
    /// # Panics
    ///
    /// Panics if `width` is not strictly positive.
    pub fn triangular_charge(charge: Charge, t_start: f64, width: f64) -> Self {
        assert!(width > 0.0, "pulse width must be positive");
        SourceWaveform::Pulse {
            amplitude: 2.0 * charge.coulombs() / width,
            t_start,
            width,
            shape: PulseShape::Triangular,
        }
    }

    /// Waveform value at time `t` (seconds).
    pub fn value(&self, t: f64) -> f64 {
        match *self {
            SourceWaveform::Dc(v) => v,
            SourceWaveform::Pulse {
                amplitude,
                t_start,
                width,
                shape,
            } => {
                let x = t - t_start;
                if x < 0.0 || x > width {
                    return 0.0;
                }
                match shape {
                    PulseShape::Rectangular => amplitude,
                    PulseShape::Triangular => {
                        let half = width / 2.0;
                        if x <= half {
                            amplitude * x / half
                        } else {
                            amplitude * (width - x) / half
                        }
                    }
                }
            }
        }
    }

    /// Total charge delivered by the waveform over `[0, horizon]` for a
    /// pulse, or `value·horizon` for DC.
    pub fn charge_over(&self, horizon: f64) -> f64 {
        match *self {
            SourceWaveform::Dc(v) => v * horizon,
            SourceWaveform::Pulse {
                amplitude,
                t_start,
                width,
                shape,
            } => {
                // Analytic integral of the full pulse, truncated to horizon.
                let end = (horizon - t_start).clamp(0.0, width);
                match shape {
                    PulseShape::Rectangular => amplitude * end,
                    PulseShape::Triangular => {
                        let half = width / 2.0;
                        if end <= half {
                            0.5 * amplitude * end * end / half
                        } else {
                            let rising = 0.5 * amplitude * half;
                            let x = end - half;
                            let falling = amplitude * x - 0.5 * amplitude * x * x / half;
                            rising + falling
                        }
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rectangular_values() {
        let w =
            SourceWaveform::rectangular_charge(Charge::from_coulombs(1.0e-15), 1.0e-12, 10.0e-15);
        assert_eq!(w.value(0.0), 0.0);
        assert!((w.value(1.005e-12) - 1.0e-15 / 10.0e-15).abs() < 1e-9);
        assert_eq!(w.value(2.0e-12), 0.0);
    }

    #[test]
    fn triangular_peak_at_midpoint() {
        let w = SourceWaveform::triangular_charge(Charge::from_coulombs(1.0e-15), 0.0, 10.0e-15);
        let peak = 2.0 * 1.0e-15 / 10.0e-15;
        assert!((w.value(5.0e-15) - peak).abs() < 1e-12);
        assert!((w.value(2.5e-15) - peak / 2.0).abs() < 1e-12);
        assert_eq!(w.value(10.1e-15), 0.0);
    }

    #[test]
    fn equal_charge_construction() {
        let q = 3.0e-16;
        let rect = SourceWaveform::rectangular_charge(Charge::from_coulombs(q), 0.0, 15.0e-15);
        let tri = SourceWaveform::triangular_charge(Charge::from_coulombs(q), 0.0, 15.0e-15);
        let horizon = 1.0e-12;
        assert!((rect.charge_over(horizon) - q).abs() / q < 1e-12);
        assert!((tri.charge_over(horizon) - q).abs() / q < 1e-12);
    }

    #[test]
    fn truncated_charge() {
        let q = 1.0e-15;
        let rect = SourceWaveform::rectangular_charge(Charge::from_coulombs(q), 0.0, 10.0e-15);
        assert!((rect.charge_over(5.0e-15) - q / 2.0).abs() / q < 1e-12);
        let tri = SourceWaveform::triangular_charge(Charge::from_coulombs(q), 0.0, 10.0e-15);
        assert!((tri.charge_over(5.0e-15) - q / 2.0).abs() / q < 1e-12);
    }

    #[test]
    fn dc_waveform() {
        let w = SourceWaveform::Dc(2.5);
        assert_eq!(w.value(0.0), 2.5);
        assert_eq!(w.value(1.0e9), 2.5);
        assert!((w.charge_over(2.0) - 5.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "width must be positive")]
    fn rejects_zero_width() {
        let _ = SourceWaveform::rectangular_charge(Charge::from_coulombs(1.0), 0.0, 0.0);
    }

    #[test]
    fn numeric_integral_matches_analytic() {
        let tri =
            SourceWaveform::triangular_charge(Charge::from_coulombs(7.0e-16), 2.0e-15, 12.0e-15);
        let n = 40_000;
        let h = 2.0e-14 / n as f64;
        let num: f64 = (0..n).map(|i| tri.value(h * (i as f64 + 0.5)) * h).sum();
        let q = tri.charge_over(2.0e-14);
        assert!((num - q).abs() / q < 1e-3, "{num} vs {q}");
    }
}
