//! A nonlinear MNA transient circuit simulator.
//!
//! This crate is the workspace's substitute for the proprietary SPICE the
//! paper uses for SRAM cell characterization (Section 4). It implements
//! exactly the machinery that task needs, built on the dense LU solver in
//! `finrad-numerics`:
//!
//! * [`Circuit`] — a netlist of named nodes with resistors, capacitors, DC
//!   voltage sources, time-dependent current sources (the radiation-induced
//!   parasitic pulses) and FinFET devices from `finrad-finfet`.
//! * [`analysis::dc_operating_point`] — Newton solution of the static
//!   network with g-min stepping for robustness.
//! * [`analysis::transient`] — fixed-step backward-Euler integration with a
//!   full Newton solve per step (L-stable, the right choice for the stiff
//!   fs-pulse → ps-settling dynamics of an upset event).
//! * [`waveform::TransientResult`] — probed node-voltage traces.
//!
//! # Examples
//!
//! Build and solve a resistive divider:
//!
//! ```
//! use finrad_spice::{analysis, Circuit};
//!
//! let mut ckt = Circuit::new();
//! let vin = ckt.node("in");
//! let mid = ckt.node("mid");
//! ckt.add_vsource(vin, Circuit::GROUND, 1.0);
//! ckt.add_resistor(vin, mid, 1.0e3);
//! ckt.add_resistor(mid, Circuit::GROUND, 1.0e3);
//! let op = analysis::dc_operating_point(&ckt, &analysis::NewtonOptions::default())?;
//! assert!((op.voltage(mid) - 0.5).abs() < 1e-9);
//! # Ok::<(), finrad_spice::SpiceError>(())
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

pub mod analysis;
pub mod cancel;
mod circuit;
#[cfg(feature = "fault-injection")]
pub mod fault;
pub mod recovery;
pub mod source;
pub mod sync;
pub mod waveform;

pub use cancel::{CancelScope, CancelToken};
pub use circuit::{Circuit, MosfetId, NodeId};
pub use recovery::{RecoveryAttempt, RecoveryRung, RecoveryTrace};
pub use source::{PulseShape, SourceWaveform};

use std::error::Error;
use std::fmt;

/// Errors produced by circuit construction and analysis.
#[derive(Debug, Clone, PartialEq)]
pub enum SpiceError {
    /// The Newton iteration failed to converge.
    NoConvergence {
        /// What was being solved when convergence failed.
        context: String,
        /// Iterations performed before giving up.
        iterations: usize,
        /// Last maximum voltage update, volts.
        last_delta: f64,
        /// Worst-node KCL residual `max |J·x − b|` at the final iterate,
        /// amps (NaN when the residual itself could not be evaluated).
        worst_residual: f64,
        /// Recovery rungs attempted before giving up, in order (empty when
        /// the failure surfaced without entering the recovery ladder).
        rungs: Vec<RecoveryRung>,
    },
    /// The MNA matrix was singular (usually a floating subcircuit).
    Singular {
        /// Human-readable hint.
        context: String,
    },
    /// Invalid element value or topology.
    InvalidElement(String),
    /// The solve was aborted by the thread's [`cancel::CancelToken`]
    /// (explicit cancellation or an expired wall-clock deadline). Never
    /// retried by the recovery ladder: the supervisor asked us to stop.
    Cancelled {
        /// What was being solved, plus the cancellation reason.
        context: String,
    },
}

impl fmt::Display for SpiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpiceError::NoConvergence {
                context,
                iterations,
                last_delta,
                worst_residual,
                rungs,
            } => {
                write!(
                    f,
                    "newton iteration did not converge during {context} ({iterations} iterations, \
                     last |dV| = {last_delta:.3e} V, worst residual {worst_residual:.3e} A"
                )?;
                if !rungs.is_empty() {
                    write!(f, "; rungs attempted: ")?;
                    for (i, r) in rungs.iter().enumerate() {
                        if i > 0 {
                            write!(f, " -> ")?;
                        }
                        write!(f, "{r}")?;
                    }
                }
                write!(f, ")")
            }
            SpiceError::Singular { context } => {
                write!(f, "singular MNA system during {context}")
            }
            SpiceError::InvalidElement(msg) => write!(f, "invalid element: {msg}"),
            SpiceError::Cancelled { context } => {
                write!(f, "solve cancelled during {context}")
            }
        }
    }
}

impl Error for SpiceError {}
