//! Numerical kernels shared across the `finrad` workspace.
//!
//! This crate provides exactly the numerics the cross-layer soft-error flow
//! needs, with no external linear-algebra dependencies:
//!
//! * [`matrix`] — a dense column-major matrix and an LU factorization with
//!   partial pivoting, used by the modified-nodal-analysis (MNA) circuit
//!   solver in `finrad-spice`.
//! * [`interp`] — monotone piecewise-linear interpolation tables in linear
//!   and log–log space, the backing store for the paper's device-level LUTs.
//! * [`quadrature`] — trapezoidal integration over tabulated functions,
//!   used for flux-spectrum integrals (the paper's Eq. 7/8).
//! * [`stats`] — streaming mean/variance accumulators with normal-theory
//!   confidence intervals for Monte-Carlo estimates.
//! * [`roots`] — bisection root bracketing/refinement, used for
//!   critical-charge extraction.
//! * [`rng`] — seeded-only pseudo-random number generation (SplitMix64 and
//!   xoshiro256++) for deterministic, reproducible Monte-Carlo sampling.
//! * [`par`] — a parallel map over an index range whose results come back
//!   in index order, so the worker count never shows in a Monte-Carlo
//!   result.
//!
//! # Examples
//!
//! ```
//! use finrad_numerics::interp::LinearTable;
//!
//! let table = LinearTable::new(vec![0.0, 1.0, 2.0], vec![0.0, 10.0, 40.0])?;
//! assert_eq!(table.eval(0.5), 5.0);
//! # Ok::<(), finrad_numerics::NumericsError>(())
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

pub mod interp;
pub mod matrix;
pub mod par;
pub mod quadrature;
pub mod rng;
pub mod roots;
pub mod special;
pub mod stats;

use std::error::Error;
use std::fmt;

/// Errors produced by the numerics kernels.
#[derive(Debug, Clone, PartialEq)]
pub enum NumericsError {
    /// A matrix or system had incompatible or invalid dimensions.
    Dimension {
        /// What was expected.
        expected: String,
        /// What was provided.
        got: String,
    },
    /// LU factorization hit a pivot below the singularity threshold.
    SingularMatrix {
        /// Column at which the zero pivot appeared.
        column: usize,
    },
    /// Interpolation table construction got non-monotone or empty abscissae.
    InvalidTable(String),
    /// Root finding could not bracket or converge.
    RootNotBracketed {
        /// Lower bracket endpoint.
        lo: f64,
        /// Upper bracket endpoint.
        hi: f64,
    },
    /// A root-finding objective returned NaN or ±∞. Before this variant
    /// existed, a NaN function value silently steered bisection (every
    /// sign comparison against NaN is false) and the search "converged"
    /// to garbage; now the poisoned evaluation is reported instead.
    NonFiniteEvaluation {
        /// Abscissa at which the objective was evaluated.
        x: f64,
        /// The non-finite value it returned (NaN or ±∞).
        fx: f64,
    },
}

impl fmt::Display for NumericsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NumericsError::Dimension { expected, got } => {
                write!(f, "dimension mismatch: expected {expected}, got {got}")
            }
            NumericsError::SingularMatrix { column } => {
                write!(f, "matrix is numerically singular at column {column}")
            }
            NumericsError::InvalidTable(msg) => write!(f, "invalid interpolation table: {msg}"),
            NumericsError::RootNotBracketed { lo, hi } => {
                write!(f, "root not bracketed on [{lo}, {hi}]")
            }
            NumericsError::NonFiniteEvaluation { x, fx } => {
                write!(f, "objective returned non-finite value {fx} at x = {x}")
            }
        }
    }
}

impl Error for NumericsError {}
