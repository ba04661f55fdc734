//! Cross-layer radiation-induced soft-error analysis of SOI FinFET SRAM
//! arrays — the primary contribution of the reproduced paper.
//!
//! The flow combines the three levels the paper describes (Fig. 6):
//!
//! 1. **Device** — `finrad-transport` provides electron–hole pair counts
//!    for particle/fin interactions (the Geant4-substitute LUT or the
//!    chord-exact deposit).
//! 2. **Circuit** — `finrad-sram` provides the POF look-up tables from
//!    SPICE-level cell characterization with optional Vth variation.
//! 3. **Array** — this crate traces random particles through the 3-D
//!    layout of the memory array ([`array::MemoryArray`]), accumulates
//!    collected charge per struck cell, evaluates Eqs. 4–6 for
//!    total/SEU/MBU probability of failure ([`strike`]), and folds the
//!    result with the ground-level flux spectra into FIT rates (Eq. 8,
//!    [`fit`]). The end-to-end driver with multithreaded Monte Carlo is
//!    [`pipeline::SerPipeline`].
//!
//! # Examples
//!
//! A miniature end-to-end run (kept tiny so it executes in a doctest; real
//! studies use the sizes in `finrad-bench`):
//!
//! ```no_run
//! use finrad_core::pipeline::{PipelineConfig, SerPipeline};
//! use finrad_units::{Particle, Voltage};
//!
//! let config = PipelineConfig::paper_baseline();
//! let pipeline = SerPipeline::new(config);
//! let report = pipeline.run(Particle::Alpha, Voltage::from_volts(0.8))?;
//! println!("SER = {} FIT", report.fit_total);
//! # Ok::<(), finrad_core::CoreError>(())
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

pub mod array;
pub mod campaign;
pub mod checkpoint;
pub mod fit;
pub mod neutron;
pub mod pipeline;
pub mod service;
pub mod strike;
pub mod sweep;

use finrad_spice::SpiceError;
use std::error::Error;
use std::fmt;

/// Errors produced by the SER pipeline.
#[derive(Debug, Clone, PartialEq)]
pub enum CoreError {
    /// The circuit-level characterization failed.
    Characterization(SpiceError),
    /// Invalid pipeline configuration.
    InvalidConfig(String),
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::Characterization(e) => write!(f, "cell characterization failed: {e}"),
            CoreError::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
        }
    }
}

impl Error for CoreError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            CoreError::Characterization(e) => Some(e),
            CoreError::InvalidConfig(_) => None,
        }
    }
}

impl From<SpiceError> for CoreError {
    fn from(e: SpiceError) -> Self {
        CoreError::Characterization(e)
    }
}
