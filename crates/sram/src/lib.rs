//! 6T SRAM cell soft-error characterization.
//!
//! This crate implements the paper's circuit level (Section 4):
//!
//! * [`cell`] — the 6T SOI FinFET SRAM cell as a `finrad-spice` netlist in
//!   hold mode (word line low, bit lines precharged), with both stable
//!   states and flip detection.
//! * [`scenario`] — sensitive-transistor analysis: the devices that are OFF
//!   with |V_ds| = V_dd (the paper's Fig. 5(a) I1/I2/I3), and the strike
//!   combinations over them.
//! * [`characterize`] — critical-charge extraction by bisection over
//!   transient simulations, nominal and under threshold-voltage variation
//!   Monte Carlo (the paper's 1000-sample characterization).
//! * [`pof`] — the Probability-Of-Failure look-up tables consumed by the
//!   array-level simulation: POF as a function of injected charge, per
//!   supply voltage and strike combination.
//! * [`layout`] — the physical cell layout of the paper's Fig. 5(b): fin
//!   placement of PU/PD/PASS devices, used by the 3-D array analysis.

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

pub mod cell;
pub mod characterize;
pub mod layout;
pub mod pof;
pub mod scenario;
pub mod snm;

pub use cell::{CellState, SramCell, TransistorRole};
pub use characterize::{CellCharacterizer, CharacterizeOptions, Variation};
pub use pof::{PofCurve, PofTable, StrikeCombo};
pub use scenario::StrikeTarget;
