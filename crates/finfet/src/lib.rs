//! 14 nm SOI FinFET technology description and compact model.
//!
//! The paper characterizes its 6T SRAM cell with SPICE simulations against
//! a 14 nm SOI FinFET library (PTM-class, with device data from Wang et
//! al.). That library is proprietary/tooling-gated, so this crate provides
//! the substitute: an **EKV-style unified charge-sheet compact model** that
//! is smooth from weak to strong inversion (essential for Newton
//! convergence), includes DIBL, and exposes analytic derivatives for the
//! MNA Jacobian. The quantities the soft-error flow actually depends on —
//! ON current restoring the cell node, subthreshold leakage of the OFF
//! device, node capacitance, and the Vdd dependence of all three — are
//! reproduced at 14 nm-class values.
//!
//! * [`Technology`] — geometry, oxide, threshold and variation parameters.
//! * [`FinFet`] — a sized device instance evaluating `I_d(V_g, V_d, V_s)`
//!   and its derivatives.
//! * [`variation`] — Pelgrom-scaled threshold-voltage variation sampling
//!   (the paper's process-variation axis).

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

pub mod model;
pub mod technology;
pub mod variation;

pub use model::{FinFet, Polarity, SmallSignal};
pub use technology::Technology;
pub use variation::VariationModel;
