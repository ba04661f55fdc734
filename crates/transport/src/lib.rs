//! Charged-particle transport through FinFET fin structures.
//!
//! This crate is the workspace's substitute for **Geant4** (the paper's
//! Section 3): it answers the single question the cross-layer flow asks of
//! the device level — *how many electron–hole pairs does a particle of
//! energy E deposit in a fin?* — using analytic charged-particle physics
//! instead of a full nuclear-interaction Monte Carlo:
//!
//! * [`stopping`] — electronic stopping power of silicon for protons and
//!   alphas: a Varelas–Biersack join of a low-energy velocity-proportional
//!   term and the Bethe formula, with Ziegler effective-charge scaling for
//!   helium. This reproduces the Bragg-peak shape that drives the paper's
//!   Fig. 4 (deposited charge falls with energy above ~0.1 MeV for protons
//!   and ~0.5 MeV for alphas, with alphas depositing ~5–20× more).
//! * [`straggling`] — energy-loss fluctuations in nm-scale silicon chords:
//!   Landau sampling (exact Moyal-form tail via the χ²₁ transform) for thin
//!   segments, Bohr-variance Gaussian for thick ones.
//! * [`ehp`] — conversion of deposited energy to electron–hole pairs at
//!   3.6 eV/pair with Fano-factor fluctuation.
//! * [`fin`] — the 3-D fin target and single-fin traversal Monte Carlo.
//! * [`lut`] — the energy-indexed pair-count LUT of the paper's flow
//!   (built once, consumed by the array-level simulation).
//! * [`timing`] — the paper's Eqs. 1–3: passage time, transit time, and the
//!   rectangular current-pulse model.
//!
//! # Examples
//!
//! ```
//! use finrad_transport::stopping::StoppingModel;
//! use finrad_units::{Energy, Particle};
//!
//! let model = StoppingModel::silicon();
//! let s_alpha = model.stopping(Particle::Alpha, Energy::from_mev(5.0));
//! let s_proton = model.stopping(Particle::Proton, Energy::from_mev(5.0));
//! assert!(s_alpha.kev_per_um() > s_proton.kev_per_um());
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

pub mod ehp;
pub mod fin;
pub mod lut;
pub mod neutron;
pub mod stopping;
pub mod straggling;
pub mod timing;
