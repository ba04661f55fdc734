//! # finrad — cross-layer soft-error analysis of SOI FinFET SRAMs
//!
//! A from-scratch Rust reproduction of *"Radiation-Induced Soft Error
//! Analysis of SRAMs in SOI FinFET Technology: A Device to Circuit
//! Approach"* (Kiamehr, Osiecki, Tahoori, Nassif — DAC 2014), including
//! every substrate the paper's flow depends on:
//!
//! | Layer | Crate | Replaces |
//! |---|---|---|
//! | particle transport | [`transport`] | Geant4 |
//! | radiation environment | [`environment`] | measured flux data |
//! | circuit simulation | [`spice`] | proprietary SPICE |
//! | device models | [`finfet`] | 14 nm SOI FinFET PDK |
//! | cell characterization | [`sram`] | — |
//! | array-level SER engine | [`core`] | — (the paper's contribution) |
//!
//! This facade crate re-exports everything and provides a [`prelude`] for
//! application code; the runnable `examples/` and the figure-regeneration
//! binaries in `finrad-bench` show the intended usage.
//!
//! # Quick start
//!
//! ```no_run
//! use finrad::prelude::*;
//!
//! let pipeline = SerPipeline::new(PipelineConfig::paper_baseline());
//! let report = pipeline.run(Particle::Alpha, Voltage::from_volts(0.8))?;
//! println!(
//!     "alpha SER at 0.8 V: {:.3e} FIT ({:.2}% MBU/SEU)",
//!     report.fit_total,
//!     report.mbu_to_seu_percent()
//! );
//! # Ok::<(), finrad::core::CoreError>(())
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

pub use finrad_core as core;
pub use finrad_environment as environment;
pub use finrad_finfet as finfet;
pub use finrad_geometry as geometry;
pub use finrad_numerics as numerics;
pub use finrad_spice as spice;
pub use finrad_sram as sram;
pub use finrad_transport as transport;
pub use finrad_units as units;

/// The most common imports for application code.
pub mod prelude {
    pub use finrad_core::array::{DataPattern, MemoryArray};
    pub use finrad_core::campaign::{
        BinOutcome, CampaignConfig, CampaignError, CampaignReport, CampaignRunner, CampaignStatus,
        Coverage,
    };
    pub use finrad_core::checkpoint::{Checkpoint, CheckpointError};
    pub use finrad_core::fit::{fit_rate, FitRate, PofBin};
    pub use finrad_core::pipeline::{PipelineConfig, SerPipeline, SerReport};
    pub use finrad_core::service::{
        backoff_schedule, CampaignService, DeadLetter, JobError, JobId, JobResult, JobStatus,
        ServiceConfig,
    };
    pub use finrad_core::strike::{DepositMode, DirectionLaw, FlipModel, StrikeSimulator};
    pub use finrad_core::CoreError;
    pub use finrad_environment::{AlphaSpectrum, ProtonSpectrum, Spectrum};
    pub use finrad_finfet::{FinFet, Polarity, Technology, VariationModel};
    pub use finrad_spice::{Circuit, PulseShape, RecoveryRung, RecoveryTrace, SourceWaveform};
    pub use finrad_sram::{
        CellCharacterizer, CellState, CharacterizeOptions, PofCurve, PofTable, SramCell,
        StrikeCombo, StrikeTarget, TransistorRole, Variation,
    };
    pub use finrad_transport::fin::{FinGeometry, FinTraversal};
    pub use finrad_transport::lut::EhpLut;
    pub use finrad_transport::stopping::StoppingModel;
    pub use finrad_transport::straggling::StragglingModel;
    pub use finrad_units::{Area, Charge, Current, Energy, Flux, Length, Particle, Time, Voltage};
}

#[cfg(test)]
mod tests {
    #[test]
    fn prelude_compiles_and_links_all_layers() {
        use crate::prelude::*;
        let tech = Technology::soi_finfet_14nm();
        let cell = SramCell::new(&tech, Voltage::from_volts(0.8));
        assert_eq!(cell.vdd().volts(), 0.8);
        let model = StoppingModel::silicon();
        assert!(
            model
                .stopping(Particle::Alpha, Energy::from_mev(1.0))
                .kev_per_um()
                > 0.0
        );
        let spectrum = AlphaSpectrum::paper_default();
        assert!(spectrum.total_flux().per_cm2_hour() > 0.0);
    }
}
