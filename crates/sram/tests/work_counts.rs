//! Work counts of the variation Monte Carlo repeat exactly for the same
//! seed, not just its results, and every kept hot-path mechanism (one
//! pre-strike solve per sample shared by all of its transients,
//! warm-started Newton, `StructuredLu`, chord Jacobian reuse, LTE-adaptive
//! settle stepping) fires. A table costs exactly `7 · samples + 1`
//! pre-strike DC solves: one per variation sample plus the nominal cell,
//! never one per transient. A 16-sample table runs the pilot's
//! fine walk from the nominal threshold alone; a 24-sample table adds the
//! surrogate-placed fine walk. The fallback count must repeat too (it may
//! well be zero). Lives in its own binary because a
//! process can install exactly one recorder, and the counter deltas need a
//! process where nothing else simulates circuits concurrently.

use finrad_finfet::Technology;
use finrad_observe::{keys, InMemoryRecorder};
use finrad_sram::{CellCharacterizer, CharacterizeOptions, Variation};
use finrad_units::Voltage;

const COUNTED: [&str; 9] = [
    keys::SRAM_BISECTION_STEPS,
    keys::SRAM_DCOP_CACHE_MISSES,
    keys::SPICE_NEWTON_ITERATIONS,
    keys::SRAM_DCOP_CACHE_HITS,
    keys::SPICE_TRANSIENT_LTE_STEP_GROWTHS,
    keys::SPICE_NEWTON_WARM_STARTS,
    keys::SPICE_LU_STRUCTURED,
    keys::SPICE_NEWTON_JACOBIAN_REUSES,
    keys::SPICE_NEWTON_REFACTORIZATIONS,
];

/// Counted too, but allowed to read zero.
const MAY_BE_ZERO: [&str; 1] = [keys::SRAM_SURROGATE_FALLBACKS];

/// Builds a reduced variation-MC POF table of `samples` samples and
/// returns the counter deltas of [`COUNTED`] and [`MAY_BE_ZERO`].
fn build_counts(
    recorder: &InMemoryRecorder,
    samples: usize,
) -> ([u64; COUNTED.len()], [u64; MAY_BE_ZERO.len()]) {
    let before = recorder.snapshot();
    let ch = CellCharacterizer::new(
        Technology::soi_finfet_14nm(),
        CharacterizeOptions {
            settle: 5.0e-12,
            bisect_rel_tol: 0.05,
            ..CharacterizeOptions::default()
        },
    );
    ch.build_table(
        Voltage::from_volts(0.8),
        Variation::MonteCarlo { samples },
        3,
    )
    .expect("table");
    let after = recorder.snapshot();
    let delta = |key: &str| after.counter(key) - before.counter(key);
    (COUNTED.map(delta), MAY_BE_ZERO.map(delta))
}

#[test]
fn variation_table_work_counts_repeat_exactly() {
    let recorder = finrad_observe::install_in_memory().expect("first install");
    for samples in [16, 24] {
        let (first, first_zero) = build_counts(recorder, samples);
        let (second, second_zero) = build_counts(recorder, samples);
        for (key, (a, b)) in COUNTED.iter().zip(first.iter().zip(&second)) {
            assert!(*a > 0, "{samples} samples: {key} never counted");
            assert_eq!(
                a, b,
                "{samples} samples, {key}: {a} then {b} on the same seed"
            );
        }
        for (key, (a, b)) in MAY_BE_ZERO.iter().zip(first_zero.iter().zip(&second_zero)) {
            assert_eq!(
                a, b,
                "{samples} samples, {key}: {a} then {b} on the same seed"
            );
        }
        let count = |key: &str| first[COUNTED.iter().position(|k| *k == key).expect("counted")];
        assert_eq!(
            count(keys::SRAM_DCOP_CACHE_MISSES),
            7 * samples as u64 + 1,
            "{samples} samples: one pre-strike solve per sample plus the nominal cell"
        );
        assert_eq!(
            count(keys::SPICE_NEWTON_JACOBIAN_REUSES) + count(keys::SPICE_NEWTON_REFACTORIZATIONS),
            count(keys::SPICE_NEWTON_ITERATIONS),
            "every Newton iteration either reuses or refactors the Jacobian"
        );
    }
}
