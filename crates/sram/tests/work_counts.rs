//! Work counts of the variation Monte Carlo repeat exactly for the same
//! seed, not just its results. Lives in its own binary because a process
//! can install exactly one recorder, and the counter deltas need a process
//! where nothing else simulates circuits concurrently.

use finrad_finfet::Technology;
use finrad_observe::{keys, InMemoryRecorder};
use finrad_sram::{CellCharacterizer, CharacterizeOptions, Variation};
use finrad_units::Voltage;

const COUNTED: [&str; 3] = [
    keys::SRAM_BISECTION_STEPS,
    keys::SRAM_DCOP_CACHE_MISSES,
    keys::SPICE_NEWTON_ITERATIONS,
];

/// Builds a reduced variation-MC POF table on a fresh characterizer (so
/// an empty operating-point cache) and returns the counter deltas.
fn build_counts(recorder: &InMemoryRecorder) -> [u64; 3] {
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
        Variation::MonteCarlo { samples: 16 },
        3,
    )
    .expect("table");
    let after = recorder.snapshot();
    COUNTED.map(|key| after.counter(key) - before.counter(key))
}

#[test]
fn variation_table_work_counts_repeat_exactly() {
    let recorder = finrad_observe::install_in_memory().expect("first install");
    let first = build_counts(recorder);
    let second = build_counts(recorder);
    for (key, (a, b)) in COUNTED.iter().zip(first.iter().zip(&second)) {
        assert!(*a > 0, "{key} never counted");
        assert_eq!(a, b, "{key}: {a} then {b} on the same seed");
    }
}
