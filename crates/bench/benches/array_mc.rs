//! Array-level kernels: the 3-D strike Monte Carlo whose 10⁷-iteration
//! runtime the paper quotes as ≈ 2 hours for a 9×9 array (Section 6).
//! These benches measure our per-iteration cost so the same throughput
//! claim can be checked on any machine.

use finrad_bench::harness::Harness;
use finrad_core::array::{DataPattern, MemoryArray};
use finrad_core::strike::{
    combine_cell_pofs, DepositMode, DirectionLaw, FlipModel, StrikeScratch, StrikeSimulator,
};
use finrad_finfet::Technology;
use finrad_geometry::trace::TraceScratch;
use finrad_geometry::{Ray, Vec3};
use finrad_numerics::rng::Xoshiro256pp;
use finrad_sram::{CellCharacterizer, CharacterizeOptions, PofTable, Variation};
use finrad_transport::fin::FinTraversal;
use finrad_units::{Energy, Particle, Voltage};
use std::hint::black_box;

fn nominal_table() -> PofTable {
    CellCharacterizer::new(
        Technology::soi_finfet_14nm(),
        CharacterizeOptions {
            settle: 5.0e-12,
            bisect_rel_tol: 0.1,
            ..CharacterizeOptions::default()
        },
    )
    .build_table(Voltage::from_volts(0.8), Variation::Nominal, 1)
    .expect("characterization")
}

fn bench_ray_trace(c: &mut Harness) {
    // Tracing one ray through the 486 fin boxes of the paper's 9x9 array,
    // on the bucketed index the strike Monte Carlo uses.
    let array = MemoryArray::build(
        &Technology::soi_finfet_14nm(),
        9,
        9,
        DataPattern::Checkerboard,
    );
    let bounds = array.bounds();
    let center = bounds.center();
    let ray = Ray::new(
        Vec3::new(center.x, center.y, bounds.max_corner().z + 1e-7),
        Vec3::new(0.3, 0.2, -1.0),
    );
    let mut scratch = TraceScratch::default();
    c.bench_function("trace_9x9_array_indexed", |b| {
        b.iter(|| black_box(array.trace_into(black_box(&ray), &mut scratch).len()))
    });
}

fn bench_strike_iteration(c: &mut Harness) {
    // One full Section 5.1 iteration (the paper's 10^7-count kernel).
    let array = MemoryArray::build(
        &Technology::soi_finfet_14nm(),
        9,
        9,
        DataPattern::Checkerboard,
    );
    let table = nominal_table();
    for (name, model) in [
        ("sampled", FlipModel::Sampled),
        ("expected", FlipModel::Expected),
    ] {
        let sim = StrikeSimulator::new(
            &array,
            FinTraversal::paper_default(),
            &table,
            DirectionLaw::CosineDown,
            DepositMode::ChordExact,
            model,
            None,
        );
        // Through one reused scratch, as each `estimate` chunk runs it.
        c.bench_function(&format!("fig8_strike_iteration/{name}"), |b| {
            let mut rng = Xoshiro256pp::seed_from_u64(7);
            let mut scratch = StrikeScratch::default();
            b.iter(|| {
                black_box(sim.simulate_one_with(
                    Particle::Alpha,
                    Energy::from_mev(2.0),
                    &mut rng,
                    &mut scratch,
                ))
            })
        });
    }
}

fn bench_eqs_4_to_6(c: &mut Harness) {
    let pofs = [0.31, 0.02, 0.77, 0.001, 0.5];
    c.bench_function("combine_cell_pofs_eqs4to6", |b| {
        b.iter(|| black_box(combine_cell_pofs(black_box(&pofs))))
    });
}

fn bench_array_build(c: &mut Harness) {
    let tech = Technology::soi_finfet_14nm();
    c.bench_function("build_9x9_array", |b| {
        b.iter(|| black_box(MemoryArray::build(&tech, 9, 9, DataPattern::Checkerboard)))
    });
}

fn main() {
    let mut h = Harness::from_env();
    bench_ray_trace(&mut h);
    bench_strike_iteration(&mut h);
    bench_eqs_4_to_6(&mut h);
    bench_array_build(&mut h);
}
