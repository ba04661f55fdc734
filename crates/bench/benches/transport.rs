//! Device-level kernels: the Geant4-substitute Monte Carlo (Fig. 4's
//! engine) and its pieces.

use finrad_bench::harness::Harness;
use finrad_numerics::rng::Xoshiro256pp;
use finrad_transport::fin::FinTraversal;
use finrad_transport::lut::EhpLut;
use finrad_transport::stopping::StoppingModel;
use finrad_transport::straggling::{self, StragglingModel};
use finrad_units::{Energy, Length, Particle};
use std::hint::black_box;

fn bench_stopping_power(c: &mut Harness) {
    let model = StoppingModel::silicon();
    c.bench_function("stopping_power_eval", |b| {
        let mut e = 0.1f64;
        b.iter(|| {
            e = if e > 90.0 { 0.1 } else { e * 1.01 };
            black_box(model.stopping(Particle::Alpha, Energy::from_mev(e)))
        })
    });
}

fn bench_fin_traversal(c: &mut Harness) {
    // One Fig. 4 Monte-Carlo sample: random chord + straggled deposit +
    // pair sampling. The paper runs 10^7 of these per energy point.
    let sim = FinTraversal::paper_default();
    c.bench_function("fig4_fin_traversal", |b| {
        let mut rng = Xoshiro256pp::seed_from_u64(1);
        b.iter(|| black_box(sim.simulate(Particle::Alpha, Energy::from_mev(2.0), &mut rng)))
    });
}

fn bench_lut_build_and_lookup(c: &mut Harness) {
    let sim = FinTraversal::paper_default();
    c.bench_function("fig4_lut_build_6pts_x_500", |b| {
        b.iter(|| {
            black_box(EhpLut::tabulate(
                &sim,
                Particle::Proton,
                Energy::from_mev(0.1),
                Energy::from_mev(100.0),
                6,
                500,
                2,
            ))
        })
    });

    let lut = EhpLut::tabulate(
        &sim,
        Particle::Alpha,
        Energy::from_mev(0.1),
        Energy::from_mev(100.0),
        12,
        2_000,
        3,
    );
    c.bench_function("lut_lookup", |b| {
        let mut e = 0.2f64;
        b.iter(|| {
            e = if e > 90.0 { 0.2 } else { e * 1.1 };
            black_box(lut.mean_pairs(Energy::from_mev(e)))
        })
    });
}

fn bench_straggling(c: &mut Harness) {
    let model = StoppingModel::silicon();
    let e = Energy::from_mev(1.0);
    let chord = Length::from_nm(25.0);
    c.bench_function("landau_sample", |b| {
        let mut rng = Xoshiro256pp::seed_from_u64(4);
        b.iter(|| {
            black_box(straggling::sample_energy_loss(
                &model,
                StragglingModel::Landau,
                Particle::Proton,
                e,
                chord,
                &mut rng,
            ))
        })
    });
    let params = straggling::landau_params(&model, Particle::Proton, e, chord);
    c.bench_function("deposit_exceedance_analytic", |b| {
        let mut t = 1.0f64;
        b.iter(|| {
            t = if t > 5.0 { 1.0 } else { t + 0.01 };
            black_box(straggling::deposit_exceedance(&params, params.mean * t, e))
        })
    });
}

fn main() {
    let mut h = Harness::from_env();
    bench_stopping_power(&mut h);
    bench_fin_traversal(&mut h);
    bench_lut_build_and_lookup(&mut h);
    bench_straggling(&mut h);
}
