//! Circuit-level kernels: the SPICE-substitute transient engine that backs
//! the POF characterization (Section 4 of the paper).

use finrad_bench::harness::Harness;
use finrad_finfet::{FinFet, Polarity, Technology};
use finrad_spice::analysis::{self, NewtonOptions, Phase, TimeStepPlan};
use finrad_sram::scenario::StrikeEvent;
use finrad_sram::{
    CellCharacterizer, CellState, CharacterizeOptions, SramCell, StrikeCombo, StrikeTarget,
};
use finrad_units::Voltage;
use std::collections::HashMap;
use std::hint::black_box;

fn bench_device_eval(c: &mut Harness) {
    let tech = Technology::soi_finfet_14nm();
    let nfet = FinFet::new(&tech, Polarity::Nmos, 1);
    c.bench_function("finfet_model_eval", |b| {
        let mut v = 0.0f64;
        b.iter(|| {
            v = if v > 0.8 { 0.0 } else { v + 0.001 };
            black_box(nfet.evaluate(v, 0.8 - v, 0.0))
        })
    });
}

fn bench_dc_operating_point(c: &mut Harness) {
    let cell = SramCell::new(&Technology::soi_finfet_14nm(), Voltage::from_volts(0.8));
    let opts = NewtonOptions::default();
    let guess = cell.initial_conditions(CellState::One);
    c.bench_function("sram_dc_operating_point", |b| {
        b.iter(|| {
            black_box(
                analysis::dc_operating_point_from(cell.circuit(), &opts, &guess).expect("dc op"),
            )
        })
    });
}

fn bench_hold_transient(c: &mut Harness) {
    let cell = SramCell::new(&Technology::soi_finfet_14nm(), Voltage::from_volts(0.8));
    let plan = TimeStepPlan::new(vec![Phase {
        duration: 5.0e-12,
        dt: 5.0e-14,
    }]);
    let ic = cell.initial_conditions(CellState::One);
    let opts = NewtonOptions::default();
    c.bench_function("sram_hold_transient_100steps", |b| {
        b.iter(|| {
            black_box(
                analysis::transient(cell.circuit(), &plan, &ic, &[cell.q()], &opts)
                    .expect("transient"),
            )
        })
    });
}

fn bench_settle_adaptive(c: &mut Harness) {
    // The post-strike settle integration alone, under the LTE step
    // controller: a short fixed-grid lead-in followed by a 5 ps adaptive
    // settle phase. Isolates the controller the strike/qcrit kernels lean
    // on from the bisection logic wrapped around them.
    let cell = SramCell::new(&Technology::soi_finfet_14nm(), Voltage::from_volts(0.8));
    let plan = TimeStepPlan::new(vec![
        Phase {
            duration: 3.2e-14,
            dt: 2.0e-15,
        },
        Phase {
            duration: 5.0e-12,
            dt: 1.25e-14,
        },
    ])
    .with_adaptive_phase(1);
    let ic = cell.initial_conditions(CellState::One);
    let opts = NewtonOptions::default();
    c.bench_function("sram_settle_adaptive", |b| {
        b.iter(|| {
            black_box(
                analysis::transient(cell.circuit(), &plan, &ic, &[cell.q()], &opts)
                    .expect("transient"),
            )
        })
    });
}

fn bench_strike_transient(c: &mut Harness) {
    // One POF-characterization sample: inject, integrate, decode — the
    // kernel executed ~20k times per (Vdd, combo) table entry.
    let tech = Technology::soi_finfet_14nm();
    let opts = NewtonOptions::default();
    c.bench_function("sram_strike_transient", |b| {
        b.iter(|| {
            let mut cell = SramCell::new(&tech, Voltage::from_volts(0.8));
            let ev = StrikeEvent::rectangular(vec![(StrikeTarget::I1, 1.2e-16)], 2.0e-15, 1.6e-14);
            ev.inject(&mut cell, CellState::One);
            let plan = TimeStepPlan::for_pulse(2.0e-15, 1.6e-14, 5.0e-12);
            let ic = cell.initial_conditions(CellState::One);
            let res =
                analysis::transient(cell.circuit(), &plan, &ic, &[cell.q(), cell.qb()], &opts)
                    .expect("transient");
            black_box(res.final_voltage(cell.q()))
        })
    });
}

fn bench_critical_charge(c: &mut Harness) {
    let ch = CellCharacterizer::new(
        Technology::soi_finfet_14nm(),
        CharacterizeOptions {
            settle: 5.0e-12,
            bisect_rel_tol: 0.05,
            ..CharacterizeOptions::default()
        },
    );
    let none = HashMap::new();
    c.bench_function("characterization/critical_charge_bisection", |b| {
        b.iter(|| {
            black_box(
                ch.critical_charge(
                    Voltage::from_volts(0.8),
                    StrikeCombo::single(StrikeTarget::I1),
                    &none,
                )
                .expect("qcrit"),
            )
        })
    });
}

fn main() {
    let mut h = Harness::from_env();
    bench_device_eval(&mut h);
    bench_dc_operating_point(&mut h);
    bench_hold_transient(&mut h);
    bench_settle_adaptive(&mut h);
    bench_strike_transient(&mut h);
    bench_critical_charge(&mut h);
}
