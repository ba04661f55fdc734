//! Golden waveform test for the transient solver's default path.
//!
//! One particle strike on a 6T SRAM cell, solved with the default Newton
//! options (quasi-Newton chord reuse on) and the default LTE-adaptive
//! settle. Every sample time and every probed node voltage is folded,
//! bit for bit, into an FNV-1a hash. Any change to the device model, the
//! residual, the assembly order or the linear solves that moves a single
//! bit of the waveform fails this test — it pins what the chord path
//! produces, where the critical-charge goldens pin only bracketed charges.
//! The Newton work counts are pinned too, so a change that keeps the
//! waveform but shifts work between chord and full iterations also shows.
//! Lives in its own binary because a process installs one recorder.

use finrad_finfet::{FinFet, Polarity, Technology};
use finrad_observe::keys;
use finrad_spice::analysis::{self, NewtonOptions, TimeStepPlan};
use finrad_spice::{Circuit, SourceWaveform};
use finrad_units::Charge;
use std::collections::HashMap;

const VDD: f64 = 0.8;
const T_START: f64 = 2.0e-15;
const WIDTH: f64 = 8.0e-15;
const SETTLE: f64 = 1.0e-11;
/// Strike charge on the high node: enough to flip the cell, so the run
/// covers the pulse, the regenerative flip and the relaxation into the
/// opposite state.
const CHARGE_C: f64 = 2.0e-16;

// The golden values. A change that moves any of them changes what the
// solver computes and must say so; a pure speed-up must leave them be.
const GOLDEN_ITERATIONS: u64 = 199;
const GOLDEN_REUSES: u64 = 177;
const GOLDEN_SAMPLES: usize = 49;
const GOLDEN_HASH: u64 = 0x832e_8100_42b2_7429;

/// FNV-1a (64-bit) over the little-endian bytes of each value's bits.
fn fnv1a(values: impl IntoIterator<Item = f64>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for v in values {
        for byte in v.to_bits().to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

#[test]
fn golden_strike_transient_bits() {
    let recorder = finrad_observe::install_in_memory().expect("first install");
    let tech = Technology::soi_finfet_14nm();
    let nmos = FinFet::new(&tech, Polarity::Nmos, 1);
    let pmos = FinFet::new(&tech, Polarity::Pmos, 1);

    // The hold-mode 6T cell: cross-coupled inverters, pass gates off,
    // bit lines precharged to the supply.
    let mut ckt = Circuit::new();
    let q = ckt.node("q");
    let qb = ckt.node("qb");
    let vdd = ckt.node("vdd");
    let wl = ckt.node("wl");
    let bl = ckt.node("bl");
    let blb = ckt.node("blb");
    ckt.add_vsource(vdd, Circuit::GROUND, VDD);
    ckt.add_vsource(wl, Circuit::GROUND, 0.0);
    ckt.add_vsource(bl, Circuit::GROUND, VDD);
    ckt.add_vsource(blb, Circuit::GROUND, VDD);
    ckt.add_mosfet(q, qb, Circuit::GROUND, nmos.clone());
    ckt.add_mosfet(q, qb, vdd, pmos.clone());
    ckt.add_mosfet(qb, q, Circuit::GROUND, nmos.clone());
    ckt.add_mosfet(qb, q, vdd, pmos);
    ckt.add_mosfet(bl, wl, q, nmos.clone());
    ckt.add_mosfet(blb, wl, qb, nmos);

    let opts = NewtonOptions::default();
    assert!(opts.jacobian_reuse, "the golden pins the chord path");
    let guess = HashMap::from([
        (q, VDD),
        (qb, 0.0),
        (vdd, VDD),
        (wl, 0.0),
        (bl, VDD),
        (blb, VDD),
    ]);
    let op = analysis::dc_operating_point_from(&ckt, &opts, &guess).expect("hold state");

    // Strike the OFF pull-down on the high node: collected charge drains Q.
    ckt.add_isource(
        q,
        Circuit::GROUND,
        SourceWaveform::rectangular_charge(Charge::from_coulombs(CHARGE_C), T_START, WIDTH),
    );
    let plan = TimeStepPlan::for_pulse(T_START, WIDTH, SETTLE);
    assert!(plan.phase_adaptive(1), "default settle is LTE-adaptive");
    let before = recorder.snapshot();
    let res = analysis::transient_from_state(&ckt, &plan, op.node_voltages(), &[q, qb], &opts)
        .expect("strike transient");
    let after = recorder.snapshot();
    let work = |key| after.counter(key) - before.counter(key);
    let iterations = work(keys::SPICE_NEWTON_ITERATIONS);
    let reuses = work(keys::SPICE_NEWTON_JACOBIAN_REUSES);
    assert!(reuses > 0, "the transient must take chord iterations");
    assert_eq!(
        (iterations, reuses),
        (GOLDEN_ITERATIONS, GOLDEN_REUSES),
        "Newton work moved"
    );

    assert!(
        res.final_voltage(q) < res.final_voltage(qb),
        "the strike must flip the cell"
    );
    let times = res.times();
    let samples = times
        .iter()
        .copied()
        .chain(res.trace(0).iter().copied())
        .chain(res.trace(1).iter().copied());
    let hash = fnv1a(samples);
    assert_eq!(
        (times.len(), hash),
        (GOLDEN_SAMPLES, GOLDEN_HASH),
        "strike waveform moved: {} samples, hash {hash:#018x}",
        times.len()
    );
}
