//! Sensitive-transistor analysis and strike scenarios.
//!
//! "The sensitive transistors to radiation in an SRAM cell are the ones
//! which are in OFF state with V_ds = V_dd" (paper, Section 4, Fig. 5(a)).
//! For a cell holding `Q = 1` these are:
//!
//! * **I1** — the left pull-down NMOS (OFF, drain at Q = V_dd); a strike
//!   collects charge that pulls Q low.
//! * **I2** — the right pull-up PMOS (OFF, |V_ds| = V_dd); a strike pulls
//!   QB high.
//! * **I3** — the right pass NMOS (OFF, BLB at V_dd, QB at 0); a strike
//!   pulls QB high from the bit line.
//!
//! All three disturb the cell toward the *same* flip (`1 → 0`), so their
//! charges act constructively. For `Q = 0` the mirrored devices are
//! sensitive.

use crate::cell::{CellState, SramCell, TransistorRole};
use finrad_spice::{NodeId, SourceWaveform};
use finrad_units::Charge;
use std::fmt;

/// Canonical strike injection point, following the paper's Fig. 5(a)
/// labels (defined for a cell holding `Q = 1`; the mapping for `Q = 0`
/// uses the mirrored transistors and is handled by
/// [`StrikeTarget::from_role`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum StrikeTarget {
    /// The OFF pull-down on the high node (paper's I1).
    I1,
    /// The OFF pull-up on the low node (paper's I2).
    I2,
    /// The OFF pass gate on the low node (paper's I3).
    I3,
}

impl StrikeTarget {
    /// All targets in a fixed order.
    pub const ALL: [StrikeTarget; 3] = [StrikeTarget::I1, StrikeTarget::I2, StrikeTarget::I3];

    /// The transistor role that realizes this target for a cell in `state`.
    pub fn role(self, state: CellState) -> TransistorRole {
        let canonical = match self {
            StrikeTarget::I1 => TransistorRole::PullDownLeft,
            StrikeTarget::I2 => TransistorRole::PullUpRight,
            StrikeTarget::I3 => TransistorRole::PassRight,
        };
        match state {
            CellState::One => canonical,
            CellState::Zero => canonical.mirrored(),
        }
    }

    /// Maps a struck transistor role to the strike target it realizes for a
    /// cell in `state`, or `None` if that device is not sensitive (it is ON,
    /// or OFF with no drain-source bias).
    pub fn from_role(role: TransistorRole, state: CellState) -> Option<StrikeTarget> {
        StrikeTarget::ALL
            .into_iter()
            .find(|t| t.role(state) == role)
    }

    /// The current-injection terminals for this strike on `cell` in
    /// `state`: conventional current flows `from → to` through the source,
    /// pulling `to` toward `from`'s potential — the drift collection of the
    /// deposited charge across the OFF junction.
    pub fn injection_nodes(self, cell: &SramCell, state: CellState) -> (NodeId, NodeId) {
        let (high, low) = match state {
            CellState::One => (cell.q(), cell.qb()),
            CellState::Zero => (cell.qb(), cell.q()),
        };
        let blb_side = match state {
            CellState::One => cell.blb(),
            CellState::Zero => cell.bl(),
        };
        match self {
            // OFF NMOS on the high node: collected electrons discharge the
            // high node toward ground.
            StrikeTarget::I1 => (high, SramCell::ground()),
            // OFF PMOS on the low node: collected charge pulls the low node
            // up toward VDD.
            StrikeTarget::I2 => (cell.vdd_node(), low),
            // OFF pass device: the precharged bit line pulls the low node up.
            StrikeTarget::I3 => (blb_side, low),
        }
    }
}

impl SramCell {
    /// The ground node (re-exported here for injection bookkeeping).
    pub fn ground() -> NodeId {
        finrad_spice::Circuit::GROUND
    }

    /// The transistors sensitive to particle strikes in `state`: OFF devices
    /// with |V_ds| = V_dd (paper Fig. 5(a)).
    pub fn sensitive_transistors(&self, state: CellState) -> Vec<TransistorRole> {
        StrikeTarget::ALL.iter().map(|t| t.role(state)).collect()
    }
}

impl fmt::Display for StrikeTarget {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            StrikeTarget::I1 => "I1",
            StrikeTarget::I2 => "I2",
            StrikeTarget::I3 => "I3",
        };
        f.write_str(s)
    }
}

/// A concrete strike: charge injected at each target. Used to build the
/// current sources of one transient simulation.
#[derive(Debug, Clone, PartialEq)]
pub struct StrikeEvent {
    /// Charge per struck target, coulombs.
    pub charges: Vec<(StrikeTarget, f64)>,
    /// Pulse start time, seconds.
    pub t_start: f64,
    /// Pulse width (the transit time τ), seconds.
    pub width: f64,
    /// Pulse shape (rectangular per the paper's model; triangular for the
    /// pulse-shape study).
    pub shape: finrad_spice::PulseShape,
}

impl StrikeEvent {
    /// Builds a rectangular strike with the given `(target, charge)` pairs.
    ///
    /// # Panics
    ///
    /// Panics if `width` is not strictly positive, `charges` is empty, or a
    /// target repeats.
    pub fn rectangular(charges: Vec<(StrikeTarget, f64)>, t_start: f64, width: f64) -> Self {
        Self::with_shape(
            charges,
            t_start,
            width,
            finrad_spice::PulseShape::Rectangular,
        )
    }

    /// Builds a strike with an explicit pulse shape.
    ///
    /// # Panics
    ///
    /// Same conditions as [`StrikeEvent::rectangular`].
    pub fn with_shape(
        charges: Vec<(StrikeTarget, f64)>,
        t_start: f64,
        width: f64,
        shape: finrad_spice::PulseShape,
    ) -> Self {
        assert!(width > 0.0, "pulse width must be positive");
        assert!(!charges.is_empty(), "strike needs at least one target");
        for (i, (t, _)) in charges.iter().enumerate() {
            assert!(
                charges[i + 1..].iter().all(|(u, _)| u != t),
                "duplicate strike target {t}"
            );
        }
        Self {
            charges,
            t_start,
            width,
            shape,
        }
    }

    /// Adds this strike's current sources to `cell` (in `state`).
    pub fn inject(&self, cell: &mut SramCell, state: CellState) {
        for &(target, charge) in &self.charges {
            let (from, to) = target.injection_nodes(cell, state);
            let wf = match self.shape {
                finrad_spice::PulseShape::Rectangular => SourceWaveform::rectangular_charge(
                    Charge::from_coulombs(charge),
                    self.t_start,
                    self.width,
                ),
                finrad_spice::PulseShape::Triangular => SourceWaveform::triangular_charge(
                    Charge::from_coulombs(charge),
                    self.t_start,
                    self.width,
                ),
            };
            cell.circuit_mut().add_isource(from, to, wf);
        }
    }

    /// Total injected charge.
    pub fn total_charge(&self) -> Charge {
        Charge::from_coulombs(self.charges.iter().map(|(_, q)| q).sum())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use finrad_finfet::Technology;
    use finrad_units::Voltage;

    fn cell() -> SramCell {
        SramCell::new(&Technology::soi_finfet_14nm(), Voltage::from_volts(0.8))
    }

    #[test]
    fn paper_fig5a_sensitive_set_for_one() {
        let c = cell();
        let s = c.sensitive_transistors(CellState::One);
        assert_eq!(
            s,
            vec![
                TransistorRole::PullDownLeft,
                TransistorRole::PullUpRight,
                TransistorRole::PassRight
            ]
        );
    }

    #[test]
    fn sensitive_set_mirrors_for_zero() {
        let c = cell();
        let s = c.sensitive_transistors(CellState::Zero);
        assert_eq!(
            s,
            vec![
                TransistorRole::PullDownRight,
                TransistorRole::PullUpLeft,
                TransistorRole::PassLeft
            ]
        );
    }

    #[test]
    fn role_round_trips_through_target() {
        for state in [CellState::One, CellState::Zero] {
            for t in StrikeTarget::ALL {
                let role = t.role(state);
                assert_eq!(StrikeTarget::from_role(role, state), Some(t));
            }
            // Non-sensitive roles map to none.
            let on_devices: Vec<TransistorRole> = TransistorRole::ALL
                .into_iter()
                .filter(|r| !StrikeTarget::ALL.iter().any(|t| t.role(state) == *r))
                .collect();
            assert_eq!(on_devices.len(), 3);
            for r in on_devices {
                assert_eq!(StrikeTarget::from_role(r, state), None);
            }
        }
    }

    #[test]
    fn injection_nodes_push_toward_flip() {
        let c = cell();
        // State One: I1 discharges Q; I2 and I3 charge QB.
        let (f1, t1) = StrikeTarget::I1.injection_nodes(&c, CellState::One);
        assert_eq!((f1, t1), (c.q(), SramCell::ground()));
        let (f2, t2) = StrikeTarget::I2.injection_nodes(&c, CellState::One);
        assert_eq!((f2, t2), (c.vdd_node(), c.qb()));
        let (f3, t3) = StrikeTarget::I3.injection_nodes(&c, CellState::One);
        assert_eq!((f3, t3), (c.blb(), c.qb()));
        // State Zero mirrors.
        let (f1z, t1z) = StrikeTarget::I1.injection_nodes(&c, CellState::Zero);
        assert_eq!((f1z, t1z), (c.qb(), SramCell::ground()));
        let (f3z, t3z) = StrikeTarget::I3.injection_nodes(&c, CellState::Zero);
        assert_eq!((f3z, t3z), (c.bl(), c.q()));
    }

    #[test]
    fn strike_event_construction() {
        let ev = StrikeEvent::rectangular(
            vec![(StrikeTarget::I1, 1.0e-16), (StrikeTarget::I2, 2.0e-16)],
            2.0e-15,
            1.3e-14,
        );
        assert!((ev.total_charge().coulombs() - 3.0e-16).abs() < 1e-30);
        let mut c = cell();
        ev.inject(&mut c, CellState::One);
        // Two current sources were added.
        // (Indirectly observable through a successful simulation; here we
        // simply ensure inject did not panic and the netlist still builds.)
        assert!(c.circuit().validate().is_ok());
    }

    #[test]
    #[should_panic(expected = "duplicate strike target")]
    fn rejects_duplicate_targets() {
        let _ = StrikeEvent::rectangular(
            vec![(StrikeTarget::I1, 1.0e-16), (StrikeTarget::I1, 2.0e-16)],
            0.0,
            1.0e-14,
        );
    }

    #[test]
    #[should_panic(expected = "at least one target")]
    fn rejects_empty_strike() {
        let _ = StrikeEvent::rectangular(vec![], 0.0, 1.0e-14);
    }
}
