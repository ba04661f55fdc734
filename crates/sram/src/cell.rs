//! The 6T SRAM cell netlist.
//!
//! Standard 6T topology: two cross-coupled CMOS inverters (pull-up PMOS
//! `PU`, pull-down NMOS `PD`) holding complementary values on the internal
//! nodes `Q`/`QB`, plus two NMOS pass gates connecting them to the bit
//! lines under word-line control. The soft-error analysis operates in
//! **hold** mode: word line at 0 V, bit lines precharged to V_dd — exactly
//! the condition of the paper's Fig. 5(a).

use finrad_finfet::{FinFet, Polarity, Technology};
use finrad_spice::{Circuit, MosfetId, NodeId};
use finrad_units::Voltage;
use std::collections::HashMap;
use std::fmt;

/// One of the six transistors of the cell, by position.
///
/// "Left" is the side whose internal node is `Q`, "right" the `QB` side.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TransistorRole {
    /// Left pull-down NMOS (drain on Q, gate on QB).
    PullDownLeft,
    /// Left pull-up PMOS (drain on Q, gate on QB).
    PullUpLeft,
    /// Right pull-down NMOS (drain on QB, gate on Q).
    PullDownRight,
    /// Right pull-up PMOS (drain on QB, gate on Q).
    PullUpRight,
    /// Left pass-gate NMOS (between BL and Q, gate on WL).
    PassLeft,
    /// Right pass-gate NMOS (between BLB and QB, gate on WL).
    PassRight,
}

impl TransistorRole {
    /// All six roles in a fixed order.
    pub const ALL: [TransistorRole; 6] = [
        TransistorRole::PullDownLeft,
        TransistorRole::PullUpLeft,
        TransistorRole::PullDownRight,
        TransistorRole::PullUpRight,
        TransistorRole::PassLeft,
        TransistorRole::PassRight,
    ];

    /// The mirror-image role (left ↔ right).
    pub fn mirrored(self) -> TransistorRole {
        match self {
            TransistorRole::PullDownLeft => TransistorRole::PullDownRight,
            TransistorRole::PullDownRight => TransistorRole::PullDownLeft,
            TransistorRole::PullUpLeft => TransistorRole::PullUpRight,
            TransistorRole::PullUpRight => TransistorRole::PullUpLeft,
            TransistorRole::PassLeft => TransistorRole::PassRight,
            TransistorRole::PassRight => TransistorRole::PassLeft,
        }
    }

    /// Whether this is an NMOS position.
    pub fn is_nmos(self) -> bool {
        !matches!(
            self,
            TransistorRole::PullUpLeft | TransistorRole::PullUpRight
        )
    }
}

impl fmt::Display for TransistorRole {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            TransistorRole::PullDownLeft => "PD-L",
            TransistorRole::PullUpLeft => "PU-L",
            TransistorRole::PullDownRight => "PD-R",
            TransistorRole::PullUpRight => "PU-R",
            TransistorRole::PassLeft => "PASS-L",
            TransistorRole::PassRight => "PASS-R",
        };
        f.write_str(s)
    }
}

/// The stored logic value of the cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CellState {
    /// `Q = 0`, `QB = V_dd`.
    Zero,
    /// `Q = V_dd`, `QB = 0`.
    One,
}

impl CellState {
    /// The opposite state.
    pub fn flipped(self) -> CellState {
        match self {
            CellState::Zero => CellState::One,
            CellState::One => CellState::Zero,
        }
    }
}

/// A 6T SRAM cell in hold mode, wrapping a solvable [`Circuit`].
///
/// # Examples
///
/// ```
/// use finrad_finfet::Technology;
/// use finrad_sram::{CellState, SramCell};
/// use finrad_units::Voltage;
///
/// let cell = SramCell::new(&Technology::soi_finfet_14nm(), Voltage::from_volts(0.8));
/// let ic = cell.initial_conditions(CellState::One);
/// assert_eq!(ic[&cell.q()], 0.8);
/// assert_eq!(ic[&cell.qb()], 0.0);
/// ```
#[derive(Debug, Clone)]
pub struct SramCell {
    circuit: Circuit,
    vdd_value: Voltage,
    q: NodeId,
    qb: NodeId,
    vdd: NodeId,
    wl: NodeId,
    bl: NodeId,
    blb: NodeId,
    mosfets: HashMap<TransistorRole, MosfetId>,
}

impl SramCell {
    /// Builds the cell netlist for `tech` at supply `vdd`, with the
    /// paper-standard sizing: single-fin devices throughout (the 14 nm
    /// high-density cell of Wang et al. is 1-1-1 fin).
    ///
    /// # Panics
    ///
    /// Panics if `vdd` is not strictly positive.
    pub fn new(tech: &Technology, vdd: Voltage) -> Self {
        Self::with_fins(tech, vdd, 1, 1, 1)
    }

    /// Builds the cell with the word line held at `wl` instead of 0 V —
    /// `wl = vdd` gives the read-access condition where the pass gates
    /// fight the latch (read-disturb analysis).
    ///
    /// # Panics
    ///
    /// Panics if `vdd` is not strictly positive.
    pub fn with_wordline(tech: &Technology, vdd: Voltage, wl: Voltage) -> Self {
        let mut cell = Self::with_fins(tech, vdd, 1, 1, 1);
        // Replace the hold-mode WL source value: rebuild is simplest and
        // cheap, but the source list is private; instead stamp the WL via
        // a dedicated constructor path below.
        cell.set_wordline(wl);
        cell
    }

    /// Overrides the word-line source voltage (the last-added source for
    /// the WL node).
    fn set_wordline(&mut self, wl: Voltage) {
        self.circuit.set_vsource_voltage(self.wl, wl.volts());
    }

    /// Builds the cell with explicit (pull-down, pull-up, pass) fin counts,
    /// for sizing/ablation studies.
    ///
    /// # Panics
    ///
    /// Panics if `vdd` is not strictly positive or any fin count is zero.
    pub fn with_fins(
        tech: &Technology,
        vdd: Voltage,
        pd_fins: u32,
        pu_fins: u32,
        pass_fins: u32,
    ) -> Self {
        assert!(vdd.volts() > 0.0, "vdd must be positive");
        let mut ckt = Circuit::new();
        let q = ckt.node("q");
        let qb = ckt.node("qb");
        let vdd_n = ckt.node("vdd");
        let wl = ckt.node("wl");
        let bl = ckt.node("bl");
        let blb = ckt.node("blb");

        let v = vdd.volts();
        ckt.add_vsource(vdd_n, Circuit::GROUND, v);
        // Hold mode: word line low, bit lines precharged high.
        ckt.add_vsource(wl, Circuit::GROUND, 0.0);
        ckt.add_vsource(bl, Circuit::GROUND, v);
        ckt.add_vsource(blb, Circuit::GROUND, v);

        let nmos = |fins: u32| FinFet::new(tech, Polarity::Nmos, fins);
        let pmos = |fins: u32| FinFet::new(tech, Polarity::Pmos, fins);

        let mut mosfets = HashMap::new();
        // Left inverter: input QB, output Q.
        mosfets.insert(
            TransistorRole::PullDownLeft,
            ckt.add_mosfet(q, qb, Circuit::GROUND, nmos(pd_fins)),
        );
        mosfets.insert(
            TransistorRole::PullUpLeft,
            ckt.add_mosfet(q, qb, vdd_n, pmos(pu_fins)),
        );
        // Right inverter: input Q, output QB.
        mosfets.insert(
            TransistorRole::PullDownRight,
            ckt.add_mosfet(qb, q, Circuit::GROUND, nmos(pd_fins)),
        );
        mosfets.insert(
            TransistorRole::PullUpRight,
            ckt.add_mosfet(qb, q, vdd_n, pmos(pu_fins)),
        );
        // Pass gates.
        mosfets.insert(
            TransistorRole::PassLeft,
            ckt.add_mosfet(bl, wl, q, nmos(pass_fins)),
        );
        mosfets.insert(
            TransistorRole::PassRight,
            ckt.add_mosfet(blb, wl, qb, nmos(pass_fins)),
        );

        Self {
            circuit: ckt,
            vdd_value: vdd,
            q,
            qb,
            vdd: vdd_n,
            wl,
            bl,
            blb,
            mosfets,
        }
    }

    /// The internal node storing the cell value.
    pub fn q(&self) -> NodeId {
        self.q
    }

    /// The complementary internal node.
    pub fn qb(&self) -> NodeId {
        self.qb
    }

    /// The supply node.
    pub fn vdd_node(&self) -> NodeId {
        self.vdd
    }

    /// The word-line node (held at 0 V).
    pub fn wl(&self) -> NodeId {
        self.wl
    }

    /// The bit-line node (precharged to V_dd).
    pub fn bl(&self) -> NodeId {
        self.bl
    }

    /// The complementary bit-line node.
    pub fn blb(&self) -> NodeId {
        self.blb
    }

    /// The supply voltage the cell was built for.
    pub fn vdd(&self) -> Voltage {
        self.vdd_value
    }

    /// The SPICE id of a transistor by role.
    pub fn mosfet_id(&self, role: TransistorRole) -> MosfetId {
        self.mosfets[&role]
    }

    /// Shared access to the underlying circuit.
    pub fn circuit(&self) -> &Circuit {
        &self.circuit
    }

    /// Mutable access to the underlying circuit (e.g. to add strike current
    /// sources or apply per-device ΔVth).
    pub fn circuit_mut(&mut self) -> &mut Circuit {
        &mut self.circuit
    }

    /// Initial node voltages that place the cell in `state` (used as the
    /// transient initial conditions — the cell is bistable, so the solver
    /// needs to be told which state it holds).
    pub fn initial_conditions(&self, state: CellState) -> HashMap<NodeId, f64> {
        let v = self.vdd_value.volts();
        let (vq, vqb) = match state {
            CellState::One => (v, 0.0),
            CellState::Zero => (0.0, v),
        };
        let mut ic = HashMap::new();
        ic.insert(self.q, vq);
        ic.insert(self.qb, vqb);
        ic.insert(self.vdd, v);
        ic.insert(self.wl, 0.0);
        ic.insert(self.bl, v);
        ic.insert(self.blb, v);
        ic
    }

    /// Decodes the stored state from final node voltages: `One` if
    /// `V(Q) > V(QB)`.
    pub fn decode_state(&self, v_q: f64, v_qb: f64) -> CellState {
        if v_q > v_qb {
            CellState::One
        } else {
            CellState::Zero
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use finrad_spice::analysis::{self, NewtonOptions, Phase, TimeStepPlan};

    fn cell() -> SramCell {
        SramCell::new(&Technology::soi_finfet_14nm(), Voltage::from_volts(0.8))
    }

    #[test]
    fn roles_and_mirroring() {
        assert_eq!(TransistorRole::ALL.len(), 6);
        for r in TransistorRole::ALL {
            assert_eq!(r.mirrored().mirrored(), r);
        }
        assert!(TransistorRole::PullDownLeft.is_nmos());
        assert!(!TransistorRole::PullUpRight.is_nmos());
        assert!(TransistorRole::PassLeft.is_nmos());
    }

    #[test]
    fn state_flip() {
        assert_eq!(CellState::One.flipped(), CellState::Zero);
        assert_eq!(CellState::Zero.flipped().flipped(), CellState::Zero);
    }

    #[test]
    fn both_states_are_stable_in_hold() {
        // Simulate 20 ps from each state with no strike: state must hold.
        let cell = cell();
        let plan = TimeStepPlan::new(vec![Phase {
            duration: 2.0e-11,
            dt: 1.0e-13,
        }]);
        let opts = NewtonOptions::default();
        for state in [CellState::One, CellState::Zero] {
            let ic = cell.initial_conditions(state);
            let res =
                analysis::transient(cell.circuit(), &plan, &ic, &[cell.q(), cell.qb()], &opts)
                    .unwrap();
            let vq = res.final_voltage(cell.q());
            let vqb = res.final_voltage(cell.qb());
            assert_eq!(cell.decode_state(vq, vqb), state, "state {state:?} drifted");
            // Levels near the rails.
            let (hi, lo) = if state == CellState::One {
                (vq, vqb)
            } else {
                (vqb, vq)
            };
            assert!(hi > 0.7, "high node {hi}");
            assert!(lo < 0.1, "low node {lo}");
        }
    }

    #[test]
    fn dc_operating_point_respects_guess() {
        let cell = cell();
        let opts = NewtonOptions::default();
        let guess = cell.initial_conditions(CellState::One);
        let op = analysis::dc_operating_point_from(cell.circuit(), &opts, &guess).unwrap();
        assert!(op.voltage(cell.q()) > 0.7);
        assert!(op.voltage(cell.qb()) < 0.1);
    }

    #[test]
    fn accessors() {
        let cell = cell();
        assert_eq!(cell.vdd().volts(), 0.8);
        assert_ne!(cell.q(), cell.qb());
        let ic = cell.initial_conditions(CellState::Zero);
        assert_eq!(ic[&cell.q()], 0.0);
        assert_eq!(ic[&cell.bl()], 0.8);
        assert_eq!(ic[&cell.wl()], 0.0);
        let _ = cell.mosfet_id(TransistorRole::PassRight);
        assert_eq!(cell.decode_state(0.8, 0.0), CellState::One);
        assert_eq!(cell.decode_state(0.1, 0.7), CellState::Zero);
    }

    #[test]
    #[should_panic(expected = "vdd must be positive")]
    fn rejects_zero_vdd() {
        let _ = SramCell::new(&Technology::soi_finfet_14nm(), Voltage::ZERO);
    }
}
