//! Netlist representation.

use crate::source::SourceWaveform;
use crate::SpiceError;
use finrad_finfet::FinFet;
use std::collections::HashMap;
use std::fmt;

/// Identifier of a circuit node. Node 0 is always ground.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub(crate) usize);

impl NodeId {
    /// Index of the node in the netlist (ground = 0).
    pub fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Identifier of a MOSFET instance, for post-construction parameter edits
/// (e.g. applying per-instance ΔVth in the variation Monte Carlo).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MosfetId(pub(crate) usize);

#[derive(Debug, Clone)]
pub(crate) struct Resistor {
    pub a: NodeId,
    pub b: NodeId,
    pub conductance: f64,
}

#[derive(Debug, Clone)]
pub(crate) struct Capacitor {
    pub a: NodeId,
    pub b: NodeId,
    pub farads: f64,
}

#[derive(Debug, Clone)]
pub(crate) struct VSource {
    pub pos: NodeId,
    pub neg: NodeId,
    pub volts: f64,
}

#[derive(Debug, Clone)]
pub(crate) struct ISource {
    /// Current flows out of `from` and into `to` (i.e. the source drives
    /// conventional current from `from` through itself to `to`).
    pub from: NodeId,
    pub to: NodeId,
    pub waveform: SourceWaveform,
}

#[derive(Debug, Clone)]
pub(crate) struct MosfetInst {
    pub drain: NodeId,
    pub gate: NodeId,
    pub source: NodeId,
    pub device: FinFet,
}

/// A flat netlist of circuit elements over named nodes.
///
/// # Examples
///
/// ```
/// use finrad_spice::Circuit;
///
/// let mut ckt = Circuit::new();
/// let a = ckt.node("a");
/// assert_eq!(ckt.node("a"), a); // idempotent lookup
/// assert_ne!(a, Circuit::GROUND);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Circuit {
    names: Vec<String>,
    index: HashMap<String, NodeId>,
    pub(crate) resistors: Vec<Resistor>,
    pub(crate) capacitors: Vec<Capacitor>,
    pub(crate) vsources: Vec<VSource>,
    pub(crate) isources: Vec<ISource>,
    pub(crate) mosfets: Vec<MosfetInst>,
}

impl Circuit {
    /// The ground node, present in every circuit.
    pub const GROUND: NodeId = NodeId(0);

    /// Creates an empty circuit containing only the ground node.
    pub fn new() -> Self {
        let mut index = HashMap::new();
        index.insert("0".to_owned(), NodeId(0));
        Self {
            names: vec!["0".to_owned()],
            index,
            ..Default::default()
        }
    }

    /// Returns the node with the given name, creating it if necessary.
    /// The names `"0"` and `"gnd"` refer to ground.
    pub fn node(&mut self, name: &str) -> NodeId {
        if name.eq_ignore_ascii_case("gnd") {
            return Self::GROUND;
        }
        if let Some(&id) = self.index.get(name) {
            return id;
        }
        let id = NodeId(self.names.len());
        self.names.push(name.to_owned());
        self.index.insert(name.to_owned(), id);
        id
    }

    /// Looks up an existing node by name.
    pub fn find_node(&self, name: &str) -> Option<NodeId> {
        if name.eq_ignore_ascii_case("gnd") {
            return Some(Self::GROUND);
        }
        self.index.get(name).copied()
    }

    /// Name of a node.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this circuit.
    pub fn node_name(&self, id: NodeId) -> &str {
        &self.names[id.0]
    }

    /// Number of nodes including ground.
    pub fn node_count(&self) -> usize {
        self.names.len()
    }

    /// Number of voltage sources (each adds one MNA branch unknown).
    pub fn vsource_count(&self) -> usize {
        self.vsources.len()
    }

    /// Adds a resistor between `a` and `b`.
    ///
    /// # Panics
    ///
    /// Panics if `ohms` is not strictly positive and finite.
    pub fn add_resistor(&mut self, a: NodeId, b: NodeId, ohms: f64) {
        assert!(
            ohms.is_finite() && ohms > 0.0,
            "resistance must be positive"
        );
        self.resistors.push(Resistor {
            a,
            b,
            conductance: 1.0 / ohms,
        });
    }

    /// Adds a capacitor between `a` and `b`.
    ///
    /// # Panics
    ///
    /// Panics if `farads` is not strictly positive and finite.
    pub fn add_capacitor(&mut self, a: NodeId, b: NodeId, farads: f64) {
        assert!(
            farads.is_finite() && farads > 0.0,
            "capacitance must be positive"
        );
        self.capacitors.push(Capacitor { a, b, farads });
    }

    /// Adds a DC voltage source forcing `v(pos) − v(neg) = volts`.
    pub fn add_vsource(&mut self, pos: NodeId, neg: NodeId, volts: f64) {
        assert!(volts.is_finite(), "source voltage must be finite");
        self.vsources.push(VSource { pos, neg, volts });
    }

    /// Re-targets every voltage source whose positive terminal is `pos`
    /// (and whose negative terminal is ground) to a new value — used to
    /// switch a control node (e.g. an SRAM word line) between analyses.
    ///
    /// # Panics
    ///
    /// Panics if no such source exists or `volts` is not finite.
    pub fn set_vsource_voltage(&mut self, pos: NodeId, volts: f64) {
        assert!(volts.is_finite(), "source voltage must be finite");
        let mut found = false;
        for v in &mut self.vsources {
            if v.pos == pos && v.neg == Self::GROUND {
                v.volts = volts;
                found = true;
            }
        }
        assert!(found, "no ground-referenced source drives node {pos}");
    }

    /// Adds a current source driving conventional current from `from`
    /// through the source into `to` (so `to` is pulled *up* by positive
    /// current, `from` is pulled *down*).
    pub fn add_isource(&mut self, from: NodeId, to: NodeId, waveform: SourceWaveform) {
        self.isources.push(ISource { from, to, waveform });
    }

    /// Adds a FinFET. Gate draws no DC current; its capacitances (gate and
    /// junction) are automatically stamped as linear capacitors so the node
    /// dynamics are physical.
    ///
    /// Returns an id usable with [`Circuit::mosfet_mut`].
    pub fn add_mosfet(
        &mut self,
        drain: NodeId,
        gate: NodeId,
        source: NodeId,
        device: FinFet,
    ) -> MosfetId {
        // Gate capacitance split between gate-source and gate-drain;
        // junction capacitance from drain and source to ground.
        let cg = device.gate_cap_f();
        let cj = device.junction_cap_f();
        if gate != drain {
            self.add_capacitor(gate, drain, 0.5 * cg);
        }
        if gate != source {
            self.add_capacitor(gate, source, 0.5 * cg);
        }
        if drain != Self::GROUND {
            self.add_capacitor(drain, Self::GROUND, cj);
        }
        if source != Self::GROUND {
            self.add_capacitor(source, Self::GROUND, cj);
        }
        let id = MosfetId(self.mosfets.len());
        self.mosfets.push(MosfetInst {
            drain,
            gate,
            source,
            device,
        });
        id
    }

    /// Mutable access to a MOSFET's device model (for ΔVth injection).
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this circuit.
    pub fn mosfet_mut(&mut self, id: MosfetId) -> &mut FinFet {
        &mut self.mosfets[id.0].device
    }

    /// Shared access to a MOSFET's device model.
    pub fn mosfet(&self, id: MosfetId) -> &FinFet {
        &self.mosfets[id.0].device
    }

    /// Validates basic netlist sanity: at least one node beyond ground and
    /// no dangling voltage sources shorting ground to itself.
    ///
    /// # Errors
    ///
    /// Returns [`SpiceError::InvalidElement`] on a degenerate netlist.
    pub fn validate(&self) -> Result<(), SpiceError> {
        if self.names.len() < 2 {
            return Err(SpiceError::InvalidElement(
                "circuit has no nodes besides ground".to_owned(),
            ));
        }
        for v in &self.vsources {
            if v.pos == v.neg {
                return Err(SpiceError::InvalidElement(
                    "voltage source with both terminals on the same node".to_owned(),
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use finrad_finfet::{FinFet, Polarity, Technology};

    #[test]
    fn node_management() {
        let mut c = Circuit::new();
        let a = c.node("vdd");
        let b = c.node("q");
        assert_ne!(a, b);
        assert_eq!(c.node("vdd"), a);
        assert_eq!(c.node("GND"), Circuit::GROUND);
        assert_eq!(c.find_node("q"), Some(b));
        assert_eq!(c.find_node("missing"), None);
        assert_eq!(c.node_name(b), "q");
        assert_eq!(c.node_count(), 3);
    }

    #[test]
    fn validate_catches_degenerate() {
        let c = Circuit::new();
        assert!(c.validate().is_err());

        let mut c2 = Circuit::new();
        let a = c2.node("a");
        c2.add_vsource(a, a, 1.0);
        assert!(c2.validate().is_err());
    }

    #[test]
    fn mosfet_adds_parasitic_caps() {
        let mut c = Circuit::new();
        let (d, g, s) = (c.node("d"), c.node("g"), c.node("s"));
        let dev = FinFet::new(&Technology::soi_finfet_14nm(), Polarity::Nmos, 1);
        let before = c.capacitors.len();
        let id = c.add_mosfet(d, g, s, dev);
        assert_eq!(c.capacitors.len(), before + 4);
        assert_eq!(c.mosfet(id).n_fins(), 1);
    }

    #[test]
    #[should_panic(expected = "resistance must be positive")]
    fn rejects_zero_resistance() {
        let mut c = Circuit::new();
        let a = c.node("a");
        c.add_resistor(a, Circuit::GROUND, 0.0);
    }

    #[test]
    #[should_panic(expected = "capacitance must be positive")]
    fn rejects_negative_capacitance() {
        let mut c = Circuit::new();
        let a = c.node("a");
        c.add_capacitor(a, Circuit::GROUND, -1.0e-15);
    }
}
