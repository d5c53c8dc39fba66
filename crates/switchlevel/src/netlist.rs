//! Transistor-level netlists of ambipolar CNTFETs (and fixed-polarity
//! MOSFETs, which are the special case of a hard-wired polarity gate).

use std::fmt;

/// Index of a circuit node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub(crate) u32);

impl NodeId {
    /// Raw index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Electrical behaviour a device is currently configured to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Polarity {
    /// n-type: conducts when the gate is high; passes lows well and
    /// degrades highs to `VDD − VTn`.
    N,
    /// p-type: conducts when the gate is low; passes highs well and
    /// degrades lows to `|VTp|`.
    P,
}

/// How a device's polarity gate is driven.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PolarityControl {
    /// Polarity gate tied to 0: permanent n-type behaviour.
    FixedN,
    /// Polarity gate tied to 1: permanent p-type behaviour.
    FixedP,
    /// Polarity gate driven by a circuit node: in-field programmable.
    /// Node low ⇒ n-type, node high ⇒ p-type (paper Fig. 1d).
    Signal(NodeId),
}

/// One transistor.
#[derive(Debug, Clone)]
pub struct Device {
    /// Regular gate terminal.
    pub gate: NodeId,
    /// Polarity-gate wiring.
    pub polarity: PolarityControl,
    /// One channel terminal.
    pub a: NodeId,
    /// The other channel terminal.
    pub b: NodeId,
    /// Channel width (W/L) relative to a unit transistor.
    pub width: f64,
    /// Diagnostic name.
    pub name: String,
}

/// A flat transistor netlist with designated rails, inputs and
/// outputs.
///
/// # Examples
///
/// ```
/// use cntfet_switchlevel::{Netlist, PolarityControl};
///
/// // An ambipolar inverter: p-configured PU, n-configured PD.
/// let mut n = Netlist::new("inv");
/// let a = n.add_input("A");
/// let y = n.add_output("Y");
/// n.add_device("mp", a, PolarityControl::FixedP, n.vdd(), y, 1.0);
/// n.add_device("mn", a, PolarityControl::FixedN, n.vss(), y, 1.0);
/// assert_eq!(n.num_devices(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct Netlist {
    name: String,
    node_names: Vec<String>,
    devices: Vec<Device>,
    inputs: Vec<NodeId>,
    outputs: Vec<NodeId>,
}

/// `VDD` is always node 0 and `VSS` node 1.
const VDD: NodeId = NodeId(0);
const VSS: NodeId = NodeId(1);

impl Netlist {
    /// Creates an empty netlist (with the two rails pre-defined).
    pub fn new(name: impl Into<String>) -> Self {
        Netlist {
            name: name.into(),
            node_names: vec!["VDD".into(), "VSS".into()],
            devices: Vec::new(),
            inputs: Vec::new(),
            outputs: Vec::new(),
        }
    }

    /// Name of the netlist.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The positive rail.
    pub fn vdd(&self) -> NodeId {
        VDD
    }

    /// The ground rail.
    pub fn vss(&self) -> NodeId {
        VSS
    }

    /// Adds an internal node.
    pub fn add_node(&mut self, name: impl Into<String>) -> NodeId {
        let id = NodeId(self.node_names.len() as u32);
        self.node_names.push(name.into());
        id
    }

    /// Adds a primary-input node (driven externally to full swing).
    pub fn add_input(&mut self, name: impl Into<String>) -> NodeId {
        let id = self.add_node(name);
        self.inputs.push(id);
        id
    }

    /// Adds a fresh node and marks it as an output.
    pub fn add_output(&mut self, name: impl Into<String>) -> NodeId {
        let id = self.add_node(name);
        self.outputs.push(id);
        id
    }

    /// Adds a transistor between channel terminals `a` and `b`.
    pub fn add_device(
        &mut self,
        name: impl Into<String>,
        gate: NodeId,
        polarity: PolarityControl,
        a: NodeId,
        b: NodeId,
        width: f64,
    ) {
        assert!(width > 0.0, "device width must be positive");
        self.devices.push(Device { gate, polarity, a, b, width, name: name.into() });
    }

    /// Adds a CNTFET transmission-gate element computing `x ⊕ ctrl`
    /// conduction between `a` and `b` (paper Fig. 3): two ambipolar
    /// devices in parallel, gates driven by `x`/`x'` and polarity
    /// gates by `ctrl`/`ctrl'`.
    ///
    /// `x_n`/`ctrl_n` are the complement nodes of `x`/`ctrl`. Each of
    /// the two devices gets width `width`.
    #[allow(clippy::too_many_arguments)]
    pub fn add_tgate(
        &mut self,
        name: &str,
        x: NodeId,
        x_n: NodeId,
        ctrl: NodeId,
        ctrl_n: NodeId,
        a: NodeId,
        b: NodeId,
        width: f64,
    ) {
        self.add_device(format!("{name}.d1"), x, PolarityControl::Signal(ctrl), a, b, width);
        self.add_device(format!("{name}.d2"), x_n, PolarityControl::Signal(ctrl_n), a, b, width);
    }

    /// All devices.
    pub fn devices(&self) -> &[Device] {
        &self.devices
    }

    /// Number of transistors.
    pub fn num_devices(&self) -> usize {
        self.devices.len()
    }

    /// Number of nodes (including rails).
    pub fn num_nodes(&self) -> usize {
        self.node_names.len()
    }

    /// Input nodes, in declaration order.
    pub fn inputs(&self) -> &[NodeId] {
        &self.inputs
    }

    /// Output nodes, in declaration order.
    pub fn outputs(&self) -> &[NodeId] {
        &self.outputs
    }

    /// Name of a node.
    pub fn node_name(&self, id: NodeId) -> &str {
        &self.node_names[id.index()]
    }

    /// Total transistor width (the normalized-area metric of the
    /// paper: Σ W/L).
    pub fn total_width(&self) -> f64 {
        self.devices.iter().map(|d| d.width).sum()
    }
}

impl fmt::Display for Netlist {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "netlist {} ({} devices)", self.name, self.devices.len())?;
        for d in &self.devices {
            let pol = match d.polarity {
                PolarityControl::FixedN => "N".to_string(),
                PolarityControl::FixedP => "P".to_string(),
                PolarityControl::Signal(s) => format!("pg={}", self.node_name(s)),
            };
            writeln!(
                f,
                "  {}: g={} [{}] {}—{} w={:.3}",
                d.name,
                self.node_name(d.gate),
                pol,
                self.node_name(d.a),
                self.node_name(d.b),
                d.width
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_inverter() {
        let mut n = Netlist::new("inv");
        let a = n.add_input("A");
        let y = n.add_output("Y");
        n.add_device("mp", a, PolarityControl::FixedP, n.vdd(), y, 1.0);
        n.add_device("mn", a, PolarityControl::FixedN, n.vss(), y, 1.0);
        assert_eq!(n.num_devices(), 2);
        assert_eq!(n.num_nodes(), 4);
        assert_eq!(n.total_width(), 2.0);
        assert_eq!(n.node_name(a), "A");
        assert!(n.to_string().contains("mp"));
    }

    #[test]
    fn tgate_is_two_devices() {
        let mut n = Netlist::new("tg");
        let x = n.add_input("X");
        let xn = n.add_input("Xn");
        let c = n.add_input("C");
        let cn = n.add_input("Cn");
        let s = n.add_input("S");
        let y = n.add_output("Y");
        n.add_tgate("tg0", x, xn, c, cn, s, y, 2.0 / 3.0);
        assert_eq!(n.num_devices(), 2);
        assert!((n.total_width() - 4.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "width must be positive")]
    fn zero_width_rejected() {
        let mut n = Netlist::new("bad");
        let a = n.add_input("A");
        let y = n.add_output("Y");
        n.add_device("m", a, PolarityControl::FixedN, n.vss(), y, 0.0);
    }
}
