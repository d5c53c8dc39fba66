//! Structural validation of a technology-mapped cover against the AIG
//! it was extracted from and the library it instantiates.
//!
//! [`check_mapping`] is the mapped-netlist member of the workspace's
//! invariant-checker family ([`cntfet_aig::Aig::check`],
//! `cntfet_sat::Solver::check`): it validates the *cover structure* —
//! gate roots live and unique, pins resolving to primary inputs or
//! earlier-emitted gates (topological emission), cell indices and pin
//! arities matching the library — and re-derives the timing/area
//! summary from per-pin delays, catching a mapper whose bookkeeping
//! drifted from the netlist it actually emitted. Functional
//! correctness is [`crate::verify_mapping`]'s job; this check is the
//! cheap structural complement that runs under `--features paranoid`
//! after every mapping round.

use crate::mapper::{Mapping, PoBinding, Source};
use cntfet_aig::Aig;
use cntfet_core::Library;
use std::collections::HashMap;
use std::fmt;

/// Tolerance of the floating-point consistency checks (matches the
/// mapper's own comparison epsilon, scaled for accumulated sums).
const EPS: f64 = 1e-6;

/// A violated mapped-cover invariant (see [`check_mapping`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MapCheckError {
    /// A gate's root is not a live AND node of the AIG.
    RootNotLive {
        /// The offending root node index.
        root: u32,
    },
    /// Two gates implement the same root node.
    RootDuplicated {
        /// The doubly-implemented root.
        root: u32,
    },
    /// A gate references a cell index outside the library.
    CellOutOfRange {
        /// The gate's root.
        root: u32,
        /// The out-of-range cell index.
        cell: usize,
    },
    /// A gate's pin count disagrees with its cell's input count.
    PinArity {
        /// The gate's root.
        root: u32,
        /// Pins on the gate.
        pins: usize,
        /// Inputs of the cell.
        inputs: usize,
    },
    /// A pin references an out-of-range PI or a node not emitted
    /// earlier in the cover (dangling or order-violating edge).
    PinSourceInvalid {
        /// Position of the gate in the emission order.
        gate: u32,
    },
    /// The mapping does not bind every AIG primary output.
    PoCount {
        /// AIG output count.
        expected: usize,
        /// Bindings present.
        actual: usize,
    },
    /// A primary-output binding references an uncovered source.
    PoSourceInvalid {
        /// Index of the output.
        po: usize,
    },
    /// A free-polarity mapping claims explicit inverters.
    InverterCount {
        /// The claimed inverter count.
        inverters: usize,
    },
    /// `stats.gates` disagrees with the gate list + inverters.
    GateCount {
        /// Stored count.
        stored: usize,
        /// Count recomputed from the netlist.
        actual: usize,
    },
    /// `stats.area` disagrees with the cell-area sum.
    AreaMismatch {
        /// Stored area.
        stored: f64,
        /// Area recomputed from the netlist.
        actual: f64,
    },
    /// `stats.delay_ps` is not `delay_norm` scaled by the library τ.
    DelayScale {
        /// The inconsistent picosecond value.
        delay_ps: f64,
    },
    /// Arrivals re-derived from per-pin delays contradict
    /// `stats.delay_norm` (exact for free polarity, lower bound for
    /// CMOS).
    ArrivalMismatch {
        /// Stored critical-path delay (τ units).
        stored: f64,
        /// Re-derived value.
        derived: f64,
    },
}

impl fmt::Display for MapCheckError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            MapCheckError::RootNotLive { root } => {
                write!(f, "gate root {root} is not a live AND node")
            }
            MapCheckError::RootDuplicated { root } => {
                write!(f, "root {root} implemented twice")
            }
            MapCheckError::CellOutOfRange { root, cell } => {
                write!(f, "gate at root {root}: cell index {cell} out of range")
            }
            MapCheckError::PinArity { root, pins, inputs } => {
                write!(f, "gate at root {root}: {pins} pins on a {inputs}-input cell")
            }
            MapCheckError::PinSourceInvalid { gate } => {
                write!(f, "gate #{gate}: pin source dangling or out of order")
            }
            MapCheckError::PoCount { expected, actual } => {
                write!(f, "{actual} output bindings for {expected} outputs")
            }
            MapCheckError::PoSourceInvalid { po } => {
                write!(f, "output {po}: source not covered by the mapping")
            }
            MapCheckError::InverterCount { inverters } => {
                write!(f, "free-polarity mapping claims {inverters} inverters")
            }
            MapCheckError::GateCount { stored, actual } => {
                write!(f, "gate count: {stored} stored, {actual} actual")
            }
            MapCheckError::AreaMismatch { stored, actual } => {
                write!(f, "area: {stored} stored, {actual} recomputed")
            }
            MapCheckError::DelayScale { delay_ps } => {
                write!(f, "delay_ps {delay_ps} is not delay_norm · τ")
            }
            MapCheckError::ArrivalMismatch { stored, derived } => {
                write!(f, "critical path: {stored} stored, {derived} re-derived")
            }
        }
    }
}

impl std::error::Error for MapCheckError {}

/// Validates the structure and summary statistics of a mapped cover.
///
/// Checked invariants, in order:
/// - every gate's root is a live AND node of `aig`, emitted at most
///   once, with a valid library cell index and one pin per cell input;
/// - every pin and PO source resolves to an in-range primary input or
///   to a gate emitted *earlier* (the cover is topological and fully
///   covered — no dangling internal signal);
/// - `stats.gates`/`stats.inverters` agree with the gate list and the
///   library's polarity model (free-polarity families use none);
/// - `stats.area` equals the cell-area sum plus inverter area;
/// - `stats.delay_ps` is `stats.delay_norm` scaled by the library τ;
/// - arrivals re-derived from per-pin delays reproduce
///   `stats.delay_norm`: exactly (within epsilon) for free-polarity
///   libraries, and as a lower bound for CMOS, whose inverter
///   placement depends on phase state the [`Mapping`] does not carry.
///
/// Returns the first violation as a named [`MapCheckError`].
pub fn check_mapping(
    aig: &Aig,
    mapping: &Mapping,
    library: &Library,
) -> Result<(), MapCheckError> {
    let cells = library.cells();
    let free_pol = library.free_polarity();

    // Gate list: roots, cells, arities, topological pin resolution,
    // and the per-pin-delay arrival recomputation in one pass.
    let mut arr: HashMap<u32, f64> = HashMap::new();
    let mut area = 0.0f64;
    for (pos, g) in mapping.gates.iter().enumerate() {
        let root = g.root.index() as u32;
        if g.root.index() >= aig.num_nodes() || !aig.is_and(g.root) {
            return Err(MapCheckError::RootNotLive { root });
        }
        if arr.contains_key(&root) {
            return Err(MapCheckError::RootDuplicated { root });
        }
        if g.cell >= cells.len() {
            return Err(MapCheckError::CellOutOfRange { root, cell: g.cell });
        }
        let cell = &cells[g.cell];
        if g.pins.len() != cell.num_inputs {
            return Err(MapCheckError::PinArity {
                root,
                pins: g.pins.len(),
                inputs: cell.num_inputs,
            });
        }
        let mut a = 0.0f64;
        for (pin, &(src, _compl)) in g.pins.iter().enumerate() {
            let src_arr = match src {
                Source::Pi(i) => {
                    if i >= aig.num_pis() {
                        return Err(MapCheckError::PinSourceInvalid { gate: pos as u32 });
                    }
                    0.0
                }
                Source::Node(base) => match arr.get(&(base.index() as u32)) {
                    // Emitted-earlier is exactly "already has an arrival".
                    Some(&t) => t,
                    None => {
                        return Err(MapCheckError::PinSourceInvalid { gate: pos as u32 });
                    }
                },
            };
            a = a.max(src_arr + cell.pin_delay[pin]);
        }
        arr.insert(root, a);
        area += cell.area;
    }

    // Primary outputs: one binding per AIG output, sources covered.
    if mapping.pos.len() != aig.num_pos() {
        return Err(MapCheckError::PoCount {
            expected: aig.num_pos(),
            actual: mapping.pos.len(),
        });
    }
    let mut delay = 0.0f64;
    for (i, po) in mapping.pos.iter().enumerate() {
        match *po {
            PoBinding::Const(_) => {}
            PoBinding::Signal(src, _compl) => match src {
                Source::Pi(p) => {
                    if p >= aig.num_pis() {
                        return Err(MapCheckError::PoSourceInvalid { po: i });
                    }
                }
                Source::Node(base) => match arr.get(&(base.index() as u32)) {
                    Some(&t) => delay = delay.max(t),
                    None => return Err(MapCheckError::PoSourceInvalid { po: i }),
                },
            },
        }
    }

    // Summary statistics versus the netlist actually emitted.
    let s = &mapping.stats;
    if free_pol && s.inverters != 0 {
        return Err(MapCheckError::InverterCount { inverters: s.inverters });
    }
    if s.gates != mapping.gates.len() + s.inverters {
        return Err(MapCheckError::GateCount {
            stored: s.gates,
            actual: mapping.gates.len() + s.inverters,
        });
    }
    area += s.inverters as f64 * library.inverter_area();
    if (area - s.area).abs() > EPS * area.max(1.0) {
        return Err(MapCheckError::AreaMismatch { stored: s.area, actual: area });
    }
    if (s.delay_ps - s.delay_norm * library.tau_ps()).abs() > EPS * s.delay_ps.max(1.0) {
        return Err(MapCheckError::DelayScale { delay_ps: s.delay_ps });
    }
    // Arrival consistency. Free-polarity mapping has no inverter
    // penalties, so the recomputation is exact; CMOS inverter insertion
    // depends on per-node phase the Mapping does not store, making the
    // recomputed value a lower bound on the true critical path.
    let consistent = if free_pol {
        (delay - s.delay_norm).abs() <= EPS * s.delay_norm.max(1.0)
    } else {
        delay <= s.delay_norm + EPS * s.delay_norm.max(1.0)
    };
    if !consistent {
        return Err(MapCheckError::ArrivalMismatch { stored: s.delay_norm, derived: delay });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapper::{map, MapOptions, MappedGate};
    use cntfet_core::LogicFamily;

    fn adder(bits: usize) -> Aig {
        let mut g = Aig::new("adder");
        let a = g.add_pis(bits);
        let b = g.add_pis(bits);
        let mut carry = cntfet_aig::Lit::FALSE;
        for i in 0..bits {
            let x = g.xor(a[i], b[i]);
            let s = g.xor(x, carry);
            g.add_po(s);
            let c1 = g.and(a[i], b[i]);
            let c2 = g.and(x, carry);
            carry = g.or(c1, c2);
        }
        g.add_po(carry);
        g
    }

    fn mapped(free_pol: bool) -> (Aig, Mapping, Library) {
        let fam = if free_pol { LogicFamily::TgStatic } else { LogicFamily::CmosStatic };
        let lib = Library::new(fam);
        let g = adder(4);
        let m = map(&g, &lib, MapOptions::default());
        (g, m, lib)
    }

    #[test]
    fn healthy_mappings_pass() {
        for free_pol in [true, false] {
            let (g, m, lib) = mapped(free_pol);
            assert_eq!(check_mapping(&g, &m, &lib), Ok(()));
        }
    }

    #[test]
    fn detects_cover_corruption() {
        let (g, m, lib) = mapped(true);

        // A dangling pin: re-point a later gate's pin at a node that is
        // not part of the cover (its own root — self-loop).
        let mut dangling = m.clone();
        let last = dangling.gates.len() - 1;
        let root = dangling.gates[last].root;
        dangling.gates[last].pins[0].0 = Source::Node(root);
        assert!(matches!(
            check_mapping(&g, &dangling, &lib),
            Err(MapCheckError::PinSourceInvalid { .. })
        ));

        // Emission order violated: swapping a producer behind its
        // consumer breaks the emitted-earlier rule.
        let mut swapped = m.clone();
        let consumer = swapped
            .gates
            .iter()
            .position(|gt| {
                gt.pins.iter().any(|&(s, _)| matches!(s, Source::Node(_)))
            })
            .expect("an internal edge exists");
        let producer = swapped.gates[consumer]
            .pins
            .iter()
            .find_map(|&(s, _)| match s {
                Source::Node(b) => {
                    Some(swapped.gates.iter().position(|x| x.root == b).expect("covered"))
                }
                Source::Pi(_) => None,
            })
            .expect("internal producer");
        swapped.gates.swap(consumer, producer);
        assert!(matches!(
            check_mapping(&g, &swapped, &lib),
            Err(MapCheckError::PinSourceInvalid { .. })
        ));

        // A duplicated root.
        let mut duped = m.clone();
        let g0: MappedGate = duped.gates[last].clone();
        duped.gates.push(g0);
        assert!(matches!(
            check_mapping(&g, &duped, &lib),
            Err(MapCheckError::RootDuplicated { .. })
        ));

        // A root that is not a live AND (a PI node).
        let mut badroot = m.clone();
        badroot.gates[0].root = g.pis()[0];
        let r = check_mapping(&g, &badroot, &lib);
        assert!(
            matches!(
                r,
                Err(MapCheckError::RootNotLive { .. } | MapCheckError::PinSourceInvalid { .. })
            ),
            "{r:?}"
        );
    }

    #[test]
    fn detects_cell_and_stat_corruption() {
        let (g, m, lib) = mapped(true);

        let mut cell = m.clone();
        cell.gates[0].cell = lib.cells().len();
        assert!(matches!(
            check_mapping(&g, &cell, &lib),
            Err(MapCheckError::CellOutOfRange { .. })
        ));

        let mut arity = m.clone();
        let extra = arity.gates[0].pins[0];
        arity.gates[0].pins.push(extra);
        assert!(matches!(check_mapping(&g, &arity, &lib), Err(MapCheckError::PinArity { .. })));

        let mut gates = m.clone();
        gates.stats.gates += 1;
        assert!(matches!(check_mapping(&g, &gates, &lib), Err(MapCheckError::GateCount { .. })));

        let mut area = m.clone();
        area.stats.area += 100.0;
        assert!(matches!(
            check_mapping(&g, &area, &lib),
            Err(MapCheckError::AreaMismatch { .. })
        ));

        let mut ps = m.clone();
        ps.stats.delay_ps *= 2.0;
        assert!(matches!(check_mapping(&g, &ps, &lib), Err(MapCheckError::DelayScale { .. })));

        let mut inv = m.clone();
        inv.stats.inverters += 1; // free-polarity library: must be 0
        assert!(matches!(
            check_mapping(&g, &inv, &lib),
            Err(MapCheckError::InverterCount { .. })
        ));

        let mut arrive = m.clone();
        arrive.stats.delay_norm *= 3.0;
        arrive.stats.delay_ps = arrive.stats.delay_norm * lib.tau_ps();
        assert!(matches!(
            check_mapping(&g, &arrive, &lib),
            Err(MapCheckError::ArrivalMismatch { .. })
        ));
    }

    #[test]
    fn detects_po_corruption() {
        let (g, m, lib) = mapped(true);

        let mut count = m.clone();
        count.pos.pop();
        assert!(matches!(check_mapping(&g, &count, &lib), Err(MapCheckError::PoCount { .. })));

        let mut src = m.clone();
        let bad = g
            .node_ids()
            .find(|&id| g.is_and(id) && !m.gates.iter().any(|gt| gt.root == id));
        if let Some(bad) = bad {
            let po = src
                .pos
                .iter()
                .position(|p| matches!(p, PoBinding::Signal(Source::Node(_), _)))
                .expect("a mapped PO exists");
            src.pos[po] = PoBinding::Signal(Source::Node(bad), false);
            let r = check_mapping(&g, &src, &lib);
            assert!(
                matches!(
                    r,
                    Err(MapCheckError::PoSourceInvalid { .. }
                        | MapCheckError::ArrivalMismatch { .. })
                ),
                "{r:?}"
            );
        }
    }

    #[test]
    fn cmos_arrival_is_a_lower_bound() {
        let (g, m, lib) = mapped(false);
        assert_eq!(check_mapping(&g, &m, &lib), Ok(()));
        // Inflating the stored delay keeps the lower-bound check green
        // (CMOS inverter penalties are unknowable from the Mapping)…
        let mut inflated = m.clone();
        inflated.stats.delay_norm += 1.0;
        inflated.stats.delay_ps = inflated.stats.delay_norm * lib.tau_ps();
        assert_eq!(check_mapping(&g, &inflated, &lib), Ok(()));
        // …but understating it below the pin-delay floor is caught.
        let mut lied = m.clone();
        lied.stats.delay_norm = 0.0;
        lied.stats.delay_ps = 0.0;
        assert!(matches!(
            check_mapping(&g, &lied, &lib),
            Err(MapCheckError::ArrivalMismatch { .. })
        ));
    }

    #[test]
    fn errors_display() {
        let e = MapCheckError::RootDuplicated { root: 9 };
        assert!(e.to_string().contains('9'));
        let boxed: Box<dyn std::error::Error> = Box::new(e);
        assert!(boxed.to_string().contains("twice"));
    }
}
