//! Technology mapping onto the ambipolar CNTFET and CMOS libraries.
//!
//! This crate closes the paper's synthesis flow (Sec. 4.4): optimized
//! AIGs are covered with library cells via k-feasible cuts and NPN
//! boolean matching, delay-optimally and with area-flow recovery. The
//! CNTFET libraries match with free input/output polarities (every
//! cell carries an output inverter), while CMOS pays explicit
//! inverters — the mechanism behind the paper's area/delay gap on
//! XOR-rich circuits.
//!
//! The entry point is [`map`], steered by [`MapOptions`]:
//!
//! * [`MapOptions::objective`] — [`Objective::Area`],
//!   [`Objective::Delay`] or [`Objective::Balanced`] covering;
//! * [`MapOptions::delay_rounds`] — arrival-aware re-enumeration
//!   rounds: after a first cover, cuts are re-enumerated under its
//!   mapped arrival times with [`CutRank::Arrival`] (each cut ranked
//!   by the arrival of its best library match, resolved against the
//!   library's NPN index during enumeration) and the covering passes
//!   rerun, iterating while the critical path improves;
//! * [`MapOptions::cut_rank`] — the enumeration ranking
//!   ([`CutRank::Size`], [`CutRank::Depth`], or [`CutRank::Arrival`]
//!   to enable the rounds for every objective);
//! * [`MapOptions::area_rounds`] / [`MapOptions::cuts_per_node`] /
//!   [`MapOptions::cut_size`] — recovery effort and cut budget.
//!
//! Every mapping can be certified against its source with
//! [`verify_mapping`] (or [`verify_mapping_report`], which also says
//! what decided the check and what it cost). The mapper records each
//! gate's cut leaves ([`MappedGate::leaves`]) and the wire aliases the
//! cover resolves through ([`Mapping::wires`]), so the check is a
//! per-gate truth-table certificate — one ≤6-input comparison per
//! gate, equivalence by induction over the gates — with SAT sweeping
//! of the netlist rebuilt by [`mapping_to_aig`] only as the fallback
//! that yields a counterexample.
//!
//! # Examples
//!
//! ```
//! use cntfet_aig::Aig;
//! use cntfet_core::{Library, LogicFamily};
//! use cntfet_techmap::{map, verify_mapping, MapOptions};
//! use cntfet_aig::CecResult;
//!
//! // A full adder maps into a couple of XOR-capable CNTFET cells.
//! let mut g = Aig::new("fa");
//! let p = g.add_pis(3);
//! let x = g.xor(p[0], p[1]);
//! let sum = g.xor(x, p[2]);
//! let c1 = g.and(p[0], p[1]);
//! let c2 = g.and(x, p[2]);
//! let cout = g.or(c1, c2);
//! g.add_po(sum);
//! g.add_po(cout);
//!
//! let lib = Library::new(LogicFamily::TgStatic);
//! let mapping = map(&g, &lib, MapOptions::default());
//! assert_eq!(verify_mapping(&g, &mapping, &lib), CecResult::Equivalent);
//! assert!(mapping.stats.gates <= 5);
//! ```
//!
//! The objective corners of the same engine, and the arrival-aware
//! delay guarantee — more rounds can never lengthen the critical path:
//!
//! ```
//! use cntfet_aig::Aig;
//! use cntfet_core::{Library, LogicFamily};
//! use cntfet_techmap::{map, MapOptions, Objective};
//!
//! let mut g = Aig::new("chain");
//! let p = g.add_pis(8);
//! let mut acc = p[0];
//! for &x in &p[1..] {
//!     acc = g.xor(acc, x);
//! }
//! g.add_po(acc);
//!
//! let lib = Library::new(LogicFamily::TgStatic);
//! let with = |objective, delay_rounds| {
//!     map(&g, &lib, MapOptions { objective, delay_rounds, ..Default::default() }).stats
//! };
//! let area = with(Objective::Area, 0);
//! let single = with(Objective::Delay, 0);   // single-enumeration engine
//! let iterated = with(Objective::Delay, 2); // arrival-aware rounds
//! assert!(area.area <= iterated.area + 1e-9);
//! assert!(iterated.delay_norm <= single.delay_norm + 1e-9);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod check;
mod mapper;
mod matcher;
mod power;
mod verify;

pub use cntfet_aig::CutRank;
pub use check::{check_mapping, MapCheckError};
pub use mapper::{map, MapOptions, MapStats, MappedGate, Mapping, Objective, PoBinding, Source};
pub use matcher::{match_is_valid, CellMatch, Matcher};
pub use power::{estimate_energy, EnergyReport};
pub use verify::{mapping_to_aig, verify_mapping, verify_mapping_report};
