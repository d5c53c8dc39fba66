//! And-Inverter Graphs for multi-level logic synthesis.
//!
//! An [`Aig`] is a DAG of two-input AND nodes with optional edge
//! complementation — the standard intermediate representation of
//! modern logic synthesis (ABC-style). Around the graph (structural
//! hashing, levels, fanout counts, BLIF and AIGER I/O with the shared
//! [`IoError`] frontend contract) the crate provides the two engines
//! the rest of the workspace builds on:
//!
//! * **Priority-cut enumeration** — [`enumerate_cuts_with`] fills a
//!   [`CutArena`] with the k-feasible cuts of every node under the
//!   [`CutParams`] knobs (cut size up to six, cuts per node), smallest
//!   cuts first. Every cut carries its function as one `u64` word,
//!   computed during enumeration. [`enumerate_cuts_custom`]
//!   swaps the size ranking for an external cost oracle — how
//!   technology mapping's arrival rounds rank cuts by *mapped arrival*
//!   of their best library match.
//! * **Equivalence checking** — [`check_equivalence_sweeping_with`]
//!   (fraig-style SAT sweeping under [`SweepOptions`], with an
//!   exhaustive-simulation tier for ≤ 16-PI circuits) certifies every
//!   synthesis and mapping step; [`check_equivalence`] runs it at the
//!   default options, and the `*_report` variants also return solver
//!   statistics.
//!
//! # Examples
//!
//! ```
//! use cntfet_aig::{Aig, check_equivalence, CecResult};
//!
//! // Two structurally different full adders.
//! let mut a = Aig::new("fa1");
//! let pis = a.add_pis(3);
//! let s1 = a.xor(pis[0], pis[1]);
//! let sum = a.xor(s1, pis[2]);
//! a.add_po(sum);
//!
//! let mut b = Aig::new("fa2");
//! let pis = b.add_pis(3);
//! let sum = b.xor_many(&pis);
//! b.add_po(sum);
//!
//! assert_eq!(check_equivalence(&a, &b), CecResult::Equivalent);
//! ```
//!
//! Cut enumeration plus sweeping-based CEC, with explicit knobs:
//!
//! ```
//! use cntfet_aig::{
//!     check_equivalence_sweeping_with, enumerate_cuts_with, Aig, CecResult, CutParams,
//!     CutRank, SweepOptions,
//! };
//!
//! let mut g = Aig::new("xor4");
//! let pis = g.add_pis(4);
//! let x = g.xor_many(&pis);
//! g.add_po(x);
//!
//! // Every node gets a bounded priority list of cuts; the root of a
//! // 4-input XOR has a cut spanning all four PIs whose in-pass
//! // function word equals odd parity.
//! let cuts = enumerate_cuts_with(&g, CutParams { k: 4, max_cuts: 16, rank: CutRank::Size });
//! let root = g.pos()[0].node();
//! let full = cuts
//!     .of(root)
//!     .find(|c| c.size() == 4 && c.leaves().iter().all(|&l| g.is_pi(l)))
//!     .expect("full PI cut");
//! assert_eq!(full.function().count_ones(), 8);
//!
//! // The sweeping checker agrees with itself under tier overrides
//! // (here: exhaustive simulation disabled, forcing SAT sweeping).
//! let opts = SweepOptions { exhaustive_pis: 0, ..Default::default() };
//! assert_eq!(check_equivalence_sweeping_with(&g, &g.clone(), &opts), CecResult::Equivalent);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod aiger;
mod blif;
mod cec;
mod check;
mod cuts;
mod edit;
mod graph;
pub mod io;
mod sim;
mod sweep;

pub use aiger::{parse_aiger, write_aiger_ascii, write_aiger_binary};
pub use blif::{parse_blif, write_blif};
pub use io::IoError;
pub use check::CheckError;
pub use cec::{
    check_equivalence, check_equivalence_report, equivalent, sat_lit, tseitin, CecReport,
    CecResult,
};
pub use cuts::{
    cut_function, enumerate_cuts, enumerate_cuts_custom, enumerate_cuts_with,
    enumerate_cuts_with_jobs, CutArena, CutIter, CutParams, CutRank, CutView,
};
pub use graph::{Aig, Lit, NodeId};
pub use sweep::{
    check_equivalence_sweeping, check_equivalence_sweeping_report, check_equivalence_sweeping_with,
    SweepOptions,
};
