//! Multi-level logic optimization on And-Inverter Graphs.
//!
//! This crate stands in for the optimization half of ABC in the
//! DATE'09 flow: the paper synthesizes its benchmarks with the
//! `resyn2rs` script before mapping them onto the CNTFET/CMOS
//! libraries. The engine is *in-place and DAG-aware*, built on the
//! same substrate as the technology mapper:
//!
//! * **[`Pass`] / [`Script`]** — passes edit one graph through
//!   [`cntfet_aig::Aig::replace_node`] instead of rebuilding it and
//!   keep no state between calls; the script runner collects per-pass
//!   stats and timing and offers a self-check hook (SAT-sweeping CEC
//!   after every pass).
//! * **[`Rewrite`]** — true NPN-class rewriting over `CutArena`
//!   priority cuts, enumerated afresh by every sweep and dropped at
//!   its end (as ABC's `rewrite` does): cut functions are looked up in
//!   the precomputed structure library ([`cntfet_boolfn::RwrLibrary`],
//!   one near-optimal AIG per 4-input NPN class) and applied when the
//!   exact gain — MFFC freed minus nodes added, dry-costed against the
//!   strash — is positive (`zero_cost` accepts break-even
//!   perturbations).
//! * **[`Balance`]** — in-place Huffman balancing of single-fanout
//!   AND trees.
//! * **[`resyn2rs`] / [`quick_opt`]** — the paper's scripts as round
//!   loops over [`Script::resyn2rs`] / [`Script::quick`] with a
//!   never-worse `(ands, depth)` guard; [`SynthOptions`] selects
//!   rounds and self-checking. The `resyn2rs` round is ABC's `resyn2`
//!   sequence without its two refactoring (`rf`) passes: a refactor
//!   over a handful of size-ranked cuts per node applied nothing on
//!   any benchmark circuit while costing a fifth of synthesis time.
//!
//! Every pass is function-preserving; the test-suite certifies each
//! one with SAT-based equivalence checking ([`cntfet_aig`]).
//!
//! # Examples
//!
//! ```
//! use cntfet_aig::{Aig, equivalent};
//! use cntfet_synth::resyn2rs;
//!
//! // An AND chain: depth 7 before, log-depth after.
//! let mut g = Aig::new("chain");
//! let pis = g.add_pis(8);
//! let mut acc = pis[0];
//! for &p in &pis[1..] {
//!     acc = g.and(acc, p);
//! }
//! g.add_po(acc);
//!
//! let opt = resyn2rs(&g);
//! assert!(equivalent(&g, &opt));
//! assert!(opt.depth() <= 3);
//! ```
//!
//! Custom pass sequences run through the framework directly:
//!
//! ```
//! use cntfet_aig::Aig;
//! use cntfet_synth::{Balance, Rewrite, Script};
//!
//! let mut g = Aig::new("t");
//! let pis = g.add_pis(6);
//! let x = g.xor_many(&pis);
//! g.add_po(x);
//!
//! let report = Script::new()
//!     .then(Balance)
//!     .then(Rewrite::new(false))
//!     .run(&mut g);
//! assert_eq!(report.passes.len(), 2);
//! assert!(report.passes[0].time <= report.total_time());
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod balance;
mod dry;
mod pass;
mod rewrite;
mod script;

pub use balance::{balance_inplace, Balance};
pub use pass::{AigStats, Pass, PassStats, Script, ScriptReport};
pub use rewrite::{rewrite_inplace, Rewrite};
pub use script::{quick_opt, quick_opt_with, resyn2rs, resyn2rs_with, SynthOptions};

use cntfet_aig::Aig;

/// Balances AND trees to minimize depth (functional wrapper around
/// the in-place [`Balance`] pass; the input is left untouched).
pub fn balance(aig: &Aig) -> Aig {
    let mut out = aig.compact();
    balance_inplace(&mut out);
    out
}

/// DAG-aware 4-cut NPN rewriting (functional wrapper around the
/// in-place [`Rewrite`] pass).
pub fn rewrite(aig: &Aig, zero_cost: bool) -> Aig {
    let mut out = aig.compact();
    rewrite_inplace(&mut out, zero_cost);
    out
}
