//! Small-function Boolean algebra for logic synthesis: truth tables,
//! NPN canonicalization, irredundant covers and algebraic factoring.
//!
//! This crate is the functional substrate of the ambipolar-CNTFET
//! library reproduction: gate functions (Table 1 of the DATE'09
//! paper), cut functions during technology mapping and rewriting, and
//! the precomputed rewrite library are all manipulated through the
//! types defined here.
//!
//! Every function has at most six variables
//! ([`word::MAX_WORD_VARS`]), the input count of the widest library
//! cell, so one `u64` word holds its whole truth table: the [`word`]
//! module has the kernels on bare words, and a [`TruthTable`] is a
//! `Copy` word with its variable count whose methods call them.
//!
//! # Quick tour
//!
//! ```
//! use cntfet_boolfn::{factor, isop, npn_canonical, Expr, TruthTable};
//!
//! // The paper's F05 gate: (A⊕B)·C.
//! let f05: Expr = "(A⊕B)·C".parse()?;
//! let tt = f05.to_tt(3);
//!
//! // Its NPN class also contains (A⊕B)+C' (by output/input flips).
//! let g: Expr = "(A⊕B) + C'".parse()?;
//! let c1 = npn_canonical(&tt);
//! let c2 = npn_canonical(&(!g.to_tt(3)));
//! assert_eq!(c1.table, c2.table);
//!
//! // Cover and refactor.
//! let cover = isop(&tt);
//! let refactored = factor(&cover);
//! assert_eq!(refactored.to_tt(3), tt);
//! # Ok::<(), cntfet_boolfn::ParseExprError>(())
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod cache;
mod cube;
mod expr;
mod factor;
pub mod hash;
mod isop;
mod npn;
pub mod rwr;
mod rwr_table;
mod tt;
pub mod word;

pub use cache::CacheStats;
pub use cube::{Cube, Sop};
pub use expr::{Expr, ParseExprError};
pub use factor::factor;
pub use isop::{isop, isop_interval};
pub use npn::{
    canon_cache_stats, npn_canonical, npn_canonical_cached, npn_canonical_exhaustive, CanonCache,
    NpnCanon, NpnTransform,
};
pub use rwr::{RwrLibrary, RwrMatch, RwrOperand, RwrStructure};
pub use tt::TruthTable;
