//! Benchmark circuit generators for the DATE'09 reproduction.
//!
//! The paper maps 15 multi-level benchmarks (Table 3): ISCAS'85
//! ALU/control and error-correcting circuits, the C6288 multiplier,
//! MCNC logic and encryption circuits, and ripple adders. The original
//! netlists are not redistributable, so this crate rebuilds each one
//! from its *functional description*: bit-exact re-implementations for
//! the arithmetic/ECC/DES classes (with executable reference models),
//! and deterministic class-representative synthetics for the
//! control-dominated and unstructured ones — at exactly the published
//! I/O counts. [`paper_benchmarks`] builds the suite in the paper's
//! row order.
//!
//! # Examples
//!
//! ```
//! use cntfet_circuits::{array_multiplier, eval_multiplier};
//!
//! let c6288 = array_multiplier(16);
//! assert_eq!(c6288.num_pis(), 32);
//! assert_eq!(eval_multiplier(&c6288, 16, 1234, 567), 1234 * 567);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod alu;
mod arith;
mod des;
mod ecc;
mod randlogic;
mod rng;
mod suite;

pub use alu::{alu16, alu16_reference, alu_control, dalu_like, AluOutputs};
pub use arith::{
    array_multiplier, cla_adder, eval_adder, eval_multiplier, full_adder, ripple_adder,
    shift_add_multiplier,
};
pub use des::{des_chain, des_f, des_f_circuit, des_f_reference, des_like};
pub use ecc::{c1355_like, c1355_reference, c1908_like};
pub use randlogic::{majority, mux_tree, parity, random_logic};
pub use rng::SplitMix64;
pub use suite::{export_suite, paper_benchmarks, BenchClass, Benchmark};
