//! # ambipolar-cntfet
//!
//! A full reproduction of *"Novel Library of Logic Gates with
//! Ambipolar CNTFETs: Opportunities for Multi-Level Logic Synthesis"*
//! (Ben Jamaa, Mohanram, De Micheli — DATE 2009), as a Rust workspace:
//! the 46-gate ambipolar logic family, its switch-level and timing
//! characterization, an ABC-style synthesis and technology-mapping
//! flow, the benchmark suite of the paper's evaluation, and the
//! regular-fabric architecture of its outlook section.
//!
//! This umbrella crate re-exports the workspace's public API under
//! stable module names:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`boolfn`] | `cntfet-boolfn` | truth tables, NPN canonicalization, ISOP, factoring |
//! | [`switchlevel`] | `cntfet-switchlevel` | ambipolar transistor netlists + discrete solver |
//! | [`core`] | `cntfet-core` | the 46 gates, 4 families, sizing + FO4 characterization |
//! | [`sat`] | `cntfet-sat` | CDCL SAT solver |
//! | [`aig`] | `cntfet-aig` | And-Inverter Graphs, simulation, CEC |
//! | [`synth`] | `cntfet-synth` | in-place DAG-aware pass engine (`Pass`/`Script`), `resyn2rs` |
//! | [`techmap`] | `cntfet-techmap` | cut-based NPN boolean matching + covering |
//! | [`circuits`] | `cntfet-circuits` | Table 3 benchmark generators |
//! | [`fabric`] | `cntfet-fabric` | GNOR/GNAND regular fabrics |
//!
//! # Quickstart
//!
//! ```
//! use ambipolar_cntfet::prelude::*;
//!
//! // 1. A benchmark circuit (16-bit ripple adder = paper's add-16).
//! let adder = ripple_adder(16);
//!
//! // 2. Optimize it (resyn2rs-style script).
//! let optimized = resyn2rs(&adder);
//!
//! // 3. Map onto the static ambipolar CNTFET library and onto CMOS.
//! let cntfet = Library::new(LogicFamily::TgStatic);
//! let cmos = Library::new(LogicFamily::CmosStatic);
//! let m1 = map(&optimized, &cntfet, MapOptions::default());
//! let m2 = map(&optimized, &cmos, MapOptions::default());
//!
//! // 4. Both mappings are formally equivalent to the source …
//! assert_eq!(verify_mapping(&optimized, &m1, &cntfet), CecResult::Equivalent);
//! assert_eq!(verify_mapping(&optimized, &m2, &cmos), CecResult::Equivalent);
//!
//! // … and the XOR-rich adder maps into far fewer CNTFET gates
//! // (the paper's headline effect).
//! assert!(m1.stats.gates * 3 < m2.stats.gates * 2);
//!
//! // 5. The same engine also covers the area- and delay-pressed
//! // corners (Table 3's trade-off axis).
//! let small = map(&optimized, &cntfet, MapOptions { objective: Objective::Area, ..Default::default() });
//! assert_eq!(verify_mapping(&optimized, &small, &cntfet), CecResult::Equivalent);
//! assert!(small.stats.area <= m1.stats.area);
//!
//! // 6. The delay corner iterates arrival-aware cut re-enumeration
//! // (`delay_rounds`); the iterated cover is never slower than the
//! // single-enumeration engine (`delay_rounds: 0`).
//! let fast = map(&optimized, &cntfet, MapOptions { objective: Objective::Delay, ..Default::default() });
//! let single = map(&optimized, &cntfet, MapOptions {
//!     objective: Objective::Delay,
//!     delay_rounds: 0,
//!     ..Default::default()
//! });
//! assert_eq!(verify_mapping(&optimized, &fast, &cntfet), CecResult::Equivalent);
//! assert!(fast.stats.delay_norm <= single.stats.delay_norm + 1e-9);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub use cntfet_aig as aig;
pub use cntfet_boolfn as boolfn;
pub use cntfet_circuits as circuits;
pub use cntfet_core as core;
pub use cntfet_fabric as fabric;
pub use cntfet_sat as sat;
pub use cntfet_switchlevel as switchlevel;
pub use cntfet_synth as synth;
pub use cntfet_techmap as techmap;

/// Most-used items in one import.
pub mod prelude {
    pub use cntfet_aig::{
        check_equivalence, check_equivalence_sweeping, equivalent, Aig, CecReport, CecResult,
        SweepOptions,
    };
    pub use cntfet_boolfn::{factor, isop, npn_canonical, Expr, TruthTable};
    pub use cntfet_circuits::{
        array_multiplier, paper_benchmarks, parity, ripple_adder, BenchClass, Benchmark,
    };
    pub use cntfet_core::{
        characterize, characterize_family, enumerate_gates, gate_netlist, DynamicGnor, GateChar,
        GateId, Library, LogicFamily,
    };
    pub use cntfet_fabric::{fabric_library, place_mapping, FabricConfig};
    pub use cntfet_sat::{SolveResult, Solver};
    pub use cntfet_switchlevel::{solve, DynamicSim, Netlist, NodeState, Rank};
    pub use cntfet_synth::{
        balance, quick_opt, refactor, resyn2rs, resyn2rs_with, rewrite, AigStats, Pass, Script,
        SynthOptions,
    };
    pub use cntfet_techmap::{map, verify_mapping, MapOptions, MapStats, Mapping, Objective};
}
