//! Smoke test for the umbrella crate's public surface: every module in
//! the `src/lib.rs` module table and every `prelude` re-export must
//! resolve. Each item is imported individually, so if a future PR drops
//! or renames a re-export, the failure names exactly the missing item.

// The imports are intentionally "unused": resolving them is the test.
#![allow(unused_imports)]

// The nine module aliases from the lib.rs module table.
use ambipolar_cntfet::aig as _;
use ambipolar_cntfet::boolfn as _;
use ambipolar_cntfet::circuits as _;
use ambipolar_cntfet::core as _;
use ambipolar_cntfet::fabric as _;
use ambipolar_cntfet::sat as _;
use ambipolar_cntfet::switchlevel as _;
use ambipolar_cntfet::synth as _;
use ambipolar_cntfet::techmap as _;

// Every item the prelude promises, one import per line.
use ambipolar_cntfet::prelude::check_equivalence as _;
use ambipolar_cntfet::prelude::equivalent as _;
use ambipolar_cntfet::prelude::Aig as _;
use ambipolar_cntfet::prelude::CecResult as _;

use ambipolar_cntfet::prelude::factor as _;
use ambipolar_cntfet::prelude::isop as _;
use ambipolar_cntfet::prelude::npn_canonical as _;
use ambipolar_cntfet::prelude::Expr as _;
use ambipolar_cntfet::prelude::TruthTable as _;

use ambipolar_cntfet::prelude::array_multiplier as _;
use ambipolar_cntfet::prelude::paper_benchmarks as _;
use ambipolar_cntfet::prelude::parity as _;
use ambipolar_cntfet::prelude::ripple_adder as _;
use ambipolar_cntfet::prelude::BenchClass as _;
use ambipolar_cntfet::prelude::Benchmark as _;

use ambipolar_cntfet::prelude::characterize as _;
use ambipolar_cntfet::prelude::characterize_family as _;
use ambipolar_cntfet::prelude::enumerate_gates as _;
use ambipolar_cntfet::prelude::gate_netlist as _;
use ambipolar_cntfet::prelude::DynamicGnor as _;
use ambipolar_cntfet::prelude::GateChar as _;
use ambipolar_cntfet::prelude::GateId as _;
use ambipolar_cntfet::prelude::Library as _;
use ambipolar_cntfet::prelude::LogicFamily as _;

use ambipolar_cntfet::prelude::fabric_library as _;
use ambipolar_cntfet::prelude::place_mapping as _;
use ambipolar_cntfet::prelude::FabricConfig as _;

use ambipolar_cntfet::prelude::SolveResult as _;
use ambipolar_cntfet::prelude::Solver as _;

use ambipolar_cntfet::prelude::solve as _;
use ambipolar_cntfet::prelude::DynamicSim as _;
use ambipolar_cntfet::prelude::Netlist as _;
use ambipolar_cntfet::prelude::NodeState as _;
use ambipolar_cntfet::prelude::Rank as _;

use ambipolar_cntfet::prelude::balance as _;
use ambipolar_cntfet::prelude::resyn2rs as _;
use ambipolar_cntfet::prelude::rewrite as _;

use ambipolar_cntfet::prelude::map as _;
use ambipolar_cntfet::prelude::verify_mapping as _;
use ambipolar_cntfet::prelude::MapOptions as _;
use ambipolar_cntfet::prelude::MapStats as _;
use ambipolar_cntfet::prelude::Mapping as _;

/// The glob import alone must be enough to run the quickstart pipeline
/// end to end, and every name it supplies must be unambiguous (a future
/// same-name export from two member crates fails here).
mod glob_only {
    use ambipolar_cntfet::prelude::*;

    #[test]
    fn prelude_drives_quickstart_pipeline() {
        let adder: Aig = ripple_adder(4);
        let optimized = resyn2rs(&adder);
        let lib = Library::new(LogicFamily::TgStatic);
        let mapping = map(&optimized, &lib, MapOptions::default());
        assert_eq!(
            verify_mapping(&optimized, &mapping, &lib),
            CecResult::Equivalent
        );
        assert!(mapping.stats.gates > 0);
    }
}
