//! End-to-end integration tests: circuit generation → optimization →
//! technology mapping → formal verification → fabric placement, across
//! crate boundaries.

use ambipolar_cntfet::prelude::*;

#[test]
fn synth_map_verify_adder_all_families() {
    let adder = ripple_adder(12);
    let optimized = resyn2rs(&adder);
    assert!(equivalent(&adder, &optimized), "optimization must preserve function");
    for family in [LogicFamily::TgStatic, LogicFamily::TgPseudo, LogicFamily::CmosStatic] {
        let lib = Library::new(family);
        let mapping = map(&optimized, &lib, MapOptions::default());
        assert_eq!(
            verify_mapping(&optimized, &mapping, &lib),
            CecResult::Equivalent,
            "{family:?}"
        );
        assert!(mapping.stats.delay_ps > 0.0);
    }
}

#[test]
fn xor_rich_vs_control_benefit_ordering() {
    // The paper's central observation: XOR-rich circuits gain more
    // from the CNTFET library than control-dominated ones.
    let parity9 = parity(9);
    let tg = Library::new(LogicFamily::TgStatic);
    let cmos = Library::new(LogicFamily::CmosStatic);

    let p_tg = map(&resyn2rs(&parity9), &tg, MapOptions::default());
    let p_cm = map(&resyn2rs(&parity9), &cmos, MapOptions::default());
    let parity_gain = p_cm.stats.area / p_tg.stats.area;

    // A pure AND tree has no XORs to exploit.
    let mut andtree = cntfet_aig::Aig::new("andtree");
    let pis = andtree.add_pis(9);
    let out = andtree.and_many(&pis);
    andtree.add_po(out);
    let a_tg = map(&resyn2rs(&andtree), &tg, MapOptions::default());
    let a_cm = map(&resyn2rs(&andtree), &cmos, MapOptions::default());
    let and_gain = a_cm.stats.area / a_tg.stats.area;

    assert!(
        parity_gain > and_gain,
        "parity gain {parity_gain:.2} must exceed AND-tree gain {and_gain:.2}"
    );
}

#[test]
fn multiplier_pipeline_with_sweeping_verification() {
    // An 8×8 multiplier through the full pipeline — the sweeping
    // equivalence checker must handle arithmetic miters.
    let mult = array_multiplier(8);
    let optimized = resyn2rs(&mult);
    let lib = Library::new(LogicFamily::TgStatic);
    let mapping = map(&optimized, &lib, MapOptions::default());
    assert_eq!(verify_mapping(&optimized, &mapping, &lib), CecResult::Equivalent);
    // And the mapping still multiplies.
    let rebuilt = cntfet_techmap::mapping_to_aig(&mapping, &lib, 16);
    for (a, b) in [(13u64, 200u64), (255, 255), (0, 77), (128, 2)] {
        let mut ins = Vec::new();
        for i in 0..8 {
            ins.push(a >> i & 1 == 1);
        }
        for i in 0..8 {
            ins.push(b >> i & 1 == 1);
        }
        let out = rebuilt.eval(&ins);
        let mut prod = 0u64;
        for (i, &bit) in out.iter().enumerate() {
            if bit {
                prod |= 1 << i;
            }
        }
        assert_eq!(prod, a * b, "{a}×{b}");
    }
}

#[test]
fn adder_architectures_agree_under_sat_sweeping() {
    // 17 inputs put the pair past the exhaustive bound, so the default
    // options decide it by SAT sweeping, with internal proofs.
    let r = cntfet_aig::check_equivalence_sweeping_report(
        &ripple_adder(8),
        &cntfet_circuits::cla_adder(8),
        &SweepOptions::default(),
    );
    assert_eq!(r.result, CecResult::Equivalent);
    assert!(!r.exhaustive && r.internal_proofs > 0, "the SAT sweep must run");
}

#[test]
fn fabric_round_trip_via_mapping() {
    let circuit = ripple_adder(6);
    let lib = fabric_library();
    let mapping = map(&circuit, &lib, MapOptions::default());
    let placed = place_mapping(&mapping, &lib, circuit.num_pis()).expect("placeable");
    // Random vectors across crates: AIG semantics == fabric semantics.
    let mut seed = 0xFAB0_u64;
    for _ in 0..500 {
        seed = seed.wrapping_mul(6364136223846793005).wrapping_add(7);
        let ins: Vec<bool> = (0..13).map(|i| seed >> (i + 3) & 1 == 1).collect();
        assert_eq!(placed.config.evaluate(&ins), circuit.eval(&ins));
    }
}

#[test]
fn switch_level_agrees_with_cell_model_on_mapped_gate() {
    // Pick a mapped gate from a real mapping and check its transistor
    // netlist implements the cell function the mapper relied on.
    let adder = ripple_adder(4);
    let lib = Library::new(LogicFamily::TgStatic);
    let mapping = map(&adder, &lib, MapOptions::default());
    let gate = &mapping.gates[mapping.gates.len() / 2];
    let cell = &lib.cells()[gate.cell];
    let gn = gate_netlist(cell.gate, LogicFamily::TgStatic).unwrap();
    let expr = cell.gate.function();
    for m in 0..(1u64 << gn.signals.len()) {
        let mut full = 0u64;
        for (i, &s) in gn.signals.iter().enumerate() {
            if m >> i & 1 == 1 {
                full |= 1 << s;
            }
        }
        let sol = solve(&gn.netlist, &gn.input_vector(m));
        assert_eq!(sol.logic(gn.output), Some(!expr.eval(full)));
        assert!(sol.is_full_swing(gn.output));
    }
}

#[test]
fn paper_suite_smoke() {
    // Construct all 15 benchmarks and sanity-check interfaces; full
    // mapping of the suite lives in the bench harness.
    let suite = paper_benchmarks();
    assert_eq!(suite.len(), 15);
    for b in &suite {
        assert_eq!(b.aig.num_pis(), b.io.0, "{}", b.name);
        assert_eq!(b.aig.num_pos(), b.io.1, "{}", b.name);
    }
}
