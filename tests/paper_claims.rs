//! The paper's headline claims, asserted as integration tests.
//! Shape-level reproduction: directions and rough magnitudes, not
//! bit-identical numbers (`full_repro` prints the full paper-vs-measured
//! scoreboard).

use ambipolar_cntfet::prelude::*;
use cntfet_core::family_averages;

/// Sec. 1/3: "46 functions, as compared to only 7 functions with CMOS
/// logic having the same topology."
#[test]
fn claim_46_vs_7_gate_functions() {
    assert_eq!(enumerate_gates(true).num_functions(), 46);
    assert_eq!(enumerate_gates(false).num_functions(), 7);
}

/// Table 2 footer: average area of the static CNTFET library is
/// slightly *smaller* than CMOS despite more transistors per gate, and
/// the pseudo family is ~31% smaller but ~33% slower than static.
#[test]
fn claim_family_characterization_relations() {
    let st = family_averages(&characterize_family(LogicFamily::TgStatic));
    let ps = family_averages(&characterize_family(LogicFamily::TgPseudo));
    let pp = family_averages(&characterize_family(LogicFamily::PassPseudo));
    let cm = family_averages(&characterize_family(LogicFamily::CmosStatic));

    // More transistors per CNTFET gate, comparable or smaller area.
    assert!(st.transistors > cm.transistors);
    assert!(st.area < cm.area * 1.02, "{} vs {}", st.area, cm.area);
    // Pseudo: ~31% smaller area.
    let shrink = 1.0 - ps.area / st.area;
    assert!((shrink - 0.31).abs() < 0.05, "pseudo shrink {shrink:.2}");
    // Pseudo: ~33% slower.
    let slowdown = ps.fo4_avg / st.fo4_avg - 1.0;
    assert!((0.2..0.5).contains(&slowdown), "pseudo slowdown {slowdown:.2}");
    // Pass-transistor pseudo: barely smaller than TG static, much
    // slower — "a bad choice for circuit design" (Sec. 4.3).
    assert!(pp.area < st.area);
    assert!(pp.area > ps.area, "pass pseudo less area-efficient than TG pseudo");
    assert!(pp.fo4_avg > 2.0 * st.fo4_avg, "pass pseudo ≥2.7× slower");
}

/// Sec. 4.1: the XNOR static transmission-gate cell is *faster* than
/// the unit inverter (FO4 below 5τ).
#[test]
fn claim_xnor_beats_inverter() {
    let inv = characterize(GateId::new(0), LogicFamily::TgStatic).unwrap();
    let xor = characterize(GateId::new(1), LogicFamily::TgStatic).unwrap();
    assert_eq!(inv.fo4_avg, 5.0);
    assert!(xor.fo4_avg < inv.fo4_avg, "XOR/XNOR cell faster than inverter");
}

/// Table 3 / Fig. 6 on the adder rows: fewer gates, less area, fewer
/// levels, and a >4× absolute speedup for the static family.
#[test]
fn claim_adders_win_big() {
    for bits in [16usize, 32] {
        let adder = resyn2rs(&ripple_adder(bits));
        let tg = Library::new(LogicFamily::TgStatic);
        let cmos = Library::new(LogicFamily::CmosStatic);
        let mt = map(&adder, &tg, MapOptions::default());
        let mc = map(&adder, &cmos, MapOptions::default());
        assert!(
            (mt.stats.gates as f64) < 0.7 * mc.stats.gates as f64,
            "add-{bits}: {} vs {}",
            mt.stats.gates,
            mc.stats.gates
        );
        assert!(mt.stats.area < 0.7 * mc.stats.area);
        assert!(mt.stats.levels < mc.stats.levels);
        let speedup = mc.stats.delay_ps / mt.stats.delay_ps;
        assert!(speedup > 4.0, "add-{bits} speedup {speedup:.1}");
    }
}

/// Sec. 3/Fig. 2-3: the dynamic GNOR degrades its output when both
/// free variables are 1; the static family is full swing on every
/// gate and every input vector (checked exhaustively in cntfet-core's
/// tests; spot-checked here through the public API).
#[test]
fn claim_full_swing_static_vs_degraded_dynamic() {
    use ambipolar_cntfet::switchlevel::{solve_with_memory, NodeState, Rank};
    let gnor = DynamicGnor::new();
    let pre = solve(&gnor.netlist, &gnor.inputs(false, false, true, false, true));
    let eva = solve_with_memory(
        &gnor.netlist,
        &gnor.inputs(true, false, true, false, true),
        Some(&pre),
    );
    assert_eq!(
        eva.state(gnor.y),
        NodeState::Driven { rank: Rank::WeakLow, ratioed: false },
        "dynamic GNOR output degraded to |VTp|"
    );

    let gn = gate_netlist(GateId::new(8), LogicFamily::TgStatic).unwrap();
    let sol = solve(&gn.netlist, &gn.input_vector(0b1010));
    assert!(sol.is_full_swing(gn.output), "static F08 full swing at the same corner");
}

/// Sec. 4.2: transmission gates beat pass transistors in static logic
/// (unit-on-resistance area 4A/3 vs 2A).
#[test]
fn claim_tg_beats_pass_in_static() {
    use ambipolar_cntfet::core::ElementStyle;
    let tg_area_per_unit_r = 2.0 * (ElementStyle::TGate.unit_resistance());
    let pass_area_per_unit_r = ElementStyle::PassDevice.unit_resistance();
    // TG: two devices of width 2/3 ⇒ area 4/3; pass: one device of
    // width 2 ⇒ area 2.
    assert!((tg_area_per_unit_r - 4.0 / 3.0).abs() < 1e-12);
    assert!((pass_area_per_unit_r - 2.0).abs() < 1e-12);
}

/// The technology-only speedup is 5.1× (τ ratio); the library design
/// adds on top (paper: 6.9× total on average).
#[test]
fn claim_speedup_decomposition() {
    let tau_ratio = LogicFamily::CmosStatic.tau_ps() / LogicFamily::TgStatic.tau_ps();
    assert!((tau_ratio - 5.08).abs() < 0.01);
    // Design contribution on an ECC benchmark: normalized delay must
    // also improve (paper: 26.4% on average for static).
    let c1355 = resyn2rs(&cntfet_circuits::c1355_like());
    let tg = Library::new(LogicFamily::TgStatic);
    let cmos = Library::new(LogicFamily::CmosStatic);
    let mt = map(&c1355, &tg, MapOptions::default());
    let mc = map(&c1355, &cmos, MapOptions::default());
    assert!(
        mt.stats.delay_norm < mc.stats.delay_norm,
        "normalized delay must improve: {} vs {}",
        mt.stats.delay_norm,
        mc.stats.delay_norm
    );
    let total = mc.stats.delay_ps / mt.stats.delay_ps;
    assert!(total > tau_ratio, "total speedup exceeds the technology factor");
}
