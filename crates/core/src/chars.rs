//! Library characterization (the engine behind the paper's Table 2):
//! transistor count, normalized area and FO4 delay for every gate in
//! every family.
//!
//! # Delay model
//!
//! The paper uses the switch-level RC / logical-effort model of
//! Weste–Harris: `FO4 = p + 4g` in units of the technology intrinsic
//! delay τ (= R·C_inv, the delay of a parasitic-free FO1 inverter).
//! Expressed per input pin `i`:
//!
//! ```text
//! FO4(i) = R̄ · (C_out + 4·C_pin(i)) / C_inv
//! ```
//!
//! * `C_pin(i)` — gate capacitance the pin presents (Σ device widths
//!   it drives; regular and polarity gates weigh equally, Sec. 4.3);
//! * `C_out` — parasitic drain capacitance at the output node
//!   (terminal caps of output-adjacent elements; internal stack nodes
//!   are neglected, as in the paper);
//! * `R̄` — mean drive resistance: 1 for static families (sized to
//!   unit resistance both directions), 2 for pseudo families (rise
//!   through the 3R weak pull-up, fall at effectively R, averaged);
//! * `C_inv` — unit-inverter input capacitance (2 CNTFET, 3 CMOS).
//!
//! Worst-case FO4 maximizes over pins, average FO4 takes the mean over
//! distinct signals — both as reported in Table 2.

use crate::family::LogicFamily;
use crate::functions::GateId;
use crate::network::{Network, NetworkSide, SizedNetwork};
use std::collections::BTreeMap;

/// Characterization record for one gate in one family
/// (one cell of the paper's Table 2).
#[derive(Debug, Clone)]
pub struct GateChar {
    /// Which gate.
    pub gate: GateId,
    /// Which family.
    pub family: LogicFamily,
    /// Transistor count (T column).
    pub transistors: usize,
    /// Normalized area Σ W/L (A column).
    pub area: f64,
    /// Worst-case FO4 delay in τ units.
    pub fo4_worst: f64,
    /// Average FO4 delay in τ units.
    pub fo4_avg: f64,
    /// Per-signal FO4 delays (indexed by variable), for mapping.
    pub pin_fo4: BTreeMap<u8, f64>,
    /// Per-signal input capacitance (gate + polarity-gate widths the
    /// pin drives), for energy estimation.
    pub pin_cap: BTreeMap<u8, f64>,
    /// Output-node parasitic capacitance.
    pub output_cap: f64,
    /// Transistors including the output inverter.
    pub transistors_with_inv: usize,
    /// Area including the output inverter.
    pub area_with_inv: f64,
    /// Average FO4 including the output-inverter load.
    pub fo4_avg_with_inv: f64,
}

/// Characterizes a gate in a family.
///
/// Returns `None` when the family cannot implement the gate (CMOS and
/// any XOR-containing function).
pub fn characterize(gate: GateId, family: LogicFamily) -> Option<GateChar> {
    if family == LogicFamily::CmosStatic && !gate.in_cmos_subset() {
        return None;
    }
    let expr = gate.function();
    let net = Network::from_expr(&expr).expect("Table 1 gates are series/parallel");

    // Pull-down, sized to R (static) or 3R/4 (pseudo widens by 4/3).
    let pd_target = 1.0 / family.pd_width_factor();
    let pd = SizedNetwork::size(&net, pd_target, family, NetworkSide::PullDown);

    // Pull-up.
    let pu = match family {
        LogicFamily::TgPseudo | LogicFamily::PassPseudo => None,
        _ => Some(SizedNetwork::size(
            &net.dual(),
            1.0,
            family,
            NetworkSide::PullUp,
        )),
    };

    let mut transistors = pd.transistor_count();
    let mut area = pd.area();
    let mut c_out = pd.output_adjacent_cap();
    let mut pins: BTreeMap<u8, f64> = BTreeMap::new();
    pd.accumulate_pin_caps(&mut pins);

    match &pu {
        Some(pu_net) => {
            transistors += pu_net.transistor_count();
            area += pu_net.area();
            c_out += pu_net.output_adjacent_cap();
            pu_net.accumulate_pin_caps(&mut pins);
        }
        None => {
            // Weak always-on pull-up, 4× weaker than the pull-down
            // (W = 1/3 ⇒ R_pu = 3R vs R_pd = 3R/4).
            transistors += 1;
            area += 1.0 / 3.0;
            c_out += 1.0 / 3.0;
        }
    }

    // Pass-transistor *static* needs a restoration inverter to regain
    // full swing (Sec. 3.2); its input loads the network output.
    let restoration_inv = family == LogicFamily::PassStatic;
    if restoration_inv {
        transistors += 2;
        area += 2.0;
        c_out += family.inverter_input_cap();
    }

    let c_inv = family.inverter_input_cap();
    let rbar = family.mean_drive_resistance();
    let inv_stage = if restoration_inv { 5.0 } else { 0.0 }; // FO4 of the restoring inverter

    let pin_fo4: BTreeMap<u8, f64> = pins
        .iter()
        .map(|(&v, &c)| (v, rbar * (c_out + 4.0 * c) / c_inv + inv_stage))
        .collect();
    let fo4_worst = pin_fo4.values().fold(0.0f64, |a, &b| a.max(b));
    let fo4_avg = pin_fo4.values().sum::<f64>() / pin_fo4.len() as f64;

    // Output inverter that gives every cell both polarities
    // (Sec. 4.3): adds its transistors/area, and its input cap loads
    // the gate output.
    let transistors_with_inv = transistors + 2;
    let area_with_inv = area + family.output_inverter_area();
    let fo4_avg_with_inv = fo4_avg + rbar * family.inverter_input_cap() / c_inv;

    Some(GateChar {
        gate,
        family,
        transistors,
        area,
        fo4_worst,
        fo4_avg,
        pin_fo4,
        pin_cap: pins,
        output_cap: c_out,
        transistors_with_inv,
        area_with_inv,
        fo4_avg_with_inv,
    })
}

/// Characterizes every gate the family supports, in Table 1 order.
pub fn characterize_family(family: LogicFamily) -> Vec<GateChar> {
    GateId::all().filter_map(|g| characterize(g, family)).collect()
}

/// Family-average figures (the "Av." rows of Table 2).
#[derive(Debug, Clone, Copy)]
pub struct FamilyAverages {
    /// Mean transistor count.
    pub transistors: f64,
    /// Mean normalized area.
    pub area: f64,
    /// Mean worst-case FO4.
    pub fo4_worst: f64,
    /// Mean average FO4.
    pub fo4_avg: f64,
    /// Mean transistor count with output inverters.
    pub transistors_with_inv: f64,
    /// Mean area with output inverters.
    pub area_with_inv: f64,
    /// Mean average FO4 with output inverters.
    pub fo4_avg_with_inv: f64,
}

/// Averages a characterized family.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn family_averages(chars: &[GateChar]) -> FamilyAverages {
    assert!(!chars.is_empty(), "no characterized gates");
    let n = chars.len() as f64;
    FamilyAverages {
        transistors: chars.iter().map(|c| c.transistors as f64).sum::<f64>() / n,
        area: chars.iter().map(|c| c.area).sum::<f64>() / n,
        fo4_worst: chars.iter().map(|c| c.fo4_worst).sum::<f64>() / n,
        fo4_avg: chars.iter().map(|c| c.fo4_avg).sum::<f64>() / n,
        transistors_with_inv: chars.iter().map(|c| c.transistors_with_inv as f64).sum::<f64>() / n,
        area_with_inv: chars.iter().map(|c| c.area_with_inv).sum::<f64>() / n,
        fo4_avg_with_inv: chars.iter().map(|c| c.fo4_avg_with_inv).sum::<f64>() / n,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn get(g: usize, f: LogicFamily) -> GateChar {
        characterize(GateId::new(g), f).unwrap()
    }

    #[track_caller]
    fn close(actual: f64, expected: f64, tol: f64, what: &str) {
        assert!(
            (actual - expected).abs() <= tol,
            "{what}: got {actual:.3}, paper says {expected:.3}"
        );
    }

    /// Exact reproductions of Table 2, CNTFET TG static column.
    #[test]
    fn table2_tg_static_exact_rows() {
        // (gate, T, A, FO4 worst, FO4 avg)
        let rows = [
            (0, 2, 2.0, 5.0, 5.0),
            (1, 4, 8.0 / 3.0, 4.0, 4.0),
            (2, 4, 6.0, 8.0, 8.0),
            (3, 4, 6.0, 8.0, 8.0),
            (8, 8, 8.0, 20.0 / 3.0, 20.0 / 3.0),
            (10, 6, 12.0, 11.0, 11.0),
            (13, 6, 12.0, 11.0, 11.0),
            (16, 12, 16.0, 20.0, 12.0),
            (42, 12, 16.0, 28.0 / 3.0, 28.0 / 3.0),
        ];
        for (g, t, a, w, avg) in rows {
            let c = get(g, LogicFamily::TgStatic);
            assert_eq!(c.transistors, t, "F{g:02} T");
            close(c.area, a, 1e-9, &format!("F{g:02} area"));
            close(c.fo4_worst, w, 1e-9, &format!("F{g:02} worst"));
            close(c.fo4_avg, avg, 1e-9, &format!("F{g:02} avg"));
        }
    }

    /// Rows where the paper rounds or differs by ordering detail:
    /// match within a small tolerance.
    #[test]
    fn table2_tg_static_tolerance_rows() {
        let rows = [
            // (gate, T, A, worst, avg, tolW, tolA)
            (5, 6, 7.0, 8.2, 6.6, 0.1, 0.3),
            (4, 6, 7.0, 8.2, 6.6, 0.1, 0.3),
            (6, 8, 8.0, 10.7, 8.0, 0.1, 0.1),
            (7, 8, 8.0, 10.7, 8.0, 0.1, 0.1),
            (11, 6, 11.0, 10.5, 9.8, 0.1, 0.1),
            (12, 6, 11.0, 10.5, 9.8, 0.1, 0.1),
            (24, 10, 13.3, 12.3, 9.5, 0.1, 0.3),
        ];
        for (g, t, a, w, avg, tw, ta) in rows {
            let c = get(g, LogicFamily::TgStatic);
            assert_eq!(c.transistors, t, "F{g:02} T");
            close(c.area, a, 0.05, &format!("F{g:02} area"));
            close(c.fo4_worst, w, tw, &format!("F{g:02} worst"));
            close(c.fo4_avg, avg, ta, &format!("F{g:02} avg"));
        }
    }

    #[test]
    fn table2_cmos_rows() {
        // CMOS static column of Table 2.
        let rows = [
            (2, 4, 10.0, 26.0 / 3.0, 26.0 / 3.0), // NOR2 8.7
            (3, 4, 8.0, 22.0 / 3.0, 22.0 / 3.0),  // NAND2 7.3
            (10, 6, 21.0, 37.0 / 3.0, 37.0 / 3.0), // NOR3 12.3
            (13, 6, 15.0, 29.0 / 3.0, 29.0 / 3.0), // NAND3 9.7
            (11, 6, 16.0, 10.5, 59.0 / 6.0),      // OAI21 10.5 / 9.8
            (12, 6, 17.0, 10.5, 59.0 / 6.0),      // AOI21 (paper: 10.3/9.9)
        ];
        for (g, t, a, w, avg) in rows {
            let c = get(g, LogicFamily::CmosStatic);
            assert_eq!(c.transistors, t, "F{g:02} T");
            close(c.area, a, 1e-9, &format!("F{g:02} area"));
            close(c.fo4_worst, w, 0.21, &format!("F{g:02} worst"));
            close(c.fo4_avg, avg, 0.1, &format!("F{g:02} avg"));
        }
        // Inverter: the computed area is 3 (Wp=2 + Wn=1); the paper
        // prints 2, which disagrees with its own sizing rule. Delay
        // matches exactly.
        let inv = get(0, LogicFamily::CmosStatic);
        close(inv.area, 3.0, 1e-9, "CMOS inverter area (computed)");
        close(inv.fo4_worst, 5.0, 1e-9, "CMOS inverter FO4");
    }

    #[test]
    fn table2_tg_pseudo_rows() {
        let rows = [
            (0, 2, 5.0 / 3.0, 7.0, 7.0),
            (1, 3, 19.0 / 9.0, 17.0 / 3.0, 17.0 / 3.0),
            (2, 3, 3.0, 25.0 / 3.0, 25.0 / 3.0),
            (3, 3, 17.0 / 3.0, 41.0 / 3.0, 41.0 / 3.0),
            (16, 7, 17.0 / 3.0, 49.0 / 3.0, 11.0),
        ];
        for (g, t, a, w, avg) in rows {
            let c = get(g, LogicFamily::TgPseudo);
            assert_eq!(c.transistors, t, "F{g:02} T");
            close(c.area, a, 1e-9, &format!("F{g:02} area"));
            close(c.fo4_worst, w, 1e-9, &format!("F{g:02} worst"));
            close(c.fo4_avg, avg, 1e-9, &format!("F{g:02} avg"));
        }
    }

    #[test]
    fn table2_pass_pseudo_rows() {
        let rows = [
            (0, 2, 5.0 / 3.0, 7.0),
            (1, 2, 3.0, 41.0 / 3.0),
            (2, 3, 3.0, 25.0 / 3.0),
            (3, 3, 17.0 / 3.0, 41.0 / 3.0),
        ];
        for (g, t, a, w) in rows {
            let c = get(g, LogicFamily::PassPseudo);
            assert_eq!(c.transistors, t, "F{g:02} T");
            close(c.area, a, 1e-9, &format!("F{g:02} area"));
            close(c.fo4_worst, w, 1e-9, &format!("F{g:02} worst"));
        }
        // Fewer transistors than TG pseudo on XOR-bearing gates.
        let tg = get(9, LogicFamily::TgPseudo);
        let pass = get(9, LogicFamily::PassPseudo);
        assert!(pass.transistors < tg.transistors);
    }

    #[test]
    fn with_inverter_overheads() {
        let c = get(5, LogicFamily::TgStatic);
        assert_eq!(c.transistors_with_inv, c.transistors + 2);
        close(c.area_with_inv, c.area + 2.0, 1e-12, "static inv area");
        close(c.fo4_avg_with_inv, c.fo4_avg + 1.0, 1e-12, "static inv delay");
        let p = get(5, LogicFamily::TgPseudo);
        close(p.area_with_inv, p.area + 5.0 / 3.0, 1e-12, "pseudo inv area");
        close(p.fo4_avg_with_inv, p.fo4_avg + 2.0, 1e-12, "pseudo inv delay");
    }

    #[test]
    fn family_averages_reproduce_table2_footer() {
        // Paper: TG static averages T 9.1, A 12.3, FO4(a) 9.0.
        let avg = family_averages(&characterize_family(LogicFamily::TgStatic));
        close(avg.transistors, 9.1, 0.2, "TG static mean T");
        close(avg.area, 12.3, 0.6, "TG static mean area");
        close(avg.fo4_avg, 9.0, 0.6, "TG static mean FO4(a)");
        // Pseudo is ~31% smaller and ~33% slower (Sec. 4.3).
        let ps = family_averages(&characterize_family(LogicFamily::TgPseudo));
        let area_ratio = ps.area / avg.area;
        close(area_ratio, 0.69, 0.06, "pseudo/static area ratio");
        assert!(ps.fo4_avg > avg.fo4_avg, "pseudo must be slower");
        // CMOS supports only 7 gates.
        let cmos = characterize_family(LogicFamily::CmosStatic);
        assert_eq!(cmos.len(), 7);
        let cm = family_averages(&cmos);
        close(cm.fo4_avg, 9.0, 1.0, "CMOS mean FO4(a)");
    }

    #[test]
    fn cmos_skips_xor_gates() {
        assert!(characterize(GateId::new(1), LogicFamily::CmosStatic).is_none());
        assert!(characterize(GateId::new(5), LogicFamily::CmosStatic).is_none());
        assert!(characterize(GateId::new(12), LogicFamily::CmosStatic).is_some());
    }

    #[test]
    fn every_family_characterizes_all_supported_gates() {
        assert_eq!(characterize_family(LogicFamily::TgStatic).len(), 46);
        assert_eq!(characterize_family(LogicFamily::TgPseudo).len(), 46);
        assert_eq!(characterize_family(LogicFamily::PassPseudo).len(), 46);
        assert_eq!(characterize_family(LogicFamily::PassStatic).len(), 46);
        assert_eq!(characterize_family(LogicFamily::CmosStatic).len(), 7);
    }
}
