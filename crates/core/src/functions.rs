//! The 46 gate functions of Table 1.
//!
//! Each entry is the *pull-down network function* `f`: the PD network
//! conducts exactly when `f` evaluates to 1 (so the raw cell output is
//! `f'`; every cell also carries an output inverter, making both
//! polarities available — see Sec. 4.3 of the paper).

use cntfet_boolfn::Expr;
use std::fmt;

/// Identifier of a gate in the paper's Table 1 (`F00` … `F45`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct GateId(u8);

impl GateId {
    /// Number of gates in the family.
    pub const COUNT: usize = 46;

    /// Creates a gate id.
    ///
    /// # Panics
    ///
    /// Panics if `i >= 46`.
    pub fn new(i: usize) -> GateId {
        assert!(i < Self::COUNT, "gate index out of range");
        GateId(i as u8)
    }

    /// All 46 gates in Table 1 order.
    pub fn all() -> impl Iterator<Item = GateId> {
        (0..Self::COUNT).map(GateId::new)
    }

    /// Index of the gate (0 for `F00`).
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// The pull-down network function from Table 1.
    pub fn function(self) -> Expr {
        TABLE1[self.index()]
            .parse()
            .expect("Table 1 expressions are well-formed")
    }

    /// Expression text exactly as printed in the paper's Table 1.
    pub fn function_text(self) -> &'static str {
        TABLE1[self.index()]
    }

    /// Number of distinct signals the function reads.
    pub fn num_signals(self) -> usize {
        self.function().support_size()
    }

    /// True iff the gate exists in plain CMOS with the same topology —
    /// the 7 functions the paper identifies (F00, F02, F03, F10–F13).
    pub fn in_cmos_subset(self) -> bool {
        matches!(self.0, 0 | 2 | 3 | 10 | 11 | 12 | 13)
    }

    /// The 7 gates implementable in static CMOS under the same
    /// topology constraints.
    pub fn cmos_subset() -> impl Iterator<Item = GateId> {
        Self::all().filter(|g| g.in_cmos_subset())
    }
}

impl fmt::Display for GateId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "F{:02}", self.0)
    }
}

/// Table 1 of the paper, verbatim.
const TABLE1: [&str; GateId::COUNT] = [
    /* F00 */ "A",
    /* F01 */ "A ⊕ B",
    /* F02 */ "A + B",
    /* F03 */ "A · B",
    /* F04 */ "(A ⊕ B) + C",
    /* F05 */ "(A ⊕ B) · C",
    /* F06 */ "(A ⊕ B) + (A ⊕ C)",
    /* F07 */ "(A ⊕ B) · (A ⊕ C)",
    /* F08 */ "(A ⊕ B) + (C ⊕ D)",
    /* F09 */ "(A ⊕ B) · (C ⊕ D)",
    /* F10 */ "A + B + C",
    /* F11 */ "(A + B) · C",
    /* F12 */ "A + (B · C)",
    /* F13 */ "A · B · C",
    /* F14 */ "(A ⊕ D) + B + C",
    /* F15 */ "(A ⊕ D) + (B ⊕ D) + C",
    /* F16 */ "(A ⊕ D) + (B ⊕ D) + (C ⊕ D)",
    /* F17 */ "((A ⊕ D) + B) · C",
    /* F18 */ "((A ⊕ D) + (B ⊕ D)) · C",
    /* F19 */ "((A ⊕ D) + B) · (C ⊕ D)",
    /* F20 */ "((A ⊕ D) + (B ⊕ D)) · (C ⊕ D)",
    /* F21 */ "(A + B) · (C ⊕ D)",
    /* F22 */ "(A ⊕ D) + (B · C)",
    /* F23 */ "A + (B ⊕ D) · C",
    /* F24 */ "(A ⊕ D) + (B ⊕ D) · C",
    /* F25 */ "A + (B ⊕ D) · (C ⊕ D)",
    /* F26 */ "(A ⊕ D) + ((B ⊕ D) · (C ⊕ D))",
    /* F27 */ "(A ⊕ D) · B · C",
    /* F28 */ "(A ⊕ D) · (B ⊕ D) · C",
    /* F29 */ "(A ⊕ D) · (B ⊕ D) · (C ⊕ D)",
    /* F30 */ "(A ⊕ D) + (B ⊕ E) + C",
    /* F31 */ "(A ⊕ D) + (B ⊕ D) + (C ⊕ E)",
    /* F32 */ "((A ⊕ D) + (B ⊕ E)) · C",
    /* F33 */ "((A ⊕ D) + B) · (C ⊕ E)",
    /* F34 */ "((A ⊕ D) + (B ⊕ D)) · (C ⊕ E)",
    /* F35 */ "((A ⊕ D) + (B ⊕ E)) · (C ⊕ D)",
    /* F36 */ "(A ⊕ D) + ((B ⊕ E) · C)",
    /* F37 */ "A + ((B ⊕ D) · (C ⊕ E))",
    /* F38 */ "(A ⊕ D) + ((B ⊕ E) · (C ⊕ E))",
    /* F39 */ "(A ⊕ D) + ((B ⊕ E) · (C ⊕ D))",
    /* F40 */ "(A ⊕ D) · (B ⊕ E) · C",
    /* F41 */ "(A ⊕ D) · (B ⊕ D) · (C ⊕ E)",
    /* F42 */ "(A ⊕ D) + (B ⊕ E) + (C ⊕ F)",
    /* F43 */ "((A ⊕ D) + (B ⊕ E)) · (C ⊕ F)",
    /* F44 */ "(A ⊕ D) + ((B ⊕ E) · (C ⊕ F))",
    /* F45 */ "(A ⊕ D) · (B ⊕ E) · (C ⊕ F)",
];

#[cfg(test)]
mod tests {
    use super::*;
    use cntfet_boolfn::npn_canonical;
    use std::collections::HashSet;

    #[test]
    fn all_46_parse_and_are_distinct_functions() {
        let mut seen = HashSet::new();
        for g in GateId::all() {
            let e = g.function();
            // Canonical key over 6 variables so different supports
            // remain comparable.
            let tt = e.to_tt(6);
            assert!(seen.insert(tt), "{g} duplicates another entry");
        }
        assert_eq!(seen.len(), 46);
    }

    #[test]
    fn cmos_subset_is_the_paper_seven() {
        let ids: Vec<String> = GateId::cmos_subset().map(|g| g.to_string()).collect();
        assert_eq!(ids, ["F00", "F02", "F03", "F10", "F11", "F12", "F13"]);
        // None of them contains an XOR.
        for g in GateId::cmos_subset() {
            assert!(!g.function_text().contains('⊕'));
        }
    }

    #[test]
    fn spot_check_semantics() {
        // F05 = (A⊕B)·C at A=1,B=0,C=1.
        let f05 = GateId::new(5).function();
        assert!(f05.eval(0b101));
        assert!(!f05.eval(0b111));
        // F16 = (A⊕D)+(B⊕D)+(C⊕D): all-equal inputs give 0.
        let f16 = GateId::new(16).function();
        assert!(!f16.eval(0b0000));
        assert!(!f16.eval(0b1111));
        assert!(f16.eval(0b0001));
    }

    #[test]
    fn signal_counts_match_paper_structure() {
        // F00 has 1 signal; F42/F45 use 6.
        assert_eq!(GateId::new(0).num_signals(), 1);
        assert_eq!(GateId::new(42).num_signals(), 6);
        assert_eq!(GateId::new(45).num_signals(), 6);
        for g in GateId::all() {
            assert!(g.num_signals() <= 6);
        }
    }

    #[test]
    fn gates_cover_24_npn_classes() {
        // The 46 gates are distinct as cells (NP-equivalence: input
        // renaming/complementation) but AND/OR duals share NPN classes
        // through output complementation — the family spans exactly 24
        // NPN classes of up to 6 variables.
        let mut classes = HashSet::new();
        for g in GateId::all() {
            let e = g.function();
            classes.insert(npn_canonical(&e.to_tt(6)).table);
        }
        assert_eq!(classes.len(), 24, "NPN class count changed");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_index_rejected() {
        let _ = GateId::new(46);
    }
}
