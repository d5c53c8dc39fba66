//! Technology libraries for mapping: characterized cells with
//! functions, areas and pin delays, plus a genlib-style text export.

use crate::chars::{characterize, GateChar};
use crate::family::LogicFamily;
use crate::functions::GateId;
use cntfet_boolfn::{factor, isop, npn_canonical, NpnTransform, TruthTable};
use std::collections::HashMap;

/// A mappable library cell.
///
/// The stored `function` is the Table 1 pull-down function `f`; the
/// physical cell computes `f'` and, through its output inverter, `f`
/// as well — CNTFET cells therefore provide both output polarities,
/// while CMOS cells provide only `f'`.
#[derive(Debug, Clone)]
pub struct Cell {
    /// Cell name (e.g. `F05`).
    pub name: String,
    /// Source gate.
    pub gate: GateId,
    /// Pull-down function over `num_inputs` variables.
    pub function: TruthTable,
    /// Number of input signals.
    pub num_inputs: usize,
    /// Normalized area used during mapping.
    pub area: f64,
    /// Per-pin FO4 delay (τ units) used during mapping.
    pub pin_delay: Vec<f64>,
    /// Per-pin input capacitance (unit-transistor widths).
    pub pin_cap: Vec<f64>,
    /// Output-node capacitance (parasitics, plus the output inverter
    /// for CNTFET cells).
    pub output_cap: f64,
    /// Average FO4 delay.
    pub delay_avg: f64,
}

impl Cell {
    /// Fastest input pin's FO4 delay (τ units) — the lower bound any
    /// signal through this cell pays. Arrival-aware cut ranking uses
    /// the per-pin delays directly; this is the summary for estimates
    /// and reporting.
    pub fn best_pin_delay(&self) -> f64 {
        self.pin_delay.iter().copied().fold(f64::INFINITY, f64::min)
    }

    /// Slowest input pin's FO4 delay (τ units) — the worst case a
    /// signal through this cell pays.
    pub fn worst_pin_delay(&self) -> f64 {
        self.pin_delay.iter().copied().fold(0.0, f64::max)
    }
}

/// A characterized technology library.
#[derive(Debug, Clone)]
pub struct Library {
    family: LogicFamily,
    cells: Vec<Cell>,
    inverter_area: f64,
    inverter_delay: f64,
    /// NPN matching index, built once per library: canonical truth
    /// table → every (cell, transform cell→canonical) in that class.
    npn_index: HashMap<TruthTable, Vec<(usize, NpnTransform)>>,
    /// Per input count `k`, bitmask of the normalized popcounts
    /// `min(ones, 2^k − ones)` the library's `k`-input cells realize —
    /// see [`Library::npn_popcount_feasible`].
    pc_classes: [u64; 7],
    /// NPN cofactor signatures of the library's cells — see
    /// [`Library::npn_cofactor_feasible`].
    cof_classes: std::collections::HashSet<u64>,
}

/// Packed NPN-invariant signature of a `k`-input function given as a
/// replicated word: the normalized ones-count plus the sorted
/// multiset of per-variable `min(c0, c1)` cofactor ones-counts,
/// minimized over output polarity. Input negation swaps one `(c0,c1)`
/// pair, permutation reorders the multiset, output negation
/// complements every count — all leave the key invariant, so equal
/// NPN classes have equal keys.
fn npn_cof_key(k: usize, word: u64) -> u64 {
    let shift = 6 - k;
    let pc = (word.count_ones() >> shift) as u64;
    let full = 1u64 << k;
    let half = full >> 1;
    let mut ms = [0u64; 6];
    for (v, m) in ms.iter_mut().enumerate().take(k) {
        let c1 = (word & cntfet_boolfn::word::var_word(v)).count_ones() as u64 >> shift;
        *m = c1.min(pc - c1);
    }
    ms[..k].sort_unstable();
    let pack = |pcn: u64, ms: &[u64; 6]| {
        let mut key = (k as u64) << 50 | pcn << 42;
        for (i, &m) in ms.iter().enumerate().take(k) {
            key |= m << (7 * i);
        }
        key
    };
    // The output-complemented function's multiset is the same list
    // shifted by `half − pc` element-wise (its min(c0,c1) is
    // `half − max(c0,c1)` and `c0 + c1 = pc`), so both polarities pack
    // without re-sorting; take the smaller key. `m + half ≥ pc` always
    // (`half ≥ max(c0,c1) = pc − m`), so the subtraction is safe.
    let mut ms_f = [0u64; 6];
    for (mf, &m) in ms_f.iter_mut().zip(&ms).take(k) {
        *mf = m + half - pc;
    }
    pack(pc, &ms).min(pack(full - pc, &ms_f))
}

fn build_npn_index(cells: &[Cell]) -> HashMap<TruthTable, Vec<(usize, NpnTransform)>> {
    let mut index: HashMap<TruthTable, Vec<(usize, NpnTransform)>> = HashMap::new();
    for (i, cell) in cells.iter().enumerate() {
        let canon = npn_canonical(&cell.function);
        index.entry(canon.table).or_default().push((i, canon.transform));
    }
    index
}

fn build_pc_classes(cells: &[Cell]) -> [u64; 7] {
    let mut pc = [0u64; 7];
    for cell in cells {
        let k = cell.num_inputs;
        let ones = cell.function.count_ones();
        pc[k] |= 1 << ones.min((1u64 << k) - ones);
    }
    pc
}

fn build_cof_classes(cells: &[Cell]) -> std::collections::HashSet<u64> {
    cells
        .iter()
        .map(|cell| npn_cof_key(cell.num_inputs, cell.function.bits()))
        .collect()
}

impl Library {
    /// Builds the library for a family.
    ///
    /// CNTFET cells carry their output inverter (area and delay
    /// overhead included) so both output polarities are free during
    /// mapping; the CMOS library prices inverters separately.
    pub fn new(family: LogicFamily) -> Library {
        let mut cells = Vec::new();
        for gate in GateId::all() {
            let Some(ch) = characterize(gate, family) else { continue };
            cells.push(Self::cell_from_char(&ch, family));
        }
        let inv = characterize(GateId::new(0), family).expect("inverter always exists");
        let (inverter_area, inverter_delay) = if family.is_cntfet() {
            // Both polarities already provided by every cell.
            (ch_area(&inv, family), inv.fo4_avg)
        } else {
            (inv.area, inv.fo4_avg)
        };
        let npn_index = build_npn_index(&cells);
        let pc_classes = build_pc_classes(&cells);
        let cof_classes = build_cof_classes(&cells);
        Library { family, cells, inverter_area, inverter_delay, npn_index, pc_classes, cof_classes }
    }

    fn cell_from_char(ch: &GateChar, family: LogicFamily) -> Cell {
        let expr = ch.gate.function();
        let k = expr.max_var_excl().max(1);
        let function = expr.to_tt(k);
        let with_inv = family.is_cntfet();
        let delay_overhead = if with_inv { family.mean_drive_resistance() } else { 0.0 };
        let pin_delay: Vec<f64> = (0..k as u8)
            .map(|v| ch.pin_fo4.get(&v).copied().unwrap_or(ch.fo4_avg) + delay_overhead)
            .collect();
        let pin_cap: Vec<f64> = (0..k as u8)
            .map(|v| ch.pin_cap.get(&v).copied().unwrap_or(0.0))
            .collect();
        // CNTFET cells carry their output inverter: its input gate cap
        // loads the internal node and its drains load the output.
        let output_cap = if with_inv {
            ch.output_cap + 2.0 * family.inverter_input_cap()
        } else {
            ch.output_cap
        };
        Cell {
            name: ch.gate.to_string(),
            gate: ch.gate,
            function,
            num_inputs: k,
            area: if with_inv { ch.area_with_inv } else { ch.area },
            pin_delay,
            pin_cap,
            output_cap,
            delay_avg: if with_inv { ch.fo4_avg_with_inv } else { ch.fo4_avg },
        }
    }

    /// The family this library implements.
    pub fn family(&self) -> LogicFamily {
        self.family
    }

    /// All cells.
    pub fn cells(&self) -> &[Cell] {
        &self.cells
    }

    /// Technology intrinsic delay τ in picoseconds.
    pub fn tau_ps(&self) -> f64 {
        self.family.tau_ps()
    }

    /// Area of an explicit inverter (used by CMOS mapping for
    /// polarity fixes; CNTFET cells never need one).
    pub fn inverter_area(&self) -> f64 {
        self.inverter_area
    }

    /// Delay of an explicit inverter in τ units.
    pub fn inverter_delay(&self) -> f64 {
        self.inverter_delay
    }

    /// True when cells provide both output polarities and accept both
    /// input polarities at no cost (ambipolar CNTFET libraries).
    pub fn free_polarity(&self) -> bool {
        self.family.is_cntfet()
    }

    /// Every `(cell index, transform cell→canonical)` whose function
    /// is NPN-equivalent to the given canonical table — a single hash
    /// lookup into the index precomputed at library construction.
    pub fn npn_matches(&self, canonical: &TruthTable) -> &[(usize, NpnTransform)] {
        self.npn_index.get(canonical).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Number of distinct NPN classes across the library's cells.
    pub fn num_npn_classes(&self) -> usize {
        self.npn_index.len()
    }

    /// Constant-time necessary condition for NPN matching: input
    /// negations and permutations preserve a function's ones-count and
    /// output negation complements it, so `min(ones, 2^k − ones)` is
    /// an NPN-class invariant. A function of `nvars` inputs with
    /// `ones` minterms can match a cell only if some `nvars`-input
    /// cell shares the invariant. Boolean matchers check this before
    /// paying for canonicalization — the hot path of arrival-aware cut
    /// ranking, where most enumerated cut functions match nothing.
    pub fn npn_popcount_feasible(&self, nvars: usize, ones: u64) -> bool {
        nvars < self.pc_classes.len()
            && self.pc_classes[nvars] >> ones.min((1u64 << nvars) - ones) & 1 == 1
    }

    /// Stronger constant-time necessary condition for NPN matching
    /// than [`Library::npn_popcount_feasible`]: the sorted multiset of
    /// per-variable cofactor ones-counts (normalized over output
    /// polarity) is also an NPN-class invariant. `word` is the
    /// function's replicated single-word truth table over `nvars ≤ 6`
    /// inputs. False means *no* library cell can NPN-match the
    /// function; true means canonicalization must decide.
    pub fn npn_cofactor_feasible(&self, nvars: usize, word: u64) -> bool {
        self.cof_classes.contains(&npn_cof_key(nvars, word))
    }

    /// A copy of the library keeping only the cells accepted by
    /// `keep` — used e.g. to restrict mapping to the gates a regular
    /// fabric's generalized blocks can realize in a single block.
    ///
    /// # Panics
    ///
    /// Panics if the filter removes every cell.
    pub fn filtered(&self, keep: impl Fn(&Cell) -> bool) -> Library {
        let cells: Vec<Cell> = self.cells.iter().filter(|c| keep(c)).cloned().collect();
        assert!(!cells.is_empty(), "filter removed every cell");
        let npn_index = build_npn_index(&cells);
        let pc_classes = build_pc_classes(&cells);
        let cof_classes = build_cof_classes(&cells);
        Library {
            family: self.family,
            cells,
            inverter_area: self.inverter_area,
            inverter_delay: self.inverter_delay,
            npn_index,
            pc_classes,
            cof_classes,
        }
    }

    /// Exports the library in a genlib-flavoured text format (the
    /// interface the paper used with SIS/ABC-style mappers).
    pub fn to_genlib(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "# {} library — tau = {} ps, {} cells\n",
            self.family,
            self.tau_ps(),
            self.cells.len()
        ));
        for c in &self.cells {
            // Output function f' in SOP form over pins A..F.
            let fprime = !c.function;
            let sop = factor(&isop(&fprime));
            out.push_str(&format!(
                "GATE {:8} {:7.3} Y={};  # avg FO4 {:.2} tau\n",
                c.name,
                c.area,
                format!("{sop}").replace('·', "*").replace('⊕', "^").replace(" + ", "+"),
                c.delay_avg,
            ));
            for (i, d) in c.pin_delay.iter().enumerate() {
                out.push_str(&format!(
                    "  PIN {} NONINV 1 999 {:.3} 0.0 {:.3} 0.0\n",
                    (b'A' + i as u8) as char,
                    d,
                    d
                ));
            }
        }
        out
    }
}

fn ch_area(ch: &GateChar, family: LogicFamily) -> f64 {
    if family.is_cntfet() {
        ch.area_with_inv
    } else {
        ch.area
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cntfet_static_library_has_46_cells() {
        let lib = Library::new(LogicFamily::TgStatic);
        assert_eq!(lib.cells().len(), 46);
        assert!(lib.free_polarity());
        assert_eq!(lib.tau_ps(), 0.59);
    }

    #[test]
    fn cmos_library_has_7_cells_and_priced_inverter() {
        let lib = Library::new(LogicFamily::CmosStatic);
        assert_eq!(lib.cells().len(), 7);
        assert!(!lib.free_polarity());
        assert!((lib.inverter_area() - 3.0).abs() < 1e-9);
        assert!((lib.inverter_delay() - 5.0).abs() < 1e-9);
        assert_eq!(lib.tau_ps(), 3.00);
    }

    #[test]
    fn cell_functions_and_pins_consistent() {
        let lib = Library::new(LogicFamily::TgStatic);
        for c in lib.cells() {
            assert_eq!(c.pin_delay.len(), c.num_inputs);
            assert_eq!(c.function.nvars(), c.num_inputs);
            assert!(c.area > 0.0);
            for &d in &c.pin_delay {
                assert!(d > 0.0);
                assert!(c.best_pin_delay() <= d && d <= c.worst_pin_delay());
            }
        }
        // F05 area includes the output inverter: 7 + 2 = 9.
        let f05 = lib.cells().iter().find(|c| c.name == "F05").unwrap();
        assert!((f05.area - 9.0).abs() < 1e-9);
    }

    #[test]
    fn npn_index_covers_every_cell() {
        let lib = Library::new(LogicFamily::TgStatic);
        assert!(lib.num_npn_classes() > 0);
        let mut indexed = 0;
        for (i, cell) in lib.cells().iter().enumerate() {
            let canon = npn_canonical(&cell.function);
            let entries = lib.npn_matches(&canon.table);
            assert!(entries.iter().any(|&(c, _)| c == i), "{} missing", cell.name);
            // Every stored transform maps its cell onto the canonical form.
            for &(c, t) in entries {
                assert_eq!(t.apply(&lib.cells()[c].function), canon.table);
            }
            indexed += 1;
        }
        assert_eq!(indexed, 46);
        // Filtering rebuilds the index for the surviving cells only.
        let two_input = lib.filtered(|c| c.num_inputs == 2);
        assert!(two_input.num_npn_classes() < lib.num_npn_classes());
    }

    #[test]
    fn npn_prefilters_accept_every_transformed_cell() {
        // The popcount and cofactor-signature pre-filters must be NPN
        // invariants: any transform of any cell function still passes
        // them, or matching would wrongly reject real matches.
        use cntfet_boolfn::NpnTransform;
        for family in [LogicFamily::TgStatic, LogicFamily::TgPseudo, LogicFamily::CmosStatic] {
            let lib = Library::new(family);
            for cell in lib.cells() {
                let k = cell.num_inputs;
                let perms: Vec<Vec<usize>> = vec![
                    (0..k).collect(),
                    (0..k).rev().collect(),
                    (0..k).map(|i| (i + 1) % k).collect(),
                ];
                for perm in &perms {
                    for flips in [0u8, 0b1, 0b101, (1u8 << k) - 1] {
                        for out in [false, true] {
                            let t = NpnTransform::new(k, perm, flips, out);
                            let g = t.apply(&cell.function);
                            let w = g.bits();
                            assert!(
                                lib.npn_popcount_feasible(k, g.count_ones()),
                                "{family:?}/{}: popcount filter rejected a transform",
                                cell.name
                            );
                            assert!(
                                lib.npn_cofactor_feasible(k, w),
                                "{family:?}/{}: cofactor filter rejected a transform",
                                cell.name
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn genlib_export_mentions_every_cell() {
        let lib = Library::new(LogicFamily::TgPseudo);
        let g = lib.to_genlib();
        for c in lib.cells() {
            assert!(g.contains(&c.name), "genlib missing {}", c.name);
        }
        assert!(g.contains("PIN A"));
    }
}
