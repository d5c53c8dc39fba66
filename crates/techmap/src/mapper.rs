//! Cut-based technology mapping onto a characterized library.
//!
//! The flow mirrors what the paper obtains from ABC + genlib
//! (Sec. 4.4), structured as explicit passes over arena-backed
//! priority cuts:
//!
//! 1. **candidate generation** — every cut's in-pass function word is
//!    support-compacted and resolved against the library's
//!    precomputed NPN index (hash lookup + transform replay);
//! 2. **forward pass** — delay-optimal ([`Objective::Delay`],
//!    [`Objective::Balanced`]) or area-flow-first
//!    ([`Objective::Area`]);
//! 3. **area recovery** — area-flow rounds under required times,
//!    then one exact-area round that re-evaluates each choice against
//!    the real reference counts of the current cover.
//!
//! Polarity handling is the paper's key asymmetry:
//!
//! * **CNTFET libraries** put an output inverter in every cell, so
//!   both polarities of every signal exist and complemented edges are
//!   free (their cost is already inside the cell's area/delay).
//! * **CMOS** pays an explicit inverter whenever a consumer needs the
//!   polarity a driver does not produce; the mapper tracks a physical
//!   *phase* per mapped node and charges/dedups inverters per driver.

use crate::matcher::Matcher;
use cntfet_aig::{
    enumerate_cuts_custom, enumerate_cuts_with, Aig, CutArena, CutParams, CutRank, NodeId,
};
use cntfet_boolfn::word;
use cntfet_core::Library;

/// Where a mapped-gate pin comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Source {
    /// Primary input (by PI index).
    Pi(usize),
    /// Output of the mapped gate rooted at an AIG node.
    Node(NodeId),
}

/// One instantiated library cell.
#[derive(Debug, Clone)]
pub struct MappedGate {
    /// AIG node this gate implements.
    pub root: NodeId,
    /// Library cell index.
    pub cell: usize,
    /// Per cell pin: source and whether the pin receives the
    /// complement of the source's *logical* value.
    pub pins: Vec<(Source, bool)>,
    /// The node value equals the cell function complemented iff set.
    pub out_compl: bool,
    /// Leaves of the cut the cell was matched on (at most 6 AIG nodes,
    /// sorted). They can be more than the pins name: the matcher drops
    /// leaves the cut function does not depend on. A pin's source is
    /// one of these leaves, possibly reached through wires (see
    /// [`Mapping::wires`]). [`crate::verify_mapping`] proves the gate
    /// by comparing truth tables over them.
    pub leaves: Vec<NodeId>,
}

/// Binding of a primary output.
#[derive(Debug, Clone, Copy)]
pub enum PoBinding {
    /// Constant output.
    Const(bool),
    /// Driven by a source, optionally complemented.
    Signal(Source, bool),
}

/// Summary statistics in the units of the paper's Table 3.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MapStats {
    /// Number of gates (inverters included for CMOS).
    pub gates: usize,
    /// Explicit inverters (CMOS only; 0 for CNTFET).
    pub inverters: usize,
    /// Normalized area (unit-transistor units).
    pub area: f64,
    /// Logic depth in cells (inverters count a level).
    pub levels: u32,
    /// Critical-path delay in τ units.
    pub delay_norm: f64,
    /// Absolute delay in picoseconds (τ-scaled by family).
    pub delay_ps: f64,
}

/// A technology-mapped netlist.
#[derive(Debug, Clone)]
pub struct Mapping {
    /// Instantiated gates in topological order.
    pub gates: Vec<MappedGate>,
    /// Primary-output bindings.
    pub pos: Vec<PoBinding>,
    /// The wire aliases the cover resolves through, in node order: an
    /// AIG node whose chosen cut computes a single leaf or its
    /// complement, so pins and outputs that reach it bind to that
    /// leaf's source instead of a gate. Each entry is the alias node
    /// and its cut's leaves; [`crate::verify_mapping`] proves each one
    /// before trusting a binding that goes through it.
    pub wires: Vec<(NodeId, Vec<NodeId>)>,
    /// Statistics.
    pub stats: MapStats,
}

/// What the covering optimizes for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Objective {
    /// Minimize area: area-flow-first forward pass, unconstrained
    /// exact-area recovery (delay is a tie-break only).
    Area,
    /// Minimize delay: depth-ranked cuts, delay-optimal forward pass,
    /// recovery strictly fenced by the delay-pass required times.
    Delay,
    /// Delay-optimal forward pass with area recovery inside the slack
    /// (the paper's ABC-style default).
    #[default]
    Balanced,
}

/// Mapper options.
#[derive(Debug, Clone, Copy)]
pub struct MapOptions {
    /// Maximum cut size (≤ 6; the library's widest cell).
    pub cut_size: usize,
    /// Priority cuts kept per node.
    pub cuts_per_node: usize,
    /// Area-recovery rounds after the forward pass (each is one
    /// area-flow round; any positive count adds a final exact-area
    /// round on mapping references).
    pub area_rounds: usize,
    /// Arrival-aware re-enumeration rounds (see [`CutRank::Arrival`]):
    /// after the first cover, cuts are re-enumerated under the mapped
    /// arrival times of the previous round — ranked by the arrival of
    /// each cut's best library match, tie-broken on area-flow — and
    /// the covering passes rerun, keeping the better cover. Rounds run
    /// under [`Objective::Delay`] (or any objective when `cut_rank` is
    /// [`CutRank::Arrival`]) and stop early once the critical path
    /// stops improving; `0` reproduces the single-enumeration engine
    /// exactly.
    pub delay_rounds: usize,
    /// Ranking of the initial cut enumeration. [`CutRank::Size`]
    /// (default) keeps the richest candidate variety per node;
    /// [`CutRank::Depth`] prefers structurally shallow cuts;
    /// [`CutRank::Arrival`] enables the arrival-aware rounds for every
    /// objective (the first enumeration still ranks by size — mapped
    /// arrivals only exist after a first cover).
    pub cut_rank: CutRank,
    /// Covering objective.
    pub objective: Objective,
    /// Ignored: mapping runs on the calling thread only. The field
    /// stays only until the benchmark under `flowbench/` stops
    /// setting it; leave it at its default.
    pub jobs: usize,
}

impl Default for MapOptions {
    fn default() -> Self {
        MapOptions {
            cut_size: 6,
            cuts_per_node: 10,
            area_rounds: 2,
            delay_rounds: 2,
            cut_rank: CutRank::Size,
            objective: Objective::Balanced,
            jobs: 0,
        }
    }
}

const ALIAS: usize = usize::MAX;
const EPS: f64 = 1e-9;

/// A candidate implementation of a node.
#[derive(Debug, Clone)]
struct Cand {
    /// Library cell, or [`ALIAS`] for a wire/complement alias.
    cell: usize,
    /// Per pin: (leaf AIG node, complemented).
    pins: Vec<(NodeId, bool)>,
    /// Node = cell output ⊕ out_compl.
    out_compl: bool,
    /// Position of the matched cut in the node's cut list (saturating;
    /// [`extract`] copies that cut's leaves into the netlist).
    cut: u8,
}

/// Library-dependent constants of one mapping run.
struct Ctx<'a> {
    aig: &'a Aig,
    library: &'a Library,
    free_pol: bool,
    inv_delay: f64,
    inv_area: f64,
    fanout: Vec<u32>,
}

/// Mutable per-node selection state threaded through the passes.
struct Sel {
    /// Chosen candidate per node.
    choice: Vec<usize>,
    /// Physical-output arrival time.
    arr: Vec<f64>,
    /// Physical phase (CMOS: true = the signal is ¬node).
    phase: Vec<bool>,
    /// Area flow.
    aflow: Vec<f64>,
    /// Required time of the physical output.
    required: Vec<f64>,
    /// References in the current cover (base gate nodes only).
    nref: Vec<u32>,
}

/// The rollback state of one recovery round (see [`Sel::snapshot`]).
struct SelSnapshot {
    choice: Vec<usize>,
    arr: Vec<f64>,
    phase: Vec<bool>,
    aflow: Vec<f64>,
}

impl Sel {
    /// Captures the selection state a recovery round may be rolled
    /// back to (`required`/`nref` are per-round scratch).
    fn snapshot(&self) -> SelSnapshot {
        SelSnapshot {
            choice: self.choice.clone(),
            arr: self.arr.clone(),
            phase: self.phase.clone(),
            aflow: self.aflow.clone(),
        }
    }

    fn restore(&mut self, snap: SelSnapshot) {
        self.choice = snap.choice;
        self.arr = snap.arr;
        self.phase = snap.phase;
        self.aflow = snap.aflow;
    }
}

/// Selection rule of one forward pass.
#[derive(Clone, Copy, PartialEq)]
enum Mode {
    /// Minimize arrival, tie-break on area flow.
    Delay,
    /// Minimize area flow within required times.
    Flow,
    /// Minimize exact area (by reference counting) within required
    /// times.
    Exact,
}

/// Maps an AIG onto a library.
///
/// # Panics
///
/// Panics if some node cannot be matched (cannot occur with the
/// built-in libraries: every 2-input cut matches the AND/OR cells).
pub fn map(aig: &Aig, library: &Library, opts: MapOptions) -> Mapping {
    let mut matcher = Matcher::new(library);
    let cut_size = opts.cut_size.clamp(2, 6);
    // The first enumeration has no mapped arrivals to rank by, so
    // `CutRank::Arrival` starts from size ranking — which also keeps
    // the richest candidate variety per node; the paper's wide
    // XOR-capable cells make structurally deep cuts the fastest
    // implementations, so depth-ranked truncation would hurt even the
    // delay objective.
    let initial_rank = match opts.cut_rank {
        CutRank::Arrival => CutRank::Size,
        rank => rank,
    };
    let cuts = enumerate_cuts_with(
        aig,
        CutParams { k: cut_size, max_cuts: opts.cuts_per_node, rank: initial_rank },
    );
    let ctx = Ctx {
        aig,
        library,
        free_pol: library.free_polarity(),
        inv_delay: if library.free_polarity() { 0.0 } else { library.inverter_delay() },
        inv_area: if library.free_polarity() { 0.0 } else { library.inverter_area() },
        fanout: aig.fanout_counts(),
    };

    let cands = generate_cands(&ctx, &cuts, &mut matcher);
    let mut sel = run_cover(&ctx, &cands, &opts);
    let mut best = extract(&ctx, &cuts, &cands, &sel);
    #[cfg(feature = "paranoid")]
    {
        let r = crate::check::check_mapping(aig, &best, library);
        assert!(r.is_ok(), "paranoid: initial cover is corrupt: {r:?}");
    }

    // ---- arrival-aware delay rounds ----
    // Structural cut ranking is a poor proxy for mapped arrival: the
    // wide XOR cells make some deep cuts fast and some shallow cuts
    // slow. Once a first cover exists, its per-node arrival and
    // area-flow values let enumeration rank every candidate cut by the
    // arrival of its *best library match* (NPN index resolved in-loop,
    // area-flow tie-break), which re-enumerates the priority lists
    // around implementations that are actually fast. Iterate to a
    // fixed point, bounded by `delay_rounds`; every round is guarded —
    // a cover that does not improve (delay, then area at equal delay)
    // is discarded — so the result can never be worse than round 0,
    // the plain single-enumeration flow.
    let rounds = if opts.objective == Objective::Delay || opts.cut_rank == CutRank::Arrival {
        opts.delay_rounds
    } else {
        0
    };
    for _ in 0..rounds {
        let arr = sel.arr.clone();
        let aflow = sel.aflow.clone();
        let params = CutParams { k: cut_size, max_cuts: opts.cuts_per_node, rank: CutRank::Arrival };
        let mut support: Vec<usize> = Vec::with_capacity(6);
        let cuts = enumerate_cuts_custom(aig, params, |_root, leaves, tt| {
            arrival_cost(&ctx, &mut matcher, &mut support, &arr, &aflow, leaves, tt)
        });
        let new_cands = generate_cands(&ctx, &cuts, &mut matcher);
        let new_sel = run_cover(&ctx, &new_cands, &opts);
        let m = extract(&ctx, &cuts, &new_cands, &new_sel);
        #[cfg(feature = "paranoid")]
        {
            let r = crate::check::check_mapping(aig, &m, library);
            assert!(r.is_ok(), "paranoid: delay-round cover is corrupt: {r:?}");
        }
        // Accept in the objective's own order: area-first when area is
        // the sole objective (rounds reached via CutRank::Arrival),
        // delay-first otherwise — either way the kept cover dominates
        // round 0 on the primary metric.
        let improved = if opts.objective == Objective::Area {
            m.stats.area < best.stats.area - EPS
                || (m.stats.area < best.stats.area + EPS
                    && m.stats.delay_norm < best.stats.delay_norm - EPS)
        } else {
            m.stats.delay_norm < best.stats.delay_norm - EPS
                || (m.stats.delay_norm < best.stats.delay_norm + EPS
                    && m.stats.area < best.stats.area - EPS)
        };
        if !improved {
            break;
        }
        best = m;
        sel = new_sel;
    }
    best
}

/// Resolves every cut of every AND node against the library: NPN
/// matches become [`Cand`]s (single-support cuts become wire aliases).
///
/// # Panics
///
/// Panics if some node ends up without a candidate (the library lacks
/// a 2-input-complete cell set).
fn generate_cands(ctx: &Ctx<'_>, cuts: &CutArena, matcher: &mut Matcher<'_>) -> Vec<Vec<Cand>> {
    let aig = ctx.aig;
    let library = ctx.library;
    let mut cands: Vec<Vec<Cand>> = vec![Vec::new(); aig.num_nodes()];
    let mut support: Vec<usize> = Vec::with_capacity(6);
    for id in aig.and_ids() {
        let mut list = Vec::new();
        for (pos, cut) in cuts.of(id).enumerate() {
            if cut.size() < 2 {
                continue;
            }
            let pos = u8::try_from(pos).unwrap_or(u8::MAX);
            let w = cut.function_word().expect("mapping cuts stay within one word");
            // Compact onto the true support.
            word::support(w, cut.size(), &mut support);
            match support.len() {
                0 => continue, // constant cone: handled by strash upstream
                1 => {
                    // The node is a (possibly complemented) wire.
                    let compl = w >> (1u64 << support[0]) & 1 == 0;
                    list.push(Cand {
                        cell: ALIAS,
                        pins: vec![(cut.leaves()[support[0]], compl)],
                        out_compl: false,
                        cut: pos,
                    });
                }
                k => {
                    let compact = word::shrink_to(w, &support);
                    for m in matcher.matches_word(k, compact) {
                        let cell = &library.cells()[m.cell];
                        let pins: Vec<(NodeId, bool)> = (0..cell.num_inputs)
                            .map(|pin| {
                                (
                                    cut.leaves()[support[m.transform.perm(pin)]],
                                    m.transform.input_flipped(pin),
                                )
                            })
                            .collect();
                        list.push(Cand {
                            cell: m.cell,
                            pins,
                            out_compl: m.transform.output_flipped(),
                            cut: pos,
                        });
                    }
                }
            }
        }
        assert!(!list.is_empty(), "no candidate for node {id:?} — library incomplete");
        cands[id.index()] = list;
    }
    cands
}

/// Runs the covering pass pipeline — forward pass, area-flow recovery
/// under required times, exact-area refinement — over a fixed
/// candidate set and returns the final per-node selection.
fn run_cover(ctx: &Ctx<'_>, cands: &[Vec<Cand>], opts: &MapOptions) -> Sel {
    let n = ctx.aig.num_nodes();
    let mut sel = Sel {
        choice: vec![0; n],
        arr: vec![0.0; n],
        phase: vec![false; n],
        aflow: vec![0.0; n],
        required: vec![f64::INFINITY; n],
        nref: vec![0; n],
    };

    // Forward pass: delay-optimal, unless area is the sole objective.
    let mode0 = if opts.objective == Objective::Area { Mode::Flow } else { Mode::Delay };
    select_pass(ctx, cands, &mut sel, mode0, opts.objective);

    if opts.area_rounds > 0 {
        // Required times are the standard (heuristically stale) fence;
        // under the strict delay objective every recovery round is
        // additionally transactional — rolled back wholesale if it
        // pushed the cover past the frozen delay-pass target.
        let strict = opts.objective == Objective::Delay;
        let mut target = f64::INFINITY;
        let round = |sel: &mut Sel, mode: Mode, target: &mut f64| {
            prepare_required(ctx, cands, sel, opts.objective, target);
            let snap = strict.then(|| sel.snapshot());
            if mode == Mode::Exact {
                compute_refs(ctx, cands, sel);
            }
            select_pass(ctx, cands, sel, mode, opts.objective);
            if let Some(snap) = snap {
                if cover_delay(ctx, sel) > *target + EPS {
                    sel.restore(snap);
                }
            }
        };
        for _ in 0..opts.area_rounds {
            round(&mut sel, Mode::Flow, &mut target);
        }
        // Exact-area refinement is sound only under free polarity:
        // with explicit CMOS inverters, a choice switch flips phases
        // downstream, which re-prices inverters the reference counts
        // cannot see — so CMOS stops at area flow.
        if ctx.free_pol {
            round(&mut sel, Mode::Exact, &mut target);
        }
    }
    sel
}

/// Quantization scale turning τ-unit arrivals and area-flows into the
/// integer ranking costs cut enumeration consumes (LSB = 1/256 τ).
const RANK_SCALE: f64 = 256.0;

/// Ranking oracle of the arrival-aware delay rounds: the cost of a
/// cut is the mapped arrival time of its *best library match* under
/// the previous cover's per-node arrivals (primary), tie-broken on
/// that match's area-flow (secondary). Single-support cuts are free
/// wires; cuts no single cell implements rank last (they survive only
/// through the always-kept fanin-pair fallback).
fn arrival_cost(
    ctx: &Ctx<'_>,
    matcher: &mut Matcher<'_>,
    support: &mut Vec<usize>,
    arr: &[f64],
    aflow: &[f64],
    leaves: &[NodeId],
    tt: u64,
) -> (u32, u32) {
    let quant = |x: f64| (x * RANK_SCALE).round().clamp(0.0, u32::MAX as f64 - 1.0) as u32;
    word::support(tt, leaves.len(), support);
    let (best_arr, best_flow) = match support.len() {
        0 => (0.0, 0.0), // constant cone — free
        1 => {
            let leaf = leaves[support[0]];
            (arr[leaf.index()], aflow[leaf.index()]) // wire alias — free
        }
        k => {
            let compact = word::shrink_to(tt, support);
            let mut best = (f64::INFINITY, f64::INFINITY);
            for m in matcher.matches_word(k, compact) {
                let cell = &ctx.library.cells()[m.cell];
                let mut a = 0.0f64;
                let mut flow = cell.area;
                for pin in 0..cell.num_inputs {
                    let leaf = leaves[support[m.transform.perm(pin)]];
                    // Which pins end up inverted depends on leaf
                    // phases only the covering passes know; charging
                    // the inverter on every logically complemented pin
                    // is the conservative estimate (and vanishes under
                    // free polarity, where `inv_delay` is 0).
                    let pen =
                        if m.transform.input_flipped(pin) { ctx.inv_delay } else { 0.0 };
                    a = a.max(arr[leaf.index()] + pen + cell.pin_delay[pin]);
                    let fo = ctx.fanout[leaf.index()].max(1) as f64;
                    flow += aflow[leaf.index()] / fo;
                }
                if a < best.0 - EPS || (a < best.0 + EPS && flow < best.1) {
                    best = (a, flow);
                }
            }
            if best.0.is_infinite() {
                return (u32::MAX, u32::MAX);
            }
            best
        }
    };
    (quant(best_arr), quant(best_flow))
}

/// Returns (arrival, area_flow, phase of physical output) of a
/// candidate under the current leaf state.
fn eval_cand(ctx: &Ctx<'_>, sel: &Sel, c: &Cand) -> (f64, f64, bool) {
    if c.cell == ALIAS {
        let (leaf, compl) = c.pins[0];
        let ph = sel.phase[leaf.index()] ^ compl;
        return (
            sel.arr[leaf.index()],
            sel.aflow[leaf.index()],
            if ctx.free_pol { false } else { ph },
        );
    }
    let cell = &ctx.library.cells()[c.cell];
    let mut a = 0.0f64;
    let mut flow = cell.area;
    for (pin, &(leaf, compl)) in c.pins.iter().enumerate() {
        let needs_inv = !ctx.free_pol && (sel.phase[leaf.index()] ^ compl);
        let pin_arr = sel.arr[leaf.index()]
            + if needs_inv { ctx.inv_delay } else { 0.0 }
            + cell.pin_delay[pin];
        a = a.max(pin_arr);
        let fo = ctx.fanout[leaf.index()].max(1) as f64;
        flow += sel.aflow[leaf.index()] / fo
            + if needs_inv { ctx.inv_area / fo } else { 0.0 };
    }
    // CMOS physical output = ¬f_cell(pins) = node ⊕ ¬out_compl.
    let ph = if ctx.free_pol { false } else { !c.out_compl };
    (a, flow, ph)
}

/// One forward selection pass over all AND nodes.
fn select_pass(ctx: &Ctx<'_>, cands: &[Vec<Cand>], sel: &mut Sel, mode: Mode, obj: Objective) {
    for id in ctx.aig.and_ids() {
        let i = id.index();
        if mode == Mode::Exact && cands[i][sel.choice[i]].cell == ALIAS {
            // Alias choices stay fixed during exact recovery: they are
            // free, and consumers already resolve through them — see
            // the reference-count invariant in `compute_refs`. Their
            // mirrored state must still be refreshed, though: the
            // chain's base may just have been re-chosen, and consumers
            // (and the final delay report) read the alias's arrival.
            let (a, flow, ph) = eval_cand(ctx, sel, &cands[i][sel.choice[i]]);
            sel.arr[i] = a;
            sel.aflow[i] = flow;
            sel.phase[i] = ph;
            continue;
        }
        let was_ref = mode == Mode::Exact && sel.nref[i] > 0;
        if was_ref {
            let cur = &cands[i][sel.choice[i]];
            deref_cover(ctx, cands, sel, cur);
        }
        let mut best: Option<(usize, f64, f64, bool)> = None;
        let mut best_cost = f64::INFINITY;
        for (ci, c) in cands[i].iter().enumerate() {
            if mode == Mode::Exact && c.cell == ALIAS {
                continue;
            }
            let (a, flow, ph) = eval_cand(ctx, sel, c);
            let cost = match mode {
                Mode::Delay | Mode::Flow => flow,
                Mode::Exact => trial_exact_area(ctx, cands, sel, c),
            };
            let better = match best {
                None => true,
                Some((_, ba, _, _)) => match mode {
                    Mode::Delay => {
                        a < ba - EPS || (a < ba + EPS && cost < best_cost - EPS)
                    }
                    Mode::Flow | Mode::Exact => {
                        let req = sel.required[i];
                        let fits = a <= req + EPS;
                        let best_fits = ba <= req + EPS;
                        match (fits, best_fits) {
                            (true, false) => true,
                            (false, true) => false,
                            (false, false) if obj == Objective::Delay => {
                                // Strict delay mode: when nothing fits,
                                // chase arrival, not area.
                                a < ba - EPS || (a < ba + EPS && cost < best_cost - EPS)
                            }
                            _ => {
                                cost < best_cost - EPS
                                    || (cost < best_cost + EPS && a < ba - EPS)
                            }
                        }
                    }
                },
            };
            if better {
                best = Some((ci, a, flow, ph));
                best_cost = cost;
            }
        }
        let (ci, a, flow, ph) = best.expect("candidates nonempty");
        if was_ref {
            ref_cover(ctx, cands, sel, &cands[i][ci]);
        }
        sel.choice[i] = ci;
        sel.arr[i] = a;
        sel.aflow[i] = flow;
        sel.phase[i] = ph;
    }
}

/// Arrival time of a primary output under the current selection.
fn po_arrival(ctx: &Ctx<'_>, sel: &Sel, po: &cntfet_aig::Lit) -> f64 {
    let node = po.node();
    if node == NodeId::CONST || ctx.aig.is_pi(node) {
        return 0.0;
    }
    let mismatch = !ctx.free_pol && (sel.phase[node.index()] ^ po.is_complement());
    sel.arr[node.index()] + if mismatch { ctx.inv_delay } else { 0.0 }
}

/// Critical-path delay of the current cover.
fn cover_delay(ctx: &Ctx<'_>, sel: &Sel) -> f64 {
    ctx.aig.pos().iter().map(|po| po_arrival(ctx, sel, po)).fold(0.0f64, f64::max)
}

/// Tightens the recovery delay target and recomputes per-node
/// required times over the current cover. Under [`Objective::Area`]
/// required times stay infinite — recovery is unconstrained.
fn prepare_required(
    ctx: &Ctx<'_>,
    cands: &[Vec<Cand>],
    sel: &mut Sel,
    obj: Objective,
    target: &mut f64,
) {
    if obj == Objective::Area {
        return; // `required` stays +∞ from initialization.
    }
    let delay = cover_delay(ctx, sel);
    if obj == Objective::Delay {
        // Strict delay mode: the target only ever tightens, so later
        // rounds can never legitimize a slower cover.
        *target = target.min(delay);
    } else {
        *target = delay;
    }
    for r in sel.required.iter_mut() {
        *r = f64::INFINITY;
    }
    for po in ctx.aig.pos() {
        let node = po.node();
        if ctx.aig.is_and(node) {
            let pen = if !ctx.free_pol && (sel.phase[node.index()] ^ po.is_complement()) {
                ctx.inv_delay
            } else {
                0.0
            };
            required_min(&mut sel.required, node, *target - pen);
        }
    }
    for id in ctx.aig.and_ids().collect::<Vec<_>>().into_iter().rev() {
        let i = id.index();
        if sel.required[i].is_infinite() {
            continue;
        }
        let c = &cands[i][sel.choice[i]];
        let req_i = sel.required[i];
        if c.cell == ALIAS {
            let (leaf, _) = c.pins[0];
            required_min(&mut sel.required, leaf, req_i);
            continue;
        }
        let cell = &ctx.library.cells()[c.cell];
        for (pin, &(leaf, compl)) in c.pins.iter().enumerate() {
            let pen = if !ctx.free_pol && (sel.phase[leaf.index()] ^ compl) {
                ctx.inv_delay
            } else {
                0.0
            };
            required_min(&mut sel.required, leaf, req_i - cell.pin_delay[pin] - pen);
        }
    }
}

fn required_min(required: &mut [f64], node: NodeId, value: f64) {
    let r = &mut required[node.index()];
    *r = r.min(value);
}

/// Follows alias chains to the base gate node actually emitted for
/// `n`, or `None` when the chain ends at a PI/constant.
fn resolve_base(ctx: &Ctx<'_>, cands: &[Vec<Cand>], sel: &Sel, mut n: NodeId) -> Option<NodeId> {
    loop {
        if !ctx.aig.is_and(n) {
            return None;
        }
        let c = &cands[n.index()][sel.choice[n.index()]];
        if c.cell == ALIAS {
            n = c.pins[0].0;
        } else {
            return Some(n);
        }
    }
}

fn cand_area(ctx: &Ctx<'_>, c: &Cand) -> f64 {
    if c.cell == ALIAS {
        0.0
    } else {
        ctx.library.cells()[c.cell].area
    }
}

/// References every base gate a candidate's pins resolve to,
/// cascading into newly-referenced gates; returns the area those new
/// references pull into the cover.
fn ref_cover(ctx: &Ctx<'_>, cands: &[Vec<Cand>], sel: &mut Sel, c: &Cand) -> f64 {
    let mut area = 0.0;
    let mut stack: Vec<NodeId> = c
        .pins
        .iter()
        .filter_map(|&(leaf, _)| resolve_base(ctx, cands, sel, leaf))
        .collect();
    while let Some(b) = stack.pop() {
        let i = b.index();
        sel.nref[i] += 1;
        if sel.nref[i] == 1 {
            let cc = &cands[i][sel.choice[i]];
            area += cand_area(ctx, cc);
            stack.extend(
                cc.pins.iter().filter_map(|&(leaf, _)| resolve_base(ctx, cands, sel, leaf)),
            );
        }
    }
    area
}

/// Inverse of [`ref_cover`]: releases the references a candidate's
/// pins hold on the cover.
fn deref_cover(ctx: &Ctx<'_>, cands: &[Vec<Cand>], sel: &mut Sel, c: &Cand) {
    let mut stack: Vec<NodeId> = c
        .pins
        .iter()
        .filter_map(|&(leaf, _)| resolve_base(ctx, cands, sel, leaf))
        .collect();
    while let Some(b) = stack.pop() {
        let bi = b.index();
        debug_assert!(sel.nref[bi] > 0, "dereferencing an unreferenced gate");
        sel.nref[bi] -= 1;
        if sel.nref[bi] == 0 {
            let cc = &cands[bi][sel.choice[bi]];
            stack.extend(
                cc.pins.iter().filter_map(|&(leaf, _)| resolve_base(ctx, cands, sel, leaf)),
            );
        }
    }
}

/// Exact incremental area a candidate would add to the current cover
/// (its own cell plus every gate its references would newly pull in),
/// evaluated by a reference/dereference trial that leaves the counts
/// untouched. CMOS polarity fixes are charged as amortized inverter
/// area per mismatched pin.
fn trial_exact_area(ctx: &Ctx<'_>, cands: &[Vec<Cand>], sel: &mut Sel, c: &Cand) -> f64 {
    let mut ex = cand_area(ctx, c) + ref_cover(ctx, cands, sel, c);
    deref_cover(ctx, cands, sel, c);
    if !ctx.free_pol {
        for &(leaf, compl) in &c.pins {
            if sel.phase[leaf.index()] ^ compl {
                ex += ctx.inv_area / ctx.fanout[leaf.index()].max(1) as f64;
            }
        }
    }
    ex
}

/// Rebuilds the reference counts of the cover reachable from the
/// primary outputs.
///
/// Invariant maintained by the exact pass: `nref[n] > 0` only for
/// base (non-alias) gate nodes; consumers of an alias node hold their
/// reference on the chain's base instead, which is why alias choices
/// are frozen while references are live.
fn compute_refs(ctx: &Ctx<'_>, cands: &[Vec<Cand>], sel: &mut Sel) {
    for r in sel.nref.iter_mut() {
        *r = 0;
    }
    let mut stack: Vec<NodeId> = ctx
        .aig
        .pos()
        .iter()
        .filter_map(|po| resolve_base(ctx, cands, sel, po.node()))
        .collect();
    while let Some(b) = stack.pop() {
        let i = b.index();
        sel.nref[i] += 1;
        if sel.nref[i] == 1 {
            let cc = &cands[i][sel.choice[i]];
            stack.extend(
                cc.pins.iter().filter_map(|&(leaf, _)| resolve_base(ctx, cands, sel, leaf)),
            );
        }
    }
}

/// Extracts the final cover as a netlist with statistics. `cuts` is
/// the arena `cands` was generated from.
fn extract(ctx: &Ctx<'_>, cuts: &CutArena, cands: &[Vec<Cand>], sel: &Sel) -> Mapping {
    let aig = ctx.aig;
    let library = ctx.library;
    let n = aig.num_nodes();
    // Resolve aliases: alias_of[node] = (base source, compl).
    // A node implemented as ALIAS forwards to its single pin.
    let mut resolved: Vec<Option<(Source, bool)>> = vec![None; n];
    let pi_index: std::collections::HashMap<NodeId, usize> =
        aig.pis().iter().enumerate().map(|(i, &p)| (p, i)).collect();

    let resolve = |node: NodeId, resolved: &mut Vec<Option<(Source, bool)>>| {
        // Iterative resolution following alias chains.
        let mut stack = vec![node];
        while let Some(cur) = stack.pop() {
            if resolved[cur.index()].is_some() {
                continue;
            }
            if aig.is_pi(cur) {
                resolved[cur.index()] = Some((Source::Pi(pi_index[&cur]), false));
                continue;
            }
            let c = &cands[cur.index()][sel.choice[cur.index()]];
            if c.cell == ALIAS {
                let (leaf, compl) = c.pins[0];
                match resolved[leaf.index()] {
                    Some((src, lc)) => {
                        resolved[cur.index()] = Some((src, lc ^ compl));
                    }
                    None => {
                        stack.push(cur);
                        stack.push(leaf);
                    }
                }
            } else {
                resolved[cur.index()] = Some((Source::Node(cur), false));
                for &(leaf, _) in &c.pins {
                    stack.push(leaf);
                }
            }
        }
    };

    for po in aig.pos() {
        let node = po.node();
        if node != NodeId::CONST {
            resolve(node, &mut resolved);
        }
    }
    let cut_leaves = |id: NodeId, c: &Cand| -> Vec<NodeId> {
        let cut = cuts.of(id).nth(usize::from(c.cut));
        cut.map(|cut| cut.leaves().to_vec()).unwrap_or_default()
    };

    // Emit gates in topological order; rewrite pins through aliases.
    // Every AND node the outputs reach resolved to a gate or a wire.
    let mut gates = Vec::new();
    let mut wires = Vec::new();
    let mut area = 0.0f64;
    // Track, per physical driver, whether an inverter is consumed
    // (CMOS only): key = Source, value = inverter needed.
    let mut inv_needed: std::collections::HashSet<SourceKey> = std::collections::HashSet::new();
    // Levels per source (physical).
    let mut level: Vec<u32> = vec![0; n];
    let pi_level = vec![0u32; aig.num_pis()];

    for id in aig.and_ids() {
        if resolved[id.index()].is_none() {
            continue;
        }
        let c = &cands[id.index()][sel.choice[id.index()]];
        if c.cell == ALIAS {
            wires.push((id, cut_leaves(id, c)));
            continue;
        }
        let cell = &library.cells()[c.cell];
        let mut pins = Vec::with_capacity(c.pins.len());
        let mut lvl = 0u32;
        for &(leaf, compl) in &c.pins {
            let (src, lc) = resolved[leaf.index()].expect("leaf resolved");
            let pin_compl = compl ^ lc;
            // Physical phase of the source:
            let src_phase = match src {
                Source::Pi(_) => false,
                Source::Node(base) => sel.phase[base.index()],
            };
            let needs_inv = !ctx.free_pol && (src_phase ^ pin_compl);
            if needs_inv {
                inv_needed.insert(SourceKey::from(src));
            }
            let src_level = match src {
                Source::Pi(i) => pi_level[i],
                Source::Node(base) => level[base.index()],
            };
            lvl = lvl.max(src_level + u32::from(needs_inv));
            pins.push((src, pin_compl));
        }
        level[id.index()] = lvl + 1;
        area += cell.area;
        gates.push(MappedGate {
            root: id,
            cell: c.cell,
            pins,
            out_compl: c.out_compl,
            leaves: cut_leaves(id, c),
        });
    }

    // Primary outputs.
    let mut pos = Vec::with_capacity(aig.num_pos());
    let mut delay_norm = 0.0f64;
    let mut levels = 0u32;
    for po in aig.pos() {
        let node = po.node();
        if node == NodeId::CONST {
            pos.push(PoBinding::Const(po.is_complement()));
            continue;
        }
        let (src, lc) = resolved[node.index()].expect("PO cone resolved");
        let compl = po.is_complement() ^ lc;
        let src_phase = match src {
            Source::Pi(_) => false,
            Source::Node(base) => sel.phase[base.index()],
        };
        let needs_inv = !ctx.free_pol && (src_phase ^ compl);
        if needs_inv {
            inv_needed.insert(SourceKey::from(src));
        }
        let (src_arr, src_level) = match src {
            Source::Pi(i) => (0.0, pi_level[i]),
            Source::Node(base) => (sel.arr[base.index()], level[base.index()]),
        };
        delay_norm = delay_norm.max(src_arr + if needs_inv { ctx.inv_delay } else { 0.0 });
        levels = levels.max(src_level + u32::from(needs_inv));
        pos.push(PoBinding::Signal(src, compl));
    }

    let inverters = inv_needed.len();
    area += inverters as f64 * ctx.inv_area;
    let stats = MapStats {
        gates: gates.len() + if ctx.free_pol { 0 } else { inverters },
        inverters: if ctx.free_pol { 0 } else { inverters },
        area,
        levels,
        delay_norm,
        delay_ps: delay_norm * library.tau_ps(),
    };
    Mapping { gates, pos, wires, stats }
}

/// Hashable key for [`Source`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum SourceKey {
    Pi(usize),
    Node(u32),
}

impl From<Source> for SourceKey {
    fn from(s: Source) -> SourceKey {
        match s {
            Source::Pi(i) => SourceKey::Pi(i),
            Source::Node(n) => SourceKey::Node(n.index() as u32),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cntfet_aig::Lit;
    use cntfet_core::LogicFamily;

    fn full_adder_chain(bits: usize) -> Aig {
        let mut g = Aig::new("adder");
        let a = g.add_pis(bits);
        let b = g.add_pis(bits);
        let mut carry = Lit::FALSE;
        for i in 0..bits {
            let x = g.xor(a[i], b[i]);
            let s = g.xor(x, carry);
            g.add_po(s);
            let c1 = g.and(a[i], b[i]);
            let c2 = g.and(x, carry);
            carry = g.or(c1, c2);
        }
        g.add_po(carry);
        g
    }

    #[test]
    fn objectives_trade_area_for_delay() {
        let src = full_adder_chain(12);
        let lib = Library::new(LogicFamily::TgStatic);
        let by = |objective| {
            map(&src, &lib, MapOptions { objective, ..Default::default() }).stats
        };
        let area = by(Objective::Area);
        let delay = by(Objective::Delay);
        let balanced = by(Objective::Balanced);
        // The area corner can never beat the delay corner on delay,
        // nor the delay corner beat the area corner on area.
        assert!(area.area <= delay.area + EPS);
        assert!(delay.delay_norm <= area.delay_norm + EPS);
        // Balanced sits inside the box the two corners span.
        assert!(balanced.area + EPS >= area.area);
        assert!(balanced.delay_norm + EPS >= delay.delay_norm);
    }

    #[test]
    fn area_recovery_preserves_delay_pass_critical_path() {
        // Under Objective::Delay, recovery must never worsen the
        // critical path the delay pass established.
        for family in [LogicFamily::TgStatic, LogicFamily::TgPseudo, LogicFamily::CmosStatic] {
            let lib = Library::new(family);
            for bits in [4, 8, 12] {
                let src = full_adder_chain(bits);
                let opts = |area_rounds| MapOptions {
                    area_rounds,
                    objective: Objective::Delay,
                    ..Default::default()
                };
                let pure = map(&src, &lib, opts(0));
                for rounds in [1, 2, 4] {
                    let rec = map(&src, &lib, opts(rounds));
                    assert!(
                        rec.stats.delay_norm <= pure.stats.delay_norm + EPS,
                        "{family:?}/{bits} bits: {} rounds worsened delay {} -> {}",
                        rounds,
                        pure.stats.delay_norm,
                        rec.stats.delay_norm
                    );
                }
            }
        }
    }

    #[test]
    fn delay_rounds_zero_reproduces_single_enumeration_engine() {
        // Golden stats captured from the PR 2 engine (single
        // Size-ranked enumeration, no arrival rounds) on
        // full_adder_chain(10): `delay_rounds: 0` must reproduce them
        // bit-for-bit for every family × objective.
        let golden: &[(LogicFamily, Objective, usize, f64, f64)] = &[
            (LogicFamily::TgStatic, Objective::Area, 38, 285.6667, 112.5),
            (LogicFamily::TgStatic, Objective::Delay, 38, 285.6667, 112.5),
            (LogicFamily::TgStatic, Objective::Balanced, 38, 285.6667, 112.5),
            (LogicFamily::TgPseudo, Objective::Area, 38, 196.4444, 163.3333),
            (LogicFamily::TgPseudo, Objective::Delay, 39, 209.5556, 147.7778),
            (LogicFamily::TgPseudo, Objective::Balanced, 39, 209.5556, 147.7778),
            (LogicFamily::CmosStatic, Objective::Area, 123, 796.0, 156.6667),
            (LogicFamily::CmosStatic, Objective::Delay, 127, 972.0, 119.0),
            (LogicFamily::CmosStatic, Objective::Balanced, 127, 972.0, 119.0),
        ];
        let src = full_adder_chain(10);
        for &(family, objective, gates, area, delay) in golden {
            let lib = Library::new(family);
            let m = map(
                &src,
                &lib,
                MapOptions { objective, delay_rounds: 0, ..Default::default() },
            );
            assert_eq!(m.stats.gates, gates, "{family:?}/{objective:?} gates");
            assert!((m.stats.area - area).abs() < 1e-3, "{family:?}/{objective:?} area {}", m.stats.area);
            assert!(
                (m.stats.delay_norm - delay).abs() < 1e-3,
                "{family:?}/{objective:?} delay {}",
                m.stats.delay_norm
            );
        }
    }

    #[test]
    fn arrival_rounds_never_worsen_the_critical_path() {
        // The arrival-aware rounds are guarded: whatever they do, the
        // delay objective's critical path can only improve on the
        // single-enumeration result.
        for family in [LogicFamily::TgStatic, LogicFamily::TgPseudo, LogicFamily::CmosStatic] {
            let lib = Library::new(family);
            for bits in [6, 12] {
                let src = full_adder_chain(bits);
                let opts = |delay_rounds| MapOptions {
                    delay_rounds,
                    objective: Objective::Delay,
                    ..Default::default()
                };
                let single = map(&src, &lib, opts(0));
                for rounds in [1, 3] {
                    let iter = map(&src, &lib, opts(rounds));
                    assert!(
                        iter.stats.delay_norm <= single.stats.delay_norm + EPS,
                        "{family:?}/{bits}: {rounds} rounds worsened delay {} -> {}",
                        single.stats.delay_norm,
                        iter.stats.delay_norm
                    );
                }
            }
        }
    }

    #[test]
    fn arrival_rounds_never_worsen_the_area_objective() {
        // With area as the sole objective (rounds reached via
        // CutRank::Arrival) the acceptance guard flips to area-first:
        // iterating can never return a larger cover than round 0.
        for family in [LogicFamily::TgStatic, LogicFamily::CmosStatic] {
            let lib = Library::new(family);
            let src = full_adder_chain(10);
            let opts = |delay_rounds| MapOptions {
                objective: Objective::Area,
                cut_rank: CutRank::Arrival,
                delay_rounds,
                ..Default::default()
            };
            let single = map(&src, &lib, opts(0));
            let iter = map(&src, &lib, opts(2));
            assert!(
                iter.stats.area <= single.stats.area + EPS,
                "{family:?}: arrival rounds worsened area {} -> {}",
                single.stats.area,
                iter.stats.area
            );
        }
    }

    #[test]
    fn cut_rank_is_user_selectable() {
        // Depth and Arrival ranking are selectable through MapOptions
        // and always yield an equivalent netlist.
        let src = full_adder_chain(8);
        for family in [LogicFamily::TgStatic, LogicFamily::CmosStatic] {
            let lib = Library::new(family);
            for cut_rank in [CutRank::Size, CutRank::Depth, CutRank::Arrival] {
                for objective in [Objective::Area, Objective::Delay, Objective::Balanced] {
                    let m = map(
                        &src,
                        &lib,
                        MapOptions { cut_rank, objective, ..Default::default() },
                    );
                    assert_eq!(
                        crate::verify::verify_mapping(&src, &m, &lib),
                        cntfet_aig::CecResult::Equivalent,
                        "{family:?}/{cut_rank:?}/{objective:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn exact_area_refs_balance_out() {
        // After a full map() the internal ref trial machinery must
        // leave counts consistent — indirectly verified by mapping
        // twice and getting identical stats (determinism).
        let src = full_adder_chain(8);
        let lib = Library::new(LogicFamily::TgStatic);
        let a = map(&src, &lib, MapOptions::default());
        let b = map(&src, &lib, MapOptions::default());
        assert_eq!(a.stats.gates, b.stats.gates);
        assert_eq!(a.stats.area, b.stats.area);
        assert_eq!(a.stats.delay_norm, b.stats.delay_norm);
    }
}
