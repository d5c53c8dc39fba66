//! A compact CDCL SAT solver in the MiniSat → Glucose lineage:
//! two-watched literals over a flat clause arena, first-UIP conflict
//! analysis with deep (recursive) clause minimization, VSIDS
//! branching, phase saving, adaptive LBD-driven restarts
//! (Glucose-style, with trail blocking), and LBD-driven learnt-clause
//! reduction with glue protection plus mark-and-compact garbage
//! collection of the arena.
//!
//! The solver exists to certify logic transformations elsewhere in the
//! workspace (combinational equivalence checking of optimized and
//! technology-mapped netlists), so the API is deliberately small:
//! [`Solver::new_var`] / [`Solver::add_clause`] build the instance,
//! [`Solver::solve`] decides it under optional assumptions (the
//! incremental interface SAT sweeping leans on), [`Solver::value`]
//! reads the model, and [`Solver::stats`] exposes the search counters
//! ([`SolverStats`]) the benchmark harness aggregates.
//!
//! # Examples
//!
//! ```
//! use cntfet_sat::{Solver, SolveResult};
//!
//! let mut s = Solver::new();
//! let a = s.new_var();
//! let b = s.new_var();
//! s.add_clause(&[a.pos(), b.pos()]);
//! s.add_clause(&[a.neg(), b.pos()]);
//! assert_eq!(s.solve(&[]), SolveResult::Sat);
//! assert_eq!(s.value(b), Some(true));
//! // Adding b' makes it unsatisfiable.
//! s.add_clause(&[b.neg()]);
//! assert_eq!(s.solve(&[]), SolveResult::Unsat);
//! ```
//!
//! Assumption-based incremental solving — the same instance answers
//! many queries without re-encoding (how CEC sweeping proves
//! candidate equivalences):
//!
//! ```
//! use cntfet_sat::{Solver, SolveResult};
//!
//! let mut s = Solver::new();
//! let x = s.new_var();
//! let y = s.new_var();
//! s.add_clause(&[x.pos(), y.pos()]);
//! // Under the assumption x' the clause forces y…
//! assert_eq!(s.solve(&[x.neg()]), SolveResult::Sat);
//! assert_eq!(s.value(y), Some(true));
//! // …and assuming both negative is contradictory, while the
//! // instance itself stays satisfiable for later queries.
//! assert_eq!(s.solve(&[x.neg(), y.neg()]), SolveResult::Unsat);
//! assert_eq!(s.solve(&[]), SolveResult::Sat);
//! assert!(s.stats().decisions < 100);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod check;
mod clause_db;

pub use check::CheckError;
use clause_db::{ClauseDb, ClauseRef, REF_NONE};
use std::fmt;

/// A propositional variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Var(u32);

impl Var {
    /// Creates a variable from a raw index. Prefer [`Solver::new_var`].
    pub fn from_index(i: usize) -> Var {
        Var(i as u32)
    }

    /// Index of the variable (0-based).
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// The positive literal of this variable.
    pub fn pos(self) -> Lit {
        Lit(self.0 << 1)
    }

    /// The negative literal of this variable.
    ///
    /// Deliberately an inherent method, not `std::ops::Neg`: it maps a
    /// variable to a literal rather than negating a value of `Self`.
    #[allow(clippy::should_implement_trait)]
    pub fn neg(self) -> Lit {
        Lit(self.0 << 1 | 1)
    }

    /// Literal of this variable with the given sign (`true` ⇒ positive).
    pub fn lit(self, positive: bool) -> Lit {
        if positive {
            self.pos()
        } else {
            self.neg()
        }
    }
}

/// A literal: a variable or its negation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Lit(u32);

impl Lit {
    /// The variable underlying this literal.
    pub fn var(self) -> Var {
        Var(self.0 >> 1)
    }

    /// True iff the literal is negated.
    pub fn is_neg(self) -> bool {
        self.0 & 1 == 1
    }

    /// Complements the literal.
    #[must_use]
    pub fn negate(self) -> Lit {
        Lit(self.0 ^ 1)
    }

    fn code(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for Lit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_neg() {
            write!(f, "¬x{}", self.var().index())
        } else {
            write!(f, "x{}", self.var().index())
        }
    }
}

/// Result of a [`Solver::solve`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SolveResult {
    /// A satisfying assignment was found (query it with [`Solver::value`]).
    Sat,
    /// The formula (under the given assumptions) is unsatisfiable.
    Unsat,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Assign {
    Undef,
    True,
    False,
}

#[derive(Debug, Clone, Copy)]
struct Watcher {
    cref: ClauseRef,
    blocker: Lit,
}

/// Statistics gathered during solving.
#[derive(Debug, Default, Clone, Copy)]
pub struct SolverStats {
    /// Number of conflicts encountered.
    pub conflicts: u64,
    /// Number of decisions made.
    pub decisions: u64,
    /// Number of literal propagations.
    pub propagations: u64,
    /// Number of restarts performed.
    pub restarts: u64,
    /// Number of learnt clauses currently retained.
    pub learnts: u64,
    /// Learnt-database reductions performed.
    pub reduces: u64,
    /// Clause-arena garbage collections performed.
    pub gcs: u64,
    /// Literals removed from learnt clauses by conflict-clause
    /// minimization.
    pub minimized_lits: u64,
    /// Restarts triggered by the adaptive recent-LBD policy. Kept
    /// separate from `restarts` (even though it is currently the only
    /// restart source) so alternative schedules stay distinguishable.
    pub adaptive_restarts: u64,
    /// Adaptive restarts suppressed because the trail had grown well
    /// past its running average (the solver looked close to a model).
    pub blocked_restarts: u64,
}

impl SolverStats {
    /// Accumulates another solver's counters into this one (used by
    /// verification drivers that run several solver instances).
    pub fn absorb(&mut self, other: &SolverStats) {
        self.conflicts += other.conflicts;
        self.decisions += other.decisions;
        self.propagations += other.propagations;
        self.restarts += other.restarts;
        self.learnts += other.learnts;
        self.reduces += other.reduces;
        self.gcs += other.gcs;
        self.minimized_lits += other.minimized_lits;
        self.adaptive_restarts += other.adaptive_restarts;
        self.blocked_restarts += other.blocked_restarts;
    }
}

/// Learnt clauses at or below this LBD ("glue" clauses) are never
/// deleted, following Glucose.
const GLUE_LBD: u32 = 2;

/// A CDCL SAT solver.
#[derive(Debug, Clone)]
pub struct Solver {
    clauses: ClauseDb,
    watches: Vec<Vec<Watcher>>, // indexed by literal code
    assigns: Vec<Assign>,
    phase: Vec<bool>,
    level: Vec<u32>,
    reason: Vec<ClauseRef>,
    trail: Vec<Lit>,
    trail_lim: Vec<usize>,
    qhead: usize,
    // VSIDS
    activity: Vec<f64>,
    var_inc: f64,
    heap: Vec<Var>,
    heap_pos: Vec<usize>,
    // Clause activity
    cla_inc: f32,
    // State
    ok: bool,
    stats: SolverStats,
    seen: Vec<u8>,
    // Scratch buffers for analyze/minimization/LBD (kept to avoid
    // re-allocating on every conflict).
    analyze_clear: Vec<Var>,
    min_stack: Vec<Lit>,
    lbd_stamp: Vec<u32>,
    lbd_counter: u32,
}

const HEAP_ABSENT: usize = usize::MAX;

impl Default for Solver {
    fn default() -> Self {
        Solver::new()
    }
}

impl Solver {
    /// Creates an empty solver.
    pub fn new() -> Self {
        Solver {
            clauses: ClauseDb::default(),
            watches: Vec::new(),
            assigns: Vec::new(),
            phase: Vec::new(),
            level: Vec::new(),
            reason: Vec::new(),
            trail: Vec::new(),
            trail_lim: Vec::new(),
            qhead: 0,
            activity: Vec::new(),
            var_inc: 1.0,
            heap: Vec::new(),
            heap_pos: Vec::new(),
            cla_inc: 1.0,
            ok: true,
            stats: SolverStats::default(),
            seen: Vec::new(),
            analyze_clear: Vec::new(),
            min_stack: Vec::new(),
            lbd_stamp: vec![0], // level 0 slot; one more per variable
            lbd_counter: 0,
        }
    }

    /// Introduces a fresh variable.
    pub fn new_var(&mut self) -> Var {
        let v = Var(self.assigns.len() as u32);
        self.assigns.push(Assign::Undef);
        self.phase.push(false);
        self.level.push(0);
        self.reason.push(REF_NONE);
        self.activity.push(0.0);
        self.seen.push(0);
        self.watches.push(Vec::new());
        self.watches.push(Vec::new());
        self.heap_pos.push(HEAP_ABSENT);
        self.lbd_stamp.push(0);
        self.heap_insert(v);
        v
    }

    /// Number of variables.
    pub fn num_vars(&self) -> usize {
        self.assigns.len()
    }

    /// Number of (problem) clauses currently attached.
    pub fn num_clauses(&self) -> usize {
        self.clauses.num_problem()
    }

    /// Solving statistics.
    pub fn stats(&self) -> SolverStats {
        self.stats
    }

    /// Adds a clause; returns `false` if the formula became trivially
    /// unsatisfiable (empty clause, or conflicting units at level 0).
    ///
    /// # Panics
    ///
    /// Panics if a literal references a variable not created with
    /// [`Solver::new_var`].
    pub fn add_clause(&mut self, lits: &[Lit]) -> bool {
        self.cancel_until(0);
        if !self.ok {
            return false;
        }
        // Normalize: sort, dedup, drop false literals, detect tautology.
        let mut ls: Vec<Lit> = lits.to_vec();
        ls.sort();
        ls.dedup();
        let mut filtered = Vec::with_capacity(ls.len());
        for (i, &l) in ls.iter().enumerate() {
            assert!(l.var().index() < self.num_vars(), "literal references unknown variable");
            if i + 1 < ls.len() && ls[i + 1] == l.negate() {
                return true; // tautology: x ∨ ¬x
            }
            match self.lit_value(l) {
                Assign::True => return true, // already satisfied at level 0
                Assign::False => {}          // drop falsified literal
                Assign::Undef => filtered.push(l),
            }
        }
        match filtered.len() {
            0 => {
                self.ok = false;
                false
            }
            1 => {
                self.unchecked_enqueue(filtered[0], REF_NONE);
                self.ok = self.propagate().is_none();
                self.ok
            }
            _ => {
                self.attach_clause(&filtered, false, 0);
                true
            }
        }
    }

    fn attach_clause(&mut self, lits: &[Lit], learnt: bool, lbd: u32) -> ClauseRef {
        debug_assert!(lits.len() >= 2);
        let cref = self.clauses.alloc(lits, learnt, lbd);
        self.watches[lits[0].negate().code()].push(Watcher { cref, blocker: lits[1] });
        self.watches[lits[1].negate().code()].push(Watcher { cref, blocker: lits[0] });
        if learnt {
            self.stats.learnts += 1;
        }
        cref
    }

    fn lit_value(&self, l: Lit) -> Assign {
        match (self.assigns[l.var().index()], l.is_neg()) {
            (Assign::Undef, _) => Assign::Undef,
            (Assign::True, false) | (Assign::False, true) => Assign::True,
            _ => Assign::False,
        }
    }

    /// Value of a variable in the model found by the last successful
    /// [`Solver::solve`]; `None` if unassigned.
    pub fn value(&self, v: Var) -> Option<bool> {
        match self.assigns[v.index()] {
            Assign::Undef => None,
            Assign::True => Some(true),
            Assign::False => Some(false),
        }
    }

    fn decision_level(&self) -> u32 {
        self.trail_lim.len() as u32
    }

    fn unchecked_enqueue(&mut self, l: Lit, reason: ClauseRef) {
        debug_assert_eq!(self.lit_value(l), Assign::Undef);
        let v = l.var().index();
        self.assigns[v] = if l.is_neg() { Assign::False } else { Assign::True };
        self.phase[v] = !l.is_neg();
        self.level[v] = self.decision_level();
        self.reason[v] = reason;
        self.trail.push(l);
        self.stats.propagations += 1;
    }

    /// Propagates pending assignments; returns a conflicting clause if
    /// one arises.
    fn propagate(&mut self) -> Option<ClauseRef> {
        while self.qhead < self.trail.len() {
            let p = self.trail[self.qhead];
            self.qhead += 1;
            let mut i = 0;
            let mut j = 0;
            let mut watchers = std::mem::take(&mut self.watches[p.code()]);
            let mut conflict = None;
            'outer: while i < watchers.len() {
                let w = watchers[i];
                i += 1;
                // Quick satisfied check via blocker.
                if self.lit_value(w.blocker) == Assign::True {
                    watchers[j] = w;
                    j += 1;
                    continue;
                }
                let cref = w.cref;
                // Make sure the false literal is at position 1.
                if self.clauses.lit(cref, 0) == p.negate() {
                    self.clauses.swap_lits(cref, 0, 1);
                }
                debug_assert_eq!(self.clauses.lit(cref, 1), p.negate());
                let first = self.clauses.lit(cref, 0);
                if first != w.blocker && self.lit_value(first) == Assign::True {
                    watchers[j] = Watcher { cref, blocker: first };
                    j += 1;
                    continue;
                }
                // Look for a new literal to watch.
                let len = self.clauses.len(cref);
                for k in 2..len {
                    let lk = self.clauses.lit(cref, k);
                    if self.lit_value(lk) != Assign::False {
                        self.clauses.swap_lits(cref, 1, k);
                        self.watches[lk.negate().code()].push(Watcher { cref, blocker: first });
                        continue 'outer;
                    }
                }
                // Clause is unit or conflicting.
                watchers[j] = Watcher { cref, blocker: first };
                j += 1;
                if self.lit_value(first) == Assign::False {
                    // Conflict: copy remaining watchers back.
                    while i < watchers.len() {
                        watchers[j] = watchers[i];
                        j += 1;
                        i += 1;
                    }
                    conflict = Some(cref);
                } else {
                    self.unchecked_enqueue(first, cref);
                }
            }
            watchers.truncate(j);
            self.watches[p.code()] = watchers;
            if conflict.is_some() {
                self.qhead = self.trail.len();
                return conflict;
            }
        }
        None
    }

    fn var_bump(&mut self, v: Var) {
        self.activity[v.index()] += self.var_inc;
        if self.activity[v.index()] > 1e100 {
            for a in &mut self.activity {
                *a *= 1e-100;
            }
            self.var_inc *= 1e-100;
        }
        self.heap_update(v);
    }

    fn var_decay(&mut self) {
        self.var_inc /= 0.95;
    }

    fn cla_bump(&mut self, cref: ClauseRef) {
        if !self.clauses.is_learnt(cref) {
            return;
        }
        let a = self.clauses.activity(cref) + self.cla_inc;
        self.clauses.set_activity(cref, a);
        if a > 1e20 {
            let refs: Vec<ClauseRef> =
                self.clauses.refs().filter(|&c| self.clauses.is_learnt(c)).collect();
            for c in refs {
                let scaled = self.clauses.activity(c) * 1e-20;
                self.clauses.set_activity(c, scaled);
            }
            self.cla_inc *= 1e-20;
        }
    }

    fn cla_decay(&mut self) {
        self.cla_inc /= 0.999;
    }

    /// 32-bit abstraction of a decision level (MiniSat's
    /// `abstractLevel`) — used to prune the redundancy search.
    #[inline]
    fn abstract_level(&self, v: Var) -> u32 {
        1 << (self.level[v.index()] & 31)
    }

    /// Number of distinct (non-root) decision levels among `lits` — the
    /// literal block distance ("glue") of Glucose.
    fn lits_lbd(&mut self, lits: &[Lit]) -> u32 {
        self.lbd_counter += 1;
        let stamp = self.lbd_counter;
        let mut glue = 0;
        for l in lits {
            let lev = self.level[l.var().index()] as usize;
            if lev > 0 && self.lbd_stamp[lev] != stamp {
                self.lbd_stamp[lev] = stamp;
                glue += 1;
            }
        }
        glue
    }

    /// [`Self::lits_lbd`] over a stored clause, without materializing
    /// its literals.
    fn clause_lbd(&mut self, cref: ClauseRef) -> u32 {
        self.lbd_counter += 1;
        let stamp = self.lbd_counter;
        let mut glue = 0;
        for k in 0..self.clauses.len(cref) {
            let lev = self.level[self.clauses.lit(cref, k).var().index()] as usize;
            if lev > 0 && self.lbd_stamp[lev] != stamp {
                self.lbd_stamp[lev] = stamp;
                glue += 1;
            }
        }
        glue
    }

    /// First-UIP conflict analysis; returns the learnt clause (with the
    /// asserting literal first), the backtrack level, and the clause's
    /// LBD.
    fn analyze(&mut self, conflict: ClauseRef) -> (Vec<Lit>, u32, u32) {
        let mut learnt: Vec<Lit> = vec![Lit(0)]; // slot 0 = asserting literal
        let mut path_count = 0usize;
        let mut expanded: Option<Lit> = None;
        let mut index = self.trail.len();
        let mut cref = conflict;
        let mut to_clear: Vec<Var> = std::mem::take(&mut self.analyze_clear);
        to_clear.clear();

        loop {
            self.cla_bump(cref);
            // Glucose-style LBD refresh: a learnt clause re-used in
            // conflict analysis whose glue improved gets the better LBD
            // and one round of deletion immunity.
            if self.clauses.is_learnt(cref) {
                let lbd = self.clause_lbd(cref);
                if lbd < self.clauses.lbd(cref) {
                    if self.clauses.lbd(cref) > GLUE_LBD {
                        self.clauses.set_protected(cref, true);
                    }
                    self.clauses.set_lbd(cref, lbd);
                }
            }
            let start = usize::from(expanded.is_some());
            for k in start..self.clauses.len(cref) {
                let q = self.clauses.lit(cref, k);
                let v = q.var();
                if self.seen[v.index()] == 0 && self.level[v.index()] > 0 {
                    self.seen[v.index()] = 1;
                    to_clear.push(v);
                    self.var_bump(v);
                    if self.level[v.index()] >= self.decision_level() {
                        path_count += 1;
                    } else {
                        learnt.push(q);
                    }
                }
            }
            // Select the next seen literal on the trail to expand.
            loop {
                index -= 1;
                if self.seen[self.trail[index].var().index()] != 0 {
                    break;
                }
            }
            let p = self.trail[index];
            expanded = Some(p);
            path_count -= 1;
            if path_count == 0 {
                break;
            }
            let pv = p.var();
            cref = self.reason[pv.index()];
            debug_assert_ne!(cref, REF_NONE, "non-decision literal must have a reason");
            // The reason clause keeps its implied literal at slot 0.
            debug_assert_eq!(self.clauses.lit(cref, 0).var(), pv);
        }
        learnt[0] = expanded.expect("binary self-subsumption matched a literal").negate();

        // Deep (recursive) conflict-clause minimization: a literal is
        // redundant if every path through its reason graph terminates
        // in literals already in the clause or fixed at level 0.
        let abstract_levels =
            learnt[1..].iter().fold(0u32, |acc, l| acc | self.abstract_level(l.var()));
        let before = learnt.len();
        let mut kept = 1;
        for i in 1..learnt.len() {
            let l = learnt[i];
            if self.reason[l.var().index()] == REF_NONE
                || !self.lit_redundant(l, abstract_levels, &mut to_clear)
            {
                learnt[kept] = l;
                kept += 1;
            }
        }
        learnt.truncate(kept);
        self.stats.minimized_lits += (before - kept) as u64;

        for &v in &to_clear {
            self.seen[v.index()] = 0;
        }
        self.analyze_clear = to_clear;

        let bt = if learnt.len() == 1 {
            0
        } else {
            let mut max_i = 1;
            for i in 2..learnt.len() {
                if self.level[learnt[i].var().index()] > self.level[learnt[max_i].var().index()] {
                    max_i = i;
                }
            }
            learnt.swap(1, max_i);
            self.level[learnt[1].var().index()]
        };
        let lbd = self.lits_lbd(&learnt);
        (learnt, bt, lbd)
    }

    /// Redundancy test behind the deep minimization: walks the reason
    /// graph of `p` with an explicit stack. Newly visited variables are
    /// marked seen (and recorded in `to_clear`); on failure the marks
    /// added by this call are rolled back.
    fn lit_redundant(&mut self, p: Lit, abstract_levels: u32, to_clear: &mut Vec<Var>) -> bool {
        let mut stack = std::mem::take(&mut self.min_stack);
        stack.clear();
        stack.push(p);
        let top = to_clear.len();
        let mut redundant = true;
        'walk: while let Some(q) = stack.pop() {
            let cref = self.reason[q.var().index()];
            debug_assert_ne!(cref, REF_NONE, "stacked literal must have a reason");
            for k in 1..self.clauses.len(cref) {
                let l = self.clauses.lit(cref, k);
                let v = l.var();
                if self.seen[v.index()] != 0 || self.level[v.index()] == 0 {
                    continue;
                }
                if self.reason[v.index()] != REF_NONE
                    && self.abstract_level(v) & abstract_levels != 0
                {
                    self.seen[v.index()] = 1;
                    to_clear.push(v);
                    stack.push(l);
                } else {
                    redundant = false;
                    break 'walk;
                }
            }
        }
        if !redundant {
            for &v in &to_clear[top..] {
                self.seen[v.index()] = 0;
            }
            to_clear.truncate(top);
        }
        self.min_stack = stack;
        redundant
    }

    fn cancel_until(&mut self, level: u32) {
        if self.decision_level() <= level {
            return;
        }
        let lim = self.trail_lim[level as usize];
        for i in (lim..self.trail.len()).rev() {
            let v = self.trail[i].var();
            self.assigns[v.index()] = Assign::Undef;
            self.reason[v.index()] = REF_NONE;
            if self.heap_pos[v.index()] == HEAP_ABSENT {
                self.heap_insert(v);
            }
        }
        self.trail.truncate(lim);
        self.trail_lim.truncate(level as usize);
        self.qhead = self.trail.len();
    }

    // ---- binary-heap variable order (max-activity at root) ----

    fn heap_less(&self, a: Var, b: Var) -> bool {
        self.activity[a.index()] > self.activity[b.index()]
    }

    fn heap_insert(&mut self, v: Var) {
        self.heap_pos[v.index()] = self.heap.len();
        self.heap.push(v);
        self.heap_up(self.heap.len() - 1);
    }

    fn heap_up(&mut self, mut i: usize) {
        while i > 0 {
            let parent = (i - 1) / 2;
            if self.heap_less(self.heap[i], self.heap[parent]) {
                self.heap.swap(i, parent);
                self.heap_pos[self.heap[i].index()] = i;
                self.heap_pos[self.heap[parent].index()] = parent;
                i = parent;
            } else {
                break;
            }
        }
    }

    fn heap_down(&mut self, mut i: usize) {
        loop {
            let l = 2 * i + 1;
            let r = 2 * i + 2;
            let mut best = i;
            if l < self.heap.len() && self.heap_less(self.heap[l], self.heap[best]) {
                best = l;
            }
            if r < self.heap.len() && self.heap_less(self.heap[r], self.heap[best]) {
                best = r;
            }
            if best == i {
                break;
            }
            self.heap.swap(i, best);
            self.heap_pos[self.heap[i].index()] = i;
            self.heap_pos[self.heap[best].index()] = best;
            i = best;
        }
    }

    fn heap_update(&mut self, v: Var) {
        let pos = self.heap_pos[v.index()];
        if pos != HEAP_ABSENT {
            self.heap_up(pos);
            self.heap_down(self.heap_pos[v.index()]);
        }
    }

    fn heap_pop(&mut self) -> Option<Var> {
        if self.heap.is_empty() {
            return None;
        }
        let top = self.heap[0];
        let last = self.heap.pop().expect("heap is nonempty when removing");
        self.heap_pos[top.index()] = HEAP_ABSENT;
        if !self.heap.is_empty() {
            self.heap[0] = last;
            self.heap_pos[last.index()] = 0;
            self.heap_down(0);
        }
        Some(top)
    }

    fn pick_branch(&mut self) -> Option<Lit> {
        while let Some(v) = self.heap_pop() {
            if self.assigns[v.index()] == Assign::Undef {
                return Some(v.lit(self.phase[v.index()]));
            }
        }
        None
    }

    /// A clause is locked while it is the reason of its asserting
    /// literal's current assignment.
    fn is_locked(&self, cref: ClauseRef) -> bool {
        let l0 = self.clauses.lit(cref, 0);
        self.reason[l0.var().index()] == cref && self.lit_value(l0) == Assign::True
    }

    /// Removes roughly the worst half of the removable learnt clauses,
    /// ranked by LBD (higher glue first, lower activity breaking ties).
    /// Glue clauses (LBD ≤ 2), binary clauses, locked clauses, and
    /// clauses whose LBD improved since the last reduction are kept.
    fn reduce_db(&mut self) {
        self.stats.reduces += 1;
        let mut protected: Vec<ClauseRef> = Vec::new();
        let mut cands: Vec<ClauseRef> = Vec::new();
        for c in self.clauses.refs() {
            if !self.clauses.is_learnt(c) {
                continue;
            }
            if self.clauses.is_protected(c) {
                protected.push(c);
                continue;
            }
            if self.clauses.len(c) <= 2 || self.clauses.lbd(c) <= GLUE_LBD || self.is_locked(c) {
                continue;
            }
            cands.push(c);
        }
        // Immunity lasts exactly one reduction round.
        for c in protected {
            self.clauses.set_protected(c, false);
        }
        let db = &self.clauses;
        cands.sort_by(|&a, &b| {
            db.lbd(b)
                .cmp(&db.lbd(a))
                .then_with(|| db.activity(a).total_cmp(&db.activity(b)))
        });
        let half = cands.len() / 2;
        for &c in cands.iter().take(half) {
            self.detach_clause(c);
        }
        // Reclaim the arena once a quarter of it is tombstones.
        if self.clauses.wasted_ratio() > 0.25 {
            self.garbage_collect();
        }
        #[cfg(feature = "paranoid")]
        {
            let r = self.check();
            assert!(r.is_ok(), "paranoid: reduce_db left a corrupt solver: {r:?}");
        }
    }

    /// Forces a learnt-database reduction followed by an arena
    /// compaction. Reduction normally triggers automatically as the
    /// learnt database grows; this hook exists so tests and benchmarks
    /// can exercise the reduce + GC path deterministically.
    pub fn reduce_learnts(&mut self) {
        self.reduce_db();
        self.garbage_collect();
    }

    fn detach_clause(&mut self, cref: ClauseRef) {
        let w0 = self.clauses.lit(cref, 0).negate().code();
        let w1 = self.clauses.lit(cref, 1).negate().code();
        self.watches[w0].retain(|w| w.cref != cref);
        self.watches[w1].retain(|w| w.cref != cref);
        if self.clauses.is_learnt(cref) {
            self.stats.learnts = self.stats.learnts.saturating_sub(1);
        }
        self.clauses.delete(cref);
    }

    /// Compacts the clause arena and rewrites every stored reference
    /// (watch lists and reason pointers) through the forwarding table.
    fn garbage_collect(&mut self) {
        let map = self.clauses.compact();
        for ws in &mut self.watches {
            for w in ws.iter_mut() {
                w.cref = map.translate(w.cref);
            }
        }
        for r in &mut self.reason {
            if *r != REF_NONE {
                *r = map.translate(*r);
            }
        }
        self.stats.gcs += 1;
        #[cfg(feature = "paranoid")]
        {
            let r = self.check();
            assert!(r.is_ok(), "paranoid: garbage_collect left a corrupt solver: {r:?}");
        }
    }

    /// Solves the formula under the given assumptions.
    ///
    /// Assumptions are temporary unit constraints for this call only;
    /// the solver remains usable afterwards with different assumptions
    /// or additional clauses.
    pub fn solve(&mut self, assumptions: &[Lit]) -> SolveResult {
        self.solve_limited(assumptions, u64::MAX)
            .expect("unlimited solve always terminates with a result")
    }

    /// Like [`Solver::solve`] but gives up after `max_conflicts`
    /// conflicts, returning `None`. The solver stays usable (learnt
    /// clauses from the attempt are kept).
    pub fn solve_limited(&mut self, assumptions: &[Lit], max_conflicts: u64) -> Option<SolveResult> {
        if !self.ok {
            return Some(SolveResult::Unsat);
        }
        self.cancel_until(0);

        let mut max_learnts = (self.num_clauses() as f64 * 0.4).max(1000.0);
        let mut conflicts_left = max_conflicts;

        // Adaptive (Glucose-style) restart state, per call, all in
        // exact integer arithmetic so the policy is reproducible. A
        // sliding window holds the LBDs of the last `RESTART_WINDOW`
        // conflicts; once full, a restart fires when the window
        // average runs 25% above the call's global mean — the search
        // has drifted into a region of worse learnt clauses. When the
        // trail has grown 40% past its own global mean the window is
        // cleared instead ("blocked" restart): the solver looks close
        // to a model worth keeping, so the next restart is at least a
        // full window of fresh conflicts away.
        const RESTART_WINDOW: usize = 50;
        let mut conflicts_seen = 0u64;
        let mut sum_lbd = 0u64;
        let mut sum_trail = 0u64;
        let mut win = [0u32; RESTART_WINDOW];
        let mut win_pos = 0usize;
        let mut win_cnt = 0usize;
        let mut win_sum = 0u64;

        loop {
            if let Some(conflict) = self.propagate() {
                if conflicts_left == 0 {
                    self.cancel_until(0);
                    return None;
                }
                conflicts_left -= 1;
                self.stats.conflicts += 1;
                if self.decision_level() == 0 {
                    self.ok = false;
                    return Some(SolveResult::Unsat);
                }
                let (learnt, bt, lbd) = self.analyze(conflict);
                conflicts_seen += 1;
                sum_lbd += lbd as u64;
                let tlen = self.trail.len() as u64;
                sum_trail += tlen;
                if win_cnt == RESTART_WINDOW && 5 * tlen * conflicts_seen > 7 * sum_trail {
                    self.stats.blocked_restarts += 1;
                    win_cnt = 0;
                    win_pos = 0;
                    win_sum = 0;
                }
                if win_cnt == RESTART_WINDOW {
                    win_sum -= win[win_pos] as u64;
                } else {
                    win_cnt += 1;
                }
                win[win_pos] = lbd;
                win_sum += lbd as u64;
                win_pos = (win_pos + 1) % RESTART_WINDOW;
                self.cancel_until(bt);
                if learnt.len() == 1 {
                    self.unchecked_enqueue(learnt[0], REF_NONE);
                } else {
                    let asserting = learnt[0];
                    let cref = self.attach_clause(&learnt, true, lbd);
                    self.cla_bump(cref);
                    self.unchecked_enqueue(asserting, cref);
                }
                self.var_decay();
                self.cla_decay();
                if self.stats.learnts as f64 > max_learnts {
                    self.reduce_db();
                    max_learnts *= 1.1;
                }
            } else {
                // Restart when the recent-LBD window says the search
                // has degraded: window average > 1.25 × global mean,
                // compared cross-multiplied so the test is exact.
                let adaptive = win_cnt == RESTART_WINDOW
                    && 2 * win_sum * conflicts_seen > 125 * sum_lbd;
                if adaptive && self.decision_level() > assumptions.len() as u32 {
                    self.stats.restarts += 1;
                    self.stats.adaptive_restarts += 1;
                    // A restart empties the window: the next one is at
                    // least a full window of fresh conflicts away.
                    win_cnt = 0;
                    win_pos = 0;
                    win_sum = 0;
                    self.cancel_until(assumptions.len() as u32);
                    continue;
                }
                // Establish assumptions, one decision level each.
                let dl = self.decision_level() as usize;
                if dl < assumptions.len() {
                    let a = assumptions[dl];
                    match self.lit_value(a) {
                        Assign::True => {
                            // Already implied; open an empty level to
                            // keep level ↔ assumption indexing.
                            self.trail_lim.push(self.trail.len());
                        }
                        Assign::False => {
                            return Some(SolveResult::Unsat);
                        }
                        Assign::Undef => {
                            self.trail_lim.push(self.trail.len());
                            self.unchecked_enqueue(a, REF_NONE);
                        }
                    }
                    continue;
                }
                match self.pick_branch() {
                    None => return Some(SolveResult::Sat),
                    Some(l) => {
                        self.stats.decisions += 1;
                        self.trail_lim.push(self.trail.len());
                        self.unchecked_enqueue(l, REF_NONE);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vars(s: &mut Solver, n: usize) -> Vec<Var> {
        (0..n).map(|_| s.new_var()).collect()
    }

    #[test]
    fn trivial_sat_then_unsat() {
        let mut s = Solver::new();
        let v = vars(&mut s, 2);
        assert!(s.add_clause(&[v[0].pos()]));
        assert!(s.add_clause(&[v[1].neg()]));
        assert_eq!(s.solve(&[]), SolveResult::Sat);
        assert_eq!(s.value(v[0]), Some(true));
        assert_eq!(s.value(v[1]), Some(false));
        s.add_clause(&[v[0].neg()]);
        assert_eq!(s.solve(&[]), SolveResult::Unsat);
    }

    #[test]
    fn empty_clause_is_unsat() {
        let mut s = Solver::new();
        let _ = vars(&mut s, 1);
        assert!(!s.add_clause(&[]));
        assert_eq!(s.solve(&[]), SolveResult::Unsat);
    }

    #[test]
    fn unit_propagation_chain() {
        let mut s = Solver::new();
        let v = vars(&mut s, 20);
        s.add_clause(&[v[0].pos()]);
        for i in 0..19 {
            s.add_clause(&[v[i].neg(), v[i + 1].pos()]);
        }
        assert_eq!(s.solve(&[]), SolveResult::Sat);
        for &x in &v {
            assert_eq!(s.value(x), Some(true));
        }
    }

    fn pigeonhole(n: usize, m: usize) -> (Solver, SolveResult) {
        let mut s = Solver::new();
        let p: Vec<Vec<Var>> = (0..n).map(|_| vars(&mut s, m)).collect();
        for row in &p {
            let c: Vec<Lit> = row.iter().map(|v| v.pos()).collect();
            s.add_clause(&c);
        }
        for hole in 0..m {
            for (i, pi) in p.iter().enumerate() {
                for pj in &p[i + 1..] {
                    s.add_clause(&[pi[hole].neg(), pj[hole].neg()]);
                }
            }
        }
        let r = s.solve(&[]);
        (s, r)
    }

    #[test]
    fn pigeonhole_unsat() {
        assert_eq!(pigeonhole(3, 2).1, SolveResult::Unsat);
        assert_eq!(pigeonhole(5, 4).1, SolveResult::Unsat);
        let (s, r) = pigeonhole(6, 5);
        assert_eq!(r, SolveResult::Unsat);
        assert!(s.stats().conflicts > 0);
    }

    #[test]
    fn pigeonhole_sat_when_enough_holes() {
        assert_eq!(pigeonhole(4, 4).1, SolveResult::Sat);
    }

    #[test]
    fn adaptive_restarts_fire_on_hard_unsat() {
        let (s, r) = pigeonhole(7, 6);
        assert_eq!(r, SolveResult::Unsat);
        let st = s.stats();
        eprintln!("pigeonhole(7,6): {st:?}");
        let (s87, _) = pigeonhole(8, 7);
        eprintln!("pigeonhole(8,7): {:?}", s87.stats());
        // The hole instance runs long enough to fill the LBD window
        // several times over, so the adaptive policy must fire.
        assert!(st.adaptive_restarts > 0, "adaptive policy never fired: {st:?}");
        assert_eq!(st.adaptive_restarts, st.restarts);
        // Counters are pure functions of the clause sequence — a
        // second identical run reproduces them exactly.
        let (s2, _) = pigeonhole(7, 6);
        assert_eq!(format!("{st:?}"), format!("{:?}", s2.stats()));
    }

    #[test]
    fn assumptions() {
        let mut s = Solver::new();
        let v = vars(&mut s, 3);
        s.add_clause(&[v[0].neg(), v[1].pos()]);
        s.add_clause(&[v[1].neg(), v[2].pos()]);
        assert_eq!(s.solve(&[v[0].pos(), v[2].neg()]), SolveResult::Unsat);
        assert_eq!(s.solve(&[v[0].pos()]), SolveResult::Sat);
        assert_eq!(s.value(v[2]), Some(true));
        // Solver remains usable with different assumptions.
        assert_eq!(s.solve(&[v[2].neg()]), SolveResult::Sat);
        assert_eq!(s.value(v[0]), Some(false));
    }

    #[test]
    fn random_3sat_vs_bruteforce() {
        let mut state = 0xC0FF_EE11_D15E_A5E5u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for inst in 0..80 {
            let nv = 8;
            let nc = 3 + (next() % 36) as usize;
            let mut clauses = Vec::new();
            for _ in 0..nc {
                let mut cl = Vec::new();
                for _ in 0..3 {
                    let v = (next() % nv as u64) as u32;
                    let neg = next() & 1 == 1;
                    let var = Var(v);
                    cl.push(if neg { var.neg() } else { var.pos() });
                }
                clauses.push(cl);
            }
            let mut bf_sat = false;
            'bf: for m in 0..(1u64 << nv) {
                for cl in &clauses {
                    let sat = cl.iter().any(|l| (m >> l.var().index() & 1 == 1) != l.is_neg());
                    if !sat {
                        continue 'bf;
                    }
                }
                bf_sat = true;
                break;
            }
            let mut s = Solver::new();
            let _v = vars(&mut s, nv);
            let mut ok = true;
            for cl in &clauses {
                ok &= s.add_clause(cl);
            }
            let res = if ok { s.solve(&[]) } else { SolveResult::Unsat };
            assert_eq!(res == SolveResult::Sat, bf_sat, "instance {inst}");
            if res == SolveResult::Sat {
                for cl in &clauses {
                    assert!(cl
                        .iter()
                        .any(|l| s.value(l.var()).unwrap() != l.is_neg()));
                }
            }
        }
    }

    #[test]
    fn literals_display_and_negate() {
        let v = Var(3);
        assert_eq!(v.pos().negate(), v.neg());
        assert_eq!(v.pos().to_string(), "x3");
        assert_eq!(v.neg().to_string(), "¬x3");
        assert!(v.neg().is_neg());
        assert_eq!(v.lit(true), v.pos());
        assert_eq!(Var::from_index(3), v);
    }
}
