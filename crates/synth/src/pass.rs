//! The pass framework: a [`Pass`] transforms an AIG in place, a
//! [`Script`] runs a sequence of passes with per-pass statistics,
//! timing, and an optional CEC self-check after every pass.

use cntfet_aig::{check_equivalence_sweeping, Aig, CecResult};
use std::time::{Duration, Instant};

/// Statistics snapshot of an AIG.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AigStats {
    /// Number of AND nodes.
    pub ands: usize,
    /// Logic depth.
    pub depth: u32,
}

impl AigStats {
    /// Captures the stats of an AIG.
    pub fn of(aig: &Aig) -> AigStats {
        AigStats { ands: aig.num_ands(), depth: aig.depth() }
    }

    /// `(ands, depth)` lexicographic comparison: true iff `self` is
    /// strictly better than `other` (fewer ANDs, or equal ANDs and
    /// smaller depth).
    pub fn better_than(&self, other: &AigStats) -> bool {
        self.ands < other.ands || (self.ands == other.ands && self.depth < other.depth)
    }
}

/// One in-place AIG optimization pass.
///
/// A pass receives a compacted graph (topologically-ordered ids, no
/// dead nodes), edits it — typically through an editing session
/// ([`Aig::begin_edit`] / [`Aig::replace_node`]) — and leaves it
/// compacted again. The return value counts applied transformations.
/// A pass carries nothing from one call to the next: a cut-based pass
/// enumerates the cuts of the graph it receives and drops them when
/// it returns.
///
/// # Examples
///
/// ```
/// use cntfet_aig::Aig;
/// use cntfet_synth::{Pass, Rewrite};
///
/// let mut g = Aig::new("t");
/// let p = g.add_pis(3);
/// let x = g.xor(p[0], p[1]);
/// // The same XOR built as a complemented XNOR — a structurally
/// // distinct duplicate that plain structural hashing cannot merge.
/// let n0 = g.and(p[0], p[1]);
/// let n1 = g.and(p[0].negate(), p[1].negate());
/// let y = g.or(n0, n1).negate();
/// let z = g.and(x, y);       // == x
/// let o = g.and(z, p[2]);
/// g.add_po(o);
///
/// let before = g.num_ands();
/// let applied = Rewrite::new(false).apply(&mut g);
/// assert!(applied > 0 && g.num_ands() < before);
/// ```
pub trait Pass {
    /// Human-readable pass name (shown in [`ScriptReport`]).
    fn name(&self) -> String;

    /// Runs the pass, returning the number of applied transformations.
    fn apply(&mut self, aig: &mut Aig) -> usize;

    /// Names of the passes that would apply nothing right after this
    /// one left a graph untouched: it applied nothing and appended no
    /// node. [`Script`] then skips their reruns on that graph as it
    /// skips this pass's own. The default names none.
    fn implied_noops(&self) -> Vec<String> {
        Vec::new()
    }
}

/// Per-pass record of a [`Script`] run.
#[derive(Debug, Clone)]
pub struct PassStats {
    /// Pass name.
    pub name: String,
    /// Stats before the pass.
    pub before: AigStats,
    /// Stats after the pass.
    pub after: AigStats,
    /// Transformations the pass applied.
    pub applied: usize,
    /// Wall time of the pass.
    pub time: Duration,
    /// True when the runner skipped the pass because an identical pass
    /// already ran on this exact graph and applied nothing (passes are
    /// deterministic, so the rerun would be a guaranteed no-op).
    pub skipped: bool,
}

/// Result of a [`Script`] run.
#[derive(Debug, Clone)]
pub struct ScriptReport {
    /// One entry per executed pass, in order.
    pub passes: Vec<PassStats>,
    /// Whether every pass was CEC-checked against its input.
    pub checked: bool,
}

impl ScriptReport {
    /// Total transformations applied across all passes.
    pub fn total_applied(&self) -> usize {
        self.passes.iter().map(|p| p.applied).sum()
    }

    /// Total wall time across all passes.
    pub fn total_time(&self) -> Duration {
        self.passes.iter().map(|p| p.time).sum()
    }
}

/// A sequence of passes run back to back on one graph.
///
/// # Examples
///
/// ```
/// use cntfet_aig::Aig;
/// use cntfet_synth::{Balance, Rewrite, Script};
///
/// let mut g = Aig::new("chain");
/// let pis = g.add_pis(8);
/// let mut acc = pis[0];
/// for &p in &pis[1..] {
///     acc = g.and(acc, p);
/// }
/// g.add_po(acc);
///
/// let mut script = Script::new()
///     .then(Balance)
///     .then(Rewrite::new(false))
///     .then(Rewrite::new(true))
///     .with_self_check(true); // CEC after every pass
/// let report = script.run(&mut g);
/// assert_eq!(report.passes.len(), 3);
/// assert!(report.checked);
/// assert_eq!(g.depth(), 3); // the AND chain is now a balanced tree
/// ```
#[derive(Default)]
pub struct Script {
    passes: Vec<Box<dyn Pass>>,
    self_check: bool,
    /// Monotone graph-mutation counter, persisted across [`Script::run`]
    /// calls so repeated runs on the same (converged) graph skip
    /// no-op passes immediately.
    version: usize,
    /// Pass name → graph version at which it last applied nothing.
    noop_at: std::collections::HashMap<String, usize>,
    /// [`Aig::fingerprint`] of the graph as the previous `run` left
    /// it; a different graph on the next `run` resets the ledger (the
    /// recorded no-ops say nothing about it).
    last_graph: Option<u128>,
}

impl Script {
    /// An empty script.
    pub fn new() -> Script {
        Script::default()
    }

    /// Appends a pass.
    #[must_use]
    pub fn then(mut self, pass: impl Pass + 'static) -> Script {
        self.passes.push(Box::new(pass));
        self
    }

    /// Enables (or disables) the CEC self-check hook: after every
    /// pass, the result is checked equivalent to the pass input by SAT
    /// sweeping ([`check_equivalence_sweeping`]).
    ///
    /// # Panics
    ///
    /// [`Script::run`] panics if a checked pass breaks equivalence —
    /// the hook is a debugging safety net, not a recovery mechanism.
    #[must_use]
    pub fn with_self_check(mut self, check: bool) -> Script {
        self.self_check = check;
        self
    }

    /// Number of passes.
    pub fn len(&self) -> usize {
        self.passes.len()
    }

    /// True when the script has no passes.
    pub fn is_empty(&self) -> bool {
        self.passes.is_empty()
    }

    /// Runs every pass in order on `aig`, collecting stats.
    ///
    /// Passes are deterministic, so rerunning a pass that already ran
    /// on the exact same graph and applied nothing is a guaranteed
    /// no-op; the runner tracks a graph version and skips such reruns
    /// (recorded with [`PassStats::skipped`]), and likewise the passes
    /// such a no-op implies ([`Pass::implied_noops`]). The version state
    /// persists across `run` calls, so re-running a script on its own
    /// converged output (the `resyn2rs` round loop) skips straight
    /// through — while a structurally different input graph resets the
    /// ledger and runs everything.
    pub fn run(&mut self, aig: &mut Aig) -> ScriptReport {
        let mut report =
            ScriptReport { passes: Vec::with_capacity(self.passes.len()), checked: self.self_check };
        if self.last_graph != Some(aig.fingerprint()) {
            self.noop_at.clear();
        }
        let version = &mut self.version;
        let noop_at = &mut self.noop_at;
        for pass in &mut self.passes {
            let name = pass.name();
            let before = AigStats::of(aig);
            if noop_at.get(&name) == Some(version) {
                report.passes.push(PassStats {
                    name,
                    before,
                    after: before,
                    applied: 0,
                    time: Duration::ZERO,
                    skipped: true,
                });
                continue;
            }
            let reference = self.self_check.then(|| aig.clone());
            let nodes = aig.num_nodes();
            let t = Instant::now();
            let applied = pass.apply(aig);
            let time = t.elapsed();
            if let Some(reference) = reference {
                assert_eq!(
                    check_equivalence_sweeping(&reference, aig),
                    CecResult::Equivalent,
                    "pass `{name}` broke equivalence (self-check)"
                );
            }
            #[cfg(feature = "paranoid")]
            {
                let r = aig.check();
                assert!(r.is_ok(), "paranoid: pass `{name}` left a corrupt graph: {r:?}");
            }
            if applied > 0 {
                *version += 1;
            } else {
                noop_at.insert(name.clone(), *version);
                if aig.num_nodes() == nodes {
                    for implied in pass.implied_noops() {
                        noop_at.insert(implied, *version);
                    }
                }
            }
            report.passes.push(PassStats {
                name,
                before,
                after: AigStats::of(aig),
                applied,
                time,
                skipped: false,
            });
        }
        self.last_graph = Some(aig.fingerprint());
        report
    }

    /// The `resyn2rs` pass sequence (one round): ABC's `resyn2`
    /// without its two refactoring (`rf`) passes, `b; rw; b; rw;
    /// rw -z; b; rw -z; b` — alternating balancing and DAG-aware 4-cut
    /// rewriting, with zero-cost (`-z`) perturbation passes late in
    /// the sequence. A refactor over five size-ranked cuts per node,
    /// the smallest ones, applied nothing on any benchmark circuit
    /// while taking about a fifth of synthesis time, so the round has
    /// none; ABC refactors one reconvergence-driven cut per node.
    pub fn resyn2rs() -> Script {
        use crate::{Balance, Rewrite};
        Script::new()
            .then(Balance)
            .then(Rewrite::new(false))
            .then(Balance)
            .then(Rewrite::new(false))
            .then(Rewrite::new(true))
            .then(Balance)
            .then(Rewrite::new(true))
            .then(Balance)
    }

    /// The light quick-optimization sequence (balance + rewrite).
    pub fn quick() -> Script {
        use crate::{Balance, Rewrite};
        Script::new().then(Balance).then(Rewrite::new(false))
    }
}

impl std::fmt::Debug for Script {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let names: Vec<String> = self.passes.iter().map(|p| p.name()).collect();
        f.debug_struct("Script")
            .field("passes", &names)
            .field("self_check", &self.self_check)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn and_chain(n: usize) -> Aig {
        let mut g = Aig::new("chain");
        let pis = g.add_pis(n);
        let mut acc = pis[0];
        for &p in &pis[1..] {
            acc = g.and(acc, p);
        }
        g.add_po(acc);
        g
    }

    #[test]
    fn noop_ledger_resets_for_a_different_graph() {
        // Converge on a graph where every pass is a no-op...
        let mut g1 = Aig::new("opt");
        let p = g1.add_pis(2);
        let x = g1.and(p[0], p[1]);
        g1.add_po(x);
        let mut script = Script::quick();
        script.run(&mut g1);
        let second = script.run(&mut g1);
        assert!(second.passes.iter().any(|p| p.skipped), "rerun on same graph must skip");
        // ...then hand the same Script a different graph: nothing may
        // be skipped, and the chain must actually get balanced.
        let mut g2 = and_chain(16);
        let report = script.run(&mut g2);
        assert!(report.passes.iter().all(|p| !p.skipped), "fresh graph was skipped");
        assert_eq!(g2.depth(), 4);
    }

    #[test]
    fn untouched_graph_after_zero_cost_rewrite_skips_rewrite() {
        use crate::Rewrite;
        // A lone AND: `rewrite -z` applies nothing and builds nothing,
        // so the plain rewrite after it is skipped.
        let mut g = Aig::new("and2");
        let p = g.add_pis(2);
        let x = g.and(p[0], p[1]);
        g.add_po(x);
        let mut script = Script::new().then(Rewrite::new(true)).then(Rewrite::new(false));
        let report = script.run(&mut g);
        assert_eq!(report.passes[0].applied, 0);
        assert!(!report.passes[0].skipped && report.passes[1].skipped);
        // The plain rewrite implies nothing about the zero-cost one.
        let mut script = Script::new().then(Rewrite::new(false)).then(Rewrite::new(true));
        let report = script.run(&mut g);
        assert!(report.passes.iter().all(|p| !p.skipped));
    }
}
