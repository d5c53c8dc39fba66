//! Dry candidate construction and exact gain accounting.
//!
//! Rewriting decides whether a replacement structure pays off *before*
//! touching the graph: the candidate is walked through a virtual
//! builder that mirrors [`Aig::and`]'s trivial rules and structural
//! hashing without inserting anything, counting the nodes a real build
//! would create. Combined with an MFFC deref walk this gives exact,
//! order-independent gain accounting: rejected candidates leave no
//! trace in the graph or its strash (a candidate built for real and
//! then rejected would stay in the strash, and later candidates
//! reusing its nodes would be under-charged).

use cntfet_aig::{Aig, Lit, NodeId};

/// A literal during dry construction: either a real literal of the
/// graph or a *virtual* node a real build would have to create.
///
/// Encoding: real literals keep their [`Lit::code`]; virtual literals
/// set [`VIRT`] and carry `virtual_id << 1 | complement`, so the
/// trivial rules (`x·x`, `x·x̄`) apply uniformly via code arithmetic.
pub(crate) type VLit = u64;

const VIRT: u64 = 1 << 33;

pub(crate) fn real(l: Lit) -> VLit {
    l.code() as u64
}

fn as_real(v: VLit) -> Option<Lit> {
    (v & VIRT == 0).then(|| Lit::from_code(v as u32))
}

const VFALSE: VLit = 0; // Lit::FALSE.code()
const VTRUE: VLit = 1;

/// Mirrors the construction interface of [`Aig`] so candidate walks
/// can run either for real (against the graph) or dry (against a
/// virtual strash). Implementations must agree exactly — the dry
/// walk's `created` count is only exact because both sides apply the
/// same trivial rules and hashing.
pub(crate) trait Build {
    type L: Copy;
    fn lfalse() -> Self::L;
    fn ltrue() -> Self::L;
    fn not(l: Self::L) -> Self::L;
    fn and(&mut self, a: Self::L, b: Self::L) -> Self::L;
}

/// The real builder: plain construction into the graph.
pub(crate) struct RealBuild<'a>(pub &'a mut Aig);

impl Build for RealBuild<'_> {
    type L = Lit;
    fn lfalse() -> Lit {
        Lit::FALSE
    }
    fn ltrue() -> Lit {
        Lit::TRUE
    }
    fn not(l: Lit) -> Lit {
        l.negate()
    }
    fn and(&mut self, a: Lit, b: Lit) -> Lit {
        self.0.and(a, b)
    }
}

/// Reusable scratch of the dry builder; candidates are small (a few
/// dozen steps at most), so the virtual strash is a linear list.
#[derive(Default)]
pub(crate) struct DryScratch {
    /// Virtual strash entries `(a, b, result)`: operand pair →
    /// virtual node, so repeated sub-structures are counted once,
    /// exactly as real structural hashing would create them once.
    vstrash: Vec<(VLit, VLit, VLit)>,
    /// Number of nodes a real build would create.
    pub created: usize,
    /// Live AND nodes the candidate would reuse (strash hits).
    pub reused: Vec<NodeId>,
}

impl DryScratch {
    pub fn reset(&mut self) {
        self.vstrash.clear();
        self.created = 0;
        self.reused.clear();
    }
}

/// The dry builder: counts the nodes a real build would create and
/// records which existing nodes it would reuse.
pub(crate) struct DryBuild<'a> {
    aig: &'a Aig,
    pub s: &'a mut DryScratch,
}

impl<'a> DryBuild<'a> {
    /// A dry builder over freshly reset scratch.
    pub fn new(aig: &'a Aig, s: &'a mut DryScratch) -> DryBuild<'a> {
        s.reset();
        DryBuild { aig, s }
    }
}

impl Build for DryBuild<'_> {
    type L = VLit;
    fn lfalse() -> VLit {
        VFALSE
    }
    fn ltrue() -> VLit {
        VTRUE
    }
    fn not(l: VLit) -> VLit {
        l ^ 1
    }
    fn and(&mut self, a: VLit, b: VLit) -> VLit {
        if a == VFALSE || b == VFALSE || a == b ^ 1 {
            return VFALSE;
        }
        if a == VTRUE {
            return b;
        }
        if b == VTRUE || a == b {
            return a;
        }
        if let (Some(ra), Some(rb)) = (as_real(a), as_real(b)) {
            if let Some(l) = self.aig.find_and(ra, rb) {
                if self.aig.is_and(l.node()) {
                    self.s.reused.push(l.node());
                }
                return real(l);
            }
        }
        let key = if a < b { (a, b) } else { (b, a) };
        if let Some(&(_, _, v)) = self.s.vstrash.iter().find(|&&(x, y, _)| (x, y) == key) {
            return v;
        }
        self.s.created += 1;
        let v = VIRT | ((self.s.vstrash.len() as u64) << 1);
        self.s.vstrash.push((key.0, key.1, v));
        v
    }
}

/// Scratch set of the node's MFFC, reused across evaluations via
/// stamping, together with the visited stamps and stack of
/// [`revive_count`].
#[derive(Default)]
pub(crate) struct MffcSet {
    stamp: Vec<u32>,
    cur: u32,
    /// Per node: the [`revive_count`] walk that last visited it.
    seen: Vec<u32>,
    walk: u32,
    stack: Vec<NodeId>,
}

impl MffcSet {
    /// Starts a new set over the given node universe.
    pub fn begin(&mut self, num_nodes: usize) {
        if self.stamp.len() < num_nodes {
            self.stamp.resize(num_nodes, 0);
            self.seen.resize(num_nodes, 0);
        }
        next_epoch(&mut self.stamp, &mut self.cur);
    }

    pub fn insert(&mut self, id: NodeId) {
        self.stamp[id.index()] = self.cur;
    }

    pub fn contains(&self, id: NodeId) -> bool {
        self.stamp.get(id.index()).copied() == Some(self.cur)
    }

    /// Marks a member visited by the current walk; false if it already
    /// was.
    fn visit(&mut self, id: NodeId) -> bool {
        let seen = &mut self.seen[id.index()];
        let fresh = *seen != self.walk;
        *seen = self.walk;
        fresh
    }
}

/// Advances an epoch counter over its stamp array. When the counter
/// wraps, the stamps are cleared, so no stamp left from an earlier
/// epoch can match the new one.
fn next_epoch(stamps: &mut [u32], epoch: &mut u32) {
    *epoch = epoch.wrapping_add(1);
    if *epoch == 0 {
        stamps.fill(0);
        *epoch = 1;
    }
}

/// Exact revive accounting: of the MFFC nodes a replacement would
/// free, how many stay alive because the candidate reuses them (or
/// its leaves sit inside the cone)? Counts the reused roots *and*
/// their in-MFFC fanin cones — the part naive `saved - created`
/// accounting overestimates.
pub(crate) fn revive_count(
    aig: &Aig,
    set: &mut MffcSet,
    roots: impl Iterator<Item = NodeId> + Clone,
) -> usize {
    #[cfg(test)]
    let reference = revive_count_list(aig, set, roots.clone());
    next_epoch(&mut set.seen, &mut set.walk);
    set.stack.clear();
    for r in roots {
        if set.contains(r) && set.visit(r) {
            set.stack.push(r);
        }
    }
    let mut count = 0;
    while let Some(x) = set.stack.pop() {
        count += 1;
        if aig.is_and(x) {
            let (f0, f1) = aig.fanins(x);
            for f in [f0.node(), f1.node()] {
                if set.contains(f) && set.visit(f) {
                    set.stack.push(f);
                }
            }
        }
    }
    #[cfg(test)]
    {
        assert_eq!(count, reference, "stamp-based revive count disagrees with the reference");
        REVIVE_CHECKS.with(|n| n.set(n.get() + 1));
    }
    count
}

/// The list-based revive count that [`revive_count`] replaced, kept as
/// its reference: every test build cross-checks each count against it.
#[cfg(test)]
fn revive_count_list(aig: &Aig, set: &MffcSet, roots: impl Iterator<Item = NodeId>) -> usize {
    let mut visited: Vec<NodeId> = Vec::new();
    let mut stack: Vec<NodeId> = roots.filter(|&r| set.contains(r)).collect();
    while let Some(x) = stack.pop() {
        if visited.contains(&x) {
            continue;
        }
        visited.push(x);
        if aig.is_and(x) {
            let (f0, f1) = aig.fanins(x);
            for f in [f0.node(), f1.node()] {
                if set.contains(f) && !visited.contains(&f) {
                    stack.push(f);
                }
            }
        }
    }
    visited.len()
}

#[cfg(test)]
thread_local! {
    /// Revive counts [`revive_count`] checked against the reference on
    /// this thread.
    static REVIVE_CHECKS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stamp_revive_count_matches_the_list_reference_on_the_suite() {
        // `revive_count` asserts against the reference on every call,
        // so one rewrite sweep per circuit checks every candidate the
        // pass costs.
        let names = ["C1908", "C6288", "des", "t481", "C5315"];
        let benches: Vec<_> = cntfet_circuits::paper_benchmarks()
            .into_iter()
            .filter(|b| names.contains(&b.name))
            .collect();
        assert_eq!(benches.len(), names.len());
        let checks = || REVIVE_CHECKS.with(|c| c.get());
        for b in benches {
            let mut g = b.aig.clone();
            let before = checks();
            crate::rewrite_inplace(&mut g, false);
            assert!(checks() > before, "{}: rewrite costed no candidate", b.name);
        }
    }

    #[test]
    fn revive_stamps_survive_epoch_wrap() {
        // x = a·b, y = x·c, o = y·d: the MFFC of o is {o, y, x}.
        let mut g = Aig::new("wrap");
        let p = g.add_pis(4);
        let x = g.and(p[0], p[1]);
        let y = g.and(x, p[2]);
        let o = g.and(y, p[3]);
        g.add_po(o);
        let mut set = MffcSet { cur: u32::MAX - 1, walk: u32::MAX - 1, ..MffcSet::default() };
        for _ in 0..4 {
            set.begin(g.num_nodes());
            for l in [x, y, o] {
                set.insert(l.node());
            }
            // Repeated roots and a root outside the set count once.
            let roots = [y.node(), y.node(), p[0].node()];
            assert_eq!(revive_count(&g, &mut set, roots.iter().copied()), 2);
            assert_eq!(revive_count(&g, &mut set, [x.node()].into_iter()), 1);
        }
        assert!(set.cur < 4 && set.walk < 8, "the epochs wrapped");
    }
}
