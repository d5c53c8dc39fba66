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

    fn or(&mut self, a: Self::L, b: Self::L) -> Self::L {
        let n = self.and(Self::not(a), Self::not(b));
        Self::not(n)
    }

    fn xor(&mut self, a: Self::L, b: Self::L) -> Self::L {
        let n0 = self.and(a, Self::not(b));
        let n1 = self.and(Self::not(a), b);
        self.or(n0, n1)
    }
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
/// stamping.
#[derive(Default)]
pub(crate) struct MffcSet {
    stamp: Vec<u32>,
    cur: u32,
    members: Vec<NodeId>,
}

impl MffcSet {
    /// Starts a new set over the given node universe.
    pub fn begin(&mut self, num_nodes: usize) {
        if self.stamp.len() < num_nodes {
            self.stamp.resize(num_nodes, 0);
        }
        self.cur += 1;
        self.members.clear();
    }

    pub fn insert(&mut self, id: NodeId) {
        self.stamp[id.index()] = self.cur;
        self.members.push(id);
    }

    pub fn contains(&self, id: NodeId) -> bool {
        self.stamp.get(id.index()).copied() == Some(self.cur)
    }
}

/// Exact revive accounting: of the MFFC nodes a replacement would
/// free, how many stay alive because the candidate reuses them (or
/// its leaves sit inside the cone)? Counts the reused roots *and*
/// their in-MFFC fanin cones — the part naive `saved - created`
/// accounting overestimates.
pub(crate) fn revive_count(
    aig: &Aig,
    set: &MffcSet,
    roots: impl Iterator<Item = NodeId>,
    visited: &mut Vec<NodeId>,
) -> usize {
    visited.clear();
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
