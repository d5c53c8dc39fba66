//! NPN (negation–permutation–negation) canonicalization of Boolean
//! functions of up to 6 variables.
//!
//! Two functions are NPN-equivalent when one can be obtained from the
//! other by complementing inputs, permuting inputs, and/or
//! complementing the output. Technology mapping uses the canonical
//! representative to index library cells: a cut matches a cell iff
//! their canonical forms are equal.

use crate::cache::CacheStats;
use crate::tt::TruthTable;
use crate::word;
use std::sync::atomic::{AtomicU64, Ordering};

/// An NPN transform: `apply(f)(x) = f(y) ^ output_flip` where
/// `y[perm[i]] = x[i] ^ input_flip_bit(i)` — i.e. first complement
/// selected inputs, then rename input `i` to position `perm[i]`, then
/// optionally complement the output.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct NpnTransform {
    nvars: u8,
    perm: [u8; 6],
    input_flips: u8,
    output_flip: bool,
}

impl NpnTransform {
    /// The identity transform on `nvars` variables.
    pub fn identity(nvars: usize) -> Self {
        assert!(nvars <= 6);
        let mut perm = [0u8; 6];
        for (i, p) in perm.iter_mut().enumerate() {
            *p = i as u8;
        }
        NpnTransform { nvars: nvars as u8, perm, input_flips: 0, output_flip: false }
    }

    /// Builds a transform from its parts.
    ///
    /// # Panics
    ///
    /// Panics if `perm` is not a permutation of `0..nvars`.
    pub fn new(nvars: usize, perm: &[usize], input_flips: u8, output_flip: bool) -> Self {
        assert!(nvars <= 6 && perm.len() == nvars);
        let mut t = Self::identity(nvars);
        let mut seen = 0u8;
        for (i, &p) in perm.iter().enumerate() {
            assert!(p < nvars && seen & (1 << p) == 0, "invalid permutation");
            seen |= 1 << p;
            t.perm[i] = p as u8;
        }
        t.input_flips = input_flips & ((1u8 << nvars).wrapping_sub(1));
        t.output_flip = output_flip;
        t
    }

    /// Number of variables the transform acts on.
    pub fn nvars(&self) -> usize {
        self.nvars as usize
    }

    /// Destination position of input `i`.
    pub fn perm(&self, i: usize) -> usize {
        self.perm[i] as usize
    }

    /// Whether input `i` is complemented before permutation.
    pub fn input_flipped(&self, i: usize) -> bool {
        self.input_flips >> i & 1 == 1
    }

    /// Whether the output is complemented.
    pub fn output_flipped(&self) -> bool {
        self.output_flip
    }

    /// Applies the transform to a truth table.
    pub fn apply(&self, f: &TruthTable) -> TruthTable {
        assert_eq!(f.nvars(), self.nvars());
        let n = self.nvars();
        let mut w = f.bits();
        for i in 0..n {
            if self.input_flipped(i) {
                w = word::flip_var(w, i);
            }
        }
        w = word::permute(w, &self.perm.map(usize::from)[..n]);
        if self.output_flip {
            w = !w;
        }
        TruthTable::from_bits(n, w)
    }

    /// Sequential composition: `self.then(next).apply(f) ==
    /// next.apply(self.apply(f))`.
    ///
    /// # Panics
    ///
    /// Panics if the variable counts differ.
    pub fn then(&self, next: &NpnTransform) -> NpnTransform {
        assert_eq!(self.nvars, next.nvars, "transform arity mismatch");
        let n = self.nvars();
        let mut out = NpnTransform::identity(n);
        // If g = self(f) with f-var i fed by x[self.perm[i]] ⊕ flip1_i,
        // and h = next(g) with g-var j fed by y[next.perm[j]] ⊕ flip2_j,
        // then h = T(f) with f-var i fed through g-var self.perm[i]:
        // x[next.perm[self.perm[i]]] ⊕ flip2_{self.perm[i]} ⊕ flip1_i.
        for i in 0..n {
            let mid = self.perm(i);
            out.perm[i] = next.perm[mid];
            let flip = self.input_flipped(i) ^ next.input_flipped(mid);
            if flip {
                out.input_flips |= 1 << i;
            }
        }
        out.output_flip = self.output_flip ^ next.output_flip;
        out
    }

    /// The inverse transform: `t.inverse().apply(t.apply(f)) == f`.
    pub fn inverse(&self) -> Self {
        let n = self.nvars();
        let mut inv = Self::identity(n);
        for i in 0..n {
            let p = self.perm(i);
            inv.perm[p] = i as u8;
            // After inverting the permutation, input p of the inverse
            // must undo the flip originally applied to input i.
            if self.input_flipped(i) {
                inv.input_flips |= 1 << p;
            }
        }
        inv.output_flip = self.output_flip;
        inv
    }
}

/// Result of canonicalization: the canonical table and a transform
/// with `transform.apply(original) == canonical`.
#[derive(Debug, Clone)]
pub struct NpnCanon {
    /// Canonical representative of the NPN class.
    pub table: TruthTable,
    /// Transform mapping the original function to `table`.
    pub transform: NpnTransform,
}

/// Computes the NPN-canonical form using signature-based pruning with
/// exhaustive tie-breaking.
///
/// Deterministic per NPN class: two functions get the same canonical
/// table iff they are NPN-equivalent. The search runs on the 64-bit
/// word and allocates only the returned table. A random five- or
/// six-input function costs about 1 µs. Highly symmetric functions
/// degenerate towards exhaustive search: a six-input function on
/// which every variable ties on every cofactor count (e.g.
/// `0x5a5a124812485a5a`) visits all 64 × 720 arrangements per output
/// polarity, 0.4–0.7 ms (release build, 2-vCPU x86-64 VM).
///
/// # Panics
///
/// Panics if `f.nvars() > 6`.
pub fn npn_canonical(f: &TruthTable) -> NpnCanon {
    let n = f.nvars();
    assert!(n <= 6, "NPN canonicalization supports at most 6 variables");
    let half = 1u64 << (n.saturating_sub(1));

    // Phase 1: output polarity — canonical form has at most half ones.
    let ones = f.count_ones();
    let out_options: &[bool] = if ones < half {
        &[false]
    } else if ones > half {
        &[true]
    } else {
        &[false, true]
    };

    // Popcounts below run over the whole replicated word, which scales
    // every count by the same 2^(6-n) and so keeps each comparison.
    let mut search = Search::new(n);
    for &out in out_options {
        let g = if out { !f.bits() } else { f.bits() };
        // Phase 2: input polarities — canonical requires
        // ones(cofactor1(v)) <= ones(cofactor0(v)); ties keep both.
        // The flip sets count in binary over the tied variables
        // (lowest variable = lowest bit), unflipped choices first.
        let mut forced = 0u8;
        let mut tied = [0usize; 6];
        let mut ntied = 0;
        for v in 0..n {
            let m = word::var_word(v);
            let (c1, c0) = ((g & m).count_ones(), (g & !m).count_ones());
            if c1 > c0 {
                forced |= 1 << v;
            } else if c1 == c0 {
                tied[ntied] = v;
                ntied += 1;
            }
        }
        for choice in 0..1u32 << ntied {
            let mut flips = forced;
            for (bit, &v) in tied[..ntied].iter().enumerate() {
                if choice >> bit & 1 == 1 {
                    flips |= 1 << v;
                }
            }
            let mut h = g;
            for v in 0..n {
                if flips >> v & 1 == 1 {
                    h = word::flip_var(h, v);
                }
            }
            search.arrangements(h, flips, out);
        }
    }

    let canon = search.finish();
    debug_assert_eq!(canon.transform.apply(f), canon.table);
    canon
}

/// The identity arrangement of six variables.
const IDENTITY: [u8; 6] = [0, 1, 2, 3, 4, 5];

/// The best candidate of an [`npn_canonical`] search so far.
#[derive(Clone, Copy)]
struct Best {
    word: u64,
    arrangement: [u8; 6],
    flips: u8,
    out: bool,
}

/// Phase 3 of [`npn_canonical`]: the variable arrangements of one
/// polarity choice, and the best candidate over all choices.
struct Search {
    n: usize,
    /// `arrangement[k]` = source variable placed at position `k`.
    arrangement: [u8; 6],
    /// `group_end[k]` = one past the last position of `k`'s tie group.
    group_end: [u8; 6],
    flips: u8,
    out: bool,
    best: Option<Best>,
}

impl Search {
    fn new(n: usize) -> Self {
        Search { n, arrangement: IDENTITY, group_end: [0; 6], flips: 0, out: false, best: None }
    }

    /// Tries the arrangements of `h` (the function after the `flips`
    /// and `out` polarity choices): variables sorted by cofactor1
    /// ones count (ascending, stable); tie groups explored
    /// exhaustively, the groups themselves kept in order.
    fn arrangements(&mut self, h: u64, flips: u8, out: bool) {
        let n = self.n;
        let mut keys = [0u32; 6];
        for (v, key) in keys.iter_mut().enumerate().take(n) {
            *key = (h & word::var_word(v)).count_ones();
        }
        let mut order = IDENTITY;
        order[..n].sort_by_key(|&v| keys[v as usize]);
        for k in 0..n {
            let key = keys[order[k] as usize];
            let end = (k + 1..n).find(|&e| keys[order[e] as usize] != key).unwrap_or(n);
            self.group_end[k] = end as u8;
        }
        self.arrangement = order;
        self.flips = flips;
        self.out = out;
        self.visit(0, word::permute(h, &inverse(&order[..n])[..n]));
    }

    /// Visits every arrangement that permutes positions `k..` inside
    /// their tie groups, in swap-recursion order: position `k` first
    /// keeps its variable, then takes each later member of its group
    /// in turn (swapped in from position `i`), and the remaining
    /// positions recurse; the last position has no choice left. `w`
    /// is the candidate of the current arrangement, so each step
    /// costs one delta swap. Only a strictly smaller word replaces
    /// the best candidate.
    fn visit(&mut self, k: usize, w: u64) {
        if k + 1 >= self.n {
            if self.best.is_none_or(|b| w < b.word) {
                self.best = Some(Best {
                    word: w,
                    arrangement: self.arrangement,
                    flips: self.flips,
                    out: self.out,
                });
            }
            return;
        }
        self.visit(k + 1, w);
        for i in k + 1..self.group_end[k] as usize {
            self.arrangement.swap(k, i);
            self.visit(k + 1, word::swap_vars(w, k, i));
            self.arrangement.swap(k, i);
        }
    }

    /// The canonical table and the transform of the best arrangement.
    fn finish(self) -> NpnCanon {
        let best = self.best.expect("every polarity choice visits at least one arrangement");
        let perm = inverse(&best.arrangement[..self.n]);
        NpnCanon {
            table: TruthTable::from_bits(self.n, best.word),
            transform: NpnTransform::new(self.n, &perm[..self.n], best.flips, best.out),
        }
    }
}

/// Turns an arrangement (`arrangement[k]` = source variable at
/// position `k`) into the permutation it applies (source variable →
/// position).
fn inverse(arrangement: &[u8]) -> [usize; 6] {
    let mut perm = [0; 6];
    for (dst, &src) in arrangement.iter().enumerate() {
        perm[src as usize] = dst;
    }
    perm
}

/// Exhaustive reference canonicalization (for testing): tries all
/// `n!·2^n·2` transforms. Only sensible for `nvars ≤ 4`.
pub fn npn_canonical_exhaustive(f: &TruthTable) -> NpnCanon {
    let n = f.nvars();
    assert!(n <= 5, "exhaustive canonicalization limited to 5 variables");
    let mut best: Option<(TruthTable, NpnTransform)> = None;
    let mut perm: Vec<usize> = (0..n).collect();
    loop {
        for flips in 0..(1u8 << n) {
            for out in [false, true] {
                let t = NpnTransform::new(n, &perm, flips, out);
                let candidate = t.apply(f);
                let replace = match &best {
                    None => true,
                    Some((b, _)) => candidate < *b,
                };
                if replace {
                    best = Some((candidate, t));
                }
            }
        }
        if !next_permutation(&mut perm) {
            break;
        }
    }
    let (table, transform) = best.expect("exact NPN search always visits at least one transform");
    NpnCanon { table, transform }
}

/// One slot of a [`CanonCache`]: `tag == 0` means empty, otherwise
/// `tag == nvars + 1` and the slot memoizes `(word, nvars) →
/// (canonical word, transform)`.
#[derive(Debug, Clone, Copy)]
struct CanonSlot {
    word: u64,
    tag: u8,
    canon: u64,
    transform: NpnTransform,
}

/// Fixed-size, seeded-hash memo for [`npn_canonical`].
///
/// Canonicalization is the hottest scalar kernel of the workspace: it
/// sits inside library matching, the rewrite-library lookup and the
/// mapper's arrival oracle, and the same cut functions recur
/// constantly. The cache is an open-addressed table of
/// `(word, nvars) → (canonical word, transform)` entries with a
/// bounded linear probe; on a full probe window the incoming entry
/// evicts the home slot. Capacity is fixed at construction, so memory
/// stays bounded no matter how many distinct functions flow through.
///
/// The memo is *transparent*: [`CanonCache::canonical`] returns
/// exactly what [`npn_canonical`] would — same table, same transform —
/// so consumers keep their determinism guarantees.
#[derive(Debug)]
pub struct CanonCache {
    slots: Vec<CanonSlot>,
    mask: usize,
}

/// Probe window length: slots inspected before evicting the home slot.
const CANON_PROBE: usize = 8;

/// Default table size (log2): 32k slots ≈ 1 MiB per instance.
const CANON_LOG2_SLOTS: u32 = 15;

impl CanonCache {
    /// A cache with the default capacity (32k slots).
    pub fn new() -> Self {
        Self::with_log2_slots(CANON_LOG2_SLOTS)
    }

    /// A cache with `1 << log2_slots` slots (clamped to `[8, 24]`).
    pub fn with_log2_slots(log2_slots: u32) -> Self {
        let bits = log2_slots.clamp(8, 24);
        let n = 1usize << bits;
        let empty = CanonSlot {
            word: 0,
            tag: 0,
            canon: 0,
            transform: NpnTransform::identity(0),
        };
        CanonCache { slots: vec![empty; n], mask: n - 1 }
    }

    /// Seeded hash of the `(word, nvars)` key (splitmix64 finalizer).
    fn slot_of(&self, word: u64, nvars: usize) -> usize {
        let mut z = word ^ (nvars as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        (z ^ (z >> 31)) as usize & self.mask
    }

    /// Memoized [`npn_canonical`]: identical result, amortized cost of
    /// one hash probe for recurring functions. Hits and misses are
    /// accumulated into the process-wide counters readable via
    /// [`canon_cache_stats`].
    ///
    /// # Panics
    ///
    /// Panics if `f.nvars() > 6` (same contract as [`npn_canonical`]).
    pub fn canonical(&mut self, f: &TruthTable) -> NpnCanon {
        let nvars = f.nvars();
        assert!(nvars <= 6, "NPN canonicalization supports at most 6 variables");
        let word = f.bits();
        let tag = nvars as u8 + 1;
        let home = self.slot_of(word, nvars);
        let mut insert_at = home;
        let mut found_free = false;
        for p in 0..CANON_PROBE {
            let i = (home + p) & self.mask;
            let s = self.slots[i];
            if s.tag == tag && s.word == word {
                CANON_HITS.fetch_add(1, Ordering::Relaxed);
                return NpnCanon {
                    table: TruthTable::from_bits(nvars, s.canon),
                    transform: s.transform,
                };
            }
            if s.tag == 0 && !found_free {
                insert_at = i;
                found_free = true;
            }
        }
        CANON_MISSES.fetch_add(1, Ordering::Relaxed);
        let canon = npn_canonical(f);
        self.slots[insert_at] = CanonSlot {
            word,
            tag,
            canon: canon.table.bits(),
            transform: canon.transform,
        };
        canon
    }
}

impl Default for CanonCache {
    fn default() -> Self {
        Self::new()
    }
}

static CANON_HITS: AtomicU64 = AtomicU64::new(0);
static CANON_MISSES: AtomicU64 = AtomicU64::new(0);

/// Process-wide hit/miss counters aggregated over every [`CanonCache`]
/// instance (the thread-local default included).
pub fn canon_cache_stats() -> CacheStats {
    CacheStats {
        hits: CANON_HITS.load(Ordering::Relaxed),
        misses: CANON_MISSES.load(Ordering::Relaxed),
    }
}

std::thread_local! {
    static TL_CANON: std::cell::RefCell<CanonCache> =
        std::cell::RefCell::new(CanonCache::new());
}

/// [`npn_canonical`] through the calling thread's [`CanonCache`]
/// instance — the entry point the library matcher, the rewrite-library
/// lookup and the arrival oracle use. Falls back to the direct
/// computation when caching is disabled (see [`crate::cache::enabled`]).
///
/// # Panics
///
/// Panics if `f.nvars() > 6`.
pub fn npn_canonical_cached(f: &TruthTable) -> NpnCanon {
    if !crate::cache::enabled() {
        return npn_canonical(f);
    }
    TL_CANON.with(|c| c.borrow_mut().canonical(f))
}

fn next_permutation(p: &mut [usize]) -> bool {
    if p.len() < 2 {
        return false;
    }
    let mut i = p.len() - 1;
    while i > 0 && p[i - 1] >= p[i] {
        i -= 1;
    }
    if i == 0 {
        return false;
    }
    let mut j = p.len() - 1;
    while p[j] <= p[i - 1] {
        j -= 1;
    }
    p.swap(i - 1, j);
    p[i..].reverse();
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tt4(bits: u64) -> TruthTable {
        TruthTable::from_bits(4, bits)
    }

    #[test]
    fn transform_roundtrip() {
        let f = tt4(0x1234);
        let t = NpnTransform::new(4, &[2, 0, 3, 1], 0b0101, true);
        let g = t.apply(&f);
        assert_eq!(t.inverse().apply(&g), f);
    }

    #[test]
    fn identity_is_noop() {
        let f = tt4(0xCAFE);
        assert_eq!(NpnTransform::identity(4).apply(&f), f);
    }

    #[test]
    fn composition_matches_sequential_application() {
        let fs = [tt4(0x1234), tt4(0xBEEF), tt4(0x8001)];
        let t1 = NpnTransform::new(4, &[2, 0, 3, 1], 0b0110, true);
        let t2 = NpnTransform::new(4, &[1, 3, 0, 2], 0b1001, false);
        for f in &fs {
            assert_eq!(t1.then(&t2).apply(f), t2.apply(&t1.apply(f)));
            assert_eq!(t2.then(&t1).apply(f), t1.apply(&t2.apply(f)));
        }
        // inverse ∘ t == identity
        for f in &fs {
            assert_eq!(t1.then(&t1.inverse()).apply(f), *f);
        }
    }

    #[test]
    fn canonical_invariant_under_random_transforms() {
        let seeds = [0x2B5Eu64, 0x1A53, 0x0F0F, 0xDEAD, 0x7777, 0x1248];
        for &s in &seeds {
            let f = tt4(s);
            let canon = npn_canonical(&f).table;
            // Apply a bunch of transforms; canonical form must agree.
            let transforms = [
                NpnTransform::new(4, &[1, 0, 2, 3], 0b0011, false),
                NpnTransform::new(4, &[3, 2, 1, 0], 0b1010, true),
                NpnTransform::new(4, &[0, 2, 1, 3], 0b1111, true),
                NpnTransform::new(4, &[2, 3, 0, 1], 0b0000, false),
            ];
            for t in &transforms {
                let g = t.apply(&f);
                assert_eq!(npn_canonical(&g).table, canon, "seed {s:#x}");
            }
        }
    }

    #[test]
    fn canonical_is_class_consistent_on_3vars() {
        // The fast canonicalizer need not agree with the exhaustive
        // lexicographic minimum, but it must induce exactly the same
        // partition into NPN classes over all 256 functions.
        use std::collections::HashMap;
        let mut class_to_fast: HashMap<TruthTable, TruthTable> = HashMap::new();
        let mut fast_to_class: HashMap<TruthTable, TruthTable> = HashMap::new();
        for bits in 0..256u64 {
            let f = TruthTable::from_bits(3, bits);
            let fast = npn_canonical(&f).table;
            let class = npn_canonical_exhaustive(&f).table;
            // Same class ⇒ same fast representative.
            if let Some(prev) = class_to_fast.insert(class, fast) {
                assert_eq!(prev, fast, "class split by fast canonicalizer");
            }
            // Different class ⇒ different fast representative.
            if let Some(prev) = fast_to_class.insert(fast, class) {
                assert_eq!(prev, class, "classes merged by fast canonicalizer");
            }
            // The representative must itself belong to the class.
            assert_eq!(npn_canonical_exhaustive(&fast).table, class);
        }
        // 3-variable functions form exactly 14 NPN classes.
        assert_eq!(class_to_fast.len(), 14);
    }

    #[test]
    fn xor_class_is_canonical_fixed_point() {
        // Parity is its own class; canonicalization of any XOR/XNOR
        // arrangement of 3 vars must coincide.
        let a = TruthTable::var(3, 0);
        let b = TruthTable::var(3, 1);
        let c = TruthTable::var(3, 2);
        let x1 = a ^ b ^ c;
        let x2 = !x1;
        let x3 = c ^ a ^ b;
        let c1 = npn_canonical(&x1).table;
        assert_eq!(npn_canonical(&x2).table, c1);
        assert_eq!(npn_canonical(&x3).table, c1);
    }

    #[test]
    fn canon_cache_agrees_with_direct_on_random_words() {
        let mut cache = CanonCache::with_log2_slots(8); // tiny: force evictions
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for _ in 0..400 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            for nvars in 0..=6usize {
                let w = crate::word::replicate(nvars, x);
                let f = TruthTable::from_bits(nvars, w);
                let direct = npn_canonical(&f);
                let cached = cache.canonical(&f);
                assert_eq!(cached.table, direct.table, "nvars={nvars} word={w:#x}");
                assert_eq!(cached.transform, direct.transform, "nvars={nvars} word={w:#x}");
                // Second query (a guaranteed hit unless evicted) must
                // agree too.
                let again = cache.canonical(&f);
                assert_eq!(again.table, direct.table);
                assert_eq!(again.transform, direct.transform);
            }
        }
    }

    #[test]
    fn canon_cache_distinguishes_nvars_of_equal_words() {
        // The replicated word of the 2-var AND also appears as a
        // legitimate 6-var function; the (word, nvars) key must keep
        // them apart.
        let mut cache = CanonCache::new();
        let w = crate::word::replicate(2, 0b1000);
        let f2 = TruthTable::from_bits(2, w);
        let f6 = TruthTable::from_bits(6, w);
        assert_eq!(cache.canonical(&f2).table, npn_canonical(&f2).table);
        assert_eq!(cache.canonical(&f6).table, npn_canonical(&f6).table);
        assert_eq!(cache.canonical(&f2).table.nvars(), 2);
        assert_eq!(cache.canonical(&f6).table.nvars(), 6);
    }

    #[test]
    fn cached_entry_points_agree() {
        for bits in [0x6996u64, 0x8000, 0xFEED, 0x0001, 0xCAFE] {
            let f = tt4(bits);
            let direct = npn_canonical(&f);
            let cached = npn_canonical_cached(&f);
            assert_eq!(cached.table, direct.table);
            assert_eq!(cached.transform, direct.transform);
        }
        let stats = canon_cache_stats();
        assert!(stats.lookups() > 0 || !crate::cache::enabled());
    }

    /// Folds `(nvars, canonical word, perm, input flips, output flip)`
    /// of `f`'s canonicalization into the running digest `h`.
    fn fold_canon(h: u64, f: &TruthTable) -> u64 {
        fn mix(h: u64, x: u64) -> u64 {
            let mut z = (h ^ x).wrapping_add(0x9E37_79B9_7F4A_7C15);
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }
        let c = npn_canonical(f);
        let t = c.transform;
        let mut meta = f.nvars() as u64;
        for i in 0..f.nvars() {
            meta |= (t.perm(i) as u64) << (4 + 3 * i);
        }
        meta |= (t.input_flips as u64) << 24;
        meta |= (t.output_flipped() as u64) << 32;
        mix(mix(h, c.table.bits()), meta)
    }

    #[test]
    fn canonical_output_is_pinned() {
        // The transform decides which cut leaf drives which cell pin,
        // so not only the class representative but the exact
        // transform is part of the contract: a different transform
        // with an equal table changes covers and mapped delay. The
        // digest belongs with the golden covers and Table 3 figures;
        // it changes only together with them.
        let mut h = 0u64;
        for n in 0..=4usize {
            for bits in 0..(1u64 << (1u64 << n)) {
                h = fold_canon(h, &TruthTable::from_bits(n, bits));
            }
        }
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        for i in 0..2000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            h = fold_canon(h, &TruthTable::from_bits(if i % 2 == 0 { 5 } else { 6 }, x));
        }
        // Six-input DES-chain cut functions on which every variable
        // ties, so the search visits every transform.
        for w in [
            0x5a5a_1248_1248_5a5a_u64,
            0x2a15_8a45_a251_a854,
            0x8a45_2a15_a854_a251,
            0xcbc7_3e3d_bc7c_e3d3,
            0xb57a_e5da_5ba7_5ead,
            0x1248_5a5a_5a5a_1248,
        ] {
            h = fold_canon(h, &TruthTable::from_bits(6, w));
        }
        assert_eq!(h, 0xc764_a9b2_adc1_d726, "canonical table or transform changed");
    }

    #[test]
    fn transform_reported_maps_source_to_canon() {
        for bits in [0x6996u64, 0x8000, 0xFEED, 0x0001] {
            let f = tt4(bits);
            let canon = npn_canonical(&f);
            assert_eq!(canon.transform.apply(&f), canon.table);
        }
    }
}
