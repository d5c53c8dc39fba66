//! Flat structure-of-arrays simulation signatures.
//!
//! A [`SimMatrix`] holds one 64-bit-parallel signature per AIG node in
//! a single contiguous node-major buffer (`data[node * words ..]`), in
//! contrast to a `Vec<Vec<u64>>` per node. Simulation runs as one
//! topological pass with the word loop innermost, so each node's
//! signature is computed from two streaming reads — the layout the
//! verification hot paths (CEC pre-filtering, sweeping candidate
//! detection) iterate over.
//!
//! Two pattern sources:
//!
//! * **exhaustive** — counting patterns covering all `2^n` input
//!   assignments of an `n ≤` [`EXHAUSTIVE_MAX_PIS`] circuit. Exhaustive
//!   signatures are complete truth tables, so signature comparison *is*
//!   an equivalence decision; no SAT is needed.
//! * **random** — seeded xorshift words for candidate detection, with
//!   counterexample-directed refinement ([`SimMatrix::refine`]).

use crate::graph::{Aig, Lit};

/// PI counts up to this bound are checked by exhaustive simulation
/// (`2^16` patterns = 1024 words per node) instead of SAT.
pub(crate) const EXHAUSTIVE_MAX_PIS: u32 = 16;

/// Upper bound on `nodes × words` one exhaustive matrix may allocate
/// (`2^24` words = 128 MiB); larger narrow-input networks fall back to
/// the SAT tiers instead of ballooning memory.
pub(crate) const EXHAUSTIVE_BUDGET_WORDS: usize = 1 << 24;

/// True when `aig` qualifies for the exhaustive tier: PI count within
/// `max_pis` (clamped to [`EXHAUSTIVE_MAX_PIS`]) and the matrix within
/// the memory budget.
pub(crate) fn exhaustive_feasible(aig: &Aig, max_pis: u32) -> bool {
    let pis = aig.num_pis() as u32;
    pis <= max_pis.min(EXHAUSTIVE_MAX_PIS)
        && aig.num_nodes() << aig.num_pis().saturating_sub(6) <= EXHAUSTIVE_BUDGET_WORDS
}

/// The canonical single-word truth-table masks of the first six
/// variables: variable `i` toggles with period `2^i`.
const VAR_MASKS: [u64; 6] = [
    0xAAAA_AAAA_AAAA_AAAA,
    0xCCCC_CCCC_CCCC_CCCC,
    0xF0F0_F0F0_F0F0_F0F0,
    0xFF00_FF00_FF00_FF00,
    0xFFFF_0000_FFFF_0000,
    0xFFFF_FFFF_0000_0000,
];

#[derive(Debug, Clone, Copy)]
enum Patterns {
    Exhaustive,
    Random { seed: u64 },
}

/// Node-major flat signature matrix (see module docs).
#[derive(Debug)]
pub(crate) struct SimMatrix {
    words: usize,
    num_pis: usize,
    data: Vec<u64>,
    /// Round-major PI input words: round `w` occupies
    /// `rounds[w * num_pis .. (w + 1) * num_pis]`.
    rounds: Vec<u64>,
    source: Patterns,
}

/// Word width of one parallel simulation shard. Fixed (never derived
/// from the worker count) so the chunk decomposition — and therefore
/// every computed word — is identical for any `jobs` value; matrices
/// narrower than two chunks take the sequential path outright.
const SIM_CHUNK_WORDS: usize = 64;

impl SimMatrix {
    /// Signatures covering every input assignment of `aig`
    /// (requires `num_pis ≤ EXHAUSTIVE_MAX_PIS`), simulated on up to
    /// `jobs` workers (`0` defers to the global [`threadpool::Jobs`]).
    pub fn exhaustive_jobs(aig: &Aig, jobs: usize) -> SimMatrix {
        let n = aig.num_pis();
        debug_assert!(n as u32 <= EXHAUSTIVE_MAX_PIS);
        let words = 1usize << n.saturating_sub(6);
        let mut rounds = Vec::with_capacity(words * n);
        for w in 0..words {
            rounds.extend((0..n).map(|i| {
                if i < 6 {
                    VAR_MASKS[i]
                } else if w >> (i - 6) & 1 == 1 {
                    !0u64
                } else {
                    0u64
                }
            }));
        }
        let mut m = SimMatrix {
            words,
            num_pis: n,
            data: Vec::new(),
            rounds,
            source: Patterns::Exhaustive,
        };
        m.resimulate(aig, jobs);
        m
    }


    /// `words` rounds of seeded pseudo-random patterns.
    pub fn random(aig: &Aig, words: usize, seed: u64) -> SimMatrix {
        let mut m = SimMatrix {
            words: 0,
            num_pis: aig.num_pis(),
            data: Vec::new(),
            rounds: Vec::new(),
            source: Patterns::Random { seed },
        };
        for _ in 0..words.max(1) {
            m.push_round(None);
        }
        // Random matrices are a handful of words — always sequential.
        m.resimulate(aig, 1);
        m
    }

    /// Appends one random round whose bit 0 carries `forced` (a
    /// counterexample to split aliased signature classes). Only the
    /// new word is simulated: the existing signatures are restrided
    /// (one straight copy, no graph traversal), keeping refinement
    /// linear in the node count rather than re-simulating every word.
    pub fn refine(&mut self, aig: &Aig, forced: &[bool]) {
        self.push_round(Some(forced));
        self.simulate_last_word(aig);
    }

    /// Restrides the signatures to `words` (one straight copy) and
    /// simulates only the newly appended round.
    fn simulate_last_word(&mut self, aig: &Aig) {
        let old_words = self.words - 1;
        let n = aig.num_nodes();
        let mut data = vec![0u64; n * self.words];
        for i in 0..n {
            data[i * self.words..i * self.words + old_words]
                .copy_from_slice(&self.data[i * old_words..(i + 1) * old_words]);
        }
        self.data = data;
        let w = old_words;
        for (i, pi) in aig.pis().iter().enumerate() {
            self.data[pi.index() * self.words + w] = self.rounds[w * self.num_pis + i];
        }
        for id in aig.and_ids() {
            let (f0, f1) = aig.fanins(id);
            let m0 = if f0.is_complement() { !0u64 } else { 0 };
            let m1 = if f1.is_complement() { !0u64 } else { 0 };
            self.data[id.index() * self.words + w] = (self.data
                [f0.node().index() * self.words + w]
                ^ m0)
                & (self.data[f1.node().index() * self.words + w] ^ m1);
        }
    }

    fn push_round(&mut self, forced: Option<&[bool]>) {
        let Patterns::Random { seed } = &mut self.source else {
            unreachable!("exhaustive signatures are never refined");
        };
        for i in 0..self.num_pis {
            *seed ^= *seed << 13;
            *seed ^= *seed >> 7;
            *seed ^= *seed << 17;
            let mut w = *seed;
            if let Some(cex) = forced {
                w = (w & !1) | u64::from(cex[i]);
            }
            self.rounds.push(w);
        }
        self.words += 1;
    }

    /// One topological pass computing all words of every node, sharded
    /// over word chunks when `jobs > 1` and the matrix is wide enough
    /// (`0` defers to the global [`threadpool::Jobs`]).
    fn resimulate(&mut self, aig: &Aig, jobs: usize) {
        let words = self.words;
        let jobs = threadpool::Jobs::resolve(jobs);
        if jobs > 1 && words >= 2 * SIM_CHUNK_WORDS {
            self.resimulate_parallel(aig, jobs);
            return;
        }
        self.data.clear();
        self.data.resize(aig.num_nodes() * words, 0);
        for (i, pi) in aig.pis().iter().enumerate() {
            let base = pi.index() * words;
            for w in 0..words {
                self.data[base + w] = self.rounds[w * self.num_pis + i];
            }
        }
        for id in aig.and_ids() {
            let (f0, f1) = aig.fanins(id);
            let m0 = if f0.is_complement() { !0u64 } else { 0 };
            let m1 = if f1.is_complement() { !0u64 } else { 0 };
            let base = id.index() * words;
            let b0 = f0.node().index() * words;
            let b1 = f1.node().index() * words;
            for w in 0..words {
                self.data[base + w] = (self.data[b0 + w] ^ m0) & (self.data[b1 + w] ^ m1);
            }
        }
    }

    /// Parallel resimulation: every [`SIM_CHUNK_WORDS`]-wide word
    /// chunk is an independent simulation (each pattern column is a
    /// pure function of its PI words), computed into a local
    /// node-major buffer and merged on the calling thread. Chunks run
    /// in waves of `jobs` so transient buffers stay bounded by
    /// `jobs × nodes × SIM_CHUNK_WORDS` words. The chunk grid is fixed
    /// by [`SIM_CHUNK_WORDS`] alone, so the result is bit-identical to
    /// the sequential pass for every worker count.
    fn resimulate_parallel(&mut self, aig: &Aig, jobs: usize) {
        let words = self.words;
        let n = aig.num_nodes();
        self.data.clear();
        self.data.resize(n * words, 0);
        let starts: Vec<usize> = (0..words).step_by(SIM_CHUNK_WORDS).collect();
        let rounds = &self.rounds;
        let num_pis = self.num_pis;
        for wave in starts.chunks(jobs) {
            let bufs = threadpool::par_map(jobs, wave.len(), |k| {
                let w0 = wave[k];
                let cw = SIM_CHUNK_WORDS.min(words - w0);
                simulate_chunk(aig, rounds, num_pis, w0, cw)
            });
            for (k, buf) in bufs.iter().enumerate() {
                let w0 = wave[k];
                let cw = SIM_CHUNK_WORDS.min(words - w0);
                for i in 0..n {
                    self.data[i * words + w0..i * words + w0 + cw]
                        .copy_from_slice(&buf[i * cw..(i + 1) * cw]);
                }
            }
        }
    }

    /// Words per signature.
    pub fn words(&self) -> usize {
        self.words
    }

    /// Signature of a node.
    #[inline]
    pub fn sig(&self, node_index: usize) -> &[u64] {
        &self.data[node_index * self.words..(node_index + 1) * self.words]
    }

    /// Signature word `w` of an AIG literal (complement applied).
    #[inline]
    pub fn lit_word(&self, l: Lit, w: usize) -> u64 {
        let raw = self.data[l.node().index() * self.words + w];
        if l.is_complement() {
            !raw
        } else {
            raw
        }
    }

    /// Input assignment of pattern `(word, bit)` as seen by the PIs.
    pub fn pattern_inputs(&self, aig: &Aig, word: usize, bit: u32) -> Vec<bool> {
        aig.pis()
            .iter()
            .map(|pi| self.sig(pi.index())[word] >> bit & 1 == 1)
            .collect()
    }

}

/// Simulates words `[w0, w0 + cw)` of every node into a fresh
/// node-major chunk buffer (`buf[node * cw ..]`). A pure function of
/// the PI round words, so any chunk decomposition yields bit-identical
/// results.
fn simulate_chunk(aig: &Aig, rounds: &[u64], num_pis: usize, w0: usize, cw: usize) -> Vec<u64> {
    let mut buf = vec![0u64; aig.num_nodes() * cw];
    for (i, pi) in aig.pis().iter().enumerate() {
        let base = pi.index() * cw;
        for k in 0..cw {
            buf[base + k] = rounds[(w0 + k) * num_pis + i];
        }
    }
    for id in aig.and_ids() {
        let (f0, f1) = aig.fanins(id);
        let m0 = if f0.is_complement() { !0u64 } else { 0 };
        let m1 = if f1.is_complement() { !0u64 } else { 0 };
        let base = id.index() * cw;
        let b0 = f0.node().index() * cw;
        let b1 = f1.node().index() * cw;
        for k in 0..cw {
            buf[base + k] = (buf[b0 + k] ^ m0) & (buf[b1 + k] ^ m1);
        }
    }
    buf
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exhaustive_matches_eval() {
        let mut g = Aig::new("t");
        let p = g.add_pis(7);
        let x = g.xor_many(&p);
        let y = g.and_many(&p[..3]);
        let o = g.or(x, y.negate());
        g.add_po(o);
        let m = SimMatrix::exhaustive_jobs(&g, 1);
        assert_eq!(m.words(), 2);
        for pattern in 0..(1u32 << 7) {
            let inputs: Vec<bool> = (0..7).map(|i| pattern >> i & 1 == 1).collect();
            let want = g.eval(&inputs)[0];
            let (w, b) = ((pattern / 64) as usize, pattern % 64);
            assert_eq!(m.lit_word(g.pos()[0], w) >> b & 1 == 1, want, "pattern {pattern}");
            assert_eq!(m.pattern_inputs(&g, w, b), inputs);
        }
    }

    #[test]
    fn random_refine_separates_alias() {
        let mut g = Aig::new("t");
        let p = g.add_pis(2);
        let x = g.and(p[0], p[1]);
        g.add_po(x);
        g.add_po(p[0]);
        let mut m = SimMatrix::random(&g, 2, 42);
        assert_eq!(m.words(), 2);
        // Refining with a forced pattern plants it at bit 0 of the new
        // round.
        m.refine(&g, &[true, false]);
        assert_eq!(m.words(), 3);
        let w = m.words() - 1;
        assert_eq!(m.lit_word(g.pos()[1], w) & 1, 1);
        assert_eq!(m.lit_word(g.pos()[0], w) & 1, 0);
    }

    /// A 13-PI circuit: 128 exhaustive words, i.e. two parallel chunks.
    fn wide_circuit() -> Aig {
        let mut g = Aig::new("wide");
        let p = g.add_pis(13);
        let x = g.xor_many(&p);
        let a = g.and_many(&p[..5]);
        let b = g.and_many(&p[5..]);
        let ab = g.and(a, b.negate());
        let o = g.or(x, ab);
        g.add_po(o);
        g.add_po(a);
        g
    }

    #[test]
    fn chunked_resimulation_equals_whole() {
        let g = wide_circuit();
        let whole = SimMatrix::exhaustive_jobs(&g, 1);
        assert!(whole.words() >= 2 * SIM_CHUNK_WORDS, "test circuit too narrow");
        for jobs in [2, 3, 4, 7] {
            let chunked = SimMatrix::exhaustive_jobs(&g, jobs);
            assert_eq!(whole.data, chunked.data, "jobs={jobs}");
            assert_eq!(whole.rounds, chunked.rounds);
        }
    }
}
