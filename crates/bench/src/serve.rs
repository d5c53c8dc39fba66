//! The batch synthesis service: a persistent driver wrapping the
//! synth → map → verify engines for high-throughput batch workloads.
//!
//! The ROADMAP's "heavy traffic" scenario is a long-lived process fed
//! a stream of circuits (AIGER/BLIF files, network requests, a
//! benchmark sweep). This module is that seam:
//!
//! * **Shared immutable state** — a [`SynthService`] builds its
//!   [`Library`] once and warms the global [`cntfet_boolfn::RwrLibrary`]
//!   in its constructor; both are then shared read-only across all
//!   thread-pool workers of every batch.
//! * **Request deduplication** — completed outcomes are memoized
//!   under the circuit's [`Aig::fingerprint`], so a repeated circuit
//!   costs one hash lookup and the whole batch reports an honest
//!   cold-vs-warm throughput split. This is the workspace's only
//!   whole-result cache: the engines themselves always recompute.
//! * **Cancellation & admission budgets** — every request carries a
//!   [`CancelToken`] (checked cooperatively at stage boundaries) and
//!   an optional AND-count budget rejected before any work; neither
//!   can ever leave a partial result in the cache.
//!
//! The `batch_synth` binary is the CLI face of this module: it loads
//! N input files (via [`load_circuit`]), streams them through
//! [`SynthService::process_batch`] and reports circuits/sec.

use cntfet_aig::{Aig, IoError};
use cntfet_boolfn::CacheStats;
use cntfet_core::{Library, LogicFamily};
use cntfet_synth::{resyn2rs_with, SynthOptions};
use cntfet_techmap::{map, verify_mapping_report, MapOptions, MapStats};
use std::collections::HashMap;
use std::fmt;
use std::hash::Hash;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

/// A shared cancellation flag: clone it, hand one copy to the request
/// and keep the other; [`CancelToken::cancel`] makes every pipeline
/// stage boundary after it observe the request as cancelled.
#[derive(Debug, Clone, Default)]
pub struct CancelToken(Arc<AtomicBool>);

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> CancelToken {
        CancelToken::default()
    }

    /// Requests cooperative cancellation (idempotent, thread-safe).
    pub fn cancel(&self) {
        self.0.store(true, Ordering::Relaxed);
    }

    /// True once [`CancelToken::cancel`] has been called.
    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::Relaxed)
    }
}

/// Per-request admission and cancellation hooks (the service-level
/// knobs; engine options live on the [`SynthService`]).
#[derive(Debug, Clone, Default)]
pub struct RequestLimits {
    /// Reject the request up front when the *input* has more AND
    /// nodes than this (admission control — no work is done at all).
    pub max_ands: Option<usize>,
    /// Cooperative cancellation, checked between pipeline stages.
    pub cancel: CancelToken,
}

/// One unit of service work: a named circuit plus its limits.
#[derive(Debug)]
pub struct SynthRequest {
    /// Display name (usually the file stem or the benchmark name).
    pub name: String,
    /// The circuit to push through the pipeline.
    pub aig: Aig,
    /// Admission/cancellation hooks.
    pub limits: RequestLimits,
}

impl SynthRequest {
    /// A request with default limits (no budget, never cancelled).
    pub fn new(name: impl Into<String>, aig: Aig) -> SynthRequest {
        SynthRequest { name: name.into(), aig, limits: RequestLimits::default() }
    }
}

/// The pipeline stage a cancelled request was about to enter when the
/// cancellation was observed (work up to that boundary completed).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// Before logic synthesis started.
    Synth,
    /// Before technology mapping started.
    Map,
    /// Before mapping verification started.
    Verify,
}

impl fmt::Display for Stage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Stage::Synth => write!(f, "synth"),
            Stage::Map => write!(f, "map"),
            Stage::Verify => write!(f, "verify"),
        }
    }
}

/// The cacheable result body of a completed request.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeStats {
    /// Input size (AND nodes, depth).
    pub input: (usize, u32),
    /// Optimized size after synthesis (AND nodes, depth).
    pub optimized: (usize, u32),
    /// Mapping result against the service's library.
    pub mapping: MapStats,
    /// CEC verdict of the mapping (`None` when the service runs with
    /// verification off).
    pub verified: Option<bool>,
}

/// What the service did with one request.
#[derive(Debug, Clone, PartialEq)]
pub enum ServeOutcome {
    /// The pipeline ran (or was answered from the result cache).
    Done {
        /// The result body.
        stats: ServeStats,
        /// True when the service-level cache answered without running
        /// any engine.
        cached: bool,
        /// Wall time spent on this request, milliseconds.
        ms: f64,
    },
    /// Rejected by the admission budget before any work.
    Rejected {
        /// The input's AND count.
        ands: usize,
        /// The configured [`RequestLimits::max_ands`].
        max_ands: usize,
    },
    /// Cooperatively cancelled; `stage` is the first stage that did
    /// *not* run.
    Cancelled {
        /// First pipeline stage skipped.
        stage: Stage,
    },
}

impl ServeOutcome {
    /// True for [`ServeOutcome::Done`].
    pub fn is_done(&self) -> bool {
        matches!(self, ServeOutcome::Done { .. })
    }
}

/// Everything that identifies a service-cache entry: the circuit's
/// structural fingerprint. The engine options and the library family
/// are fixed per service instance, and every stage returns the same
/// result at every worker count, so none of them needs a spot in the
/// key.
type ServeKey = u128;

/// A persistent batch synthesis driver: one immutable [`Library`],
/// warmed rewriting tables, fixed engine options, and a
/// fingerprint-keyed result cache deduplicating repeated circuits.
///
/// The service itself is `Sync` — one instance serves all thread-pool
/// workers of a batch (see [`SynthService::process_batch`]).
#[derive(Debug)]
pub struct SynthService {
    library: Library,
    map_opts: MapOptions,
    synth_opts: SynthOptions,
    verify: bool,
    cache: ResultCache<ServeKey, ServeStats>,
}

impl SynthService {
    /// A service for `family` with default engine options and
    /// verification on.
    pub fn new(family: LogicFamily) -> SynthService {
        SynthService::with_options(family, MapOptions::default(), SynthOptions::default(), true)
    }

    /// A fully configured service. Builds the library eagerly and
    /// warms the process-wide rewriting structure library, so the
    /// first request pays no lazy-initialization cost and workers
    /// never race to build shared state.
    pub fn with_options(
        family: LogicFamily,
        map_opts: MapOptions,
        synth_opts: SynthOptions,
        verify: bool,
    ) -> SynthService {
        let _ = cntfet_boolfn::RwrLibrary::global();
        SynthService {
            library: Library::new(family),
            map_opts,
            synth_opts,
            verify,
            cache: ResultCache::new(4096),
        }
    }

    /// The library this service maps onto.
    pub fn library(&self) -> &Library {
        &self.library
    }

    /// Runs one request through admit → cache → synth → map → verify,
    /// honouring its budget and cancellation hooks at every stage
    /// boundary. Cancelled and rejected requests never touch the
    /// cache.
    pub fn run(&self, req: &SynthRequest) -> ServeOutcome {
        let t0 = std::time::Instant::now();
        let ands = req.aig.num_ands();
        if let Some(max) = req.limits.max_ands {
            if ands > max {
                return ServeOutcome::Rejected { ands, max_ands: max };
            }
        }
        if req.limits.cancel.is_cancelled() {
            return ServeOutcome::Cancelled { stage: Stage::Synth };
        }
        let key: ServeKey = req.aig.fingerprint();
        if let Some(stats) = self.cache.get(&key) {
            return ServeOutcome::Done { stats, cached: true, ms: ms_since(t0) };
        }
        let input = (ands, req.aig.depth());
        let optimized = resyn2rs_with(&req.aig, &self.synth_opts);
        if req.limits.cancel.is_cancelled() {
            return ServeOutcome::Cancelled { stage: Stage::Map };
        }
        let mapping = map(&optimized, &self.library, self.map_opts);
        if self.verify && req.limits.cancel.is_cancelled() {
            return ServeOutcome::Cancelled { stage: Stage::Verify };
        }
        let verified = self.verify.then(|| {
            verify_mapping_report(&optimized, &mapping, &self.library).result
                == cntfet_aig::CecResult::Equivalent
        });
        let stats = ServeStats {
            input,
            optimized: (optimized.num_ands(), optimized.depth()),
            mapping: mapping.stats,
            verified,
        };
        self.cache.insert(key, stats.clone());
        ServeOutcome::Done { stats, cached: false, ms: ms_since(t0) }
    }

    /// Runs a batch on up to `jobs` workers, one request per task
    /// (`jobs = 0` resolves the workspace default; `CNTFET_JOBS`
    /// overrides). Outcomes come back in request order regardless of
    /// worker count.
    pub fn process_batch(&self, requests: &[SynthRequest], jobs: usize) -> BatchReport {
        let t0 = std::time::Instant::now();
        let outcomes = threadpool::par_map(jobs, requests.len(), |i| {
            (requests[i].name.clone(), self.run(&requests[i]))
        });
        BatchReport { outcomes, elapsed_s: t0.elapsed().as_secs_f64() }
    }

    /// Hit/miss counters of the service-level result cache.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Drops the service-level cache entries (counters keep
    /// accumulating).
    pub fn clear_cache(&self) {
        self.cache.clear();
    }
}

fn ms_since(t0: std::time::Instant) -> f64 {
    t0.elapsed().as_secs_f64() * 1e3
}

/// A bounded, thread-safe memo table from result-determining keys to
/// cloned outcomes, with `SolverStats`-style hit/miss counters.
///
/// When an insertion would exceed the capacity the whole table is
/// cleared (the same wholesale-eviction idiom as the factoring cache):
/// the map stays bounded without per-entry bookkeeping, and a
/// pathological workload degrades to recomputing, never to unbounded
/// memory.
///
/// The table honours the workspace-wide cache policy
/// ([`cntfet_boolfn::cache::enabled`]): with `CNTFET_NO_CACHE=1` set,
/// every lookup misses, nothing is stored and nothing is counted, so
/// cached and uncached runs are bitwise comparable.
#[derive(Debug)]
struct ResultCache<K, V> {
    map: Mutex<HashMap<K, V>>,
    cap: usize,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl<K: Eq + Hash, V: Clone> ResultCache<K, V> {
    /// An empty cache holding at most `cap` entries (`cap ≥ 1`).
    fn new(cap: usize) -> ResultCache<K, V> {
        ResultCache {
            map: Mutex::new(HashMap::new()),
            cap: cap.max(1),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// Looks `key` up without computing, counting a hit or a miss.
    /// Always `None` (and uncounted) with caching disabled. Paired
    /// with [`ResultCache::insert`], so a request abandoned midway
    /// (cancelled, rejected) never stores a partial outcome.
    fn get(&self, key: &K) -> Option<V> {
        if !cntfet_boolfn::cache::enabled() {
            return None;
        }
        let map = self.map.lock().unwrap_or_else(PoisonError::into_inner);
        match map.get(key) {
            Some(v) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(v.clone())
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Stores `v` under `key` (no counter effect; no-op with caching
    /// disabled), clearing the whole table first when it is full.
    fn insert(&self, key: K, v: V) {
        if !cntfet_boolfn::cache::enabled() {
            return;
        }
        let mut map = self.map.lock().unwrap_or_else(PoisonError::into_inner);
        if map.len() >= self.cap && !map.contains_key(&key) {
            map.clear();
        }
        map.insert(key, v);
    }

    /// Hit/miss counters accumulated so far. Monotonic: [`clear`]
    /// drops entries, never history.
    ///
    /// [`clear`]: ResultCache::clear
    fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
        }
    }

    /// Drops every stored entry (counters keep accumulating).
    fn clear(&self) {
        self.map.lock().unwrap_or_else(PoisonError::into_inner).clear();
    }
}

/// The outcome of one [`SynthService::process_batch`] call.
#[derive(Debug)]
pub struct BatchReport {
    /// Per-request outcomes, in request order.
    pub outcomes: Vec<(String, ServeOutcome)>,
    /// Wall time of the whole batch, seconds.
    pub elapsed_s: f64,
}

impl BatchReport {
    /// Number of requests that completed ([`ServeOutcome::Done`]).
    pub fn completed(&self) -> usize {
        self.outcomes.iter().filter(|(_, o)| o.is_done()).count()
    }

    /// Completed circuits per second of batch wall time.
    pub fn circuits_per_sec(&self) -> f64 {
        if self.elapsed_s <= 0.0 {
            0.0
        } else {
            self.completed() as f64 / self.elapsed_s
        }
    }
}

/// Error of [`load_circuit`]: either the file could not be read or
/// its contents failed to parse.
#[derive(Debug)]
pub enum LoadError {
    /// Filesystem failure.
    Read {
        /// The offending path.
        path: String,
        /// The OS error.
        msg: String,
    },
    /// The frontend rejected the contents.
    Parse {
        /// The offending path.
        path: String,
        /// The structured frontend error.
        err: IoError,
    },
}

impl fmt::Display for LoadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LoadError::Read { path, msg } => write!(f, "{path}: {msg}"),
            LoadError::Parse { path, err } => write!(f, "{path}: {err}"),
        }
    }
}

impl std::error::Error for LoadError {}

/// Loads a circuit file, dispatching on extension: `.aag`/`.aig` →
/// AIGER, `.blif` → BLIF; anything else is sniffed by its first bytes
/// (an AIGER magic wins, BLIF is the fallback). The parsed graph is
/// renamed to the file stem so batch reports and fingerprints track
/// the file, not the generic parser default.
pub fn load_circuit(path: &Path) -> Result<Aig, LoadError> {
    let display = path.display().to_string();
    let bytes = std::fs::read(path)
        .map_err(|e| LoadError::Read { path: display.clone(), msg: e.to_string() })?;
    let ext = path
        .extension()
        .and_then(|e| e.to_str())
        .map(str::to_ascii_lowercase)
        .unwrap_or_default();
    let as_aiger = match ext.as_str() {
        "aag" | "aig" => true,
        "blif" => false,
        _ => bytes.starts_with(b"aag ") || bytes.starts_with(b"aig "),
    };
    let parsed = if as_aiger {
        cntfet_aig::parse_aiger(&bytes)
    } else {
        match std::str::from_utf8(&bytes) {
            Ok(text) => cntfet_aig::parse_blif(text),
            Err(_) => Err(IoError::Syntax { line: 0, msg: "BLIF input is not UTF-8".into() }),
        }
    };
    let mut aig = parsed.map_err(|err| LoadError::Parse { path: display.clone(), err })?;
    if let Some(stem) = path.file_stem().and_then(|s| s.to_str()) {
        aig.set_name(stem);
    }
    Ok(aig)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn adder() -> Aig {
        cntfet_circuits::ripple_adder(8)
    }

    /// The service's lookup pattern: `get`, and on a miss compute and
    /// `insert`.
    fn lookup(c: &ResultCache<u64, u64>, key: u64, computed: &mut usize) -> u64 {
        c.get(&key).unwrap_or_else(|| {
            *computed += 1;
            c.insert(key, key * 2);
            key * 2
        })
    }

    #[test]
    fn result_cache_caches_and_counts() {
        let c: ResultCache<u64, u64> = ResultCache::new(16);
        let mut computed = 0;
        for _ in 0..3 {
            assert_eq!(lookup(&c, 7, &mut computed), 14);
        }
        if cntfet_boolfn::cache::enabled() {
            assert_eq!(computed, 1);
            assert_eq!(c.stats(), CacheStats { hits: 2, misses: 1 });
        } else {
            assert_eq!(computed, 3);
            assert_eq!(c.stats(), CacheStats::default());
        }
    }

    #[test]
    fn result_cache_clear_keeps_counters() {
        let c: ResultCache<u64, u64> = ResultCache::new(16);
        let mut computed = 0;
        let _ = lookup(&c, 1, &mut computed);
        c.clear();
        let before = c.stats();
        assert_eq!(lookup(&c, 1, &mut computed), 2);
        assert_eq!(computed, 2, "a cleared entry must be recomputed");
        if cntfet_boolfn::cache::enabled() {
            assert_eq!(c.stats(), CacheStats { hits: 0, misses: before.misses + 1 });
        }
    }

    #[test]
    fn result_cache_get_insert_pair() {
        let c: ResultCache<u64, u64> = ResultCache::new(4);
        assert_eq!(c.get(&9), None);
        c.insert(9, 81);
        if cntfet_boolfn::cache::enabled() {
            assert_eq!(c.get(&9), Some(81));
            assert_eq!(c.stats(), CacheStats { hits: 1, misses: 1 });
        } else {
            assert_eq!(c.get(&9), None);
            assert_eq!(c.stats(), CacheStats::default());
        }
    }

    #[test]
    fn result_cache_capacity_bounds_entries() {
        let c: ResultCache<u64, u64> = ResultCache::new(4);
        for k in 0..64 {
            c.insert(k, k * 2);
        }
        let stored = (0..64).filter(|k| c.get(k).is_some()).count();
        assert!(stored <= 4, "{stored} entries stored under a cap of 4");
        if cntfet_boolfn::cache::enabled() {
            assert_eq!(c.get(&63), Some(126), "the newest entry survives eviction");
        }
    }

    #[test]
    fn run_and_dedup() {
        let svc = SynthService::new(LogicFamily::TgStatic);
        let req = SynthRequest::new("add-8", adder());
        let first = svc.run(&req);
        let ServeOutcome::Done { stats, cached, .. } = &first else {
            panic!("expected Done, got {first:?}");
        };
        assert!(!cached);
        assert_eq!(stats.verified, Some(true));
        assert!(stats.mapping.gates > 0);
        // Same circuit again: the service cache answers.
        let second = svc.run(&SynthRequest::new("add-8-again", adder()));
        let ServeOutcome::Done { stats: stats2, cached: cached2, .. } = &second else {
            panic!("expected Done, got {second:?}");
        };
        assert_eq!(stats, stats2);
        if cntfet_boolfn::cache::enabled() {
            assert!(cached2, "second identical request must hit the service cache");
        }
    }

    #[test]
    fn budget_rejects_before_work() {
        let svc = SynthService::new(LogicFamily::TgStatic);
        let mut req = SynthRequest::new("add-8", adder());
        req.limits.max_ands = Some(3);
        let out = svc.run(&req);
        assert!(matches!(out, ServeOutcome::Rejected { max_ands: 3, .. }));
    }

    #[test]
    fn pre_cancelled_requests_skip_everything() {
        let svc = SynthService::new(LogicFamily::TgStatic);
        let req = SynthRequest::new("add-8", adder());
        req.limits.cancel.cancel();
        assert_eq!(svc.run(&req), ServeOutcome::Cancelled { stage: Stage::Synth });
        // The cancelled request must not have poisoned the cache.
        let fresh = svc.run(&SynthRequest::new("add-8", adder()));
        let ServeOutcome::Done { cached, .. } = fresh else {
            panic!("expected Done after cancel");
        };
        assert!(!cached);
    }

    #[test]
    fn batch_reports_throughput() {
        let svc =
            SynthService::with_options(LogicFamily::TgStatic, MapOptions::default(), SynthOptions::default(), false);
        let reqs: Vec<SynthRequest> = (0..4)
            .map(|i| SynthRequest::new(format!("r{i}"), cntfet_circuits::ripple_adder(4 + i)))
            .collect();
        let report = svc.process_batch(&reqs, 2);
        assert_eq!(report.completed(), 4);
        assert!(report.circuits_per_sec() > 0.0);
        assert_eq!(report.outcomes[0].0, "r0");
    }

    #[test]
    fn load_circuit_roundtrips_both_formats() {
        let dir = std::env::temp_dir().join(format!("cntfet-serve-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let g = adder();
        let aag = dir.join("a.aag");
        std::fs::write(&aag, cntfet_aig::write_aiger_ascii(&g)).expect("write aag");
        let bin = dir.join("a.aig");
        std::fs::write(&bin, cntfet_aig::write_aiger_binary(&g)).expect("write aig");
        let blif = dir.join("a.blif");
        std::fs::write(&blif, cntfet_aig::write_blif(&g)).expect("write blif");
        for p in [&aag, &bin, &blif] {
            let back = load_circuit(p).expect("loads");
            assert_eq!(back.name(), "a");
            assert_eq!(back.num_pis(), g.num_pis());
            assert_eq!(
                cntfet_aig::check_equivalence_sweeping(&g, &back),
                cntfet_aig::CecResult::Equivalent,
                "{} not equivalent",
                p.display()
            );
        }
        let bad = dir.join("bad.aag");
        std::fs::write(&bad, "aag 1 1 0\n").expect("write bad");
        assert!(matches!(load_circuit(&bad), Err(LoadError::Parse { .. })));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
