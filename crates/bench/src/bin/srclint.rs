//! `srclint`: the repo's source-hygiene lint, run as a blocking CI job.
//!
//! Structural invariants have [`cntfet_aig::Aig::check`] and friends;
//! this binary covers the invariants *of the source text itself* that
//! neither rustc nor clippy enforce for us:
//!
//! 1. No `.unwrap()` or `panic!(` in non-test library code. Library
//!    crates surface failures as `Result`/`Option` or as `.expect()`
//!    with a message that states the violated precondition; bare
//!    unwraps hide the invariant. Binaries (`src/bin/`) are exempt —
//!    a CLI aborting with a message is fine.
//! 2. `.expect()` in non-test library code is *budgeted* per file and
//!    ratcheted: the allowance below is the current count, a new
//!    `.expect()` in a file not listed here (or over its budget)
//!    fails the lint, and so does a budget above its file's count or
//!    naming a library file that does not exist. Shrinking a budget
//!    is required when a call site goes; growing one is a reviewed
//!    decision, not a drive-by.
//! 3. No `dbg!(`, `todo!(` or `unimplemented!(` anywhere, tests
//!    included — those are in-progress markers, not shippable code.
//! 4. Every crate root carries `#![forbid(unsafe_code)]` and a
//!    `missing_docs` lint header, and the `unsafe` token appears
//!    nowhere else.
//!
//! The body of a `mod` item annotated `#[cfg(test)]` is test code and
//! exempt from (1) and (2); a `#[cfg(test)]` on any other item or
//! statement (say, a test-only counter inside library code) exempts
//! nothing. `//` comment lines are always skipped. Exits non-zero
//! listing every violation.

use std::path::{Path, PathBuf};

/// A single lint hit: file, line number, and what rule fired.
struct Violation {
    file: String,
    line: usize,
    what: String,
}

/// Per-file `.expect()` allowance in non-test library code. The
/// numbers are the current counts (the ratchet, checked exact): lower
/// them when a call site is removed, and justify any increase in
/// review. Files not listed have a budget of zero.
const EXPECT_BUDGET: &[(&str, usize)] = &[
    ("crates/aig/src/blif.rs", 1),
    ("crates/aig/src/check.rs", 1),
    ("crates/aig/src/cuts.rs", 1),
    ("crates/aig/src/edit.rs", 15),
    ("crates/aig/src/graph.rs", 1),
    ("crates/boolfn/src/expr.rs", 2),
    ("crates/boolfn/src/npn.rs", 2),
    ("crates/boolfn/src/rwr.rs", 1),
    ("crates/boolfn/src/tt.rs", 1),
    ("crates/circuits/src/arith.rs", 6),
    ("crates/circuits/src/randlogic.rs", 5),
    ("crates/core/src/chars.rs", 1),
    ("crates/core/src/enumerate.rs", 1),
    ("crates/core/src/functions.rs", 1),
    ("crates/core/src/library.rs", 1),
    ("crates/core/src/network.rs", 1),
    ("crates/core/src/to_netlist.rs", 2),
    ("crates/sat/src/lib.rs", 3),
    ("crates/switchlevel/src/dynamic.rs", 2),
    ("crates/switchlevel/src/solver.rs", 1),
    ("crates/synth/src/balance.rs", 2),
    ("crates/techmap/src/mapper.rs", 4),
    ("crates/techmap/src/verify.rs", 1),
];

// The needles are assembled with `concat!` so this file never
// matches its own patterns.
const UNWRAP: &str = concat!(".unw", "rap()");
const EXPECT: &str = concat!(".exp", "ect(");
const PANIC: &str = concat!("pan", "ic!(");
const DBG: &str = concat!("db", "g!(");
const TODO: &str = concat!("to", "do!(");
const UNIMPL: &str = concat!("unimpl", "emented!(");
const UNSAFE: &str = concat!("uns", "afe");
const UNSAFE_CODE: &str = concat!("uns", "afe_code");
const FORBID_UNSAFE: &str = concat!("#![forbid(uns", "afe_code)]");
const MISSING_DOCS: &str = "missing_docs";
const CFG_TEST: &str = "#[cfg(test)]";

fn main() {
    let root = repo_root();
    let mut files = Vec::new();
    collect_rs(&root.join("crates"), &mut files);
    collect_rs(&root.join("src"), &mut files);
    // Vendored *production* code is our code: `threadpool` runs the
    // suite and batch fan-out, whose ordered results the determinism
    // tests rely on, so it gets the full lint. The criterion/proptest
    // stubs stay exempt — they are dev-dependency test harnesses, not
    // shipped library code.
    collect_rs(&root.join("vendor").join("threadpool"), &mut files);
    files.sort();

    let mut violations = Vec::new();
    let mut checked = 0usize;
    // Library `.expect()` counts, for the stale-budget check below.
    let mut expect_counts: Vec<(String, usize)> = Vec::new();
    for path in &files {
        let rel = path
            .strip_prefix(&root)
            .unwrap_or(path)
            .to_string_lossy()
            .replace('\\', "/");
        // Only library sources are linted for unwrap/expect/panic;
        // benches, integration tests and binaries get the universal
        // rules (dbg!/todo!/unimplemented!/unsafe) only.
        let in_src = rel.contains("/src/") || rel.starts_with("src/");
        let is_bin = rel.contains("/bin/");
        let is_lib = in_src && !is_bin;
        let Ok(text) = std::fs::read_to_string(path) else {
            violations.push(Violation {
                file: rel,
                line: 0,
                what: "unreadable file".into(),
            });
            continue;
        };
        checked += 1;
        if let Some(n) = lint_file(&rel, &text, is_lib, &mut violations) {
            expect_counts.push((rel.clone(), n));
        }
        if rel.ends_with("src/lib.rs") && !rel.contains("/bin/") {
            lint_crate_root(&rel, &text, &mut violations);
        }
    }

    // The ratchet only holds if every budget is the current count: a
    // budget above it, or on a file that is gone, would silently
    // admit new call sites.
    for &(file, budget) in EXPECT_BUDGET {
        let what = match expect_counts.iter().find(|(f, _)| f == file) {
            None => format!("`{EXPECT}` budget names a library file that does not exist"),
            Some(&(_, n)) if n < budget => format!(
                "`{EXPECT}` budget is stale ({n} found, {budget} allowed) — lower the ratchet \
                 in srclint.rs"
            ),
            Some(_) => continue,
        };
        violations.push(Violation { file: file.into(), line: 0, what });
    }

    if violations.is_empty() {
        println!("srclint: {checked} files clean");
        return;
    }
    violations.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    for v in &violations {
        eprintln!("srclint: {}:{}: {}", v.file, v.line, v.what);
    }
    eprintln!("srclint: {} violation(s) in {checked} files", violations.len());
    std::process::exit(1);
}

/// The workspace root, resolved from this crate's manifest directory
/// (`crates/bench` → two levels up).
fn repo_root() -> PathBuf {
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    manifest
        .parent()
        .and_then(Path::parent)
        .map(Path::to_path_buf)
        .unwrap_or(manifest)
}

/// Recursively collects `.rs` files under `dir` (no-op when absent).
fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else { return };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            collect_rs(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// Lints one file's text. `is_lib` enables the library-only rules
/// (no unwrap/panic, budgeted expect); for a library file, returns its
/// non-test `.expect()` count.
fn lint_file(rel: &str, text: &str, is_lib: bool, out: &mut Vec<Violation>) -> Option<usize> {
    let mut region = TestRegion::default();
    let mut expects = 0usize;
    let mut first_excess_expect = None;
    for (i, raw) in text.lines().enumerate() {
        let line = i + 1;
        let in_tests = region.step(raw);
        if raw.trim_start().starts_with("//") {
            continue;
        }
        // Universal rules: in-progress markers and the unsafe token
        // (outside the forbid header) are banned everywhere.
        for (needle, what) in [
            (DBG, "debug macro left in source"),
            (TODO, "todo marker left in source"),
            (UNIMPL, "unimplemented marker left in source"),
        ] {
            if raw.contains(needle) {
                out.push(Violation { file: rel.into(), line, what: format!("{what} (`{needle}`)") });
            }
        }
        if let Some(pos) = raw.find(UNSAFE) {
            if raw[pos..].len() == UNSAFE.len() || !raw[pos..].starts_with(UNSAFE_CODE) {
                out.push(Violation {
                    file: rel.into(),
                    line,
                    what: format!("`{UNSAFE}` outside the forbid header"),
                });
            }
        }
        if !is_lib || in_tests {
            continue;
        }
        // Library-only rules.
        if raw.contains(UNWRAP) {
            out.push(Violation {
                file: rel.into(),
                line,
                what: format!("`{UNWRAP}` in library code (return an error or use `{EXPECT}\"why\")`)"),
            });
        }
        if raw.contains(PANIC) {
            out.push(Violation {
                file: rel.into(),
                line,
                what: format!("`{PANIC}` in library code (surface a Result instead)"),
            });
        }
        let n = raw.matches(EXPECT).count();
        if n > 0 {
            expects += n;
            let budget = expect_budget(rel);
            if expects > budget && first_excess_expect.is_none() {
                first_excess_expect = Some((line, budget));
            }
        }
    }
    if let Some((line, budget)) = first_excess_expect {
        out.push(Violation {
            file: rel.into(),
            line,
            what: format!(
                "`{EXPECT}` over budget ({expects} found, {budget} allowed) — \
                 handle the error or raise the ratchet in srclint.rs"
            ),
        });
    }
    is_lib.then_some(expects)
}

/// Tracks which lines are test code: from a `#[cfg(test)]` that
/// annotates a `mod` item to the `}` that closes the module (the first
/// one at the `mod` line's indentation).
#[derive(Default)]
struct TestRegion {
    /// A `#[cfg(test)]` was seen and the item it annotates has not
    /// started yet.
    pending: bool,
    /// Inside a test module: the indentation of its `mod` line.
    open: Option<usize>,
}

impl TestRegion {
    /// Feeds the next line; true if it is test code.
    fn step(&mut self, raw: &str) -> bool {
        let mut t = raw.trim_start();
        let indent = raw.len() - t.len();
        if let Some(open) = self.open {
            if indent == open && t.starts_with('}') {
                self.open = None;
            }
            return true;
        }
        if let Some(rest) = t.strip_prefix(CFG_TEST) {
            self.pending = true;
            t = rest.trim_start();
        }
        if !self.pending || t.is_empty() || t.starts_with("#[") || t.starts_with("//") {
            return false;
        }
        self.pending = false;
        let mut words = t.split_whitespace().skip_while(|w| w.starts_with("pub"));
        if words.next() != Some("mod") {
            return false;
        }
        if t.trim_end().ends_with('{') {
            self.open = Some(indent);
        }
        true
    }
}

/// Looks up a file's `.expect()` allowance (zero when unlisted).
fn expect_budget(rel: &str) -> usize {
    EXPECT_BUDGET
        .iter()
        .find(|(f, _)| *f == rel)
        .map_or(0, |&(_, n)| n)
}

/// Checks crate-root headers: `#![forbid(unsafe_code)]` plus a
/// `missing_docs` warn/deny attribute.
fn lint_crate_root(rel: &str, text: &str, out: &mut Vec<Violation>) {
    if !text.lines().any(|l| l.trim() == FORBID_UNSAFE) {
        out.push(Violation {
            file: rel.into(),
            line: 1,
            what: format!("crate root is missing `{FORBID_UNSAFE}`"),
        });
    }
    let has_missing_docs = text.lines().any(|l| {
        let t = l.trim();
        (t.starts_with("#![warn(") || t.starts_with("#![deny(")) && t.contains(MISSING_DOCS)
    });
    if !has_missing_docs {
        out.push(Violation {
            file: rel.into(),
            line: 1,
            what: "crate root is missing a `missing_docs` lint header".into(),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Lints `text` as an unlisted library file: its `.expect()`
    /// budget is zero.
    fn lint(text: &str) -> (Vec<usize>, Option<usize>) {
        let mut out = Vec::new();
        let expects = lint_file("crates/x/src/lib.rs", text, true, &mut out);
        (out.iter().map(|v| v.line).collect(), expects)
    }

    #[test]
    fn a_cfg_test_hook_leaves_the_library_code_below_it_linted() {
        let text = format!(
            "fn hook() {{\n    {CFG_TEST}\n    HITS.with(|n| n.set(n.get() + 1));\n}}\n\n\
             {CFG_TEST}\nthread_local! {{\n    static HITS: Cell<usize> = Cell::new(0);\n}}\n\n\
             fn lib(x: Option<u8>) -> u8 {{\n    x{EXPECT}\"why\") + x{UNWRAP}\n}}\n"
        );
        // Line 12: the unwrap, and the expect over its zero budget.
        assert_eq!(lint(&text), (vec![12, 12], Some(1)));
    }

    #[test]
    fn a_cfg_test_module_is_exempt_until_it_closes() {
        let text = format!(
            "{CFG_TEST}\nmod tests {{\n    #[test]\n    fn t() {{\n        x{UNWRAP};\n        \
             y{EXPECT}\"ok\");\n        {PANIC}\"ok\");\n    }}\n}}\n\n\
             fn after() {{\n    x{UNWRAP};\n}}\n"
        );
        assert_eq!(lint(&text), (vec![12], Some(0)));
    }
}
