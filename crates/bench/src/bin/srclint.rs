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
//!    fails the lint. Shrinking a budget is encouraged; growing one
//!    is a reviewed decision, not a drive-by.
//! 3. No `dbg!(`, `todo!(` or `unimplemented!(` anywhere, tests
//!    included — those are in-progress markers, not shippable code.
//! 4. Every crate root carries `#![forbid(unsafe_code)]` and a
//!    `missing_docs` lint header, and the `unsafe` token appears
//!    nowhere else.
//!
//! Lines after the first `#[cfg(test)]` in a file are test code and
//! exempt from (1) and (2); `//` comment lines are always skipped.
//! Exits non-zero listing every violation.

use std::path::{Path, PathBuf};

/// A single lint hit: file, line number, and what rule fired.
struct Violation {
    file: String,
    line: usize,
    what: String,
}

/// Per-file `.expect()` allowance in non-test library code. The
/// numbers are the current counts (the ratchet): lower them when a
/// call site is removed, and justify any increase in review. Files
/// not listed have a budget of zero.
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
    ("crates/synth/src/refactor.rs", 1),
    ("crates/synth/src/seed.rs", 8),
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
        lint_file(&rel, &text, is_lib, &mut violations);
        if rel.ends_with("src/lib.rs") && !rel.contains("/bin/") {
            lint_crate_root(&rel, &text, &mut violations);
        }
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
/// (no unwrap/panic, budgeted expect).
fn lint_file(rel: &str, text: &str, is_lib: bool, out: &mut Vec<Violation>) {
    let mut in_tests = false;
    let mut expects = 0usize;
    let mut first_excess_expect = None;
    for (i, raw) in text.lines().enumerate() {
        let line = i + 1;
        let t = raw.trim_start();
        if t.starts_with(CFG_TEST) {
            in_tests = true;
        }
        if t.starts_with("//") {
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
