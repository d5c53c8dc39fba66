//! The repro binaries reject arguments they do not know: a mistyped
//! or removed flag exits with status 2 and a usage line before any
//! work starts, instead of silently running the defaults.

use std::process::Command;

/// Runs `bin` with `args`; returns its exit code and stderr.
fn run(bin: &str, args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(bin).args(args).output().expect("the binary starts");
    (out.status.code(), String::from_utf8_lossy(&out.stderr).into_owned())
}

#[test]
fn table3_rejects_unknown_arguments() {
    let table3 = env!("CARGO_BIN_EXE_table3");
    for args in [
        &["--fast", "--synth", "seed"][..],
        &["--fast", "--objetive", "delay"],
        &["--fast", "--objective", "fastest"],
        &["--fast", "--jobs", "0"],
        &["--fast", "extra"],
    ] {
        let (code, stderr) = run(table3, args);
        assert_eq!(code, Some(2), "table3 {args:?} must fail");
        assert!(stderr.contains("usage: table3"), "table3 {args:?}: {stderr}");
    }
}

#[test]
fn full_repro_rejects_unknown_arguments() {
    let full_repro = env!("CARGO_BIN_EXE_full_repro");
    for args in [&["--fast"][..], &["--jobs"], &["--input", "--jobs", "2"]] {
        let (code, stderr) = run(full_repro, args);
        assert_eq!(code, Some(2), "full_repro {args:?} must fail");
        assert!(stderr.contains("usage: full_repro"), "full_repro {args:?}: {stderr}");
    }
}

#[test]
fn perfsnap_rejects_unknown_arguments() {
    let perfsnap = env!("CARGO_BIN_EXE_perfsnap");
    for args in [&["--fast"][..], &["--mem-row"], &["--mem-row", "eight"], &["--mem-row", "8", "9"]] {
        let (code, stderr) = run(perfsnap, args);
        assert_eq!(code, Some(2), "perfsnap {args:?} must fail");
        assert!(stderr.contains("usage: perfsnap"), "perfsnap {args:?}: {stderr}");
    }
}
