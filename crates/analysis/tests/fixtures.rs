//! Fixture-driven rule tests plus the workspace-clean gate.
//!
//! The `.rs` files under `tests/fixtures/` are *data*, not compiled code —
//! the `fixtures` directory is excluded from discovery, so the negative
//! fixture's deliberate violations never reach the real lint run. Each
//! fixture is checked here through [`icsad_analysis::check_source`] under
//! a synthetic in-scope path.

use icsad_analysis::check_source;

/// Path placing a fixture on the strictest real scope: engine library code
/// is covered by the panic and nondeterminism rules as well as the
/// universal unsafe/arch/atomics rules.
const ENGINE_PATH: &str = "crates/engine/src/fixture.rs";

#[test]
fn negative_fixture_trips_every_rule() {
    let text = include_str!("fixtures/violations.rs");
    let got: Vec<(u32, &str)> = check_source(ENGINE_PATH, text)
        .into_iter()
        .map(|d| (d.line, d.rule))
        .collect();
    let want = vec![
        (11, "unsafe-needs-safety-comment"),
        (15, "arch-confined-to-simd"),
        (19, "atomics-need-ordering-comment"),
        (23, "no-unjustified-panic"),
        (27, "no-unjustified-panic"),
        (31, "no-nondeterminism-in-decisions"),
        (34, "no-nondeterminism-in-decisions"),
        (35, "no-nondeterminism-in-decisions"),
        (39, "no-nondeterminism-in-decisions"),
    ];
    assert_eq!(got, want, "fixture drifted from its expectation table");
}

#[test]
fn clean_fixture_produces_no_diagnostics() {
    let text = include_str!("fixtures/clean.rs");
    let got = check_source(ENGINE_PATH, text);
    assert!(
        got.is_empty(),
        "justified fixture still flagged: {:#?}",
        got
    );
}

#[test]
fn lexer_fixture_produces_no_diagnostics() {
    let text = include_str!("fixtures/lexer_tricky.rs");
    let got = check_source(ENGINE_PATH, text);
    assert!(
        got.is_empty(),
        "keyword spellings inside strings/comments were flagged: {:#?}",
        got
    );
}

#[test]
fn rules_relax_outside_their_scope() {
    // The panic and nondeterminism rules only apply to crates on the
    // monitoring/decision path; a tool crate may unwrap freely. The
    // unsafe, arch and atomics rules hold everywhere.
    let text = include_str!("fixtures/violations.rs");
    let got: Vec<&str> = check_source("crates/analysis/src/fixture.rs", text)
        .into_iter()
        .map(|d| d.rule)
        .collect();
    assert_eq!(
        got,
        vec![
            "unsafe-needs-safety-comment",
            "arch-confined-to-simd",
            "atomics-need-ordering-comment",
        ],
    );
}

#[test]
fn test_paths_keep_the_universal_rules() {
    // Integration tests and examples are exempt from panic/ordering/nondet,
    // but not from the unsafe rule.
    let text = include_str!("fixtures/violations.rs");
    let got: Vec<&str> = check_source("crates/engine/tests/fixture.rs", text)
        .into_iter()
        .map(|d| d.rule)
        .collect();
    assert_eq!(
        got,
        vec!["unsafe-needs-safety-comment", "arch-confined-to-simd"],
    );
}

/// The gate the CI job enforces, as a plain test: the workspace itself must
/// lint clean. Running it here means `cargo test` catches a regression even
/// where the dedicated CI job is not wired.
#[test]
fn workspace_lints_clean() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("..")
        .join("..");
    let report = icsad_analysis::analyze(&root, &[]).expect("workspace read");
    assert!(
        report.files_scanned > 100,
        "discovery collapsed: only {} files found",
        report.files_scanned
    );
    let rendered: Vec<String> = report.diagnostics.iter().map(|d| d.to_string()).collect();
    assert!(
        report.diagnostics.is_empty(),
        "workspace has lint violations:\n{}",
        rendered.join("\n")
    );
}
