//! Workspace invariant linter.
//!
//! A dependency-free, token-level static analysis pass over every Rust
//! source file in the workspace. It lexes each file with a real lexer
//! ([`lexer`] — raw strings, nested block comments, lifetime-vs-char
//! disambiguation), recovers light structure ([`source`] — attribute
//! spans, `#[cfg(test)]` extents, justification-comment attachment), and
//! enforces the project conventions as named rules ([`rules`]).
//!
//! The binary (`cargo run -p icsad-analysis -- --deny`) is the CI
//! entry point; [`analyze`] is the library entry point used by the
//! workspace-clean integration test. The crate deliberately has no
//! dependencies — it is a trust root for the rest of the workspace and
//! must not depend on anything it audits.

#![forbid(unsafe_code)]

pub mod lexer;
pub mod rules;
pub mod source;

pub use lexer::{lex, Token, TokenKind};
pub use rules::{check_file, check_forbid_unsafe, rule_help, Diagnostic, FileCtx, RuleInfo, RULES};
pub use source::SourceFile;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// Directory names never descended into during discovery. `fixtures`
/// excludes the rule-violation corpora under `crates/*/tests/fixtures/`,
/// which exist precisely to trip the linter.
const SKIP_DIRS: &[&str] = &["target", "vendor", ".git", "fixtures", "node_modules"];

/// Recursively finds every `.rs` file under `root`, skipping `SKIP_DIRS`.
/// Returned paths are workspace-relative and sorted, so runs are
/// deterministic regardless of filesystem iteration order.
pub fn discover(root: &Path) -> std::io::Result<Vec<PathBuf>> {
    fn walk(dir: &Path, root: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
        for entry in std::fs::read_dir(dir)? {
            let entry = entry?;
            let path = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if path.is_dir() {
                if !SKIP_DIRS.contains(&name.as_ref()) {
                    walk(&path, root, out)?;
                }
            } else if name.ends_with(".rs") {
                // PANIC: `path` was built by joining under `root`, so
                // strip_prefix cannot fail.
                out.push(path.strip_prefix(root).unwrap().to_path_buf());
            }
        }
        Ok(())
    }
    let mut out = Vec::new();
    walk(root, root, &mut out)?;
    out.sort();
    Ok(out)
}

/// Derives the rule context for a workspace-relative path.
pub fn file_ctx(rel: &str) -> FileCtx {
    let rel = rel.replace('\\', "/");
    let crate_dir = match rel.strip_prefix("crates/") {
        Some(rest) => match rest.split('/').next() {
            Some(dir) => format!("crates/{dir}"),
            None => ".".to_string(),
        },
        None => ".".to_string(),
    };
    let tail = rel
        .strip_prefix(&format!("{crate_dir}/"))
        .unwrap_or(rel.as_str());
    let is_test_path = tail.starts_with("tests/")
        || tail.starts_with("examples/")
        || tail.starts_with("src/bin/")
        || tail == "build.rs";
    FileCtx {
        rel,
        crate_dir,
        is_test_path,
    }
}

/// Result of an [`analyze`] run.
pub struct Report {
    /// Violations, sorted by (path, line, rule).
    pub diagnostics: Vec<Diagnostic>,
    /// How many files were scanned.
    pub files_scanned: usize,
}

/// Runs every rule over every workspace source file under `root`.
///
/// `only_rules`, when non-empty, restricts the run to the named rules.
pub fn analyze(root: &Path, only_rules: &[String]) -> std::io::Result<Report> {
    let enabled = |name: &str| only_rules.is_empty() || only_rules.iter().any(|r| r == name);
    let mut by_crate: BTreeMap<String, Vec<(FileCtx, SourceFile)>> = BTreeMap::new();
    let mut files_scanned = 0usize;
    for rel in discover(root)? {
        let text = std::fs::read_to_string(root.join(&rel))?;
        let rel_str = rel.to_string_lossy().into_owned();
        let ctx = file_ctx(&rel_str);
        let file = SourceFile::parse(rel, text);
        files_scanned += 1;
        by_crate
            .entry(ctx.crate_dir.clone())
            .or_default()
            .push((ctx, file));
    }
    let mut diagnostics = Vec::new();
    for (crate_dir, files) in &by_crate {
        for (ctx, file) in files {
            let mut out = Vec::new();
            rules::check_file(file, ctx, &mut out);
            diagnostics.extend(out.into_iter().filter(|d| enabled(d.rule)));
        }
        if enabled("forbid-unsafe-where-unused") {
            if let Some(d) = rules::check_forbid_unsafe(crate_dir, files) {
                diagnostics.push(d);
            }
        }
    }
    diagnostics.sort();
    Ok(Report {
        diagnostics,
        files_scanned,
    })
}

/// Lints a single source text as if it sat at `rel` in the workspace —
/// the entry point the fixture tests use.
pub fn check_source(rel: &str, text: &str) -> Vec<Diagnostic> {
    let ctx = file_ctx(rel);
    let file = SourceFile::parse(PathBuf::from(rel), text.to_string());
    let mut out = Vec::new();
    rules::check_file(&file, &ctx, &mut out);
    out.sort();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn file_ctx_classification() {
        let c = file_ctx("crates/simd/src/x86.rs");
        assert_eq!(c.crate_dir, "crates/simd");
        assert!(!c.is_test_path);

        let c = file_ctx("crates/engine/tests/decisions.rs");
        assert_eq!(c.crate_dir, "crates/engine");
        assert!(c.is_test_path);

        let c = file_ctx("crates/bench/src/bin/paper/main.rs");
        assert!(c.is_test_path);

        let c = file_ctx("src/lib.rs");
        assert_eq!(c.crate_dir, ".");
        assert!(!c.is_test_path);

        let c = file_ctx("examples/commission.rs");
        assert_eq!(c.crate_dir, ".");
        assert!(c.is_test_path);
    }

    #[test]
    fn rule_registry_is_consistent() {
        // Every rule name referenced by the checkers exists in the registry.
        for name in [
            "unsafe-needs-safety-comment",
            "arch-confined-to-simd",
            "atomics-need-ordering-comment",
            "no-unjustified-panic",
            "forbid-unsafe-where-unused",
            "no-nondeterminism-in-decisions",
        ] {
            assert!(rule_help(name).is_some(), "missing registry entry: {name}");
        }
        assert_eq!(RULES.len(), 6);
    }
}
