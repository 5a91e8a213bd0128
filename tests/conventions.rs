//! The one project convention no rustc or clippy lint covers: every
//! explicit atomic ordering in library code carries an `// ORDERING:`
//! comment saying what it synchronizes with, or why `Relaxed` suffices
//! (ARCHITECTURE.md, "Static analysis & verification").
//!
//! A line scan, not a parser: a false positive only forces a tag. A hit is
//! `Ordering::{Relaxed,Acquire,Release,AcqRel,SeqCst}` in the code part of
//! a line before the file's `#[cfg(test)]`. Its tag may sit on any line of
//! its statement — the lines back to one ending in `;`, `{` or `}` — or in
//! the run of comment lines directly above that statement.

use std::path::{Path, PathBuf};

const ATOMIC_ORDERINGS: [&str; 5] = ["Relaxed", "Acquire", "Release", "AcqRel", "SeqCst"];
const TAG: &str = "// ORDERING:";

/// The line without its `//` comment.
fn code(line: &str) -> &str {
    line.split("//").next().unwrap_or("")
}

/// `path:line` of every atomic ordering in `src` without a tag.
fn untagged(path: &str, src: &str) -> Vec<String> {
    let lines: Vec<&str> = src.lines().collect();
    let is_comment = |l: &str| l.trim_start().starts_with("//");
    let mut found = Vec::new();
    for (i, line) in lines.iter().enumerate() {
        if line.trim_start().starts_with("#[cfg(test)]") {
            break;
        }
        let c = code(line);
        if !ATOMIC_ORDERINGS
            .iter()
            .any(|v| c.contains(&format!("Ordering::{v}")))
        {
            continue;
        }
        let mut start = i;
        while start > 0 {
            let prev = code(lines[start - 1]).trim_end();
            if prev.trim().is_empty() || prev.ends_with([';', '{', '}']) {
                break;
            }
            start -= 1;
        }
        let mut above = start;
        while above > 0 && is_comment(lines[above - 1]) {
            above -= 1;
        }
        if !lines[above..=i].iter().any(|l| l.contains(TAG)) {
            found.push(format!("{path}:{}", i + 1));
        }
    }
    found
}

/// Every `.rs` file under `dir`, skipping `bin/` directories (bins, like
/// tests and examples, are not library code).
fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries {
        let path = entry.expect("readable directory entry").path();
        if path.is_dir() && !path.ends_with("bin") {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

#[test]
fn untagged_ordering_is_reported_with_file_and_line() {
    let src = "fn f(a: &AtomicU8) {\n    let _ = 1;\n    a.load(Ordering::Acquire);\n}\n";
    assert_eq!(untagged("x.rs", src), ["x.rs:3"]);
    let tagged =
        "fn f(a: &AtomicU8) {\n    a.load(Ordering::Acquire); // ORDERING: pairs with g\n}\n";
    assert!(untagged("x.rs", tagged).is_empty());
}

#[test]
fn a_tag_above_a_statement_covers_its_continuation_lines() {
    let src = "\
fn f(s: &AtomicU8) {
    let x = 1;
    // ORDERING: AcqRel publishes the input; Acquire re-reads on failure.
    // (A second comment line.)
    if s
        .compare_exchange(0, 1, Ordering::AcqRel, Ordering::Acquire)
        .is_ok()
    {}
    s.store(0, Ordering::Release);
}
";
    assert_eq!(untagged("x.rs", src), ["x.rs:9"]);
}

#[test]
fn comments_cmp_ordering_and_test_modules_are_ignored() {
    let src = "\
/// Loads with `Ordering::SeqCst`.
fn f(x: i32) -> std::cmp::Ordering {
    // Not `Ordering::Relaxed`: a comparison.
    if x < 0 { cmp::Ordering::Less } else { std::cmp::Ordering::Greater }
}
#[cfg(test)]
mod tests {
    fn g(a: &AtomicU8) { a.load(Ordering::Relaxed); }
}
";
    assert!(untagged("x.rs", src).is_empty());
}

#[test]
fn every_atomic_ordering_in_library_code_is_tagged() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    rust_files(&root.join("src"), &mut files);
    let crates = std::fs::read_dir(root.join("crates")).expect("crates/ directory");
    for krate in crates {
        rust_files(
            &krate.expect("readable crate entry").path().join("src"),
            &mut files,
        );
    }
    files.sort();
    assert!(files.len() > 50, "found only {} source files", files.len());
    let findings: Vec<String> = files
        .iter()
        .flat_map(|f| {
            let src = std::fs::read_to_string(f).expect("readable source file");
            let rel = f.strip_prefix(root).unwrap_or(f).display().to_string();
            untagged(&rel, &src)
        })
        .collect();
    assert!(
        findings.is_empty(),
        "atomic orderings without an `// ORDERING:` justification:\n{}",
        findings.join("\n")
    );
}
