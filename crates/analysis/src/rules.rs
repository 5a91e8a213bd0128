//! The rule catalog.
//!
//! Each rule walks a [`SourceFile`]'s token stream looking for sites that
//! the project's conventions say must carry a justification comment (or
//! must not exist at all outside an allowlisted location) and emits a
//! `file:line` diagnostic for every violation. The conventions themselves
//! are documented in ARCHITECTURE.md, section "Static analysis &
//! verification".

use crate::source::SourceFile;
use crate::TokenKind;
use std::fmt;

/// A single rule violation at a `file:line` site.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Diagnostic {
    /// Workspace-relative path (forward slashes).
    pub path: String,
    /// 1-based line of the offending token.
    pub line: u32,
    /// The rule that fired (its registry name).
    pub rule: &'static str,
    /// What is wrong at this site.
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.path, self.line, self.rule, self.message
        )
    }
}

/// Static description of a rule, for `--list-rules` and per-diagnostic help.
pub struct RuleInfo {
    pub name: &'static str,
    pub summary: &'static str,
    /// One-line remediation hint; every hint points back at the
    /// ARCHITECTURE.md section that defines the convention.
    pub help: &'static str,
}

/// Every rule the linter knows, in the order they run.
pub const RULES: &[RuleInfo] = &[
    RuleInfo {
        name: "unsafe-needs-safety-comment",
        summary: "every `unsafe` keyword must have an attached `// SAFETY:` comment",
        help: "explain why the contract holds in a `// SAFETY:` comment on or directly above \
               the site (ARCHITECTURE.md: Static analysis & verification)",
    },
    RuleInfo {
        name: "arch-confined-to-simd",
        summary: "`core::arch`/`std::arch` may only be referenced inside icsad-simd",
        help: "intrinsics live behind the dispatch layer in crates/simd; call the safe kernel \
               API instead (ARCHITECTURE.md: Static analysis & verification)",
    },
    RuleInfo {
        name: "atomics-need-ordering-comment",
        summary: "every explicit atomic `Ordering::` outside tests needs an `// ORDERING:` \
                  justification",
        help: "state what the ordering synchronizes with (or why Relaxed suffices) in an \
               `// ORDERING:` comment (ARCHITECTURE.md: Static analysis & verification)",
    },
    RuleInfo {
        name: "no-unjustified-panic",
        summary: "`unwrap`/`expect`/`panic!` in non-test library code of \
                  engine/runtime/simd/core needs a `// PANIC:` justification",
        help: "prove the panic is unreachable or intentional in a `// PANIC:` comment, or \
               return an error (ARCHITECTURE.md: Static analysis & verification)",
    },
    RuleInfo {
        name: "forbid-unsafe-where-unused",
        summary: "crates with zero `unsafe` must declare `#![forbid(unsafe_code)]`",
        help: "add `#![forbid(unsafe_code)]` to the crate root so unsafe cannot creep in \
               unreviewed (ARCHITECTURE.md: Static analysis & verification)",
    },
    RuleInfo {
        name: "no-nondeterminism-in-decisions",
        summary: "wall-clock reads, environment reads and default-hasher HashMaps in \
                  decision paths need a `// NONDET:` justification",
        help: "detection decisions must be replayable; justify with `// NONDET:` why this \
               cannot influence a decision, or use a deterministic structure \
               (ARCHITECTURE.md: Static analysis & verification)",
    },
];

/// Look up a rule's help text by name.
pub fn rule_help(name: &str) -> Option<&'static str> {
    RULES.iter().find(|r| r.name == name).map(|r| r.help)
}

/// Per-file context derived from the path by the runner.
pub struct FileCtx {
    /// Workspace-relative path with forward slashes.
    pub rel: String,
    /// Directory identifying the owning crate (`crates/simd`, or `.` for
    /// the workspace-root package).
    pub crate_dir: String,
    /// True for integration tests, examples, binaries and generators —
    /// paths whose code never runs in the monitor itself.
    pub is_test_path: bool,
}

/// Crates whose library code is on the inline monitoring path: a panic
/// there is an outage, so it must be justified.
const PANIC_SCOPE: &[&str] = &["engine", "runtime", "simd", "core"];

/// Crates whose library code can influence a detection decision: anything
/// nondeterministic there breaks replayability.
const NONDET_SCOPE: &[&str] = &[
    "engine",
    "runtime",
    "core",
    "features",
    "nn",
    "baselines",
    "bloom",
    "simd",
];

fn in_scope(ctx: &FileCtx, dirs: &[&str]) -> bool {
    dirs.iter()
        .any(|d| ctx.rel.starts_with(&format!("crates/{d}/src/")))
}

/// Runs every per-file rule against one file.
pub fn check_file(file: &SourceFile, ctx: &FileCtx, out: &mut Vec<Diagnostic>) {
    // Indices of non-comment tokens, so multi-token patterns are immune to
    // interleaved comments.
    let sig: Vec<usize> = (0..file.tokens.len())
        .filter(|&i| {
            !matches!(
                file.tokens[i].kind,
                TokenKind::LineComment | TokenKind::BlockComment
            )
        })
        .collect();
    let text = |s: usize| -> &str {
        sig.get(s)
            .map(|&i| file.tokens[i].text(&file.text))
            .unwrap_or("")
    };
    let kind = |s: usize| sig.get(s).map(|&i| file.tokens[i].kind);
    let line = |s: usize| file.tokens[sig[s]].line;
    let emit = |out: &mut Vec<Diagnostic>, s: usize, rule: &'static str, message: String| {
        out.push(Diagnostic {
            path: ctx.rel.clone(),
            line: line(s),
            rule,
            message,
        });
    };
    // A justification may sit on the flagged token's own statement — on any
    // of its lines, or attached above its first line. The statement start is
    // approximated by walking back to the nearest `;`/`{`/`}` (capped, so a
    // degenerate token run cannot walk arbitrarily far).
    let justified = |s: usize, tag: &str| -> bool {
        let tok_line = line(s);
        let mut k = s;
        let mut hops = 0;
        while k > 0 && hops < 64 {
            let prev = text(k - 1);
            if prev == ";" || prev == "{" || prev == "}" {
                break;
            }
            k -= 1;
            hops += 1;
        }
        let start_line = line(k);
        (start_line..=tok_line).any(|l| file.line_has_tag(l, tag))
            || file.justified(start_line, tag)
    };

    for (s, &i) in sig.iter().enumerate() {
        if kind(s) != Some(TokenKind::Ident) {
            continue;
        }
        let w = text(s);

        // unsafe-needs-safety-comment: applies everywhere, including test
        // code — an unexplained `unsafe` is never acceptable.
        if w == "unsafe" && !justified(s, "SAFETY:") {
            emit(
                out,
                s,
                "unsafe-needs-safety-comment",
                "`unsafe` without an attached `// SAFETY:` comment".to_string(),
            );
        }

        // arch-confined-to-simd: `core::arch` / `std::arch` path anywhere
        // outside crates/simd.
        if (w == "core" || w == "std")
            && text(s + 1) == ":"
            && text(s + 2) == ":"
            && text(s + 3) == "arch"
            && !ctx.rel.starts_with("crates/simd/")
        {
            emit(
                out,
                s,
                "arch-confined-to-simd",
                format!("`{w}::arch` referenced outside icsad-simd"),
            );
        }

        // atomics-need-ordering-comment: `Ordering::Variant` outside tests.
        if w == "Ordering" && text(s + 1) == ":" && text(s + 2) == ":" {
            let variant = text(s + 3);
            if matches!(
                variant,
                "Relaxed" | "Acquire" | "Release" | "AcqRel" | "SeqCst"
            ) && !ctx.is_test_path
                && !file.is_test_code(i)
                && !justified(s, "ORDERING:")
            {
                emit(
                    out,
                    s,
                    "atomics-need-ordering-comment",
                    format!("`Ordering::{variant}` without an `// ORDERING:` justification"),
                );
            }
        }

        if in_scope(ctx, PANIC_SCOPE) && !ctx.is_test_path && !file.is_test_code(i) {
            // no-unjustified-panic: `.unwrap(` / `.expect(` method calls and
            // `panic!` invocations.
            let method = (w == "unwrap" || w == "expect")
                && s > 0
                && text(s - 1) == "."
                && text(s + 1) == "(";
            let macro_call = w == "panic" && text(s + 1) == "!";
            if (method || macro_call) && !justified(s, "PANIC:") {
                let what = if macro_call {
                    "panic!".to_string()
                } else {
                    format!(".{w}()")
                };
                emit(
                    out,
                    s,
                    "no-unjustified-panic",
                    format!("`{what}` in library code without a `// PANIC:` justification"),
                );
            }
        }

        if in_scope(ctx, NONDET_SCOPE) && !ctx.is_test_path && !file.is_test_code(i) {
            // no-nondeterminism-in-decisions: wall-clock reads.
            if (w == "Instant" || w == "SystemTime")
                && text(s + 1) == ":"
                && text(s + 2) == ":"
                && text(s + 3) == "now"
                && !justified(s, "NONDET:")
            {
                emit(
                    out,
                    s,
                    "no-nondeterminism-in-decisions",
                    format!("`{w}::now()` in a decision path without a `// NONDET:` justification"),
                );
            }
            // Environment reads: the product is configured through its
            // API, so the same inputs decide the same way on every host.
            if w == "env"
                && text(s + 1) == ":"
                && text(s + 2) == ":"
                && matches!(text(s + 3), "var" | "var_os" | "vars")
                && !justified(s, "NONDET:")
            {
                emit(
                    out,
                    s,
                    "no-nondeterminism-in-decisions",
                    format!(
                        "`env::{}` in a decision path without a `// NONDET:` justification",
                        text(s + 3)
                    ),
                );
            }
            // Default-hasher maps: iteration order is seeded per-process.
            // `use` lines are exempt — the justification belongs at the
            // site that stores or iterates the map.
            if w == "HashMap" && !justified(s, "NONDET:") {
                let first_code_on_line = (0..file.tokens.len())
                    .filter(|&j| {
                        file.tokens[j].line == file.tokens[i].line
                            && !matches!(
                                file.tokens[j].kind,
                                TokenKind::LineComment | TokenKind::BlockComment
                            )
                    })
                    .min();
                let is_use_line =
                    first_code_on_line.is_some_and(|j| file.tokens[j].text(&file.text) == "use");
                if !is_use_line {
                    emit(
                        out,
                        s,
                        "no-nondeterminism-in-decisions",
                        "default-hasher `HashMap` in a decision path without a `// NONDET:` \
                         justification"
                            .to_string(),
                    );
                }
            }
        }
    }
}

/// The per-crate rule: a crate whose `src/` contains no `unsafe` at all
/// must pin that property with `#![forbid(unsafe_code)]` in its root file.
///
/// `files` is every discovered file of one crate; returns at most one
/// diagnostic, anchored at the crate root.
pub fn check_forbid_unsafe(crate_dir: &str, files: &[(FileCtx, SourceFile)]) -> Option<Diagnostic> {
    let src_prefix = if crate_dir == "." {
        "src/".to_string()
    } else {
        format!("{crate_dir}/src/")
    };
    let src_files: Vec<&(FileCtx, SourceFile)> = files
        .iter()
        .filter(|(ctx, _)| ctx.rel.starts_with(&src_prefix))
        .collect();
    let has_unsafe = src_files.iter().any(|(_, f)| {
        (0..f.tokens.len())
            .any(|i| f.tokens[i].kind == TokenKind::Ident && f.tok_text(i) == "unsafe")
    });
    if has_unsafe {
        return None;
    }
    // Root file: lib.rs if the crate has one, else main.rs.
    let root = src_files
        .iter()
        .find(|(ctx, _)| ctx.rel == format!("{src_prefix}lib.rs"))
        .or_else(|| {
            src_files
                .iter()
                .find(|(ctx, _)| ctx.rel == format!("{src_prefix}main.rs"))
        })?;
    if root.1.has_forbid_unsafe() {
        return None;
    }
    Some(Diagnostic {
        path: root.0.rel.clone(),
        line: 1,
        rule: "forbid-unsafe-where-unused",
        message: format!(
            "crate `{crate_dir}` uses no unsafe code but does not declare \
             `#![forbid(unsafe_code)]`"
        ),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn check(rel: &str, src: &str) -> Vec<Diagnostic> {
        let file = SourceFile::parse(PathBuf::from(rel), src.to_string());
        let ctx = crate::file_ctx(rel);
        let mut out = Vec::new();
        check_file(&file, &ctx, &mut out);
        out
    }

    fn rules_fired(diags: &[Diagnostic]) -> Vec<&'static str> {
        diags.iter().map(|d| d.rule).collect()
    }

    #[test]
    fn unsafe_without_comment_fires() {
        let d = check("crates/simd/src/x86.rs", "fn f() { unsafe { g() } }\n");
        assert_eq!(rules_fired(&d), ["unsafe-needs-safety-comment"]);
        assert_eq!(d[0].line, 1);
    }

    #[test]
    fn unsafe_with_comment_is_clean() {
        let d = check(
            "crates/simd/src/x86.rs",
            "// SAFETY: caller checked the feature\nfn f() { unsafe { g() } }\n",
        );
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn unsafe_in_string_or_comment_does_not_fire() {
        let d = check(
            "crates/core/src/lib.rs",
            "#![forbid(unsafe_code)]\n/// Not `unsafe` at all.\nfn f() -> &'static str { \"unsafe { }\" }\n",
        );
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn arch_outside_simd_fires() {
        let d = check(
            "crates/engine/src/lib.rs",
            "use core::arch::x86_64::_mm_add_ps;\n",
        );
        assert_eq!(rules_fired(&d), ["arch-confined-to-simd"]);
    }

    #[test]
    fn arch_inside_simd_is_allowed() {
        let d = check(
            "crates/simd/src/x86.rs",
            "// SAFETY: n/a\nuse core::arch::x86_64::_mm_add_ps;\n",
        );
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn ordering_without_comment_fires_and_test_code_is_exempt() {
        let src = "fn f(a: &AtomicU8) { a.load(Ordering::Acquire); }\n\
                   #[cfg(test)]\n\
                   mod tests {\n\
                       fn g(a: &super::AtomicU8) { a.load(Ordering::Relaxed); }\n\
                   }\n";
        let d = check("crates/runtime/src/executor.rs", src);
        assert_eq!(rules_fired(&d), ["atomics-need-ordering-comment"]);
        assert_eq!(d[0].line, 1);
    }

    #[test]
    fn ordering_with_comment_is_clean() {
        let d = check(
            "crates/runtime/src/executor.rs",
            "// ORDERING: pairs with the Release store in notify().\n\
             fn f(a: &AtomicU8) { a.load(Ordering::Acquire); }\n",
        );
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn cmp_ordering_variants_do_not_fire() {
        let d = check(
            "crates/runtime/src/executor.rs",
            "fn f(x: i32) -> Ordering { if x < 0 { Ordering::Less } else { Ordering::Greater } }\n",
        );
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn unwrap_in_scope_fires_only_without_panic_comment() {
        let fires = check("crates/engine/src/lib.rs", "fn f() { x.unwrap(); }\n");
        assert_eq!(rules_fired(&fires), ["no-unjustified-panic"]);
        let clean = check(
            "crates/engine/src/lib.rs",
            "// PANIC: x was just inserted above.\nfn f() { x.unwrap(); }\n",
        );
        assert!(clean.is_empty(), "{clean:?}");
        // unwrap_or_default is not unwrap.
        let not_unwrap = check("crates/engine/src/lib.rs", "fn f() { x.unwrap_or(0); }\n");
        assert!(not_unwrap.is_empty(), "{not_unwrap:?}");
        // Out-of-scope crates are not policed.
        let out_of_scope = check("crates/simulator/src/lib.rs", "fn f() { x.unwrap(); }\n");
        assert!(out_of_scope.is_empty(), "{out_of_scope:?}");
    }

    #[test]
    fn panic_macro_fires() {
        let d = check(
            "crates/runtime/src/queue.rs",
            "fn f() { panic!(\"boom\"); }\n",
        );
        assert_eq!(rules_fired(&d), ["no-unjustified-panic"]);
    }

    #[test]
    fn instant_now_in_decision_path_fires() {
        let d = check(
            "crates/engine/src/lib.rs",
            "fn f() -> Instant { Instant::now() }\n",
        );
        assert_eq!(rules_fired(&d), ["no-nondeterminism-in-decisions"]);
    }

    #[test]
    fn env_reads_fire_but_other_env_calls_do_not() {
        for (call, fires) in [
            ("var(\"K\")", true),
            ("var_os(\"K\")", true),
            ("vars()", true),
            ("temp_dir()", false),
            ("args()", false),
        ] {
            let src = format!("fn f() {{ let _ = std::env::{call}; }}\n");
            let d = check("crates/simd/src/lib.rs", &src);
            let want: &[&str] = if fires {
                &["no-nondeterminism-in-decisions"]
            } else {
                &[]
            };
            assert_eq!(rules_fired(&d), want, "{call}");
        }
    }

    #[test]
    fn hashmap_fires_except_on_use_lines_and_with_tag() {
        let fires = check(
            "crates/engine/src/shard.rs",
            "struct S { m: HashMap<u32, usize> }\n",
        );
        assert_eq!(rules_fired(&fires), ["no-nondeterminism-in-decisions"]);
        let use_line = check(
            "crates/engine/src/shard.rs",
            "use std::collections::HashMap;\n",
        );
        assert!(use_line.is_empty(), "{use_line:?}");
        let tagged = check(
            "crates/engine/src/shard.rs",
            "// NONDET: looked up by key only, never iterated.\n\
             struct S { m: HashMap<u32, usize> }\n",
        );
        assert!(tagged.is_empty(), "{tagged:?}");
    }

    #[test]
    fn test_paths_are_exempt_from_scoped_rules() {
        let d = check(
            "crates/engine/tests/decisions.rs",
            "fn f(a: &AtomicU8) { a.load(Ordering::SeqCst); x.unwrap(); }\n",
        );
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn forbid_unsafe_rule() {
        let mk = |rel: &str, src: &str| {
            (
                crate::file_ctx(rel),
                SourceFile::parse(PathBuf::from(rel), src.to_string()),
            )
        };
        // Unsafe-free crate without the attribute: fires at lib.rs:1.
        let files = vec![mk("crates/core/src/lib.rs", "fn f() {}\n")];
        let d = check_forbid_unsafe("crates/core", &files).expect("should fire");
        assert_eq!(d.rule, "forbid-unsafe-where-unused");
        assert_eq!(d.path, "crates/core/src/lib.rs");
        // With the attribute: clean.
        let files = vec![mk(
            "crates/core/src/lib.rs",
            "#![forbid(unsafe_code)]\nfn f() {}\n",
        )];
        assert!(check_forbid_unsafe("crates/core", &files).is_none());
        // A crate that genuinely uses unsafe is exempt.
        let files = vec![mk(
            "crates/simd/src/lib.rs",
            "// SAFETY: x\nunsafe fn f() {}\n",
        )];
        assert!(check_forbid_unsafe("crates/simd", &files).is_none());
    }
}
