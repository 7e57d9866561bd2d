//! Source-hygiene lint over the workspace's library code — the
//! code-level companion of the `tps lint` subscription analyzer.
//!
//! ```text
//! src-lint [ROOT]
//! ```
//!
//! Scans `src/` and `crates/*/src/` under `ROOT` (default `.`) and fails
//! when non-test library code contains:
//!
//! * `.unwrap()` or `.expect("...")` without a justification, or
//! * `#[allow(clippy::...)]` without a justification.
//!
//! A justification is a comment containing the `invariant:` marker on the
//! same line or within the preceding eight lines — wide enough to cover a
//! comment block above a multi-line method chain:
//!
//! ```text
//! // invariant: the reservoir is full here, hence non-empty
//! let victim = self.argmax().expect("non-empty");
//! ```
//!
//! Under `crates/net/src` there is one more rule, with no justification: a
//! broker matches documents from their bytes, so `XmlTree::parse` may only
//! appear in the body of `fn summary_tree`, and that function may only be
//! called within two lines after a `summarised()` test — the summarised
//! routing tables are the one reader of a document tree there.
//!
//! And one rule for the whole workspace, also with no justification: the
//! `"<![CDATA["` literal may only appear in `crates/xml/src/scan.rs`.
//! Every XML document lexer must recognise CDATA sections (the DTD parser
//! lexes declarations, not documents, and has no use for it), so the
//! literal anywhere else is a second lexer. The fuzzer (`crates/fuzz/src`)
//! is exempt: its mutation dictionaries splice the token into inputs.
//!
//! Under `crates/core/src`, `ops::conjunction` may only appear in
//! `selectivity.rs`, again with no justification: the engine folds a joint
//! from its operands' cached root-branch values, and only the reference
//! `SelectivityEstimator` builds and evaluates the conjunction pattern.
//!
//! And one more for the whole workspace, with no justification: no
//! `#[deprecated]` attribute. A replaced path is deleted in the change that
//! replaces it, not kept beside its replacement behind a warning.
//!
//! Out of scope, deliberately: `bin/` targets and `main.rs` (CLI skeletons
//! report errors to humans directly), `tests/`, benches, and everything
//! under `#[cfg(test)]` (panicking is the point of an assertion), plus the
//! vendored dependency shims in `crates/shims/` (their panics mirror the
//! upstream crates' documented APIs).
//!
//! The scanner is line-based, like `bench-diff`: it tracks `#[cfg(test)]`
//! regions by brace depth and skips `//` comment lines, but does not parse
//! Rust — string literals containing `".unwrap()"` would be flagged. Keep
//! such strings out of library code or justify them like any other hit.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Lines a justification may precede its hit by.
const JUSTIFICATION_WINDOW: usize = 8;

/// The justification marker looked for in comments.
const MARKER: &str = "invariant:";

/// What to do about an unjustified hit.
const JUSTIFY: &str = "or explain with a `// invariant: ...` comment";

/// What to do about a document tree built in `crates/net/src`.
const MATCH_BYTES: &str = "tps-net matches documents from their bytes";

/// The token only an XML document lexer looks for.
const CDATA: &str = "\"<![CDATA[\"";

/// What to do about a second XML lexer.
const ONE_LEXER: &str = "XML documents are lexed by tps_xml::scan alone";

/// The call only the reference estimator makes in `crates/core/src`.
const CONJUNCTION: &str = "ops::conjunction";

/// What to do about a conjunction pattern built in the engine.
const FOLD_JOINTS: &str = "fold the joint from the operands' root-branch values";

/// The attribute that keeps a replaced path alive.
const DEPRECATED: &str = "#[deprecated";

/// What to do about a deprecated item.
const DELETE_REPLACED: &str = "a replaced path is deleted, not kept beside its replacement";

const USAGE: &str = "usage: src-lint [ROOT]";

/// One unjustified occurrence.
#[derive(Debug, PartialEq, Eq)]
struct Finding {
    line: usize,
    what: &'static str,
    /// How to fix it, after "restructure, ".
    fix: &'static str,
}

/// The one function of `crates/net/src` that may build a document tree.
const TREE_FN: &str = "summary_tree";

/// Lines a `summarised()` test may precede a [`TREE_FN`] call by.
const TREE_WINDOW: usize = 2;

/// Whether `path` is under `crates/net/src`, where [`TREE_FN`] is the only
/// way to a document tree.
fn tree_free(path: &Path) -> bool {
    let parts: Vec<_> = path.components().map(|c| c.as_os_str()).collect();
    parts.windows(3).any(|w| w == ["crates", "net", "src"])
}

/// Whether `path` may hold an XML lexer: the scanner itself, or the
/// fuzzer, whose dictionaries splice grammar tokens into inputs.
fn may_lex(path: &Path) -> bool {
    let parts: Vec<_> = path.components().map(|c| c.as_os_str()).collect();
    parts.ends_with(&["crates", "xml", "src", "scan.rs"].map(std::ffi::OsStr::new))
        || parts.windows(3).any(|w| w == ["crates", "fuzz", "src"])
}

/// Whether `path` is under `crates/core/src` but is not the reference
/// estimator, `selectivity.rs`: code that may not build a conjunction.
fn folds_joints(path: &Path) -> bool {
    let parts: Vec<_> = path.components().map(|c| c.as_os_str()).collect();
    parts.windows(3).any(|w| w == ["crates", "core", "src"])
        && !parts.ends_with(&["crates", "core", "src", "selectivity.rs"].map(std::ffi::OsStr::new))
}

/// The name of the function a line declares, if it declares one.
fn declared_fn(trimmed: &str) -> Option<&str> {
    let rest = ["fn ", "pub fn ", "pub(crate) fn "]
        .iter()
        .find_map(|prefix| trimmed.strip_prefix(prefix))?;
    let end = rest
        .find(|c: char| !(c.is_alphanumeric() || c == '_'))
        .unwrap_or(rest.len());
    Some(&rest[..end])
}

/// Scan the source text of the file at `path` for unjustified hits; the
/// path decides whether the `crates/net/src` rule on document trees, the
/// one-lexer rule and the `crates/core/src` rule on conjunctions apply.
fn scan_source(source: &str, path: &Path) -> Vec<Finding> {
    let tree_free = tree_free(path);
    let lexer_free = !may_lex(path);
    let folds_joints = folds_joints(path);
    let lines: Vec<&str> = source.lines().collect();
    let mut findings = Vec::new();
    // `#[cfg(test)]` region tracking: after the attribute, wait for the
    // item's opening brace (or a `;` for a brace-less item) and skip until
    // the matching close.
    let mut in_test = false;
    let mut awaiting_brace = false;
    let mut depth = 0isize;
    let mut function = "";
    for (index, &line) in lines.iter().enumerate() {
        if !in_test && line.contains("#[cfg(test)]") {
            in_test = true;
            awaiting_brace = true;
            depth = 0;
        }
        if in_test {
            let opens = line.matches('{').count() as isize;
            let closes = line.matches('}').count() as isize;
            if awaiting_brace {
                if opens > 0 {
                    awaiting_brace = false;
                    depth = opens - closes;
                    if depth <= 0 {
                        in_test = false;
                    }
                } else if line.trim_end().ends_with(';') {
                    // `#[cfg(test)] use ...;` — a single-item region.
                    in_test = false;
                }
            } else {
                depth += opens - closes;
                if depth <= 0 {
                    in_test = false;
                }
            }
            continue;
        }
        let trimmed = line.trim_start();
        if trimmed.starts_with("//") {
            continue;
        }
        if tree_free {
            if let Some(name) = declared_fn(trimmed) {
                function = name;
            }
            if line.contains("XmlTree::parse") && function != TREE_FN {
                findings.push(Finding {
                    line: index + 1,
                    what: "XmlTree::parse outside fn summary_tree",
                    fix: MATCH_BYTES,
                });
            }
            let call = line.contains(&format!("{TREE_FN}(")) && declared_fn(trimmed).is_none();
            let guarded = lines[index.saturating_sub(TREE_WINDOW)..=index]
                .iter()
                .any(|l| l.contains("summarised()"));
            if call && !guarded {
                findings.push(Finding {
                    line: index + 1,
                    what: "summary_tree() outside a summarised() branch",
                    fix: MATCH_BYTES,
                });
            }
        }
        if lexer_free && line.contains(CDATA) {
            findings.push(Finding {
                line: index + 1,
                what: "a CDATA literal outside the XML scanner",
                fix: ONE_LEXER,
            });
        }
        if line.contains(DEPRECATED) {
            findings.push(Finding {
                line: index + 1,
                what: "a #[deprecated] item",
                fix: DELETE_REPLACED,
            });
        }
        if folds_joints && line.contains(CONJUNCTION) {
            findings.push(Finding {
                line: index + 1,
                what: "ops::conjunction outside the reference estimator",
                fix: FOLD_JOINTS,
            });
        }
        let hit = if line.contains(".unwrap()") {
            Some("unjustified .unwrap()")
        } else if line.contains(".expect(\"") {
            Some("unjustified .expect(\"...\")")
        } else if line.contains("#[allow(clippy::") {
            Some("unjustified #[allow(clippy::...)]")
        } else {
            None
        };
        let Some(what) = hit else { continue };
        let window_start = index.saturating_sub(JUSTIFICATION_WINDOW);
        let justified = lines[window_start..=index]
            .iter()
            .any(|l| l.contains(MARKER));
        if !justified {
            findings.push(Finding {
                line: index + 1,
                what,
                fix: JUSTIFY,
            });
        }
    }
    findings
}

/// Whether a path inside a `src/` tree is in scope.
fn in_scope(path: &Path) -> bool {
    if !path.extension().is_some_and(|ext| ext == "rs") {
        return false;
    }
    if path.file_name().is_some_and(|name| name == "main.rs") {
        return false;
    }
    !path.components().any(|c| c.as_os_str() == "bin")
}

/// Collect every in-scope `.rs` file under `dir`, recursively.
fn collect(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), String> {
    let entries = std::fs::read_dir(dir).map_err(|err| format!("{}: {err}", dir.display()))?;
    for entry in entries {
        let entry = entry.map_err(|err| format!("{}: {err}", dir.display()))?;
        let path = entry.path();
        if path.is_dir() {
            collect(&path, out)?;
        } else if in_scope(&path) {
            out.push(path);
        }
    }
    Ok(())
}

/// The `src/` roots to scan under the workspace root: the facade's own
/// `src/` plus each `crates/<name>/src/`. `crates/shims/*` nests one level
/// deeper and is exempt by construction.
fn source_roots(root: &Path) -> Result<Vec<PathBuf>, String> {
    let mut roots = Vec::new();
    let facade = root.join("src");
    if facade.is_dir() {
        roots.push(facade);
    }
    let crates = root.join("crates");
    if crates.is_dir() {
        let entries =
            std::fs::read_dir(&crates).map_err(|err| format!("{}: {err}", crates.display()))?;
        for entry in entries {
            let entry = entry.map_err(|err| format!("{}: {err}", crates.display()))?;
            let src = entry.path().join("src");
            if src.is_dir() {
                roots.push(src);
            }
        }
    }
    if roots.is_empty() {
        return Err(format!("no src/ trees under {}", root.display()));
    }
    roots.sort();
    Ok(roots)
}

fn run(root: &Path) -> Result<usize, String> {
    let mut files = Vec::new();
    for src in source_roots(root)? {
        collect(&src, &mut files)?;
    }
    files.sort();
    let mut total = 0usize;
    for path in &files {
        let source =
            std::fs::read_to_string(path).map_err(|err| format!("{}: {err}", path.display()))?;
        for finding in scan_source(&source, path) {
            println!(
                "{}:{}: {} in library code — restructure, {}",
                path.display(),
                finding.line,
                finding.what,
                finding.fix,
            );
            total += 1;
        }
    }
    println!(
        "src-lint: {} file(s) scanned, {} finding(s)",
        files.len(),
        total
    );
    Ok(total)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let root = match args.as_slice() {
        [] => PathBuf::from("."),
        [root] if !root.starts_with("--") => PathBuf::from(root),
        _ => {
            eprintln!("src-lint: unexpected arguments\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    match run(&root) {
        Ok(0) => ExitCode::SUCCESS,
        Ok(_) => ExitCode::FAILURE,
        Err(err) => {
            eprintln!("src-lint: {err}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A library file no path-specific rule applies to.
    fn lib() -> &'static Path {
        Path::new("crates/synopsis/src/lib.rs")
    }

    #[test]
    fn flags_unwrap_and_expect_and_bare_allow() {
        let source = "fn f() {\n    x.unwrap();\n    y.expect(\"msg\");\n}\n\
                      #[allow(clippy::needless_range_loop)]\nfn g() {}\n";
        let findings = scan_source(source, lib());
        assert_eq!(findings.len(), 3);
        assert_eq!(findings[0].line, 2);
        assert_eq!(findings[1].line, 3);
        assert_eq!(findings[2].line, 5);
    }

    #[test]
    fn justified_hits_pass() {
        let source = "fn f() {\n    // invariant: x is always Some here\n    x.unwrap();\n}\n";
        assert!(scan_source(source, lib()).is_empty());
    }

    #[test]
    fn justification_window_covers_a_comment_above_a_chain() {
        let mut source = String::from("fn f() {\n    // invariant: resolver never fails\n");
        for _ in 0..JUSTIFICATION_WINDOW - 1 {
            source.push_str("    let _ = 0;\n");
        }
        source.push_str("    x.unwrap();\n}\n");
        assert!(scan_source(&source, lib()).is_empty());
        // One line further away and the justification no longer counts.
        let mut far = String::from("fn f() {\n    // invariant: resolver never fails\n");
        for _ in 0..JUSTIFICATION_WINDOW {
            far.push_str("    let _ = 0;\n");
        }
        far.push_str("    x.unwrap();\n}\n");
        assert_eq!(scan_source(&far, lib()).len(), 1);
    }

    #[test]
    fn cfg_test_regions_are_exempt() {
        let source = "fn f() {}\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() {\n        \
                      x.unwrap();\n    }\n}\nfn g() {\n    y.unwrap();\n}\n";
        let findings = scan_source(source, lib());
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].line, 10);
    }

    #[test]
    fn braceless_cfg_test_item_ends_the_region() {
        let source = "#[cfg(test)]\nuse something::Test;\nfn f() {\n    x.unwrap();\n}\n";
        assert_eq!(scan_source(source, lib()).len(), 1);
    }

    #[test]
    fn comment_lines_and_plain_expect_calls_are_ignored() {
        let source = "fn f() {\n    // mentions .unwrap() in prose\n    \
                      self.expect(Token::Dot)?;\n}\n";
        assert!(scan_source(source, lib()).is_empty());
    }

    #[test]
    fn scope_excludes_bins_and_main() {
        assert!(in_scope(Path::new("crates/core/src/engine.rs")));
        assert!(!in_scope(Path::new("crates/cli/src/main.rs")));
        assert!(!in_scope(Path::new("crates/cli/src/bin/probe.rs")));
        assert!(!in_scope(Path::new("crates/core/src/README.md")));
    }

    #[test]
    fn net_sources_build_trees_only_in_the_summarised_branch() {
        let source = "fn summary_tree(bytes: &[u8]) -> Tree {\n    XmlTree::parse(text)\n}\n\
                      fn route(&mut self) {\n    if self.summarised() {\n        \
                      let tree = summary_tree(bytes)?;\n    }\n    let tree = summary_tree(bytes)?;\n    \
                      let other = XmlTree::parse(text);\n}\n\
                      #[cfg(test)]\nmod tests {\n    fn t() { XmlTree::parse(text); }\n}\n";
        let lines: Vec<usize> = scan_source(source, Path::new("crates/net/src/broker.rs"))
            .iter()
            .map(|f| f.line)
            .collect();
        assert_eq!(lines, vec![8, 9]);
        assert!(scan_source(source, lib()).is_empty());
        assert!(tree_free(Path::new("./crates/net/src/broker.rs")));
        assert!(!tree_free(Path::new("./crates/routing/src/network.rs")));
    }

    #[test]
    fn only_the_scanner_lexes_xml() {
        let source = "fn lex(input: &str) -> bool {\n    \
                      input.starts_with(\"<![CDATA[\")\n}\n\
                      // a comment may name \"<![CDATA[\"\n\
                      #[cfg(test)]\nmod tests {\n    const DOC: &str = \"<![CDATA[\";\n}\n";
        let lines: Vec<usize> = scan_source(source, lib()).iter().map(|f| f.line).collect();
        assert_eq!(lines, vec![2]);
        let planted = "const TOKEN: &[u8] = b\"<![CDATA[\";\n";
        let dtd = Path::new("./crates/dtd/src/parser.rs");
        assert_eq!(scan_source(planted, dtd).len(), 1);
        for home in ["./crates/xml/src/scan.rs", "./crates/fuzz/src/targets.rs"] {
            assert!(scan_source(source, Path::new(home)).is_empty(), "{home}");
        }
        assert!(!may_lex(Path::new("./crates/xml/src/tree.rs")));
    }

    #[test]
    fn only_the_reference_estimator_builds_conjunctions() {
        let source = "fn joint(p: &TreePattern, q: &TreePattern) -> f64 {\n    \
                      let both = tps_pattern::ops::conjunction(p, q);\n}\n\
                      // prose may name ops::conjunction\n\
                      #[cfg(test)]\nmod tests {\n    fn t() { ops::conjunction(p, q); }\n}\n";
        let engine = Path::new("./crates/core/src/engine.rs");
        let lines: Vec<usize> = scan_source(source, engine).iter().map(|f| f.line).collect();
        assert_eq!(lines, vec![2]);
        assert!(scan_source(source, Path::new("./crates/core/src/selectivity.rs")).is_empty());
        assert!(scan_source(source, Path::new("./crates/pattern/src/ops.rs")).is_empty());
        assert!(scan_source(source, lib()).is_empty());
    }

    #[test]
    fn deprecated_items_are_refused_even_when_justified() {
        let source = "// invariant: callers still use it\n\
                      #[deprecated(note = \"use g\")]\npub fn f() {}\n\
                      // a comment may name #[deprecated]\n\
                      #[cfg(test)]\nmod tests {\n    #[deprecated]\n    fn t() {}\n}\n";
        let findings = scan_source(source, lib());
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].line, 2);
        assert_eq!(findings[0].fix, DELETE_REPLACED);
        let planted = "    #[deprecated]\n    pub fn old() {}\n";
        let engine = Path::new("./crates/core/src/engine.rs");
        assert_eq!(scan_source(planted, engine).len(), 1);
    }

    /// The workspace itself stays clean — the same guarantee CI enforces,
    /// kept here so `cargo test` catches new hits before CI does.
    #[test]
    fn workspace_library_code_is_clean() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        assert_eq!(run(&root).expect("workspace sources are readable"), 0);
    }
}
