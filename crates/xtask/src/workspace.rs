//! The one source model under the static gates.
//!
//! [`load`] walks the source roots once, reads each `.rs` file
//! once, lexes it once with [`crate::rustlex`] and computes its
//! `#[cfg(test)]` line mask once. `conc`, `flow`, `alloc` and the
//! static half of `audit` are functions of the resulting `&Workspace`;
//! unit tests and fixtures build the same model from in-memory text with
//! [`Workspace::from_sources`] / [`SourceFile::new`].
//!
//! The module also owns the token helpers the gates share — bracket
//! matching, the per-token `impl`/`trait` owner map and the struct-field
//! walker — so every analysis reads Rust structure the same way.

use crate::rustlex::{lex, Kind, Tok};
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

/// Source roots the gates cover, relative to the repo root.
const SOURCE_ROOTS: [&str; 3] = ["crates", "compat", "src"];

/// Directory names never descended into: test code may unwrap freely, and
/// fixtures contain violations on purpose.
const SKIP_DIRS: [&str; 5] = ["tests", "benches", "fixtures", "target", ".git"];

/// One source file: its text, its non-test tokens, and its test-line mask.
#[derive(Debug)]
pub struct SourceFile {
    /// Repo-relative path with forward slashes.
    pub rel: String,
    /// The file's text as read.
    pub source: String,
    /// Tokens on lines outside `#[cfg(test)]` items.
    toks: Vec<Tok>,
    /// Per line: `true` inside a `#[cfg(test)]` item (attribute line
    /// through the item's closing brace or `;`).
    test_lines: Vec<bool>,
}

impl SourceFile {
    /// Lexes `source` and masks its `#[cfg(test)]` items.
    pub fn new(rel: &str, source: &str) -> Self {
        let mut toks = lex(source);
        let test_lines = test_lines(&toks, source.lines().count());
        toks.retain(|t| !test_lines.get(t.line - 1).copied().unwrap_or(false));
        Self {
            rel: rel.to_string(),
            source: source.to_string(),
            toks,
            test_lines,
        }
    }

    /// The non-test token stream the scanners match on.
    pub fn code(&self) -> Vec<&Tok> {
        self.toks.iter().collect()
    }

    /// Whether the 0-based line `idx` belongs to a `#[cfg(test)]` item.
    pub fn is_test_line(&self, idx: usize) -> bool {
        self.test_lines.get(idx).copied().unwrap_or(false)
    }

    /// The trimmed source text of 1-based `line`, for finding excerpts.
    pub fn excerpt(&self, line: usize) -> String {
        self.source
            .lines()
            .nth(line - 1)
            .map_or(String::new(), |l| l.trim().to_string())
    }
}

/// Per-line `#[cfg(test)]` mask from the full token stream. An item runs
/// from its attribute to the brace closing its first `{`, or to a `;`
/// met before any brace (`#[cfg(test)] use …;`). Matching on tokens means
/// the attribute's text inside a string or comment never arms the mask.
fn test_lines(toks: &[Tok], lines: usize) -> Vec<bool> {
    const ATTR: [&str; 7] = ["#", "[", "cfg", "(", "test", ")", "]"];
    let mut mask = vec![false; lines];
    let mut i = 0;
    while i < toks.len() {
        let is_attr = toks[i..]
            .iter()
            .take(ATTR.len())
            .map(|t| match t.kind {
                Kind::Ident | Kind::Punct => t.text.as_str(),
                _ => "",
            })
            .eq(ATTR);
        if !is_attr {
            i += 1;
            continue;
        }
        let mut braces = 0i64;
        // `(`/`[` nesting, so the `;` of an array type does not end the item.
        let mut nested = 0i64;
        let mut j = i + ATTR.len();
        while j < toks.len() {
            let t = &toks[j];
            if t.is_punct("{") {
                braces += 1;
            } else if t.is_punct("}") {
                braces -= 1;
                if braces <= 0 {
                    break;
                }
            } else if t.is_punct("(") || t.is_punct("[") {
                nested += 1;
            } else if t.is_punct(")") || t.is_punct("]") {
                nested -= 1;
            } else if braces == 0 && nested == 0 && t.is_punct(";") {
                break;
            }
            j += 1;
        }
        let last = toks.get(j).map_or(lines, |t| t.line);
        for slot in mask.iter_mut().take(last).skip(toks[i].line - 1) {
            *slot = true;
        }
        i = j + 1;
    }
    mask
}

/// Every source file the gates analyze, in path order.
#[derive(Debug)]
pub struct Workspace {
    /// The files, sorted by path.
    pub files: Vec<SourceFile>,
}

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), String> {
    let entries = std::fs::read_dir(dir).map_err(|e| format!("reading {}: {e}", dir.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| format!("reading {}: {e}", dir.display()))?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if !SKIP_DIRS.contains(&name.as_ref()) {
                collect_rs_files(&path, out)?;
            }
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Reads every `.rs` file under `crates/`, `compat/` and `src/` of
/// `repo_root`, outside test/bench/fixture directories.
///
/// A free function, not `Workspace::load`: `flow` scans this crate too,
/// and its name+arity fallback resolves any one-argument `x.load(y)` on
/// an untyped receiver (`AtomicU64::load`) to every one-argument method
/// named `load`, which would put the lexer in the serving cone.
///
/// # Errors
/// Returns a message if a directory or file cannot be read, or if no
/// source is found: a gate that scans nothing passes vacuously, so an
/// empty tree is treated as a misconfiguration (typo'd `--root`).
pub fn load(repo_root: &Path) -> Result<Workspace, String> {
    let mut paths = Vec::new();
    for root in SOURCE_ROOTS {
        let dir = repo_root.join(root);
        if dir.is_dir() {
            collect_rs_files(&dir, &mut paths)?;
        }
    }
    if paths.is_empty() {
        return Err(format!(
            "no .rs sources found under {} (looked in {})",
            repo_root.display(),
            SOURCE_ROOTS.join(", ")
        ));
    }
    paths.sort();
    let mut files = Vec::with_capacity(paths.len());
    for path in &paths {
        let rel = path
            .strip_prefix(repo_root)
            .unwrap_or(path)
            .to_string_lossy()
            .replace('\\', "/");
        let source = std::fs::read_to_string(path)
            .map_err(|e| format!("reading {}: {e}", path.display()))?;
        files.push(SourceFile::new(&rel, &source));
    }
    Ok(Workspace { files })
}

impl Workspace {
    /// The same model over in-memory `(repo-relative path, text)` pairs.
    pub fn from_sources<R: AsRef<str>, S: AsRef<str>>(sources: &[(R, S)]) -> Self {
        Self {
            files: sources
                .iter()
                .map(|(rel, text)| SourceFile::new(rel.as_ref(), text.as_ref()))
                .collect(),
        }
    }
}

// ---------------------------------------------------------------------------
// Token helpers shared by the gates.
// ---------------------------------------------------------------------------

/// Index of the `)` matching the `(` at `open`, honoring nesting.
pub fn matching_paren(toks: &[&Tok], open: usize) -> Option<usize> {
    let mut depth = 0i64;
    for (j, t) in toks.iter().enumerate().skip(open) {
        if t.is_punct("(") {
            depth += 1;
        } else if t.is_punct(")") {
            depth -= 1;
            if depth == 0 {
                return Some(j);
            }
        }
    }
    None
}

/// How far `t` moves angle-bracket depth (`<<`/`>>` count as two).
fn angle_step(t: &Tok) -> i64 {
    if t.kind != Kind::Punct {
        return 0;
    }
    match t.text.as_str() {
        "<" => 1,
        ">" => -1,
        "<<" => 2,
        ">>" => -2,
        _ => 0,
    }
}

/// Index just past a generics block starting at `i` (which must be `<`).
/// Returns `i` unchanged if `toks[i]` is not `<`.
pub fn skip_angles(toks: &[&Tok], i: usize) -> usize {
    if !toks.get(i).is_some_and(|t| t.is_punct("<")) {
        return i;
    }
    let mut depth = 0i64;
    let mut j = i;
    while j < toks.len() {
        depth += angle_step(toks[j]);
        j += 1;
        if depth <= 0 {
            return j;
        }
    }
    j
}

/// The implemented type's last path segment for the `impl` at `at`.
pub fn impl_type_name(toks: &[&Tok], at: usize) -> Option<String> {
    let mut j = skip_angles(toks, at + 1);
    // If a top-level `for` appears before the body brace, the type
    // follows it (`impl Drop for TicketSender<T>`).
    let mut k = j;
    let mut angle = 0i64;
    while k < toks.len() {
        let t = toks[k];
        if t.is_punct("{") || t.is_ident("where") {
            break;
        }
        angle += angle_step(t);
        if angle == 0 && t.is_ident("for") {
            j = k + 1;
        }
        k += 1;
    }
    // Skip `&`, `mut`, lifetimes; then take the last ident of the
    // `::`-separated path before its generics.
    let mut name = None;
    let mut m = j;
    while m < toks.len() {
        let t = toks[m];
        if t.is_punct("&") || t.is_ident("mut") || t.kind == Kind::Lifetime || t.is_punct("::") {
            m += 1;
            continue;
        }
        if t.kind == Kind::Ident && !t.is_ident("where") {
            name = Some(t.text.clone());
            m += 1;
            // Path continues only through `::`.
            if toks.get(m).is_some_and(|t| t.is_punct("::")) {
                continue;
            }
        }
        break;
    }
    name
}

/// The receiver path of the method call whose `.` is at `dot`:
/// `self.shared.slot.lock()` -> `["self", "shared", "slot"]`. Empty when
/// the receiver is a chained call or other non-path expression.
pub fn receiver_path(toks: &[&Tok], dot: usize) -> Vec<String> {
    let mut segs: Vec<String> = Vec::new();
    let mut j = dot;
    loop {
        if j == 0 || !toks[j].is_punct(".") {
            break;
        }
        let prev = toks[j - 1];
        if prev.kind != Kind::Ident {
            // `foo().lock()` or `map[k].lock()`: give up.
            return Vec::new();
        }
        segs.push(prev.text.clone());
        if j >= 2 && toks[j - 2].is_punct(".") {
            j -= 2;
            continue;
        }
        break;
    }
    segs.reverse();
    segs
}

/// Splits a parameter list into top-level comma-separated chunks.
pub fn param_chunks<'s, 't>(params: &'s [&'t Tok]) -> Vec<&'s [&'t Tok]> {
    let mut out = Vec::new();
    let mut depth = 0i64;
    let mut start = 0;
    for (j, t) in params.iter().enumerate() {
        if t.is_punct("(") || t.is_punct("[") {
            depth += 1;
        } else if t.is_punct(")") || t.is_punct("]") {
            depth -= 1;
        } else if depth == 0 && t.is_punct(",") {
            out.push(&params[start..j]);
            start = j + 1;
        }
        depth += angle_step(t);
    }
    if start < params.len() {
        out.push(&params[start..]);
    }
    out
}

/// Per-token innermost `impl`/`trait` owner name (so `self.field` and
/// `Self::f` resolve), plus the names introduced by `trait` blocks
/// (dyn-dispatch widening needs to know which owners are traits).
pub fn owner_map(toks: &[&Tok]) -> (Vec<Option<String>>, BTreeSet<String>) {
    let mut out: Vec<Option<String>> = vec![None; toks.len()];
    let mut traits = BTreeSet::new();
    let mut depth = 0i64;
    let mut stack: Vec<(String, i64)> = Vec::new();
    let mut pending: Option<String> = None;
    for i in 0..toks.len() {
        let t = toks[i];
        if t.is_ident("impl") {
            pending = impl_type_name(toks, i);
        } else if t.is_ident("trait") && toks.get(i + 1).is_some_and(|t| t.kind == Kind::Ident) {
            let name = toks[i + 1].text.clone();
            traits.insert(name.clone());
            pending = Some(name);
        } else if t.is_punct("{") {
            if let Some(name) = pending.take() {
                stack.push((name, depth));
            }
            depth += 1;
        } else if t.is_punct("}") {
            depth -= 1;
            if stack.last().map(|s| s.1) == Some(depth) {
                stack.pop();
            }
        } else if t.is_punct(";") {
            // A parse hiccup must not leak `pending` into an unrelated
            // brace.
            pending = None;
        }
        out[i] = stack.last().map(|s| s.0.clone());
    }
    (out, traits)
}

/// One `field: Type` of a braced struct declaration.
#[derive(Debug)]
pub struct StructField<'s, 't> {
    /// The declaring struct.
    pub strukt: &'t str,
    /// The field name.
    pub name: &'t str,
    /// The field's type tokens.
    pub ty: &'s [&'t Tok],
}

/// Every named field of every `struct Name { … }` in the stream. Each
/// gate classifies the type tokens its own way (call-graph receiver
/// candidates, lock kinds).
pub fn struct_fields<'s, 't>(toks: &'s [&'t Tok]) -> Vec<StructField<'s, 't>> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        if !(toks[i].is_ident("struct") && toks.get(i + 1).is_some_and(|t| t.kind == Kind::Ident)) {
            i += 1;
            continue;
        }
        let strukt = toks[i + 1].text.as_str();
        let mut j = skip_angles(toks, i + 2);
        while j < toks.len()
            && !toks[j].is_punct("{")
            && !toks[j].is_punct("(")
            && !toks[j].is_punct(";")
        {
            j += 1;
        }
        if !toks.get(j).is_some_and(|t| t.is_punct("{")) {
            i += 1;
            continue;
        }
        let mut depth = 1i64;
        let mut k = j + 1;
        let mut chunk_start = k;
        while k < toks.len() && depth > 0 {
            let tk = toks[k];
            if tk.is_punct("{") || tk.is_punct("(") || tk.is_punct("[") {
                depth += 1;
            } else if tk.is_punct("}") || tk.is_punct(")") || tk.is_punct("]") {
                depth -= 1;
            }
            if depth == 0 || (depth == 1 && tk.is_punct(",")) {
                let chunk = &toks[chunk_start..k];
                // `field: Type` — the first `ident :` pair, past any
                // attributes and visibility.
                let colon = chunk.iter().enumerate().position(|(p, t)| {
                    t.kind == Kind::Ident && chunk.get(p + 1).is_some_and(|n| n.is_punct(":"))
                });
                if let Some(p) = colon {
                    out.push(StructField {
                        strukt,
                        name: chunk[p].text.as_str(),
                        ty: &chunk[p + 2..],
                    });
                }
                chunk_start = k + 1;
            }
            k += 1;
        }
        i = k;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mask(src: &str) -> Vec<bool> {
        let f = SourceFile::new("f.rs", src);
        (0..src.lines().count())
            .map(|i| f.is_test_line(i))
            .collect()
    }

    #[test]
    fn test_mask_covers_cfg_test_items() {
        let src = "fn a() {}\n#[cfg(test)]\nmod tests {\n  fn b() {}\n}\nfn c() {}\n";
        assert_eq!(mask(src), vec![false, true, true, true, true, false]);
    }

    /// The three shapes the mask must get right: a braced test module, an
    /// unbraced test-only item ending at `;`, and the attribute's text
    /// inside a string literal, which must not arm it.
    #[test]
    fn mask_handles_braced_items_unbraced_items_and_string_decoys() {
        let braced = "#[cfg(test)]\nmod tests {\n    fn t() { x.unwrap(); }\n}\nfn live() {}\n";
        assert_eq!(mask(braced), vec![true, true, true, true, false]);

        let unbraced = "#[cfg(test)]\nuse std::fmt;\nfn live() {}\n";
        assert_eq!(mask(unbraced), vec![true, true, false]);
        let grouped = "#[cfg(test)]\nuse std::{\n    fmt,\n};\nfn live() {}\n";
        assert_eq!(mask(grouped), vec![true, true, true, true, false]);

        let decoy = "fn live() {\n    let s = \"#[cfg(test)]\";\n    s.len();\n}\n";
        assert_eq!(mask(decoy), vec![false, false, false, false]);
        let f = SourceFile::new("f.rs", decoy);
        assert!(f.code().iter().any(|t| t.is_ident("len")));
    }

    /// Regression: a string line-continuation (`\` before the newline)
    /// must still advance the line count, or every line after it maps to
    /// the wrong mask slot and a `#[cfg(test)]` item further down leaks
    /// into the non-test stream.
    #[test]
    fn string_line_continuation_keeps_mask_aligned() {
        let src = "fn f() -> String {\n    format!(\n        \"two-line \\\n         message\"\n    )\n}\n#[cfg(test)]\nmod tests {\n    fn b() { x.expect(\"fine in tests\"); }\n}\n";
        assert_eq!(
            mask(src),
            vec![false, false, false, false, false, false, true, true, true, true]
        );
        let f = SourceFile::new("f.rs", src);
        assert!(!f.code().iter().any(|t| t.is_ident("expect")));
    }

    #[test]
    fn code_drops_test_tokens_and_keeps_line_numbers() {
        let src = "fn a() {}\n#[cfg(test)]\nmod tests {\n  fn b() {}\n}\nfn c() {}\n";
        let f = SourceFile::new("f.rs", src);
        let code = f.code();
        assert!(!code.iter().any(|t| t.is_ident("b") || t.is_ident("tests")));
        let c = code.iter().find(|t| t.is_ident("c")).expect("c kept");
        assert_eq!(c.line, 6);
        assert_eq!(f.excerpt(6), "fn c() {}");
    }

    #[test]
    fn struct_fields_skip_attributes_and_visibility() {
        let src = "struct S<T> {\n    #[allow(dead_code)]\n    pub(crate) a: Mutex<T>,\n    b: Vec<u8>,\n}\nstruct Unit;\nstruct Tuple(u32);\n";
        let f = SourceFile::new("f.rs", src);
        let toks = f.code();
        let got: Vec<(&str, &str, &str)> = struct_fields(&toks)
            .iter()
            .map(|f| (f.strukt, f.name, f.ty[0].text.as_str()))
            .collect();
        assert_eq!(got, vec![("S", "a", "Mutex"), ("S", "b", "Vec")]);
    }

    #[test]
    fn from_sources_and_load_agree_on_a_tree() {
        let dir = std::env::temp_dir().join(format!("mqa-xtask-workspace-{}", std::process::id()));
        let src = dir.join("src");
        std::fs::create_dir_all(src.join("tests")).unwrap();
        std::fs::write(src.join("b.rs"), "fn b() {}\n").unwrap();
        std::fs::write(src.join("a.rs"), "fn a() {}\n").unwrap();
        std::fs::write(src.join("tests").join("skipped.rs"), "fn t() {}\n").unwrap();
        let ws = load(&dir).unwrap();
        let rels: Vec<&str> = ws.files.iter().map(|f| f.rel.as_str()).collect();
        assert_eq!(rels, ["src/a.rs", "src/b.rs"]);
        let mem = Workspace::from_sources(&[("src/a.rs", "fn a() {}\n")]);
        assert_eq!(mem.files[0].source, ws.files[0].source);
        std::fs::remove_dir_all(&dir).ok();
        assert!(load(&dir).is_err(), "an empty tree is an error");
    }
}
