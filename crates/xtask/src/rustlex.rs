//! A zero-dependency token-level Rust lexer.
//!
//! Upgrades the line-oriented `strip` pass to real tokens with line
//! spans, which is what the concurrency analysis needs: matching
//! `guard = self.state.lock()` as a *token sequence* instead of a
//! substring, and resolving `self.<field>` receivers.
//!
//! The lexer covers the Rust surface that appears in source the
//! gates scan: identifiers (including raw `r#ident`), lifetimes,
//! integer/float literals with suffixes, string/char/byte literals, raw
//! strings with `#` fences, nested block comments, and maximal-munch
//! multi-character punctuation. It does not attempt macro expansion or
//! token trees — the downstream analyses are intraprocedural pattern
//! matchers, not a compiler front-end.

/// Token classes, coarse on purpose.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Identifier or keyword (the analyses match keywords by text).
    Ident,
    /// A lifetime or loop label (`'a`, `'static`, `'outer`), without `'`.
    Lifetime,
    /// Integer literal, suffix included (`42`, `0xff_u32`).
    Int,
    /// Float literal, suffix included (`1.5`, `2e-3`, `1.0f32`).
    Float,
    /// String literal of any flavor; `text` is the *inner* content.
    Str,
    /// Char or byte literal; `text` is the inner content.
    Char,
    /// Punctuation, maximal-munch (`::`, `->`, `==`, `..=`, `{`, …).
    Punct,
}

/// One token with its 1-based source line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Tok {
    /// Token class.
    pub kind: Kind,
    /// Token text (see [`Kind`] for what string-ish tokens carry).
    pub text: String,
    /// 1-based line of the token's first character.
    pub line: usize,
}

impl Tok {
    /// Whether this token is the identifier/keyword `s`.
    pub fn is_ident(&self, s: &str) -> bool {
        self.kind == Kind::Ident && self.text == s
    }

    /// Whether this token is the punctuation `s`.
    pub fn is_punct(&self, s: &str) -> bool {
        self.kind == Kind::Punct && self.text == s
    }
}

/// Multi-character punctuation, longest first (maximal munch).
const PUNCTS: [&str; 25] = [
    "<<=", ">>=", "..=", "...", "::", "->", "=>", "==", "!=", "<=", ">=", "&&", "||", "<<", ">>",
    "+=", "-=", "*=", "/=", "%=", "^=", "&=", "|=", "..", "'",
];

fn is_ident_start(c: char) -> bool {
    c.is_alphabetic() || c == '_'
}

fn is_ident_continue(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Lexes `source` into a flat token stream, dropping comments and
/// whitespace but keeping line numbers. Unterminated literals lex to the
/// end of input rather than erroring — the analyses degrade gracefully
/// on pathological files.
pub fn lex(source: &str) -> Vec<Tok> {
    let b: Vec<char> = source.chars().collect();
    let n = b.len();
    let mut toks = Vec::new();
    let mut i = 0;
    let mut line = 1usize;

    let count_lines = |from: usize, to: usize, b: &[char]| -> usize {
        b[from..to].iter().filter(|&&c| c == '\n').count()
    };

    while i < n {
        let c = b[i];
        if c == '\n' {
            line += 1;
            i += 1;
            continue;
        }
        if c.is_whitespace() {
            i += 1;
            continue;
        }
        // Line comment.
        if c == '/' && i + 1 < n && b[i + 1] == '/' {
            while i < n && b[i] != '\n' {
                i += 1;
            }
            continue;
        }
        // Nested block comment.
        if c == '/' && i + 1 < n && b[i + 1] == '*' {
            let start = i;
            let mut depth = 1;
            i += 2;
            while i < n && depth > 0 {
                if b[i] == '/' && i + 1 < n && b[i + 1] == '*' {
                    depth += 1;
                    i += 2;
                } else if b[i] == '*' && i + 1 < n && b[i + 1] == '/' {
                    depth -= 1;
                    i += 2;
                } else {
                    i += 1;
                }
            }
            line += count_lines(start, i.min(n), &b);
            continue;
        }
        // Raw string (r"…", r#"…"#, br#"…"#) or raw identifier (r#ident).
        if c == 'r' || (c == 'b' && i + 1 < n && b[i + 1] == 'r') {
            let j = if c == 'r' { i + 1 } else { i + 2 };
            let mut hashes = 0;
            let mut k = j;
            while k < n && b[k] == '#' {
                hashes += 1;
                k += 1;
            }
            if k < n && b[k] == '"' {
                let start_line = line;
                let content_start = k + 1;
                let mut p = content_start;
                let mut content_end = n;
                'raw: while p < n {
                    if b[p] == '"' {
                        let mut ok = true;
                        for h in 0..hashes {
                            if p + 1 + h >= n || b[p + 1 + h] != '#' {
                                ok = false;
                                break;
                            }
                        }
                        if ok {
                            content_end = p;
                            p += 1 + hashes;
                            break 'raw;
                        }
                    }
                    p += 1;
                }
                line += count_lines(i, p.min(n), &b);
                toks.push(Tok {
                    kind: Kind::Str,
                    text: b[content_start..content_end.min(n)].iter().collect(),
                    line: start_line,
                });
                i = p;
                continue;
            }
            if c == 'r' && hashes == 1 && k < n && is_ident_start(b[k]) {
                // Raw identifier r#ident: keep the bare name.
                let mut p = k;
                while p < n && is_ident_continue(b[p]) {
                    p += 1;
                }
                toks.push(Tok {
                    kind: Kind::Ident,
                    text: b[k..p].iter().collect(),
                    line,
                });
                i = p;
                continue;
            }
            // Fall through: plain identifier starting with r/b.
        }
        // Plain or byte string.
        if c == '"' || (c == 'b' && i + 1 < n && b[i + 1] == '"') {
            let start_line = line;
            let mut p = if c == 'b' { i + 2 } else { i + 1 };
            let content_start = p;
            let mut content = String::new();
            while p < n {
                if b[p] == '\\' && p + 1 < n {
                    content.push(b[p]);
                    content.push(b[p + 1]);
                    p += 2;
                } else if b[p] == '"' {
                    break;
                } else {
                    content.push(b[p]);
                    p += 1;
                }
            }
            line += count_lines(content_start, p.min(n), &b);
            toks.push(Tok {
                kind: Kind::Str,
                text: content,
                line: start_line,
            });
            i = (p + 1).min(n);
            continue;
        }
        // Char literal vs lifetime/label.
        if c == '\'' {
            let is_char = if i + 1 < n && b[i + 1] == '\\' {
                true
            } else {
                i + 2 < n && b[i + 2] == '\''
            };
            if is_char {
                let mut p = i + 1;
                let mut content = String::new();
                if p < n && b[p] == '\\' {
                    content.push(b[p]);
                    p += 1;
                    if p < n && b[p] == 'u' {
                        while p < n && b[p] != '}' {
                            content.push(b[p]);
                            p += 1;
                        }
                    }
                }
                while p < n && b[p] != '\'' {
                    content.push(b[p]);
                    p += 1;
                }
                toks.push(Tok {
                    kind: Kind::Char,
                    text: content,
                    line,
                });
                i = (p + 1).min(n);
                continue;
            }
            if i + 1 < n && is_ident_start(b[i + 1]) {
                let mut p = i + 1;
                while p < n && is_ident_continue(b[p]) {
                    p += 1;
                }
                toks.push(Tok {
                    kind: Kind::Lifetime,
                    text: b[i + 1..p].iter().collect(),
                    line,
                });
                i = p;
                continue;
            }
            // A bare quote (malformed): emit as punct and move on.
            toks.push(Tok {
                kind: Kind::Punct,
                text: "'".to_string(),
                line,
            });
            i += 1;
            continue;
        }
        // Number.
        if c.is_ascii_digit() {
            let start = i;
            let mut p = i;
            let mut float = false;
            if c == '0' && p + 1 < n && (b[p + 1] == 'x' || b[p + 1] == 'b' || b[p + 1] == 'o') {
                p += 2;
                while p < n && (b[p].is_ascii_hexdigit() || b[p] == '_') {
                    p += 1;
                }
            } else {
                while p < n && (b[p].is_ascii_digit() || b[p] == '_') {
                    p += 1;
                }
                // A dot makes it a float only when a digit follows —
                // `1..4` and `1.max(2)` stay integers.
                if p + 1 < n && b[p] == '.' && b[p + 1].is_ascii_digit() {
                    float = true;
                    p += 1;
                    while p < n && (b[p].is_ascii_digit() || b[p] == '_') {
                        p += 1;
                    }
                }
                // Exponent: 1e5, 2.5e-3.
                if p < n
                    && (b[p] == 'e' || b[p] == 'E')
                    && (p + 1 < n
                        && (b[p + 1].is_ascii_digit() || b[p + 1] == '+' || b[p + 1] == '-'))
                {
                    let sign = if b[p + 1] == '+' || b[p + 1] == '-' {
                        1
                    } else {
                        0
                    };
                    if p + 1 + sign < n && b[p + 1 + sign].is_ascii_digit() {
                        float = true;
                        p += 2 + sign;
                        while p < n && (b[p].is_ascii_digit() || b[p] == '_') {
                            p += 1;
                        }
                    }
                }
            }
            // Type suffix (u32, f64, usize …).
            let suffix_start = p;
            while p < n && is_ident_continue(b[p]) {
                p += 1;
            }
            let suffix: String = b[suffix_start..p].iter().collect();
            if suffix.starts_with('f') {
                float = true;
            }
            toks.push(Tok {
                kind: if float { Kind::Float } else { Kind::Int },
                text: b[start..p].iter().collect(),
                line,
            });
            i = p;
            continue;
        }
        // Identifier / keyword.
        if is_ident_start(c) {
            let start = i;
            let mut p = i;
            while p < n && is_ident_continue(b[p]) {
                p += 1;
            }
            toks.push(Tok {
                kind: Kind::Ident,
                text: b[start..p].iter().collect(),
                line,
            });
            i = p;
            continue;
        }
        // Punctuation, maximal munch.
        let mut matched = false;
        for punct in PUNCTS {
            let len = punct.chars().count();
            if len > 1 && i + len <= n && b[i..i + len].iter().collect::<String>() == punct {
                toks.push(Tok {
                    kind: Kind::Punct,
                    text: punct.to_string(),
                    line,
                });
                i += len;
                matched = true;
                break;
            }
        }
        if !matched {
            toks.push(Tok {
                kind: Kind::Punct,
                text: c.to_string(),
                line,
            });
            i += 1;
        }
    }
    toks
}

#[cfg(test)]
mod tests {
    use super::*;

    fn texts(src: &str) -> Vec<String> {
        lex(src).into_iter().map(|t| t.text).collect()
    }

    #[test]
    fn lexes_a_lock_acquisition_statement() {
        let toks = lex("let mut state = self.state.lock();");
        let expect = [
            "let", "mut", "state", "=", "self", ".", "state", ".", "lock", "(", ")", ";",
        ];
        assert_eq!(
            toks.iter().map(|t| t.text.as_str()).collect::<Vec<_>>(),
            expect
        );
        assert!(toks.iter().all(|t| t.line == 1));
    }

    #[test]
    fn string_tokens_keep_inner_content() {
        let toks = lex(r#"counter("engine.query.submitted").inc()"#);
        let s = toks.iter().find(|t| t.kind == Kind::Str).expect("str tok");
        assert_eq!(s.text, "engine.query.submitted");
        let toks = lex(r###"let r = r#"raw content"#;"###);
        let s = toks.iter().find(|t| t.kind == Kind::Str).expect("raw str");
        assert_eq!(s.text, "raw content");
    }

    #[test]
    fn comments_vanish_but_lines_advance() {
        let src = "a // one\n/* two\nthree */ b\n";
        let toks = lex(src);
        assert_eq!(toks.len(), 2);
        assert_eq!((toks[0].text.as_str(), toks[0].line), ("a", 1));
        assert_eq!((toks[1].text.as_str(), toks[1].line), ("b", 3));
    }

    #[test]
    fn lifetimes_chars_and_labels_disambiguate() {
        let toks = lex("fn f<'a>(x: &'a str) { let c = 'x'; 'outer: loop { break 'outer; } }");
        let lifetimes: Vec<&str> = toks
            .iter()
            .filter(|t| t.kind == Kind::Lifetime)
            .map(|t| t.text.as_str())
            .collect();
        assert_eq!(lifetimes, ["a", "a", "outer", "outer"]);
        let chars: Vec<&str> = toks
            .iter()
            .filter(|t| t.kind == Kind::Char)
            .map(|t| t.text.as_str())
            .collect();
        assert_eq!(chars, ["x"]);
    }

    #[test]
    fn numbers_split_from_range_and_method_dots() {
        assert_eq!(texts("0..=4"), ["0", "..=", "4"]);
        assert_eq!(texts("1.max(2)"), ["1", ".", "max", "(", "2", ")"]);
        let toks = lex("1.5 + 2e-3 + 0xff_u32 + 1f64");
        let kinds: Vec<Kind> = toks
            .iter()
            .filter(|t| t.kind != Kind::Punct)
            .map(|t| t.kind)
            .collect();
        assert_eq!(kinds, [Kind::Float, Kind::Float, Kind::Int, Kind::Float]);
    }

    #[test]
    fn maximal_munch_punctuation() {
        assert_eq!(
            texts("a::b->c=>d==e!=f<=g"),
            ["a", "::", "b", "->", "c", "=>", "d", "==", "e", "!=", "f", "<=", "g"]
        );
        assert_eq!(
            texts("x <<= 1; y >>= 2; z ..= w"),
            ["x", "<<=", "1", ";", "y", ">>=", "2", ";", "z", "..=", "w"]
        );
    }

    #[test]
    fn raw_identifiers_keep_bare_name() {
        assert_eq!(texts("r#match + rate"), ["match", "+", "rate"]);
    }

    #[test]
    fn multiline_strings_advance_lines() {
        let toks = lex("let s = \"one\ntwo\";\nnext");
        let next = toks.iter().find(|t| t.is_ident("next")).expect("next tok");
        assert_eq!(next.line, 3);
    }
}
