//! The one source model `cargo xtask lint` and `cargo xtask count` read:
//! a dependency-free lexer for Rust source, the cleaned line view
//! derived from its token stream, and the workspace walk that feeds
//! files in.
//!
//! The analyzer is deliberately lexical — it never parses Rust, which
//! keeps the crate std-only (it must build before anything else does).
//! Each file is tokenized once by [`lex`]; [`SourceFile::parse`] then
//! derives, from that same stream, the per-line cleaned view (comments
//! and string/char literal *contents* removed) and the `#[cfg(test)]`
//! marking. The unit-safety trigger (`cap_watts: f64`) is unambiguous
//! at that level.
//!
//! The lexer understands the constructs a per-line state machine gets
//! wrong:
//!
//! * raw strings with any number of hashes (`r"…"`, `r#"…"#`) and the
//!   byte/C-string prefixes (`b"…"`, `br#"…"#`, `c"…"`, `cr#"…"#`),
//!   including interior quotes;
//! * nested block comments (`/* /* */ still comment */`);
//! * char literals vs lifetimes (`'a'` vs `'a`), including escaped and
//!   byte chars (`'\n'`, `b'x'`);
//! * raw identifiers (`r#fn`), which are identifiers, not raw strings.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Kind of one lexical token.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Identifier or keyword, including raw identifiers (`r#fn`).
    Ident,
    /// Lifetime or loop label (`'a`, `'static`) — no closing quote.
    Lifetime,
    /// Char or byte-char literal (`'x'`, `'\n'`, `b'x'`).
    Char,
    /// String, byte-string, or C-string literal (`"…"`, `b"…"`, `c"…"`).
    Str,
    /// Raw string literal of any prefix (`r"…"`, `r#"…"#`, `br#"…"#`).
    RawStr,
    /// Numeric literal (including suffixes and float exponents).
    Num,
    /// One punctuation character.
    Punct,
    /// Line comment, doc comments included (`//`, `///`, `//!`).
    LineComment,
    /// Block comment, nesting included (`/* /* */ */`, `/** … */`).
    BlockComment,
    /// Whitespace run (may span newlines).
    Ws,
}

/// One token: its kind, verbatim text, and the 1-based line it starts on.
#[derive(Debug, Clone)]
pub struct Token {
    pub kind: Kind,
    pub text: String,
    pub line: usize,
}

impl Token {
    /// True for tokens the lint reasons about (not whitespace or
    /// comments).
    pub fn is_significant(&self) -> bool {
        !matches!(self.kind, Kind::Ws | Kind::LineComment | Kind::BlockComment)
    }
}

/// Tokenize a whole source text. Unterminated literals and comments run
/// to end of input instead of erroring: the analyzer must never fail on
/// a file rustc would reject, it only has to stay sane on files rustc
/// accepts.
pub fn lex(text: &str) -> Vec<Token> {
    let chars: Vec<char> = text.chars().collect();
    let mut toks = Vec::new();
    let mut i = 0;
    let mut line = 1;
    while i < chars.len() {
        let start = i;
        let start_line = line;
        let c = chars[i];
        let kind = if c.is_whitespace() {
            while i < chars.len() && chars[i].is_whitespace() {
                if chars[i] == '\n' {
                    line += 1;
                }
                i += 1;
            }
            Kind::Ws
        } else if c == '/' && chars.get(i + 1) == Some(&'/') {
            while i < chars.len() && chars[i] != '\n' {
                i += 1;
            }
            Kind::LineComment
        } else if c == '/' && chars.get(i + 1) == Some(&'*') {
            i += 2;
            let mut depth = 1u32;
            while i < chars.len() && depth > 0 {
                if chars[i] == '/' && chars.get(i + 1) == Some(&'*') {
                    depth += 1;
                    i += 2;
                } else if chars[i] == '*' && chars.get(i + 1) == Some(&'/') {
                    depth -= 1;
                    i += 2;
                } else {
                    if chars[i] == '\n' {
                        line += 1;
                    }
                    i += 1;
                }
            }
            Kind::BlockComment
        } else if c == '"' {
            i = skip_str(&chars, i, &mut line);
            Kind::Str
        } else if c == '\'' {
            let (next, kind) = char_or_lifetime(&chars, i, &mut line);
            i = next;
            kind
        } else if c.is_alphabetic() || c == '_' {
            while i < chars.len() && (chars[i].is_alphanumeric() || chars[i] == '_') {
                i += 1;
            }
            let ident: String = chars[start..i].iter().collect();
            match ident.as_str() {
                "r" | "br" | "cr" if raw_quote_follows(&chars, i) => {
                    i = skip_raw_str(&chars, i, &mut line);
                    Kind::RawStr
                }
                "r" if chars.get(i) == Some(&'#') && is_ident_start(chars.get(i + 1)) => {
                    // Raw identifier `r#fn`: one hash, then a plain ident.
                    i += 1;
                    while i < chars.len() && (chars[i].is_alphanumeric() || chars[i] == '_') {
                        i += 1;
                    }
                    Kind::Ident
                }
                "b" | "c" if chars.get(i) == Some(&'"') => {
                    i = skip_str(&chars, i, &mut line);
                    Kind::Str
                }
                "b" if chars.get(i) == Some(&'\'') => {
                    let (next, _) = char_or_lifetime(&chars, i, &mut line);
                    i = next;
                    Kind::Char
                }
                _ => Kind::Ident,
            }
        } else if c.is_ascii_digit() {
            i = skip_number(&chars, i);
            Kind::Num
        } else {
            i += 1;
            Kind::Punct
        };
        toks.push(Token {
            kind,
            text: chars[start..i].iter().collect(),
            line: start_line,
        });
    }
    toks
}

/// Disambiguate `'x'` / `'\n'` (char literal) from `'a` (lifetime or
/// label) at the opening quote; returns the index past the token.
fn char_or_lifetime(chars: &[char], mut i: usize, line: &mut usize) -> (usize, Kind) {
    // i is at the `'`.
    if chars.get(i + 1) == Some(&'\\') {
        // Escaped char literal: skip the backslash and the escaped
        // character, then scan to the closing quote (same line).
        i += 2;
        if i < chars.len() {
            i += 1;
        }
        while i < chars.len() && chars[i] != '\'' && chars[i] != '\n' {
            i += 1;
        }
        if chars.get(i) == Some(&'\'') {
            i += 1;
        } else if chars.get(i) == Some(&'\n') {
            *line += 1; // malformed literal; stay line-accurate
            i += 1;
        }
        (i, Kind::Char)
    } else if chars.get(i + 2) == Some(&'\'') && chars.get(i + 1) != Some(&'\'') {
        (i + 3, Kind::Char)
    } else {
        // Lifetime or label: `'` plus identifier characters.
        i += 1;
        while i < chars.len() && (chars[i].is_alphanumeric() || chars[i] == '_') {
            i += 1;
        }
        (i, Kind::Lifetime)
    }
}

/// After a raw-string prefix ident (`r`/`br`/`cr`), is the next run zero
/// or more hashes followed by a quote?
fn raw_quote_follows(chars: &[char], mut i: usize) -> bool {
    while chars.get(i) == Some(&'#') {
        i += 1;
    }
    chars.get(i) == Some(&'"')
}

fn is_ident_start(c: Option<&char>) -> bool {
    c.is_some_and(|c| c.is_alphabetic() || *c == '_')
}

/// Skip a cooked string body; `i` is at the opening quote. Escapes are
/// honored (`\"` does not close, `\\` does not escape the quote after
/// it) and newlines inside the literal keep the line count accurate.
fn skip_str(chars: &[char], mut i: usize, line: &mut usize) -> usize {
    i += 1;
    while i < chars.len() {
        match chars[i] {
            '\\' => {
                if chars.get(i + 1) == Some(&'\n') {
                    *line += 1;
                }
                i += if i + 1 < chars.len() { 2 } else { 1 };
            }
            '"' => return i + 1,
            '\n' => {
                *line += 1;
                i += 1;
            }
            _ => i += 1,
        }
    }
    i
}

/// Skip a raw string body; `i` is just past the prefix ident, at the
/// first hash or the quote. No escapes: the literal closes at a quote
/// followed by the same number of hashes it opened with.
fn skip_raw_str(chars: &[char], mut i: usize, line: &mut usize) -> usize {
    let mut hashes = 0usize;
    while chars.get(i) == Some(&'#') {
        hashes += 1;
        i += 1;
    }
    debug_assert_eq!(chars.get(i), Some(&'"'));
    i += 1;
    while i < chars.len() {
        if chars[i] == '"' && (1..=hashes).all(|k| chars.get(i + k) == Some(&'#')) {
            return i + 1 + hashes;
        }
        if chars[i] == '\n' {
            *line += 1;
        }
        i += 1;
    }
    i
}

/// Skip a numeric literal: digits, `_`, type suffixes, `.`, and a signed
/// exponent. Over-eager on ranges (`1..3` lexes as one number), which is
/// harmless for cleaning — the text is kept verbatim.
fn skip_number(chars: &[char], mut i: usize) -> usize {
    let mut prev_exp = false;
    while i < chars.len() {
        let c = chars[i];
        let keep = c.is_ascii_alphanumeric()
            || c == '_'
            || c == '.'
            || (prev_exp && (c == '+' || c == '-'));
        if !keep {
            break;
        }
        prev_exp = c == 'e' || c == 'E';
        i += 1;
    }
    i
}

// ---------------------------------------------------------------------------
// Source model
// ---------------------------------------------------------------------------

/// One physical source line after lexical cleaning.
#[derive(Debug, Clone)]
pub struct Line {
    /// The line with comments and string/char literal *contents* removed.
    pub code: String,
    /// The comment text found on the line (line and block comments).
    pub comment: String,
    /// True when the line sits inside a `#[cfg(test)]`-gated item.
    pub in_test: bool,
}

/// A cleaned source file, addressed by its workspace-relative path.
#[derive(Debug)]
pub struct SourceFile {
    /// Workspace-relative path with forward slashes.
    pub rel_path: String,
    pub lines: Vec<Line>,
    /// The raw token stream the lines were derived from.
    pub(crate) tokens: Vec<Token>,
}

impl SourceFile {
    pub fn parse(rel_path: &str, text: &str) -> SourceFile {
        let tokens = lex(text);
        let mut lines: Vec<Line> = clean(&tokens)
            .into_iter()
            .map(|(code, comment)| Line {
                code,
                comment,
                in_test: false,
            })
            .collect();
        mark_test_regions(&mut lines);
        SourceFile {
            rel_path: rel_path.to_string(),
            lines,
            tokens,
        }
    }

    pub fn load(root: &Path, rel_path: &str) -> io::Result<SourceFile> {
        let text = fs::read_to_string(root.join(rel_path))?;
        Ok(SourceFile::parse(rel_path, &text))
    }
}

/// Derive the per-line `(code, comment)` cleaned view from the token
/// stream: string-family literals collapse to `""`, char literals to
/// `' '`, comments move to the comment column, and everything else is
/// kept verbatim. Multi-line tokens contribute their placeholder halves
/// to the lines they open and close on.
fn clean(tokens: &[Token]) -> Vec<(String, String)> {
    enum Dst {
        Code,
        Comment,
        Discard,
    }
    let mut out = Vec::new();
    let mut code = String::new();
    let mut comment = String::new();
    // Route token text to a column, flushing a line at each newline.
    fn spill(
        text: &str,
        dst: Dst,
        code: &mut String,
        comment: &mut String,
        out: &mut Vec<(String, String)>,
    ) {
        for c in text.chars() {
            if c == '\n' {
                out.push((std::mem::take(code), std::mem::take(comment)));
            } else {
                match dst {
                    Dst::Code => code.push(c),
                    Dst::Comment => comment.push(c),
                    Dst::Discard => {}
                }
            }
        }
    }
    for t in tokens {
        match t.kind {
            Kind::Ident | Kind::Lifetime | Kind::Num | Kind::Punct => code.push_str(&t.text),
            Kind::Ws => spill(&t.text, Dst::Code, &mut code, &mut comment, &mut out),
            Kind::Str | Kind::RawStr => {
                code.push('"');
                spill(&t.text, Dst::Discard, &mut code, &mut comment, &mut out);
                code.push('"');
            }
            Kind::Char => code.push_str("' '"),
            Kind::LineComment => comment.push_str(&t.text),
            Kind::BlockComment => spill(&t.text, Dst::Comment, &mut code, &mut comment, &mut out),
        }
    }
    out.push((code, comment));
    out
}

/// Mark every line that sits inside a `#[cfg(test)]` item (typically the
/// inline `mod tests`). The lints only police non-test library code.
fn mark_test_regions(lines: &mut [Line]) {
    let mut depth: i64 = 0;
    // Brace depth at which an armed `#[cfg(test)]` item opened, if any.
    let mut test_open_depth: Option<i64> = None;
    // A `#[cfg(test)]` attribute was seen but its item has not opened yet.
    let mut armed = false;

    for line in lines.iter_mut() {
        if line.code.contains("#[cfg(test)]") || line.code.contains("#[cfg(all(test") {
            armed = true;
        }
        if armed || test_open_depth.is_some() {
            line.in_test = true;
        }
        for c in line.code.chars() {
            match c {
                '{' => {
                    if armed && test_open_depth.is_none() {
                        test_open_depth = Some(depth);
                        armed = false;
                    }
                    depth += 1;
                }
                '}' => {
                    depth -= 1;
                    if test_open_depth == Some(depth) {
                        test_open_depth = None;
                    }
                }
                // `#[cfg(test)] use foo;` — attribute gated a single
                // braceless item; disarm at its end.
                ';' if armed && test_open_depth.is_none() => armed = false,
                _ => {}
            }
        }
    }
}

/// Collect the workspace-relative paths of every library source file the
/// lints look at: `src/**/*.rs` of the root package and of each crate under
/// `crates/`, excluding the analyzer itself.
pub fn workspace_sources(root: &Path) -> io::Result<Vec<String>> {
    sources_of(root, |name| name != "xtask")
}

/// [`workspace_sources`] plus the analyzer's own sources: everything
/// `cargo xtask count` measures.
pub fn all_sources(root: &Path) -> io::Result<Vec<String>> {
    sources_of(root, |_| true)
}

/// `src/**/*.rs` of the root package and of each `crates/{name}` that
/// `keep(name)` admits, as sorted workspace-relative paths.
fn sources_of(root: &Path, keep: impl Fn(&str) -> bool) -> io::Result<Vec<String>> {
    let mut found = Vec::new();
    let mut roots: Vec<PathBuf> = vec![root.join("src")];
    let crates_dir = root.join("crates");
    if crates_dir.is_dir() {
        let mut entries: Vec<_> = fs::read_dir(&crates_dir)?
            .filter_map(Result::ok)
            .map(|e| e.path())
            .collect();
        entries.sort();
        for entry in entries {
            let admitted = (entry.file_name()).is_some_and(|n| keep(&n.to_string_lossy()));
            if entry.is_dir() && admitted {
                roots.push(entry.join("src"));
            }
        }
    }
    for dir in roots {
        if dir.is_dir() {
            walk(&dir, &mut found)?;
        }
    }
    let mut rels: Vec<String> = found
        .iter()
        .filter_map(|p| p.strip_prefix(root).ok())
        .map(|p| {
            p.components()
                .map(|c| c.as_os_str().to_string_lossy())
                .collect::<Vec<_>>()
                .join("/")
        })
        .collect();
    rels.sort();
    Ok(rels)
}

fn walk(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    let mut entries: Vec<_> = fs::read_dir(dir)?
        .filter_map(Result::ok)
        .map(|e| e.path())
        .collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            walk(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(text: &str) -> Vec<(Kind, String)> {
        lex(text)
            .into_iter()
            .filter(|t| t.kind != Kind::Ws)
            .map(|t| (t.kind, t.text))
            .collect()
    }

    fn parse(text: &str) -> SourceFile {
        SourceFile::parse("crates/vizalgo/src/x.rs", text)
    }

    fn codes(text: &str) -> Vec<String> {
        parse(text).lines.into_iter().map(|l| l.code).collect()
    }

    #[test]
    fn raw_byte_strings_with_interior_quotes_are_one_token() {
        let toks = kinds("let s = br#\"say \"hi\" ok\"#;");
        assert_eq!(
            toks,
            vec![
                (Kind::Ident, "let".into()),
                (Kind::Ident, "s".into()),
                (Kind::Punct, "=".into()),
                (Kind::RawStr, "br#\"say \"hi\" ok\"#".into()),
                (Kind::Punct, ";".into()),
            ]
        );
    }

    #[test]
    fn raw_identifiers_are_identifiers_not_strings() {
        let toks = kinds("let r#fn = 1;");
        assert_eq!(toks[1], (Kind::Ident, "r#fn".into()));
    }

    #[test]
    fn char_vs_lifetime_vs_byte_char() {
        let toks = kinds("fn f<'a>(c: char) -> char { let _ = b'x'; 'a' }");
        assert!(toks.contains(&(Kind::Lifetime, "'a".into())));
        assert!(toks.contains(&(Kind::Char, "b'x'".into())));
        assert!(toks.contains(&(Kind::Char, "'a'".into())));
    }

    #[test]
    fn token_lines_survive_multiline_literals_and_comments() {
        let text = "let a = \"x\ny\";\n/* c\nd */ let b = 2;\n";
        let toks = lex(text);
        let b = toks
            .iter()
            .find(|t| t.kind == Kind::Ident && t.text == "b")
            .expect("ident b");
        assert_eq!(b.line, 4);
    }

    #[test]
    fn line_comments_and_strings_are_stripped() {
        let got = codes("let a = \"x.unwrap() // not code\"; // real comment .expect(\n");
        assert_eq!(got[0], "let a = \"\"; ");
        let file = parse("let x = 1; // lint: infallible because fixed\n");
        assert!(file.lines[0].comment.contains("lint: infallible because"));
    }

    #[test]
    fn raw_strings_and_char_literals_are_stripped() {
        let got = codes("let re = r#\"panic!(\"#; let c = '['; let l: &'static str = \"\";\n");
        assert_eq!(
            got[0],
            "let re = \"\"; let c = ' '; let l: &'static str = \"\";"
        );
    }

    #[test]
    fn nested_block_comments_are_stripped() {
        let got = codes("a /* one /* two */ still */ b\n");
        assert_eq!(got[0], "a  b");
    }

    #[test]
    fn cfg_test_regions_are_marked() {
        let text = "pub fn lib() {}\n#[cfg(test)]\nmod tests {\n    fn helper() { x.unwrap(); }\n}\npub fn lib2() {}\n";
        let flags: Vec<bool> = parse(text).lines.iter().map(|l| l.in_test).collect();
        assert_eq!(flags, vec![false, true, true, true, true, false, false]);
    }

    #[test]
    fn cfg_test_on_a_braceless_item_disarms_at_semicolon() {
        let text = "#[cfg(test)]\nuse std::fmt;\npub fn lib() {}\n";
        let flags: Vec<bool> = parse(text).lines.iter().map(|l| l.in_test).collect();
        assert_eq!(flags, vec![true, true, false, false]);
    }
}
