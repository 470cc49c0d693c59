//! The one source model `cargo xtask lint` and `cargo xtask count` read:
//! a line scanner that turns each physical line of a Rust file into its
//! cleaned code, marks the lines inside `#[cfg(test)]` items, and the
//! workspace walk that feeds files in.
//!
//! The scanner never parses Rust, which keeps the crate std-only (it
//! must build before anything else does). It walks `text.lines()` and
//! carries one [`State`] from line to line: in code, inside a block
//! comment of some nesting depth, inside a cooked string, or inside a raw
//! string closed by some number of `#`. Each line loses its comments;
//! every string literal (cooked, `b`/`c`-prefixed, raw at any `#` depth)
//! becomes `""` and every char literal `' '`, while lifetimes (`'a`) stay.
//! Brace depth over that cleaned code is what finds a `#[cfg(test)]`
//! item's extent, and the unit-safety trigger (`cap_watts: f64`) is
//! unambiguous in its [`SourceFile::words`].

use std::fs;
use std::io;
use std::path::Path;

/// One physical source line after cleaning.
#[derive(Debug)]
pub(crate) struct Line {
    /// The line with comments and string/char literal *contents* removed.
    pub(crate) code: String,
    /// True when the line sits inside a `#[cfg(test)]`-gated item.
    pub(crate) in_test: bool,
}

/// A cleaned source file, addressed by its workspace-relative path.
#[derive(Debug)]
pub(crate) struct SourceFile {
    /// Workspace-relative path with forward slashes.
    pub(crate) rel_path: String,
    pub(crate) lines: Vec<Line>,
}

/// What the previous line left open where the next one starts.
#[derive(Clone, Copy)]
enum State {
    Code,
    /// Inside a block comment nested this deep.
    Block(u32),
    /// Inside a cooked string.
    Str,
    /// Inside a raw string that a quote and this many `#` close.
    Raw(usize),
}

impl SourceFile {
    pub(crate) fn parse(rel_path: &str, text: &str) -> SourceFile {
        let mut state = State::Code;
        let mut lines: Vec<Line> = (text.lines())
            .map(|raw| {
                let (code, next) = clean(raw, state);
                state = next;
                Line {
                    code,
                    in_test: false,
                }
            })
            .collect();
        mark_test_regions(&mut lines);
        SourceFile {
            rel_path: rel_path.to_string(),
            lines,
        }
    }

    pub(crate) fn load(root: &Path, rel_path: &str) -> io::Result<SourceFile> {
        let text = fs::read_to_string(root.join(rel_path))?;
        Ok(SourceFile::parse(rel_path, &text))
    }

    /// The identifier runs and single punctuation characters of the
    /// cleaned code, each with its 1-based line.
    pub(crate) fn words(&self) -> Vec<(usize, &str)> {
        let mut out = Vec::new();
        for (n, line) in self.lines.iter().enumerate() {
            let code = line.code.as_str();
            let mut i = 0;
            while let Some(c) = code[i..].chars().next() {
                let rest = &code[i..];
                // A raw identifier (`r#fn`) is one word, as rustc reads it.
                let head = if rest.starts_with("r#") { 2 } else { 0 };
                let len = if is_word(c) {
                    head + rest[head..]
                        .find(|c| !is_word(c))
                        .unwrap_or(rest.len() - head)
                } else {
                    c.len_utf8()
                };
                if !c.is_whitespace() {
                    out.push((n + 1, &code[i..i + len]));
                }
                i += len;
            }
        }
        out
    }
}

fn is_word(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Clean one physical line that starts in `state`: its code, and the
/// state the next line starts in.
fn clean(line: &str, mut state: State) -> (String, State) {
    let c: Vec<char> = line.chars().collect();
    let at = |i: usize| c.get(i).copied();
    let mut code = String::new();
    let mut i = 0;
    while i < c.len() {
        match state {
            State::Block(depth) => match (c[i], at(i + 1)) {
                ('/', Some('*')) => (state, i) = (State::Block(depth + 1), i + 2),
                ('*', Some('/')) if depth == 1 => (state, i) = (State::Code, i + 2),
                ('*', Some('/')) => (state, i) = (State::Block(depth - 1), i + 2),
                _ => i += 1,
            },
            State::Str => match c[i] {
                '\\' => i += 2,
                '"' => {
                    code.push('"');
                    (state, i) = (State::Code, i + 1);
                }
                _ => i += 1,
            },
            State::Raw(hashes) => {
                if c[i] == '"' && (1..=hashes).all(|k| at(i + k) == Some('#')) {
                    code.push('"');
                    (state, i) = (State::Code, i + 1 + hashes);
                } else {
                    i += 1;
                }
            }
            State::Code => match (c[i], at(i + 1)) {
                ('/', Some('/')) => break,
                ('/', Some('*')) => (state, i) = (State::Block(1), i + 2),
                ('"', _) => {
                    code.push('"');
                    (state, i) = (State::Str, i + 1);
                }
                // `'x'` and `'\n'` are char literals; a lifetime or label
                // (`'a`) falls through and stays.
                ('\'', Some('\\')) => {
                    code.push_str("' '");
                    let close = c.iter().skip(i + 3).position(|&q| q == '\'');
                    i = close.map_or(c.len(), |p| i + 4 + p);
                }
                ('\'', Some(q)) if q != '\'' && at(i + 2) == Some('\'') => {
                    code.push_str("' '");
                    i += 3;
                }
                (w, _) if is_word(w) => {
                    let start = i;
                    while i < c.len() && is_word(c[i]) {
                        i += 1;
                    }
                    let word: String = c[start..i].iter().collect();
                    let hashes = c[i..].iter().take_while(|&&h| h == '#').count();
                    match (word.as_str(), at(i + hashes)) {
                        // A raw string; `r#fn` (a raw identifier) has no quote.
                        ("r" | "br" | "cr", Some('"')) => {
                            code.push('"');
                            (state, i) = (State::Raw(hashes), i + hashes + 1);
                        }
                        // A prefixed literal: the quote at `i` does the rest.
                        ("b" | "c", Some('"')) | ("b", Some('\'')) if hashes == 0 => {}
                        _ => code.push_str(&word),
                    }
                }
                (other, _) => {
                    code.push(other);
                    i += 1;
                }
            },
        }
    }
    (code, state)
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

/// The workspace-relative paths, sorted, of every `src/**/*.rs` of the
/// root package and of each crate under `crates/`: the files both
/// `cargo xtask lint` and `cargo xtask count` read.
pub(crate) fn sources(root: &Path) -> io::Result<Vec<String>> {
    let mut dirs = vec!["src".to_string()];
    if root.join("crates").is_dir() {
        for entry in fs::read_dir(root.join("crates"))? {
            dirs.push(format!(
                "crates/{}/src",
                entry?.file_name().to_string_lossy()
            ));
        }
    }
    let mut found = Vec::new();
    for dir in dirs {
        walk(root, dir, &mut found)?;
    }
    found.sort();
    Ok(found)
}

/// Push every `.rs` file under `root/rel` (a directory, if it exists) to
/// `out` as a workspace-relative path.
fn walk(root: &Path, rel: String, out: &mut Vec<String>) -> io::Result<()> {
    if !root.join(&rel).is_dir() {
        return Ok(());
    }
    for entry in fs::read_dir(root.join(&rel))? {
        let path = format!("{rel}/{}", entry?.file_name().to_string_lossy());
        if root.join(&path).is_dir() {
            walk(root, path, out)?;
        } else if path.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(text: &str) -> SourceFile {
        SourceFile::parse("crates/vizalgo/src/x.rs", text)
    }

    fn codes(text: &str) -> Vec<String> {
        parse(text).lines.into_iter().map(|l| l.code).collect()
    }

    fn in_test(text: &str) -> Vec<bool> {
        parse(text).lines.iter().map(|l| l.in_test).collect()
    }

    #[test]
    fn line_comments_and_strings_are_stripped() {
        let got = codes("let a = \"x.unwrap() // not code\"; // real comment .expect(\n");
        assert_eq!(got[0], "let a = \"\"; ");
        assert_eq!(
            codes("let url = \"http://x\"; let b = 1;\n")[0],
            "let url = \"\"; let b = 1;"
        );
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
    fn raw_identifiers_are_identifiers_not_strings() {
        let file = parse("let r#fn = 1;\n");
        assert_eq!(file.lines[0].code, "let r#fn = 1;");
        assert_eq!(file.words()[1], (1, "r#fn"));
    }

    #[test]
    fn hashed_raw_strings_swallow_interior_quotes_and_hashes() {
        assert_eq!(
            codes("let s = r##\"quote \" and \"# still inside\"##;\n")[0],
            "let s = \"\";"
        );
    }

    #[test]
    fn byte_strings_and_raw_byte_strings_clean_to_placeholders() {
        // No literal content may leak into the code view the lints scan.
        assert_eq!(
            codes("let a = b\"x.unwrap()\"; let b = br#\"panic!(\"#;\n")[0],
            "let a = \"\"; let b = \"\";"
        );
        assert_eq!(
            codes("let a = b\"bytes \\\" esc\"; let c = c\"x\";\n")[0],
            "let a = \"\"; let c = \"\";"
        );
        assert_eq!(
            codes("let s = br#\"say \"hi\" ok\"#;\n")[0],
            "let s = \"\";"
        );
    }

    #[test]
    fn nested_block_comments_are_stripped() {
        let got = codes("a /* one /* two */ still */ b\n");
        assert_eq!(got[0], "a  b");
    }

    #[test]
    fn nested_block_comments_track_depth_not_first_terminator() {
        let text = "a /* outer /* inner */ tail */ b /* plain */ c\n";
        assert_eq!(codes(text)[0], "a  b  c");
    }

    #[test]
    fn lifetimes_and_char_literals_disambiguate() {
        let text = "fn f<'a>(x: &'a str) -> char { let c = 'a'; let n = '\\n'; c }\n";
        // Lifetimes survive in the code view; char contents do not.
        assert_eq!(
            codes(text)[0],
            "fn f<'a>(x: &'a str) -> char { let c = ' '; let n = ' '; c }"
        );
        assert_eq!(
            codes("fn f<'a>(c: char) -> char { let _ = b'x'; 'a' }\n")[0],
            "fn f<'a>(c: char) -> char { let _ = ' '; ' ' }"
        );
        assert_eq!(
            codes("let q = '\"'; let t = '\\''; let s = \"}\";\n")[0],
            "let q = ' '; let t = ' '; let s = \"\";"
        );
    }

    #[test]
    fn cooked_strings_span_lines() {
        let got = codes("let s = \"one // two\npub fn no() {}\";\nlet x = 1;\n");
        assert_eq!(got, vec!["let s = \"", "\";", "let x = 1;"]);
    }

    #[test]
    fn word_lines_survive_multiline_literals_and_comments() {
        let file = parse("let a = \"x\ny\";\n/* c\nd */ let b = 2;\n");
        assert!(file.words().contains(&(4, "b")));
    }

    #[test]
    fn words_carry_the_line_they_start_on() {
        let file = parse("let s = \"one\nstill literal\";\nlet x = 1;\n");
        assert!(
            file.words().contains(&(3, "x")),
            "lines inside the literal still count"
        );
        assert!(!file.words().iter().any(|&(_, w)| w == "still"));
    }

    #[test]
    fn cfg_test_regions_are_marked() {
        let text = "pub fn lib() {}\n#[cfg(test)]\nmod tests {\n    fn helper() { x.unwrap(); }\n}\npub fn lib2() {}\n";
        assert_eq!(in_test(text), vec![false, true, true, true, true, false]);
    }

    #[test]
    fn cfg_test_on_a_braceless_item_disarms_at_semicolon() {
        let text = "#[cfg(test)]\nuse std::fmt;\npub fn lib() {}\n";
        assert_eq!(in_test(text), vec![true, true, false]);
    }

    #[test]
    fn cfg_test_fn_inside_an_impl_ends_with_its_body() {
        // The shape of a test-only accessor mid-file (`core::store`,
        // `governor::pair`): the doc line stays live, the fn does not,
        // and the impl after it is live again.
        let text = "impl S {\n    pub fn a() {}\n\n    /// How many.\n    #[cfg(test)]\n    pub(crate) fn b(&self) -> u64 {\n        1\n    }\n}\n\nimpl T {\n    fn c() {}\n}\n";
        assert_eq!(
            in_test(text),
            [
                false, false, false, false, true, true, true, true, false, false, false, false,
                false
            ]
        );
    }

    #[test]
    fn a_raw_string_in_a_test_module_hides_its_braces() {
        let text = "#[cfg(test)]\nmod tests {\n    const T: &str = r#\"\n}\n\"#;\n    fn f() {}\n}\npub fn g() {}\n";
        assert_eq!(
            in_test(text),
            vec![true, true, true, true, true, true, true, false]
        );
    }
}
