//! Source model for the lint and analyze passes.
//!
//! The analyzer is deliberately lexical: it never parses Rust. Each file
//! is tokenized once by [`crate::lex`] and two views are derived from
//! the same token stream: the per-line cleaned view the lint passes
//! consume (comments and string/char literal *contents* removed), and
//! the block-model annotations (loop/closure nesting depth, enclosing
//! function) the analyze passes consume. That keeps the crate std-only
//! (it must build before any dependency is compiled) while still being
//! precise enough for the repo policies, whose trigger tokens
//! (`.unwrap()`, `Vec::new(`, `push_span(`) are unambiguous
//! at the token level.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use crate::lex::{self, Kind};

/// One physical source line after lexical cleaning.
#[derive(Debug, Clone)]
pub struct Line {
    /// 1-based line number, for diagnostics.
    pub number: usize,
    /// The line with comments and string/char literal *contents* removed.
    pub code: String,
    /// The comment text found on the line (line and block comments).
    pub comment: String,
    /// The raw line as written, used for allowlist substring matching.
    pub raw: String,
    /// True when the line sits inside a `#[cfg(test)]`-gated item.
    pub in_test: bool,
    /// Loop/closure nesting depth from the block model: how many
    /// `for`/`while`/`loop` bodies and iterator-adapter closures enclose
    /// this line.
    pub loop_depth: usize,
    /// Name of the innermost enclosing `fn` body, if any.
    pub fn_name: Option<String>,
}

/// A cleaned source file, addressed by its workspace-relative path.
#[derive(Debug)]
pub struct SourceFile {
    /// Workspace-relative path with forward slashes.
    pub rel_path: String,
    pub lines: Vec<Line>,
    /// The raw token stream the views above were derived from.
    pub tokens: Vec<lex::Token>,
    /// Block-model context of each token (parallel to `tokens`), for
    /// passes that need token-accurate loop depth rather than the
    /// per-line maximum.
    pub token_ctx: Vec<lex::LineCtx>,
}

impl SourceFile {
    pub fn parse(rel_path: &str, text: &str) -> SourceFile {
        let tokens = lex::lex(text);
        let token_ctx = lex::token_contexts(&tokens);
        let cleaned = clean(&tokens);
        let contexts = lex::line_contexts(&tokens, cleaned.len());
        let raws: Vec<&str> = text.lines().collect();
        let mut lines: Vec<Line> = cleaned
            .into_iter()
            .enumerate()
            .map(|(i, (code, comment))| {
                let ctx = contexts.get(i).cloned().unwrap_or_default();
                Line {
                    number: i + 1,
                    code,
                    comment,
                    raw: raws.get(i).unwrap_or(&"").to_string(),
                    in_test: false,
                    loop_depth: ctx.loop_depth,
                    fn_name: ctx.fn_name,
                }
            })
            .collect();
        mark_test_regions(&mut lines);
        SourceFile {
            rel_path: rel_path.to_string(),
            lines,
            tokens,
            token_ctx,
        }
    }

    pub fn load(root: &Path, rel_path: &str) -> io::Result<SourceFile> {
        let text = fs::read_to_string(root.join(rel_path))?;
        Ok(SourceFile::parse(rel_path, &text))
    }

    /// Number of lines (from `start`, capped at `max`) forming one
    /// statement: joining continues while brackets stay open or the next
    /// line continues a method chain (`.`/`?`), and stops after a `;`
    /// outside brackets. Lets the lints see a multi-line iterator chain
    /// as one unit.
    pub fn statement_span(&self, start: usize, max: usize) -> usize {
        let Some(first) = self.lines.get(start) else {
            return 0;
        };
        let mut span = 1;
        let mut depth = bracket_delta(&first.code);
        while span < max {
            let last = &self.lines[start + span - 1];
            if depth <= 0 && last.code.contains(';') {
                break;
            }
            let Some(next) = self.lines.get(start + span) else {
                break;
            };
            let trimmed = next.code.trim_start();
            if depth <= 0 && !(trimmed.starts_with('.') || trimmed.starts_with('?')) {
                break;
            }
            depth += bracket_delta(&next.code);
            span += 1;
        }
        span
    }

    /// The joined code of the statement starting at `start`.
    pub fn statement_at(&self, start: usize, max: usize) -> String {
        let span = self.statement_span(start, max);
        let mut joined = String::new();
        for line in self.lines.iter().skip(start).take(span) {
            joined.push(' ');
            joined.push_str(line.code.trim());
        }
        joined
    }
}

/// Net bracket depth change of a cleaned code line.
fn bracket_delta(code: &str) -> i64 {
    let mut d = 0;
    for c in code.chars() {
        match c {
            '(' | '[' | '{' => d += 1,
            ')' | ']' | '}' => d -= 1,
            _ => {}
        }
    }
    d
}

/// Derive the per-line `(code, comment)` cleaned view from the token
/// stream: string-family literals collapse to `""`, char literals to
/// `' '`, comments move to the comment column, and everything else is
/// kept verbatim. Multi-line tokens contribute their placeholder halves
/// to the lines they open and close on.
fn clean(tokens: &[lex::Token]) -> Vec<(String, String)> {
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
/// inline `mod tests`). The three lints only police non-test library code.
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

    fn codes(text: &str) -> Vec<String> {
        SourceFile::parse("crates/vizalgo/src/x.rs", text)
            .lines
            .into_iter()
            .map(|l| l.code)
            .collect()
    }

    #[test]
    fn line_comments_and_strings_are_stripped() {
        let got = codes("let a = \"x.unwrap() // not code\"; // real comment .expect(\n");
        assert_eq!(got[0], "let a = \"\"; ");
        let file = SourceFile::parse(
            "crates/vizalgo/src/x.rs",
            "let x = 1; // lint: infallible because fixed\n",
        );
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
        let file = SourceFile::parse("crates/vizalgo/src/x.rs", text);
        let flags: Vec<bool> = file.lines.iter().map(|l| l.in_test).collect();
        assert_eq!(flags, vec![false, true, true, true, true, false, false]);
    }

    #[test]
    fn cfg_test_on_a_braceless_item_disarms_at_semicolon() {
        let text = "#[cfg(test)]\nuse std::fmt;\npub fn lib() {}\n";
        let file = SourceFile::parse("crates/vizalgo/src/x.rs", text);
        let flags: Vec<bool> = file.lines.iter().map(|l| l.in_test).collect();
        assert_eq!(flags, vec![true, true, false, false]);
    }

    #[test]
    fn statements_join_across_method_chains_and_open_brackets() {
        let text = "let x = v.par_iter()\n    .map(f)\n    .sum::<f64>();\nlet y = 1;\n";
        let file = SourceFile::parse("crates/vizalgo/src/x.rs", text);
        assert_eq!(file.statement_span(0, 16), 3);
        assert!(file.statement_at(0, 16).contains(".sum::<f64>()"));
        assert_eq!(file.statement_span(3, 16), 1);
    }
}
