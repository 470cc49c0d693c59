//! A dependency-free lexer for Rust source, plus the lightweight block
//! model built on it.
//!
//! This replaces the line-cleaning heuristics that used to live in
//! [`crate::scan`]: instead of a per-line state machine, the whole file
//! is tokenized once and every downstream view (cleaned lines for the
//! lint passes, loop/closure nesting for the analyze passes) is derived
//! from the same token stream. The lexer understands the constructs the
//! old heuristics got wrong or could not see:
//!
//! * raw strings with any number of hashes (`r"…"`, `r#"…"#`) and the
//!   byte/C-string prefixes (`b"…"`, `br#"…"#`, `c"…"`, `cr#"…"#`),
//!   including interior quotes that used to leak literal contents into
//!   the cleaned code view;
//! * nested block comments (`/* /* */ still comment */`);
//! * char literals vs lifetimes (`'a'` vs `'a`), including escaped and
//!   byte chars (`'\n'`, `b'x'`);
//! * raw identifiers (`r#fn`), which are identifiers, not raw strings.
//!
//! It is still a *lexer*, not a parser: the block model below it is a
//! heuristic over the token stream (brace frames classified by the
//! keywords that precede them), which is exactly enough for the
//! hot-path analyzer and keeps the crate std-only.

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
    /// True for tokens the block model reasons about (not whitespace or
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
// Block model
// ---------------------------------------------------------------------------

/// Iterator adapters whose closure argument executes once per element:
/// code inside their call parentheses runs in a loop even though no
/// `for` keyword appears. Used by the hot-loop nesting model.
pub const LOOP_ADAPTERS: &[&str] = &[
    "map",
    "for_each",
    "try_for_each",
    "filter",
    "filter_map",
    "flat_map",
    "fold",
    "try_fold",
    "scan",
    "inspect",
    "retain",
    "map_while",
    "take_while",
    "skip_while",
    "find_map",
    "position",
    "partition",
    "zip_eq",
];

/// Per-line context derived from the block model.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LineCtx {
    /// How many loop bodies enclose this line: `for`/`while`/`loop`
    /// braces plus [`LOOP_ADAPTERS`] call parentheses. The maximum seen
    /// across the line's tokens.
    pub loop_depth: usize,
    /// Name of the innermost enclosing `fn` body, if any. Signature
    /// lines (before the body's `{`) carry `None`.
    pub fn_name: Option<String>,
}

/// What one `{ … }` frame was opened by.
enum Frame {
    Fn(String),
    Loop,
    Plain,
}

/// The block-model context of each token, parallel to the input: the
/// loop depth and enclosing function *at* that token (before its own
/// effect applies — an opening `{` still belongs to its header).
/// Heuristic, token-level:
///
/// * a `{` is a function body when the pending run since the last
///   `{`/`}`/`;` contains `fn name` at the same paren depth;
/// * a `{` is a loop body when the run contains `for`/`while`/`loop` at
///   the same paren depth — except `for` inside an `impl … for … {`
///   header, which is a trait impl, not a loop;
/// * a `(` directly preceded by `.adapter` for a name in
///   [`LOOP_ADAPTERS`] opens a loop context until its `)`.
pub fn token_contexts(toks: &[Token]) -> Vec<LineCtx> {
    let mut ctx = Vec::with_capacity(toks.len());
    let mut braces: Vec<Frame> = Vec::new();
    // One bool per open paren/bracket: true when it is a loop-adapter call.
    let mut parens: Vec<bool> = Vec::new();
    let mut loop_depth = 0usize;

    let mut pending_fn: Option<String> = None;
    let mut pending_fn_parens = 0usize;
    let mut awaiting_fn_name = false;
    let mut pending_loop = false;
    let mut pending_loop_parens = 0usize;
    let mut pending_impl = false;
    // The last two significant tokens, most recent first.
    let mut prev: [Option<(Kind, String)>; 2] = [None, None];

    let clear_pending = |pf: &mut Option<String>, af: &mut bool, pl: &mut bool, pi: &mut bool| {
        *pf = None;
        *af = false;
        *pl = false;
        *pi = false;
    };

    for t in toks {
        ctx.push(LineCtx {
            loop_depth,
            fn_name: innermost_fn(&braces),
        });
        if !t.is_significant() {
            continue;
        }
        match t.kind {
            Kind::Ident => match t.text.as_str() {
                "fn" => awaiting_fn_name = true,
                "impl" => pending_impl = true,
                "for" | "while" | "loop" if !pending_impl && !awaiting_fn_name => {
                    pending_loop = true;
                    pending_loop_parens = parens.len();
                }
                name if awaiting_fn_name => {
                    pending_fn = Some(name.to_string());
                    awaiting_fn_name = false;
                    pending_fn_parens = parens.len();
                }
                _ => {}
            },
            Kind::Punct => match t.text.as_str() {
                "(" => {
                    let adapter = matches!(
                        (&prev[0], &prev[1]),
                        (Some((Kind::Ident, m)), Some((Kind::Punct, d)))
                            if d == "." && LOOP_ADAPTERS.contains(&m.as_str())
                    );
                    if adapter {
                        loop_depth += 1;
                    }
                    parens.push(adapter);
                }
                // Square brackets share the stack so the `;` inside an
                // array type (`[[u32; 4]]`) or literal is not mistaken
                // for a statement end.
                "[" => parens.push(false),
                ")" | "]" => {
                    let closes_loop = parens.pop() == Some(true);
                    loop_depth = loop_depth.saturating_sub(usize::from(closes_loop));
                }
                "{" => {
                    let frame = if pending_fn.is_some() && parens.len() == pending_fn_parens {
                        Frame::Fn(pending_fn.take().unwrap_or_default())
                    } else if pending_loop && parens.len() == pending_loop_parens {
                        loop_depth += 1;
                        Frame::Loop
                    } else {
                        Frame::Plain
                    };
                    braces.push(frame);
                    clear_pending(
                        &mut pending_fn,
                        &mut awaiting_fn_name,
                        &mut pending_loop,
                        &mut pending_impl,
                    );
                }
                "}" => {
                    if let Some(Frame::Loop) = braces.pop() {
                        loop_depth = loop_depth.saturating_sub(1);
                    }
                }
                // Only a statement-level `;` (outside all parens and
                // brackets) ends a pending item header.
                ";" if parens.is_empty() => clear_pending(
                    &mut pending_fn,
                    &mut awaiting_fn_name,
                    &mut pending_loop,
                    &mut pending_impl,
                ),
                _ => {}
            },
            _ => {}
        }
        prev[1] = prev[0].take();
        prev[0] = Some((t.kind, t.text.clone()));
    }
    ctx
}

/// Annotate each source line (1-based, `num_lines` total) with its loop
/// nesting depth and enclosing function, derived from
/// [`token_contexts`]: a line carries the *maximum* depth and the first
/// function name among its significant tokens. Blank and comment-only
/// lines inherit the context that holds *between* the surrounding
/// tokens, so a comment mid-function does not split the function into
/// two runs.
pub fn line_contexts(toks: &[Token], num_lines: usize) -> Vec<LineCtx> {
    let per_token = token_contexts(toks);
    let mut ctx = vec![LineCtx::default(); num_lines];
    // Last line (1-based) annotated so far, for gap-line inheritance.
    let mut filled_to = 0usize;
    for (t, tc) in toks.iter().zip(&per_token) {
        if !t.is_significant() {
            continue;
        }
        let from = (filled_to + 1).min(t.line).max(1);
        for line in from..=t.line {
            if let Some(slot) = ctx.get_mut(line - 1) {
                slot.loop_depth = slot.loop_depth.max(tc.loop_depth);
                if slot.fn_name.is_none() {
                    slot.fn_name = tc.fn_name.clone();
                }
            }
        }
        filled_to = filled_to.max(t.line);
    }
    ctx
}

/// Name of the innermost `Fn` frame on the brace stack, if any.
fn innermost_fn(braces: &[Frame]) -> Option<String> {
    braces.iter().rev().find_map(|f| match f {
        Frame::Fn(name) => Some(name.clone()),
        _ => None,
    })
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
    fn line_contexts_track_loops_closures_and_fns() {
        let text = "\
pub fn hot(xs: &[f64]) -> f64 {
    let mut acc = 0.0;
    for x in xs {
        while *x > acc {
            acc += 1.0;
        }
    }
    xs.iter().map(|v| {
        v + 1.0
    });
    acc
}
";
        let toks = lex(text);
        let ctx = line_contexts(&toks, text.lines().count());
        // Line 1 is the signature; lines 2.. are the body of `hot`.
        assert_eq!(ctx[0].fn_name, None);
        assert_eq!(ctx[1].fn_name.as_deref(), Some("hot"));
        assert_eq!(ctx[1].loop_depth, 0);
        assert_eq!(ctx[3].loop_depth, 1); // `while` header inside `for`
        assert_eq!(ctx[4].loop_depth, 2); // `acc += 1.0`
        assert_eq!(ctx[8].loop_depth, 1); // closure body inside `.map(`
        assert_eq!(ctx[10].loop_depth, 0);
    }

    #[test]
    fn impl_for_is_not_a_loop() {
        let text =
            "impl Filter for Contour {\n    fn name(&self) -> &str {\n        \"c\"\n    }\n}\n";
        let toks = lex(text);
        let ctx = line_contexts(&toks, text.lines().count());
        assert!(ctx.iter().all(|c| c.loop_depth == 0));
        assert_eq!(ctx[2].fn_name.as_deref(), Some("name"));
    }
}
