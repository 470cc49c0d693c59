//! The repo-specific lint passes: panic-policy, unit-safety,
//! registry-dispatch, and schema-docs. Each pass takes a cleaned
//! [`SourceFile`] and appends [`Diagnostic`]s; path scoping lives in
//! [`crate::policy`].

use crate::allow::{Allowlist, INFALLIBLE_MARKER, PANICS_ALLOW};
use crate::diag::{Diagnostic, PANIC_POLICY, REGISTRY_DISPATCH, SCHEMA_DOCS, UNIT_SAFETY};
use crate::policy::{
    unit_family, UnitFamily, FILTER_CONSTRUCTORS, OBSERVABILITY_DOC, SCHEMA_ENUMS,
    SCHEMA_TABLE_BEGIN, SCHEMA_TABLE_END, UNIT_BOUNDARY_FILES,
};
use crate::scan::SourceFile;

/// Tokens that violate the panic policy in hot-path library code.
const PANIC_TOKENS: &[&str] = &[
    ".unwrap()",
    ".expect(",
    "panic!(",
    "unreachable!(",
    "todo!(",
    "unimplemented!(",
];

// ---------------------------------------------------------------------------
// Panic policy
// ---------------------------------------------------------------------------

pub fn panic_policy(
    file: &SourceFile,
    allow: &Allowlist,
    used: &mut [bool],
    strict: bool,
    out: &mut Vec<Diagnostic>,
) {
    for line in &file.lines {
        if line.in_test {
            continue;
        }
        for tok in PANIC_TOKENS {
            if !line.code.contains(tok) {
                continue;
            }
            let justified =
                line.comment.contains(INFALLIBLE_MARKER) || justified_above(file, line.number);
            let registered = allow.covers(used, &file.rel_path, &line.raw);
            if justified && registered {
                continue;
            }
            let display = tok.trim_end_matches("()").trim_end_matches('(');
            let message = if justified {
                format!("`{display}` is justified inline but not registered in {PANICS_ALLOW}")
            } else {
                format!(
                    "`{display}` in hot-path library code; return Result/Option, or justify \
                     with `// {INFALLIBLE_MARKER} ...` and register the site in {PANICS_ALLOW}"
                )
            };
            out.push(Diagnostic::new(
                &file.rel_path,
                line.number,
                PANIC_POLICY,
                message,
            ));
        }
        if strict && has_unjustified_indexing(&line.code, &line.comment) {
            out.push(Diagnostic::new(
                &file.rel_path,
                line.number,
                PANIC_POLICY,
                format!(
                    "indexing can panic in hot-path library code (strict mode); prefer \
                     `get`/iterators or add a `// {INFALLIBLE_MARKER} ...` note"
                ),
            ));
        }
    }
}

/// A justification may also sit on comment-only lines immediately above
/// the panic site (the style rustfmt-friendly call chains use).
fn justified_above(file: &SourceFile, number: usize) -> bool {
    let mut idx = number.saturating_sub(1); // 0-based index of the site
    while idx > 0 {
        idx -= 1;
        let prev = &file.lines[idx];
        if !prev.code.trim().is_empty() || prev.comment.is_empty() {
            return false;
        }
        if prev.comment.contains(INFALLIBLE_MARKER) {
            return true;
        }
    }
    false
}

/// Strict-mode heuristic: `expr[...]` indexing — a `[` whose previous
/// non-space character ends an expression (identifier, `)`, or `]`).
fn has_unjustified_indexing(code: &str, comment: &str) -> bool {
    if comment.contains("lint:") || code.trim_start().starts_with("#[") {
        return false;
    }
    let chars: Vec<char> = code.chars().collect();
    for (i, &c) in chars.iter().enumerate() {
        if c != '[' {
            continue;
        }
        let prev = chars[..i].iter().rev().find(|ch| !ch.is_whitespace());
        if let Some(&p) = prev {
            if p.is_alphanumeric() || p == '_' || p == ')' || p == ']' {
                return true;
            }
        }
    }
    false
}

// ---------------------------------------------------------------------------
// Unit safety
// ---------------------------------------------------------------------------

#[derive(Debug, PartialEq)]
enum Tok {
    Ident(String),
    Op(&'static str),
    Other,
}

/// Binary operators that demand dimensional agreement between operands.
const UNIT_OPS: &[&str] = &["+", "-", "+=", "-=", "<", ">", "<=", ">=", "==", "!="];

pub fn unit_safety(file: &SourceFile, out: &mut Vec<Diagnostic>) {
    let boundary = UNIT_BOUNDARY_FILES.contains(&file.rel_path.as_str());
    for line in &file.lines {
        if line.in_test {
            continue;
        }
        mixed_family_arithmetic(file, line.number, &line.code, out);
        if boundary {
            raw_f64_boundary(file, line.number, &line.code, out);
        }
    }
}

/// Rule A: `a <op> b` where `a` and `b` carry different unit families by
/// name. Multiplication/division across families is legitimate physics
/// (W·s, 1/s, ...) and is not flagged.
fn mixed_family_arithmetic(
    file: &SourceFile,
    number: usize,
    code: &str,
    out: &mut Vec<Diagnostic>,
) {
    let toks = tokenize(code);
    for w in toks.windows(3) {
        let (Tok::Ident(a), Tok::Op(op), Tok::Ident(b)) = (&w[0], &w[1], &w[2]) else {
            continue;
        };
        if !UNIT_OPS.contains(op) {
            continue;
        }
        let (Some(fa), Some(fb)) = (unit_family(a), unit_family(b)) else {
            continue;
        };
        if fa != fb {
            out.push(Diagnostic::new(
                &file.rel_path,
                number,
                UNIT_SAFETY,
                format!(
                    "mixed-unit arithmetic: `{a} {op} {b}` combines {} with {}; convert \
                     explicitly through the `Watts`/`Joules` newtypes (vizpower::energy)",
                    fa.name(),
                    fb.name()
                ),
            ));
        }
    }
}

/// Rule B: in boundary files, a watt-/joule-named `f64` declaration
/// (`cap_watts: f64`, `fn energy_joules(..) -> f64`) bypasses the newtypes.
fn raw_f64_boundary(file: &SourceFile, number: usize, code: &str, out: &mut Vec<Diagnostic>) {
    let chars: Vec<char> = code.chars().collect();
    let bytes = code.as_bytes();
    let mut search = 0;
    while let Some(pos) = code[search..].find("f64") {
        let at = search + pos;
        search = at + 3;
        // Token boundaries: reject `f641` or `xf64`.
        let before = at.checked_sub(1).map(|i| bytes[i] as char);
        let after = chars.get(at + 3);
        if before.is_some_and(|c| c.is_alphanumeric() || c == '_')
            || after.is_some_and(|c| c.is_alphanumeric() || *c == '_')
        {
            continue;
        }
        let lead: String = code[..at].trim_end().to_string();
        let family = if let Some(prefix) = lead.strip_suffix(':') {
            unit_family(&trailing_ident(prefix))
        } else if lead.ends_with("->") {
            code.find("fn ")
                .map(|f| leading_ident(&code[f + 3..]))
                .and_then(|name| unit_family(&name))
        } else {
            None
        };
        let Some(family) = family else { continue };
        let newtype = match family {
            UnitFamily::Watts => "Watts",
            UnitFamily::Joules => "Joules",
            _ => continue, // seconds/hertz stay raw f64 by design
        };
        out.push(Diagnostic::new(
            &file.rel_path,
            number,
            UNIT_SAFETY,
            format!(
                "raw `f64` carries a {} quantity across the power API boundary; use the \
                 `{newtype}` newtype from powersim::units",
                family.name()
            ),
        ));
    }
}

fn trailing_ident(s: &str) -> String {
    s.trim_end()
        .chars()
        .rev()
        .take_while(|c| c.is_alphanumeric() || *c == '_')
        .collect::<Vec<_>>()
        .into_iter()
        .rev()
        .collect()
}

fn leading_ident(s: &str) -> String {
    s.trim_start()
        .chars()
        .take_while(|c| c.is_alphanumeric() || *c == '_')
        .collect()
}

/// Lexical tokenizer for rule A. Field paths collapse to their final
/// segment (`r.energy_joules` → `energy_joules`); any call expression
/// (`x.value()`, `f(..)`, `m!(..)`) becomes an opaque token, which makes
/// `.value()` and the newtype conversion methods the sanctioned escape
/// hatches.
fn tokenize(code: &str) -> Vec<Tok> {
    const MULTI: &[&str] = &[
        "<<=", ">>=", "..=", "->", "=>", "..", "==", "!=", "<=", ">=", "+=", "-=", "*=", "/=",
        "&&", "||", "<<", ">>",
    ];
    let chars: Vec<char> = code.chars().collect();
    let mut toks = Vec::new();
    let mut i = 0;
    while i < chars.len() {
        let c = chars[i];
        if c.is_whitespace() {
            i += 1;
        } else if c.is_alphabetic() || c == '_' {
            let (tok, next) = read_path(&chars, i);
            toks.push(tok);
            i = next;
        } else if c.is_ascii_digit() {
            i = skip_number(&chars, i);
            toks.push(Tok::Other);
        } else {
            let rest: String = chars[i..].iter().take(3).collect();
            if let Some(op) = MULTI.iter().find(|m| rest.starts_with(**m)) {
                toks.push(if UNIT_OPS.contains(op) {
                    Tok::Op(op)
                } else {
                    Tok::Other
                });
                i += op.len();
            } else {
                let single: &'static str = match c {
                    '+' => "+",
                    '-' => "-",
                    '<' => "<",
                    '>' => ">",
                    _ => "",
                };
                toks.push(if single.is_empty() {
                    Tok::Other
                } else {
                    Tok::Op(single)
                });
                i += 1;
            }
        }
    }
    toks
}

/// Read an identifier or dotted path starting at `i`; returns the token
/// and the index just past it.
fn read_path(chars: &[char], mut i: usize) -> (Tok, usize) {
    let mut last = String::new();
    loop {
        last.clear();
        while i < chars.len() && (chars[i].is_alphanumeric() || chars[i] == '_') {
            last.push(chars[i]);
            i += 1;
        }
        // Follow `.ident` chains; stop at `.0` tuple access or `..` ranges.
        if i + 1 < chars.len()
            && chars[i] == '.'
            && (chars[i + 1].is_alphabetic() || chars[i + 1] == '_')
        {
            i += 1;
            continue;
        }
        break;
    }
    // A call makes the value's unit opaque; `!` marks a macro.
    let mut j = i;
    while j < chars.len() && chars[j].is_whitespace() {
        j += 1;
    }
    if j < chars.len() && (chars[j] == '(' || chars[j] == '!') {
        return (Tok::Other, i);
    }
    (Tok::Ident(last), i)
}

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
// Registry dispatch
// ---------------------------------------------------------------------------

/// Outside the registry crate (and the conformance reference
/// implementations), non-test code must not call a filter constructor
/// directly: the one sanctioned construction site is
/// `AlgorithmSpec::build`, which keeps every run's parameterization
/// canonical, serializable, and fingerprinted into the journal. Path
/// scoping lives in [`crate::lint_file`].
pub fn registry_dispatch(file: &SourceFile, out: &mut Vec<Diagnostic>) {
    for line in &file.lines {
        if line.in_test {
            continue;
        }
        for ctor in FILTER_CONSTRUCTORS {
            if !calls_constructor(&line.code, ctor) {
                continue;
            }
            let display = ctor.trim_end_matches('(');
            out.push(Diagnostic::new(
                &file.rel_path,
                line.number,
                REGISTRY_DISPATCH,
                format!(
                    "direct `{display}` construction bypasses the algorithm registry; \
                     build the filter from an `AlgorithmSpec` (vizalgo::spec) so the run \
                     carries a canonical, fingerprintable parameterization"
                ),
            ));
        }
    }
}

/// True when `code` contains `ctor` at a token boundary: the character
/// before the type name may not extend an identifier (so `MyContour::new(`
/// does not match), while a path prefix (`vizalgo::Contour::new(`) does.
fn calls_constructor(code: &str, ctor: &str) -> bool {
    let bytes = code.as_bytes();
    let mut search = 0;
    while let Some(pos) = code[search..].find(ctor) {
        let at = search + pos;
        search = at + 1;
        let before = at.checked_sub(1).map(|i| bytes[i] as char);
        if !before.is_some_and(|c| c.is_alphanumeric() || c == '_') {
            return true;
        }
    }
    false
}

// ---------------------------------------------------------------------------
// Schema docs
// ---------------------------------------------------------------------------

/// Every public variant of the journal's wire enums ([`SCHEMA_ENUMS`] in
/// the trace source) must have a row in the schema table of
/// `docs/OBSERVABILITY.md`, and every row must name a live variant. The
/// table is the marker-delimited block of `| \`Variant\` | ...` rows; a
/// row whose first cell is not backticked (headers, separators) is
/// ignored.
pub fn schema_docs(trace: &SourceFile, doc_text: &str, out: &mut Vec<Diagnostic>) {
    let begin = marker_line(doc_text, SCHEMA_TABLE_BEGIN);
    let end = marker_line(doc_text, SCHEMA_TABLE_END);
    let (Some(begin), Some(end)) = (begin, end) else {
        out.push(Diagnostic::new(
            OBSERVABILITY_DOC,
            1,
            SCHEMA_DOCS,
            format!(
                "missing `{SCHEMA_TABLE_BEGIN}`/`{SCHEMA_TABLE_END}` markers around the \
                 event schema table"
            ),
        ));
        return;
    };
    let rows = schema_table_rows(doc_text, begin, end);
    let mut variants = Vec::new();
    for enum_name in SCHEMA_ENUMS {
        for (variant, line) in enum_variants(trace, enum_name) {
            variants.push((*enum_name, variant, line));
        }
    }
    for (enum_name, variant, line) in &variants {
        if !rows.iter().any(|(name, _)| name == variant) {
            out.push(Diagnostic::new(
                &trace.rel_path,
                *line,
                SCHEMA_DOCS,
                format!(
                    "public event variant `{enum_name}::{variant}` is not documented in the \
                     {OBSERVABILITY_DOC} schema table; add a row between the markers"
                ),
            ));
        }
    }
    for (name, line) in &rows {
        if !variants.iter().any(|(_, v, _)| v == name) {
            out.push(Diagnostic::new(
                OBSERVABILITY_DOC,
                *line,
                SCHEMA_DOCS,
                format!(
                    "stale schema row `{name}` matches no public variant of {} in {}; remove it",
                    SCHEMA_ENUMS.join("/"),
                    trace.rel_path
                ),
            ));
        }
    }
}

/// 1-based line number of the first line containing `marker`.
fn marker_line(doc_text: &str, marker: &str) -> Option<usize> {
    doc_text
        .lines()
        .position(|l| l.contains(marker))
        .map(|i| i + 1)
}

/// The `(variant name, 1-based line)` of each backticked first cell in
/// table rows strictly between the marker lines.
fn schema_table_rows(doc_text: &str, begin: usize, end: usize) -> Vec<(String, usize)> {
    let mut rows = Vec::new();
    for (i, raw) in doc_text.lines().enumerate() {
        let number = i + 1;
        if number <= begin || number >= end {
            continue;
        }
        let Some(rest) = raw.trim().strip_prefix('|') else {
            continue;
        };
        let cell = rest.split('|').next().unwrap_or("").trim();
        if let Some(name) = cell
            .strip_prefix('`')
            .and_then(|s| s.strip_suffix('`'))
            .filter(|s| !s.is_empty())
        {
            rows.push((name.to_string(), number));
        }
    }
    rows
}

/// The `(variant name, 1-based line)` of each variant of `pub enum
/// {enum_name}` in the cleaned source: inside the enum's braces, a
/// depth-1 code line starting with an uppercase identifier declares a
/// variant (attributes start with `#`, doc comments are stripped).
fn enum_variants(file: &SourceFile, enum_name: &str) -> Vec<(String, usize)> {
    let mut variants = Vec::new();
    let mut inside = false;
    let mut depth: i64 = 0;
    for line in &file.lines {
        if line.in_test {
            continue;
        }
        if !inside {
            if is_enum_header(&line.code, enum_name) {
                inside = true;
                depth = brace_delta(&line.code);
                if depth <= 0 && line.code.contains('}') {
                    inside = false; // one-line (empty) enum
                }
            }
            continue;
        }
        if depth == 1 {
            let trimmed = line.code.trim();
            if trimmed
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_uppercase())
            {
                let ident: String = trimmed
                    .chars()
                    .take_while(|c| c.is_alphanumeric() || *c == '_')
                    .collect();
                variants.push((ident, line.number));
            }
        }
        depth += brace_delta(&line.code);
        if depth <= 0 {
            inside = false;
        }
    }
    variants
}

/// True when the cleaned line declares `pub enum {name}` (with a token
/// boundary after the name, so `Event` does not match `EventKind`).
fn is_enum_header(code: &str, name: &str) -> bool {
    let needle = format!("pub enum {name}");
    let Some(pos) = code.find(&needle) else {
        return false;
    };
    let after = code[pos + needle.len()..].chars().next();
    !after.is_some_and(|c| c.is_alphanumeric() || c == '_')
}

/// Net `{`/`}` depth change of a cleaned code line.
fn brace_delta(code: &str) -> i64 {
    let mut d = 0;
    for c in code.chars() {
        match c {
            '{' => d += 1,
            '}' => d -= 1,
            _ => {}
        }
    }
    d
}
