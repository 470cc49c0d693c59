//! The repo-specific lint passes: panic-policy, unit-safety and
//! hot-loop-alloc. Each pass takes a cleaned [`SourceFile`] and appends
//! [`Diagnostic`]s; path scoping lives in [`crate::lint_file`] and
//! [`crate::policy`].

use crate::allow::{Allowlist, ALLOCS_ALLOW, INFALLIBLE_MARKER, PANICS_ALLOW};
use crate::diag::{Diagnostic, HOT_LOOP_ALLOC, PANIC_POLICY, UNIT_SAFETY};
use crate::lex::{Kind, Line, SourceFile};

// ---------------------------------------------------------------------------
// Panic policy
// ---------------------------------------------------------------------------

/// Tokens that violate the panic policy in hot-path library code.
const PANIC_TOKENS: &[&str] = &[
    ".unwrap()",
    ".expect(",
    "panic!(",
    "unreachable!(",
    "todo!(",
    "unimplemented!(",
];

pub(crate) fn panic_policy(file: &SourceFile, allow: &mut Allowlist, out: &mut Vec<Diagnostic>) {
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
            let registered = allow.covers(&file.rel_path, &line.raw);
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

// ---------------------------------------------------------------------------
// Unit safety
// ---------------------------------------------------------------------------

/// The newtype a watt- or joule-named identifier should carry, following
/// the workspace naming convention (`cap_watts`, `energy_joules`, ...).
fn unit_newtype(ident: &str) -> Option<&'static str> {
    let n = ident.to_ascii_lowercase();
    if n.contains("watt") {
        Some("Watts")
    } else if n.contains("joule") {
        Some("Joules")
    } else {
        None
    }
}

/// No watt-/joule-named raw `f64` in non-test code: a `name: f64`
/// binding, parameter or field, or a `fn name(..) -> f64` return type,
/// bypasses the `Watts`/`Joules` newtypes of `powersim::units`. Once a
/// quantity is in a newtype the compiler rejects mixed-unit arithmetic;
/// this pass guards the way in. Seconds and hertz stay raw by design.
pub(crate) fn unit_safety(file: &SourceFile, out: &mut Vec<Diagnostic>) {
    let toks: Vec<_> = (file.tokens.iter())
        .filter(|t| t.is_significant())
        .collect();
    // Name of the `fn` whose signature is open (until its body's `{`).
    let mut open_fn: Option<&str> = None;
    for (i, t) in toks.iter().enumerate() {
        let text_at = |back: usize| i.checked_sub(back).map(|j| toks[j].text.as_str());
        match (t.kind, t.text.as_str()) {
            (Kind::Ident, "fn") => {
                let name = toks.get(i + 1).filter(|n| n.kind == Kind::Ident);
                open_fn = name.map(|n| n.text.as_str());
            }
            (Kind::Punct, "{") => open_fn = None,
            (Kind::Ident, "f64") if !file.lines[t.line - 1].in_test => {
                let name = match (text_at(2), text_at(1)) {
                    (name, Some(":")) => name,
                    (Some("-"), Some(">")) => open_fn,
                    _ => None,
                };
                if let Some((name, newtype)) = name.zip(name.and_then(unit_newtype)) {
                    out.push(Diagnostic::new(
                        &file.rel_path,
                        t.line,
                        UNIT_SAFETY,
                        format!(
                            "`{name}` carries a {} quantity as a raw `f64`; use the \
                             `{newtype}` newtype from powersim::units",
                            newtype.to_ascii_lowercase()
                        ),
                    ));
                }
            }
            _ => {}
        }
    }
}

// ---------------------------------------------------------------------------
// Hot-loop allocation
// ---------------------------------------------------------------------------

/// Allocation-shaped patterns flagged inside loop bodies: the cleaned
/// substring to match, the identifier token anchoring the site (whose
/// token-level loop depth gates the finding), and the verb used in the
/// message. The anchor matters: in `xs.iter().map(f).collect()` the
/// *closure body* runs per element but `.collect` itself runs once, and
/// its token sits at the chain's own depth, not inside the adapter
/// parentheses.
const ALLOC_TOKENS: &[(&str, &str, &str)] = &[
    ("Vec::new(", "new", "allocates an empty Vec"),
    ("vec![", "vec", "allocates a Vec"),
    (
        ".collect(",
        "collect",
        "allocates a fresh collection via collect",
    ),
    (
        ".collect::<",
        "collect",
        "allocates a fresh collection via collect",
    ),
    (".clone(", "clone", "deep-clones"),
    (".to_vec(", "to_vec", "copies into a new Vec"),
    (".to_owned(", "to_owned", "copies into an owned value"),
    ("format!(", "format", "allocates a String via format!"),
    ("Box::new(", "new", "heap-allocates via Box"),
];

/// Allocation-shaped calls inside loop bodies (or iterator-adapter
/// closures) of hot-path library code, and `.push` in a function that
/// never pre-sizes anything. A site is either fixed — hoisted, or
/// pre-sized with `with_capacity` — or registered in [`ALLOCS_ALLOW`].
pub(crate) fn hot_loop_alloc(file: &SourceFile, allow: &mut Allowlist, out: &mut Vec<Diagnostic>) {
    for (idx, line) in file.lines.iter().enumerate() {
        // The line's depth is the max over its tokens, so 0 means no
        // token on it can be inside a loop — a cheap pre-filter.
        if line.in_test || line.loop_depth == 0 {
            continue;
        }
        let mut flag = |depth: usize, message: String| {
            if allow.covers(&file.rel_path, &line.raw) {
                return;
            }
            let place = (line.fn_name.as_ref()).map_or(String::new(), |n| format!("in `{n}`, "));
            out.push(Diagnostic::new(
                &file.rel_path,
                line.number,
                HOT_LOOP_ALLOC,
                format!("{message} ({place}loop depth {depth})"),
            ));
        };
        for (pat, anchor, verb) in ALLOC_TOKENS {
            if !line.code.contains(pat) {
                continue;
            }
            let depth = anchor_depth(file, line.number, anchor);
            if depth > 0 {
                let display = pat.trim_end_matches('(').trim_end_matches("::<");
                flag(
                    depth,
                    format!(
                        "`{display}` {verb} inside a loop body; hoist the allocation out of \
                         the hot loop, pre-size it with `with_capacity`, or register the \
                         site in {ALLOCS_ALLOW}"
                    ),
                );
            }
        }
        // `.push(` is only a finding when the enclosing function never
        // pre-sizes anything: a `with_capacity` in the function is taken
        // as evidence the growth path was considered.
        if line.code.contains(".push(") && !fn_presizes(&file.lines, idx) {
            let depth = anchor_depth(file, line.number, "push");
            if depth > 0 {
                flag(
                    depth,
                    format!(
                        "`.push` grows a collection inside a loop and the enclosing function \
                         never calls `with_capacity`; reserve up front, or register the site \
                         in {ALLOCS_ALLOW}"
                    ),
                );
            }
        }
    }
}

/// Maximum token-level loop depth over the `anchor` identifier tokens on
/// line `line_no`; 0 when the identifier does not appear as a token
/// there (e.g. the match was inside a longer identifier).
fn anchor_depth(file: &SourceFile, line_no: usize, anchor: &str) -> usize {
    (file.tokens.iter().zip(&file.token_ctx))
        .filter(|(t, _)| t.line == line_no && t.kind == Kind::Ident && t.text == anchor)
        .map(|(_, ctx)| ctx.loop_depth)
        .max()
        .unwrap_or(0)
}

/// Does the function body around `lines[idx]` — the maximal run of lines
/// sharing its `fn_name` — mention `with_capacity`?
fn fn_presizes(lines: &[Line], idx: usize) -> bool {
    let same_fn = |l: &&Line| l.fn_name == lines[idx].fn_name;
    let before = lines[..idx].iter().rev().take_while(same_fn);
    let after = lines[idx..].iter().take_while(same_fn);
    before
        .chain(after)
        .any(|l| l.code.contains("with_capacity"))
}
