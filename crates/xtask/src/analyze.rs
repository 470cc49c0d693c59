//! `cargo xtask analyze` — the hot-path analyzer.
//!
//! Where `cargo xtask lint` enforces hard repo policies (violations fail
//! CI outright), `analyze` produces a *worklist*: findings that point at
//! cycles wasted or discipline bent on the measurement hot path. The
//! worklist is allowed to be non-empty — a committed
//! [`ANALYSIS_BASELINE`] pins the current finding count per pass, and
//! `--ratchet` fails only when a count **rises**. Fixed findings shrink
//! the baseline automatically (the same only-shrinks semantics as the
//! PR-1 allowlists), so the worklist monotonically drains as the perf
//! PRs land.
//!
//! Two passes, both scoped to the library code of
//! [`HOT_PATH_CRATES`]:
//!
//! * **hot-loop-alloc** — allocation-shaped tokens (`Vec::new`, `vec![`,
//!   `.collect`, `.clone()`, `.to_vec()`, `.to_owned()`, `format!`,
//!   `Box::new`, and `.push` in functions that never `with_capacity`)
//!   inside loop bodies, ranked by loop/closure nesting depth. This is
//!   the attack list for the raw-speed kernel pass.
//! * **span-discipline** — every journal span opened with a
//!   `let <ident-with-t0> = ….now();` binding must be closed by a
//!   `push_span(…)` that references the binding in the same function,
//!   with no early `return` between open and close. Protects the
//!   byte-identical journal goldens.
//!
//! (Parallel float-reduction order needs no pass: `vizmesh::par` has no
//! parallel reduce, so every combine is sequential by construction.)

use std::collections::BTreeMap;
use std::fmt;
use std::fs;
use std::io;
use std::path::Path;

use crate::lex;
use crate::policy::{is_lib_code_of, ANALYZE_EXEMPT_FILES, HOT_PATH_CRATES};
use crate::scan::{self, SourceFile};

/// Pass names, used in findings, the JSON report, and the baseline.
pub const HOT_LOOP_ALLOC: &str = "hot-loop-alloc";
pub const SPAN_DISCIPLINE: &str = "span-discipline";

/// Every analyze pass, in report order. The baseline carries one count
/// per entry, zeros included, so a pass going quiet is visible.
pub const PASSES: &[&str] = &[HOT_LOOP_ALLOC, SPAN_DISCIPLINE];

/// Version of the JSON report and baseline schema (see docs/ANALYZE.md).
pub const REPORT_SCHEMA: u32 = 1;

/// Workspace-relative path of the committed findings baseline.
pub const ANALYSIS_BASELINE: &str = "ANALYSIS_BASELINE.json";

/// One analyzer finding. Unlike a lint [`Diagnostic`](crate::diag::Diagnostic)
/// it carries hot-path context: the enclosing function and the loop
/// nesting depth used to rank the worklist.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    pub pass: &'static str,
    pub rel_path: String,
    pub line: usize,
    /// Innermost enclosing function, when the block model found one.
    pub fn_name: Option<String>,
    /// Loop/closure nesting depth at the site (0 outside loops).
    pub loop_depth: usize,
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.rel_path, self.line, self.pass, self.message
        )?;
        if let Some(name) = &self.fn_name {
            write!(f, " (in `{name}`")?;
            if self.loop_depth > 0 {
                write!(f, ", loop depth {}", self.loop_depth)?;
            }
            write!(f, ")")?;
        }
        Ok(())
    }
}

/// Result of a full workspace analysis.
#[derive(Debug)]
pub struct Analysis {
    /// All findings, in report order: pass, then loop depth descending
    /// (deepest nests are the hottest work), then path and line.
    pub findings: Vec<Finding>,
    pub files_scanned: usize,
}

impl Analysis {
    /// Finding count per pass; every pass is present, zeros included.
    pub fn counts(&self) -> BTreeMap<&'static str, usize> {
        let mut counts: BTreeMap<&'static str, usize> = PASSES.iter().map(|p| (*p, 0)).collect();
        for f in &self.findings {
            *counts.entry(f.pass).or_insert(0) += 1;
        }
        counts
    }
}

/// Order findings for stable output: pass, loop depth descending, path,
/// line.
pub fn sort(findings: &mut [Finding]) {
    findings.sort_by(|a, b| {
        (
            a.pass,
            std::cmp::Reverse(a.loop_depth),
            a.rel_path.as_str(),
            a.line,
        )
            .cmp(&(
                b.pass,
                std::cmp::Reverse(b.loop_depth),
                b.rel_path.as_str(),
                b.line,
            ))
    });
}

/// Run both passes over the hot-path library code under `root`.
pub fn analyze_workspace(root: &Path) -> io::Result<Analysis> {
    if !root.join("Cargo.toml").is_file() {
        return Err(io::Error::new(
            io::ErrorKind::NotFound,
            "not a workspace root (no Cargo.toml)",
        ));
    }
    let mut findings = Vec::new();
    let mut files_scanned = 0;
    for rel in scan::workspace_sources(root)? {
        if !is_lib_code_of(&rel, HOT_PATH_CRATES) || ANALYZE_EXEMPT_FILES.contains(&rel.as_str()) {
            continue;
        }
        let file = SourceFile::load(root, &rel)?;
        files_scanned += 1;
        analyze_file(&file, &mut findings);
    }
    sort(&mut findings);
    Ok(Analysis {
        findings,
        files_scanned,
    })
}

/// Run both passes over one cleaned file.
pub fn analyze_file(file: &SourceFile, out: &mut Vec<Finding>) {
    hot_loop_alloc(file, out);
    span_discipline(file, out);
}

/// Analyze a single source text under a virtual workspace-relative
/// path. This is the fixture-test entry point.
pub fn analyze_source(rel_path: &str, text: &str) -> Vec<Finding> {
    let file = SourceFile::parse(rel_path, text);
    let mut out = Vec::new();
    analyze_file(&file, &mut out);
    sort(&mut out);
    out
}

// ---------------------------------------------------------------------------
// hot-loop-alloc
// ---------------------------------------------------------------------------

/// Allocation-shaped patterns flagged inside loop bodies: the cleaned
/// substring to match, the identifier token anchoring the site (whose
/// token-level loop depth gates and ranks the finding), and the verb
/// used in the message. The anchor matters: in
/// `xs.iter().map(f).collect()` the *closure body* runs per element but
/// `.collect` itself runs once, and its token sits at the chain's own
/// depth, not inside the adapter parentheses.
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

pub fn hot_loop_alloc(file: &SourceFile, out: &mut Vec<Finding>) {
    let functions = function_runs(file);
    for line in &file.lines {
        // The line's depth is the max over its tokens, so 0 means no
        // token on it can be inside a loop — a cheap pre-filter.
        if line.in_test || line.loop_depth == 0 {
            continue;
        }
        for (pat, anchor, verb) in ALLOC_TOKENS {
            if !line.code.contains(pat) {
                continue;
            }
            let Some(depth) = anchor_depth(file, line.number, anchor) else {
                continue;
            };
            if depth == 0 {
                continue;
            }
            let display = pat.trim_end_matches('(').trim_end_matches("::<");
            push_finding(
                out,
                HOT_LOOP_ALLOC,
                file,
                line.number,
                depth,
                format!(
                    "`{display}` {verb} inside a loop body; hoist the allocation out of \
                     the hot loop or pre-size it with `with_capacity`"
                ),
            );
        }
        // `.push(` is only a finding when the enclosing function never
        // pre-sizes anything: a `with_capacity` in the function is taken
        // as evidence the growth path was considered.
        if line.code.contains(".push(") {
            let depth = anchor_depth(file, line.number, "push").unwrap_or(0);
            let presized = functions
                .iter()
                .find(|r| r.contains(line.number))
                .is_some_and(|r| r.has_token(file, "with_capacity"));
            if depth > 0 && !presized {
                push_finding(
                    out,
                    HOT_LOOP_ALLOC,
                    file,
                    line.number,
                    depth,
                    "`.push` grows a collection inside a loop and the enclosing function \
                     never calls `with_capacity`; reserve up front to avoid repeated \
                     reallocation on the hot path"
                        .to_string(),
                );
            }
        }
    }
}

/// Maximum token-level loop depth over the `anchor` identifier tokens on
/// line `line_no`, or `None` when the identifier does not appear as a
/// token there (e.g. the match was inside a longer identifier).
fn anchor_depth(file: &SourceFile, line_no: usize, anchor: &str) -> Option<usize> {
    let mut best = None;
    for (t, tc) in file.tokens.iter().zip(&file.token_ctx) {
        if t.line == line_no && t.kind == lex::Kind::Ident && t.text == anchor {
            best = Some(tc.loop_depth.max(best.unwrap_or(0)));
        }
    }
    best
}

// ---------------------------------------------------------------------------
// span-discipline
// ---------------------------------------------------------------------------

/// The lexical shape of a journal span: opened by binding `….now()` to a
/// `t0`-named local, closed by a `push_span(` statement that references
/// the binding. RAII guards (a `span_guard(` call) self-close.
const SPAN_OPEN_SUFFIX: &str = ".now()";
const SPAN_CLOSE: &str = "push_span(";
const SPAN_GUARD: &str = "span_guard(";

pub fn span_discipline(file: &SourceFile, out: &mut Vec<Finding>) {
    for run in function_runs(file) {
        let opens = span_opens(file, &run);
        if opens.is_empty() {
            continue;
        }
        // Collect the close statements of the function once: each is the
        // joined statement around a `push_span(` line.
        let mut closes: Vec<(usize, String)> = Vec::new();
        for idx in run.start_idx..=run.end_idx {
            let line = &file.lines[idx];
            if line.in_test || !line.code.contains(SPAN_CLOSE) {
                continue;
            }
            closes.push((line.number, file.statement_at(idx, 32)));
        }
        for (open_line, ident) in opens {
            let close_line = closes
                .iter()
                .find(|(_, stmt)| contains_ident(stmt, &ident))
                .map(|(n, _)| *n);
            let Some(close_line) = close_line else {
                push_finding(
                    out,
                    SPAN_DISCIPLINE,
                    file,
                    open_line,
                    file.lines[open_line - 1].loop_depth,
                    format!(
                        "journal span opened here (`{ident}` = ….now()) is never closed by \
                         a `push_span` referencing it in the same function; every open must \
                         reach a close or RAII guard on all paths"
                    ),
                );
                continue;
            };
            // An early `return` strictly between open and close exits the
            // function with the span still open on that path.
            for idx in run.start_idx..=run.end_idx {
                let line = &file.lines[idx];
                if line.number <= open_line || line.number >= close_line || line.in_test {
                    continue;
                }
                if contains_ident(&line.code, "return") {
                    push_finding(
                        out,
                        SPAN_DISCIPLINE,
                        file,
                        line.number,
                        line.loop_depth,
                        format!(
                            "early `return` between the open of journal span `{ident}` \
                             (line {open_line}) and its close (line {close_line}); the span \
                             leaks on this path"
                        ),
                    );
                }
            }
        }
    }
}

/// The `(line, ident)` of every span open in a function: a `let` binding
/// of a `t0`-named local to a `….now()` call. `t0` naming is the repo
/// idiom (`t0`, `cycle_t0`, …) and keeps unrelated clock reads (sample
/// timestamps) out of the pass. A `span_guard(` binding self-closes.
fn span_opens(file: &SourceFile, run: &FnRun) -> Vec<(usize, String)> {
    let mut opens = Vec::new();
    for idx in run.start_idx..=run.end_idx {
        let line = &file.lines[idx];
        if line.in_test {
            continue;
        }
        let trimmed = line.code.trim_start();
        let Some(rest) = trimmed.strip_prefix("let ") else {
            continue;
        };
        let stmt = file.statement_at(idx, 8);
        if !stmt.contains(SPAN_OPEN_SUFFIX) || stmt.contains(SPAN_GUARD) {
            continue;
        }
        let rest = rest.strip_prefix("mut ").unwrap_or(rest);
        let ident: String = rest
            .chars()
            .take_while(|c| c.is_alphanumeric() || *c == '_')
            .collect();
        if ident.contains("t0") {
            opens.push((line.number, ident));
        }
    }
    opens
}

/// True when `code` contains `ident` as a whole word.
fn contains_ident(code: &str, ident: &str) -> bool {
    let bytes = code.as_bytes();
    let mut search = 0;
    while let Some(pos) = code[search..].find(ident) {
        let at = search + pos;
        search = at + ident.len().max(1);
        let before = at.checked_sub(1).map(|i| bytes[i] as char);
        let after_idx = at + ident.len();
        let after = bytes.get(after_idx).map(|b| *b as char);
        let is_word = |c: Option<char>| c.is_some_and(|c| c.is_alphanumeric() || c == '_');
        if !is_word(before) && !is_word(after) {
            return true;
        }
    }
    false
}

// ---------------------------------------------------------------------------
// Function extents
// ---------------------------------------------------------------------------

/// A contiguous run of lines annotated with the same enclosing function
/// (0-based indices into `file.lines`).
struct FnRun {
    start_idx: usize,
    end_idx: usize,
}

impl FnRun {
    fn contains(&self, number: usize) -> bool {
        (self.start_idx + 1..=self.end_idx + 1).contains(&number)
    }

    fn has_token(&self, file: &SourceFile, token: &str) -> bool {
        file.lines[self.start_idx..=self.end_idx]
            .iter()
            .any(|l| l.code.contains(token))
    }
}

/// Group the file's lines into function bodies: maximal runs of
/// consecutive lines sharing one `fn_name` annotation.
fn function_runs(file: &SourceFile) -> Vec<FnRun> {
    let mut runs = Vec::new();
    let mut current: Option<(usize, &str)> = None;
    for (idx, line) in file.lines.iter().enumerate() {
        match (&current, line.fn_name.as_deref()) {
            (Some((_, cur)), Some(name)) if *cur == name => {}
            (Some((start, _)), name) => {
                runs.push(FnRun {
                    start_idx: *start,
                    end_idx: idx - 1,
                });
                current = name.map(|n| (idx, n));
            }
            (None, Some(name)) => current = Some((idx, name)),
            (None, None) => {}
        }
    }
    if let Some((start, _)) = current {
        runs.push(FnRun {
            start_idx: start,
            end_idx: file.lines.len() - 1,
        });
    }
    runs
}

fn push_finding(
    out: &mut Vec<Finding>,
    pass: &'static str,
    file: &SourceFile,
    number: usize,
    loop_depth: usize,
    message: String,
) {
    let line = &file.lines[number - 1];
    out.push(Finding {
        pass,
        rel_path: file.rel_path.clone(),
        line: number,
        fn_name: line.fn_name.clone(),
        loop_depth,
        message,
    });
}

// ---------------------------------------------------------------------------
// JSON report
// ---------------------------------------------------------------------------

/// Render the machine-readable report (schema [`REPORT_SCHEMA`],
/// documented in docs/ANALYZE.md). Dependency-free: the writer escapes
/// strings by hand and the structure is fixed.
pub fn to_json(analysis: &Analysis) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str(&format!("  \"schema\": {REPORT_SCHEMA},\n"));
    s.push_str("  \"tool\": \"xtask-analyze\",\n");
    s.push_str(&format!(
        "  \"files_scanned\": {},\n",
        analysis.files_scanned
    ));
    s.push_str("  \"counts\": {");
    let counts = analysis.counts();
    let rows: Vec<String> = counts
        .iter()
        .map(|(pass, n)| format!("\"{pass}\": {n}"))
        .collect();
    s.push_str(&rows.join(", "));
    s.push_str("},\n");
    s.push_str("  \"findings\": [\n");
    for (i, f) in analysis.findings.iter().enumerate() {
        s.push_str("    {");
        s.push_str(&format!("\"pass\": \"{}\", ", f.pass));
        s.push_str(&format!("\"path\": \"{}\", ", json_escape(&f.rel_path)));
        s.push_str(&format!("\"line\": {}, ", f.line));
        match &f.fn_name {
            Some(name) => s.push_str(&format!("\"fn\": \"{}\", ", json_escape(name))),
            None => s.push_str("\"fn\": null, "),
        }
        s.push_str(&format!("\"loop_depth\": {}, ", f.loop_depth));
        s.push_str(&format!("\"message\": \"{}\"", json_escape(&f.message)));
        s.push_str(if i + 1 == analysis.findings.len() {
            "}\n"
        } else {
            "},\n"
        });
    }
    s.push_str("  ]\n}\n");
    s
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Baseline + ratchet
// ---------------------------------------------------------------------------

/// The committed per-pass finding counts ([`ANALYSIS_BASELINE`]).
#[derive(Debug, Default, PartialEq, Eq)]
pub struct Baseline {
    pub counts: BTreeMap<String, usize>,
}

impl Baseline {
    /// Parse the baseline file. Deliberately tolerant (it only has to
    /// read what [`Baseline::render`] writes): scans `"pass": count`
    /// pairs inside the `"counts"` object.
    pub fn parse(text: &str) -> Option<Baseline> {
        let counts_at = text.find("\"counts\"")?;
        let body = &text[counts_at..];
        let open = body.find('{')?;
        let close = body[open..].find('}')? + open;
        let mut counts = BTreeMap::new();
        for pair in body[open + 1..close].split(',') {
            let (key, value) = pair.split_once(':')?;
            let key = key.trim().trim_matches('"').to_string();
            let value: usize = value.trim().parse().ok()?;
            counts.insert(key, value);
        }
        Some(Baseline { counts })
    }

    /// Render the committed form of a count table.
    pub fn render(counts: &BTreeMap<&'static str, usize>) -> String {
        let mut s = String::new();
        s.push_str("{\n");
        s.push_str(&format!("  \"schema\": {REPORT_SCHEMA},\n"));
        s.push_str("  \"tool\": \"xtask-analyze\",\n");
        s.push_str("  \"counts\": {\n");
        let rows: Vec<String> = counts
            .iter()
            .map(|(pass, n)| format!("    \"{pass}\": {n}"))
            .collect();
        s.push_str(&rows.join(",\n"));
        s.push_str("\n  }\n}\n");
        s
    }
}

/// Outcome of a ratchet comparison.
#[derive(Debug, PartialEq, Eq)]
pub enum Ratchet {
    /// Every pass matches the baseline exactly.
    Clean,
    /// Some passes improved; the new (smaller) counts that should be
    /// committed as the baseline.
    Tightened(Vec<(String, usize, usize)>),
    /// Some passes regressed (`pass, baseline, current`), or the
    /// baseline is missing a pass.
    Regressed(Vec<(String, usize, usize)>),
}

/// Compare current counts against a baseline. A regression anywhere
/// wins over improvements elsewhere: fix the regression first, then the
/// self-pruning rewrite picks up the improvements.
pub fn ratchet(baseline: &Baseline, counts: &BTreeMap<&'static str, usize>) -> Ratchet {
    let mut regressed = Vec::new();
    let mut tightened = Vec::new();
    for (pass, &current) in counts {
        match baseline.counts.get(*pass) {
            None => regressed.push((pass.to_string(), 0, current)),
            Some(&base) if current > base => {
                regressed.push((pass.to_string(), base, current));
            }
            Some(&base) if current < base => {
                tightened.push((pass.to_string(), base, current));
            }
            Some(_) => {}
        }
    }
    if !regressed.is_empty() {
        Ratchet::Regressed(regressed)
    } else if !tightened.is_empty() {
        Ratchet::Tightened(tightened)
    } else {
        Ratchet::Clean
    }
}

/// Load the committed baseline under `root`, if present.
pub fn load_baseline(root: &Path) -> Option<Baseline> {
    let text = fs::read_to_string(root.join(ANALYSIS_BASELINE)).ok()?;
    Baseline::parse(&text)
}

/// Write `counts` as the committed baseline under `root`.
pub fn write_baseline(root: &Path, counts: &BTreeMap<&'static str, usize>) -> io::Result<()> {
    fs::write(root.join(ANALYSIS_BASELINE), Baseline::render(counts))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_round_trips_through_render_and_parse() {
        let mut counts = BTreeMap::new();
        for (i, pass) in PASSES.iter().enumerate() {
            counts.insert(*pass, i * 3);
        }
        let parsed = Baseline::parse(&Baseline::render(&counts)).expect("parse rendered");
        let expected: BTreeMap<String, usize> =
            counts.iter().map(|(k, v)| (k.to_string(), *v)).collect();
        assert_eq!(parsed.counts, expected);
    }

    #[test]
    fn ratchet_classifies_rise_fall_and_match() {
        let mut counts: BTreeMap<&'static str, usize> = PASSES.iter().map(|p| (*p, 2)).collect();
        let base = Baseline::parse(&Baseline::render(&counts)).expect("baseline");
        assert_eq!(ratchet(&base, &counts), Ratchet::Clean);

        counts.insert(HOT_LOOP_ALLOC, 3);
        let Ratchet::Regressed(r) = ratchet(&base, &counts) else {
            panic!("rise must regress");
        };
        assert_eq!(r, vec![(HOT_LOOP_ALLOC.to_string(), 2, 3)]);

        counts.insert(HOT_LOOP_ALLOC, 1);
        let Ratchet::Tightened(t) = ratchet(&base, &counts) else {
            panic!("fall must tighten");
        };
        assert_eq!(t, vec![(HOT_LOOP_ALLOC.to_string(), 2, 1)]);
    }

    #[test]
    fn ratchet_treats_a_missing_pass_as_zero_baseline() {
        let base = Baseline::parse("{\"counts\": {\"hot-loop-alloc\": 1}}").expect("baseline");
        let counts: BTreeMap<&'static str, usize> = PASSES.iter().map(|p| (*p, 0)).collect();
        let Ratchet::Regressed(r) = ratchet(&base, &counts) else {
            panic!("missing pass must force a re-pin");
        };
        assert!(r.iter().all(|(_, base, _)| *base == 0));
    }
}
