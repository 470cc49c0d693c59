//! The repo-specific lint pass, unit-safety: it takes a cleaned
//! [`SourceFile`] and appends [`Diagnostic`]s.

use crate::diag::{Diagnostic, UNIT_SAFETY};
use crate::scan::SourceFile;

/// Files exempt from the unit-safety lint: the newtype definitions
/// themselves, whose internals are raw `f64` by construction.
const UNIT_EXEMPT_FILES: &[&str] = &["crates/powersim/src/units.rs"];

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
    if UNIT_EXEMPT_FILES.contains(&file.rel_path.as_str()) {
        return;
    }
    let words = file.words();
    // Name of the `fn` whose signature is open (until its body's `{`).
    let mut open_fn: Option<&str> = None;
    for (i, &(line, word)) in words.iter().enumerate() {
        let word_at = |back: usize| i.checked_sub(back).map(|j| words[j].1);
        match word {
            "fn" => {
                let name = words.get(i + 1).map(|&(_, name)| name);
                open_fn = name.filter(|n| n.starts_with(|c: char| c.is_alphabetic() || c == '_'));
            }
            "{" => open_fn = None,
            "f64" if !file.lines[line - 1].in_test => {
                let name = match (word_at(2), word_at(1)) {
                    (name, Some(":")) => name,
                    (Some("-"), Some(">")) => open_fn,
                    _ => None,
                };
                if let Some((name, newtype)) = name.zip(name.and_then(unit_newtype)) {
                    out.push(Diagnostic::new(
                        &file.rel_path,
                        line,
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
