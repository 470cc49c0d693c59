//! `cargo xtask count`: the size the ROADMAP's "shrink the surface"
//! items are measured in, so two sessions counting the same tree agree.
//!
//! The rule, over every `src/**/*.rs` of the root package and of each
//! crate under `crates/` (the analyzer included; the same files
//! `cargo xtask lint` reads): a **non-test line** is any physical line
//! outside a `#[cfg(test)]` item — blank and comment lines count, because
//! deleting a doc comment is not a simplification and should not be
//! hidden by the metric either way; a **`pub` item** is a non-test line
//! whose cleaned code (comments and literal contents gone) opens with
//! `pub` followed by an item keyword (`pub(crate)` items and `pub` struct
//! fields are not counted).

use std::io;
use std::path::Path;

use crate::scan::{self, SourceFile};

/// Keywords that can follow `pub` at the start of an item declaration.
const ITEM_KEYWORDS: [&str; 13] = [
    "fn", "struct", "enum", "trait", "const", "static", "type", "mod", "use", "unsafe", "async",
    "union", "extern",
];

/// The size of one package.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Count {
    /// Directory name under `crates/`, or `(root)` for the root package.
    pub package: String,
    /// Physical lines outside `#[cfg(test)]` items.
    pub lines: usize,
    /// `pub` item declarations outside `#[cfg(test)]` items.
    pub pub_items: usize,
}

/// `(non-test lines, pub items)` of one cleaned file.
fn count_file(file: &SourceFile) -> (usize, usize) {
    let live = file.lines.iter().filter(|l| !l.in_test);
    let pub_items = live.clone().filter(|l| is_pub_item(&l.code)).count();
    (live.count(), pub_items)
}

fn is_pub_item(code: &str) -> bool {
    let mut words = code.split_whitespace();
    words.next() == Some("pub") && words.next().is_some_and(|w| ITEM_KEYWORDS.contains(&w))
}

/// Returns the crate name (directory under `crates/`) for a
/// workspace-relative path, or `None` for the root package.
fn crate_of(rel_path: &str) -> Option<&str> {
    let rest = rel_path.strip_prefix("crates/")?;
    rest.split('/').next()
}

/// One [`Count`] per package under `root`, in path order (`crates/*`,
/// then the root package), without a total row.
pub fn count_workspace(root: &Path) -> io::Result<Vec<Count>> {
    let mut counts: Vec<Count> = Vec::new();
    for rel in scan::sources(root)? {
        let (lines, pub_items) = count_file(&SourceFile::load(root, &rel)?);
        let package = crate_of(&rel).unwrap_or("(root)");
        match counts.last_mut() {
            Some(c) if c.package == package => {
                c.lines += lines;
                c.pub_items += pub_items;
            }
            _ => counts.push(Count {
                package: package.to_string(),
                lines,
                pub_items,
            }),
        }
    }
    Ok(counts)
}

/// The table `cargo xtask count` prints: one row per package and a total.
pub fn render(counts: &[Count]) -> String {
    let mut out = format!(
        "{:<14} {:>14} {:>10}\n",
        "package", "non-test lines", "pub items"
    );
    let (mut lines, mut pub_items) = (0, 0);
    for c in counts {
        out.push_str(&format!(
            "{:<14} {:>14} {:>10}\n",
            c.package, c.lines, c.pub_items
        ));
        lines += c.lines;
        pub_items += c.pub_items;
    }
    out.push_str(&format!(
        "{:<14} {:>14} {:>10}\n",
        "total", lines, pub_items
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_skip_test_items_and_non_item_pubs() {
        let text = "\
//! Docs count.

pub struct S {
    pub field: u32,
}
pub(crate) fn hidden() {}
pub const fn shown() {}
#[cfg(test)]
mod tests {
    pub fn in_test() {}
}
";
        let file = SourceFile::parse("crates/vizalgo/src/x.rs", text);
        assert_eq!(count_file(&file), (7, 2));
    }

    #[test]
    fn render_totals_the_rows() {
        let row = |package: &str, lines, pub_items| Count {
            package: package.to_string(),
            lines,
            pub_items,
        };
        let table = render(&[row("(root)", 10, 1), row("vizalgo", 32, 4)]);
        assert!(
            table.ends_with(&format!("{:<14} {:>14} {:>10}\n", "total", 42, 5)),
            "{table}"
        );
        assert_eq!(table.lines().count(), 4);
    }
}
