//! Goldens for the nasty corners of the `xtask::lex` tokenizer: the
//! exact token streams and cleaned line views the lint depends on. Each
//! case is a construct a per-line state machine either gets wrong or only
//! handles by luck.

use xtask::lex::{lex, Kind, SourceFile};

fn stream(text: &str) -> Vec<(Kind, String)> {
    lex(text)
        .into_iter()
        .filter(|t| t.kind != Kind::Ws)
        .map(|t| (t.kind, t.text))
        .collect()
}

fn cleaned(text: &str) -> Vec<String> {
    let file = SourceFile::parse("crates/vizalgo/src/x.rs", text);
    file.lines.into_iter().map(|l| l.code).collect()
}

#[test]
fn hashed_raw_strings_swallow_interior_quotes_and_hashes() {
    let got = stream("let s = r##\"quote \" and \"# still inside\"##;\n");
    assert_eq!(
        got,
        vec![
            (Kind::Ident, "let".into()),
            (Kind::Ident, "s".into()),
            (Kind::Punct, "=".into()),
            (
                Kind::RawStr,
                "r##\"quote \" and \"# still inside\"##".into()
            ),
            (Kind::Punct, ";".into()),
        ]
    );
    assert_eq!(
        cleaned("let s = r##\"quote \" and \"# still inside\"##;\n")[0],
        "let s = \"\";"
    );
}

#[test]
fn byte_strings_and_raw_byte_strings_are_string_tokens() {
    let got = stream("let a = b\"bytes \\\" esc\"; let b = br#\"say \"hi(\" ok\"#;\n");
    assert_eq!(got[3], (Kind::Str, "b\"bytes \\\" esc\"".into()));
    assert_eq!(got[8], (Kind::RawStr, "br#\"say \"hi(\" ok\"#".into()));
    // Both clean to an empty placeholder: no literal content may leak
    // into the code view the lints scan.
    assert_eq!(
        cleaned("let a = b\"x.unwrap()\"; let b = br#\"panic!(\"#;\n")[0],
        "let a = \"\"; let b = \"\";"
    );
}

#[test]
fn nested_block_comments_track_depth_not_first_terminator() {
    let text = "a /* outer /* inner */ tail */ b /* plain */ c\n";
    let got = stream(text);
    assert_eq!(
        got,
        vec![
            (Kind::Ident, "a".into()),
            (Kind::BlockComment, "/* outer /* inner */ tail */".into()),
            (Kind::Ident, "b".into()),
            (Kind::BlockComment, "/* plain */".into()),
            (Kind::Ident, "c".into()),
        ]
    );
    assert_eq!(cleaned(text)[0], "a  b  c");
}

#[test]
fn lifetimes_and_char_literals_disambiguate() {
    let text = "fn f<'a>(x: &'a str) -> char { let c = 'a'; let n = '\\n'; c }\n";
    let got = stream(text);
    let lifetimes: Vec<&String> = got
        .iter()
        .filter(|(k, _)| *k == Kind::Lifetime)
        .map(|(_, s)| s)
        .collect();
    let chars: Vec<&String> = got
        .iter()
        .filter(|(k, _)| *k == Kind::Char)
        .map(|(_, s)| s)
        .collect();
    assert_eq!(lifetimes, vec!["'a", "'a"]);
    assert_eq!(chars, vec!["'a'", "'\\n'"]);
    // Lifetimes survive in the code view; char contents do not.
    assert_eq!(
        cleaned(text)[0],
        "fn f<'a>(x: &'a str) -> char { let c = ' '; let n = ' '; c }"
    );
}

#[test]
fn tokens_carry_the_line_they_start_on() {
    let text = "let s = \"one\nstill literal\";\nlet x = 1;\n";
    let toks: Vec<_> = lex(text)
        .into_iter()
        .filter(|t| t.is_significant())
        .collect();
    let lit = toks.iter().find(|t| t.kind == Kind::Str).expect("literal");
    assert_eq!(lit.line, 1);
    let x = toks.iter().find(|t| t.text == "x").expect("x");
    assert_eq!(x.line, 3, "lines inside the literal still count");
}
