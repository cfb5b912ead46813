//! Structure recovery over the raw token stream: comment side-tables,
//! `qr2-allow` directives, function-body extraction with `#[cfg(test)]`
//! tracking, and the line spans of test items.
//!
//! This is deliberately not a parser. It walks the token stream once,
//! tracking brace depth and attribute spans, and recovers exactly the
//! structure the checkers need: *which tokens belong to which function
//! body* and *whether that body is test code*.

use crate::lexer::{TokKind, Token};

/// One `// qr2-allow: <check> <reason>` escape-hatch directive.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AllowDirective {
    /// The check being allowed (e.g. `panic-path`).
    pub check: String,
    /// The mandatory free-text justification.
    pub reason: String,
    /// Line the directive comment sits on.
    pub line: u32,
}

/// A function body found in a file.
#[derive(Debug)]
pub struct FnBody {
    /// The function's name.
    pub name: String,
    /// Index (into the code token slice) of the opening `{`.
    pub open: usize,
    /// Index of the matching `}`.
    pub close: usize,
    /// True when the function lives under `#[cfg(test)]` / `#[test]`.
    pub is_test: bool,
}

/// The parsed shape of one source file.
pub struct FileScope {
    /// Tokens with comments stripped (what the checkers walk).
    pub code: Vec<Token>,
    /// `qr2-allow` directives found in comments.
    pub allows: Vec<AllowDirective>,
    /// Lines on which a doc comment (`///`, `//!`, `/** */`) ends.
    pub doc_lines: Vec<u32>,
    /// Function bodies, outermost first.
    pub functions: Vec<FnBody>,
    /// Line spans (first, last; inclusive) of the top-level test items:
    /// each `#[test]` / `#[cfg(test)]` item from its attribute to its
    /// closing `}` or `;`.
    pub test_spans: Vec<(u32, u32)>,
}

impl FileScope {
    /// Non-blank lines of `source` (the text this scope was scanned from)
    /// outside every test item: the file's non-test line count.
    pub fn non_test_lines(&self, source: &str) -> usize {
        source
            .lines()
            .zip(1u32..)
            .filter(|(text, line)| {
                !text.trim().is_empty()
                    && !self
                        .test_spans
                        .iter()
                        .any(|(first, last)| (first..=last).contains(&line))
            })
            .count()
    }
}

const ALLOW_PREFIX: &str = "qr2-allow:";

/// Split `tokens` into code and comment side-tables and find function
/// bodies. `tokens` must come from [`crate::lexer::tokenize`].
pub fn scan(tokens: Vec<Token>) -> FileScope {
    let mut code = Vec::with_capacity(tokens.len());
    let mut allows = Vec::new();
    let mut doc_lines = Vec::new();
    for tok in tokens {
        match tok.kind {
            TokKind::LineComment | TokKind::BlockComment => {
                if tok.is_outer_doc_comment() {
                    let extra = tok.text.matches('\n').count() as u32;
                    doc_lines.push(tok.line + extra);
                }
                if let Some(at) = tok.text.find(ALLOW_PREFIX) {
                    let rest = tok.text[at + ALLOW_PREFIX.len()..].trim();
                    let rest = rest.trim_end_matches("*/").trim();
                    let (check, reason) = match rest.split_once(char::is_whitespace) {
                        Some((c, r)) => (c.to_string(), r.trim().to_string()),
                        None => (rest.to_string(), String::new()),
                    };
                    allows.push(AllowDirective {
                        check,
                        reason,
                        line: tok.line,
                    });
                }
            }
            _ => code.push(tok),
        }
    }
    let functions = find_functions(&code);
    let test_spans = find_test_spans(&code);
    FileScope {
        code,
        allows,
        doc_lines,
        functions,
        test_spans,
    }
}

/// When an attribute `#[…]` starts at `code[i]`, the index just past its
/// closing `]`.
fn attribute_end(code: &[Token], i: usize) -> Option<usize> {
    if !(code[i].is_punct('#') && code.get(i + 1).is_some_and(|t| t.is_punct('['))) {
        return None;
    }
    let mut depth = 1usize;
    let mut j = i + 2;
    while j < code.len() && depth > 0 {
        if code[j].is_punct('[') {
            depth += 1;
        } else if code[j].is_punct(']') {
            depth -= 1;
        }
        j += 1;
    }
    Some(j)
}

/// The line spans of the top-level test items in `code` (see
/// [`FileScope::test_spans`]). An item ends at the first `;` outside
/// brackets, or at the brace matching its first `{` outside brackets.
fn find_test_spans(code: &[Token]) -> Vec<(u32, u32)> {
    let mut spans = Vec::new();
    let mut i = 0usize;
    while i < code.len() {
        let Some(after) = attribute_end(code, i) else {
            i += 1;
            continue;
        };
        if !attr_is_test(&code[i + 2..after.saturating_sub(1)]) {
            i = after;
            continue;
        }
        let mut j = after;
        let mut depth = 0i32;
        while j < code.len() {
            let c = &code[j];
            if c.is_punct('(') || c.is_punct('[') {
                depth += 1;
            } else if c.is_punct(')') || c.is_punct(']') {
                depth -= 1;
            } else if depth == 0 && c.is_punct(';') {
                break;
            } else if depth == 0 && c.is_punct('{') {
                let mut braces = 0i32;
                while j < code.len() {
                    if code[j].is_punct('{') {
                        braces += 1;
                    } else if code[j].is_punct('}') {
                        braces -= 1;
                        if braces == 0 {
                            break;
                        }
                    }
                    j += 1;
                }
                break;
            }
            j += 1;
        }
        let end = j.min(code.len() - 1);
        spans.push((code[i].line, code[end].line));
        i = end + 1;
    }
    spans
}

/// True when the attribute tokens between `[` and `]` mark test code:
/// `#[test]`, `#[cfg(test)]`, `#[cfg(any(test, …))]`, `#[tokio::test]`.
fn attr_is_test(attr: &[Token]) -> bool {
    let has = |s: &str| attr.iter().any(|t| t.is_ident(s));
    has("test") || (has("cfg") && has("test"))
}

/// Walk the code tokens, recovering function bodies and the test-ness of
/// the item tree above them.
fn find_functions(code: &[Token]) -> Vec<FnBody> {
    let mut out = Vec::new();
    // Each open brace pushes: is this brace a scope that makes everything
    // inside it test code?
    let mut test_depth: Vec<bool> = Vec::new();
    // Attributes seen since the last item boundary, pending application.
    let mut pending_test = false;
    let mut i = 0usize;
    while i < code.len() {
        let t = &code[i];
        if let Some(j) = attribute_end(code, i) {
            // Attribute: check for test markers.
            if attr_is_test(&code[i + 2..j.saturating_sub(1)]) {
                pending_test = true;
            }
            i = j;
            continue;
        }
        if t.is_punct('{') {
            test_depth.push(pending_test || in_test(&test_depth));
            pending_test = false;
            i += 1;
            continue;
        }
        if t.is_punct('}') {
            test_depth.pop();
            i += 1;
            continue;
        }
        if t.is_punct(';') {
            // An attribute can only apply to the *next* item, and a `;`
            // ends the current one (e.g. `#[cfg(test)] mod tests;`).
            pending_test = false;
            i += 1;
            continue;
        }
        if t.is_ident("fn")
            && code
                .get(i + 1)
                .map(|t| t.kind == TokKind::Ident)
                .unwrap_or(false)
        {
            let name = code[i + 1].text.clone();
            let is_test = pending_test || in_test(&test_depth);
            pending_test = false;
            // Find the body `{` at bracket/paren depth 0, or a `;` (trait
            // method declaration, no body).
            let mut j = i + 2;
            let mut depth = 0i32;
            let mut open = None;
            while j < code.len() {
                let c = &code[j];
                if c.is_punct('(') || c.is_punct('[') {
                    depth += 1;
                } else if c.is_punct(')') || c.is_punct(']') {
                    depth -= 1;
                } else if depth == 0 && c.is_punct(';') {
                    break;
                } else if depth == 0 && c.is_punct('{') {
                    open = Some(j);
                    break;
                }
                j += 1;
            }
            let Some(open) = open else {
                i += 2;
                continue;
            };
            // Find the matching close brace.
            let mut depth = 1i32;
            let mut k = open + 1;
            while k < code.len() && depth > 0 {
                if code[k].is_punct('{') {
                    depth += 1;
                } else if code[k].is_punct('}') {
                    depth -= 1;
                }
                k += 1;
            }
            let close = k.saturating_sub(1);
            out.push(FnBody {
                name,
                open,
                close,
                is_test,
            });
            // Continue scanning *inside* the body too (nested fns, and the
            // brace-tracking loop needs to see every `{`/`}`), so do not
            // skip ahead; just move past `fn name`.
            i += 2;
            continue;
        }
        i += 1;
    }
    out
}

fn in_test(stack: &[bool]) -> bool {
    stack.last().copied().unwrap_or(false)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::tokenize;

    #[test]
    fn finds_functions_and_testness() {
        let src = r#"
            pub fn serve(x: usize) -> usize { x + 1 }
            #[cfg(test)]
            mod tests {
                fn helper() {}
                #[test]
                fn check() { helper(); }
            }
            fn also_prod() {}
        "#;
        let scope = scan(tokenize(src));
        let names: Vec<(&str, bool)> = scope
            .functions
            .iter()
            .map(|f| (f.name.as_str(), f.is_test))
            .collect();
        assert_eq!(
            names,
            [
                ("serve", false),
                ("helper", true),
                ("check", true),
                ("also_prod", false)
            ]
        );
    }

    #[test]
    fn trait_decls_without_bodies_are_skipped() {
        let src = "trait T { fn a(&self); fn b(&self) -> usize { 1 } }";
        let scope = scan(tokenize(src));
        assert_eq!(scope.functions.len(), 1);
        assert_eq!(scope.functions[0].name, "b");
    }

    #[test]
    fn allow_directives_parse() {
        let src = "let x = 1; // qr2-allow: panic-path boot path only\n";
        let scope = scan(tokenize(src));
        assert_eq!(
            scope.allows,
            [AllowDirective {
                check: "panic-path".into(),
                reason: "boot path only".into(),
                line: 1
            }]
        );
    }

    #[test]
    fn doc_lines_recorded_at_comment_end() {
        let src = "/// one\n/// two\npub fn f() {}\n";
        let scope = scan(tokenize(src));
        assert_eq!(scope.doc_lines, [1, 2]);
    }

    #[test]
    fn test_items_are_left_out_of_the_line_count() {
        let src = "\
/// Doc.
pub fn serve() {}

#[test]
fn check() {
    serve();
}
#[cfg(test)]
mod tests;
#[cfg(test)]
mod more {
    fn helper() {}
}
fn also_prod() {}
";
        let scope = scan(tokenize(src));
        assert_eq!(scope.test_spans, [(4, 7), (8, 9), (10, 13)]);
        assert_eq!(scope.non_test_lines(src), 3);
    }

    #[test]
    fn attr_before_semicolon_item_does_not_leak() {
        let src = "#[cfg(test)]\nmod tests;\nfn prod() {}";
        let scope = scan(tokenize(src));
        assert_eq!(scope.functions.len(), 1);
        assert!(!scope.functions[0].is_test);
    }
}
