//! Tokenizer shared by the SPARQL pattern parser and the OASSIS-QL parser.
//!
//! Names are bare identifiers (`Attraction`, `doAt`) or angle-bracketed when
//! they contain spaces or punctuation (`<Central Park>`, `<Maoz Veg.>`).
//! Variables are `$ident`; string literals are double-quoted; `[]` is the
//! blank term; `*`, `+`, `?` modify paths or multiplicities; `.` separates
//! patterns; `=` and numbers appear in `WITH SUPPORT = 0.4`; `{`/`}` delimit
//! explicit multiplicities and group graph patterns; `(`/`)`, `,` and `!=`
//! appear in `FILTER` expressions; `/` and `|` build property paths.

use crate::error::{Span, SparqlError};

/// A lexical token with its 1-based source line and byte span (for error
/// messages that can point back into the source text).
#[derive(Debug, Clone, PartialEq)]
pub struct Token {
    /// The token kind and payload.
    pub kind: TokenKind,
    /// 1-based line number where the token starts.
    pub line: usize,
    /// Byte range the token occupies in the source.
    pub span: Span,
}

/// Token kinds.
#[derive(Debug, Clone, PartialEq)]
pub enum TokenKind {
    /// Bare or angle-bracketed name (also used for language keywords).
    Name(String),
    /// `$x` — a variable (payload excludes the sigil).
    Var(String),
    /// `"..."` — a string literal (payload excludes the quotes).
    Literal(String),
    /// `[]` — the blank / don't-care term.
    Blank,
    /// `.` — pattern separator.
    Dot,
    /// `*`
    Star,
    /// `+`
    Plus,
    /// `?`
    Question,
    /// `=`
    Equals,
    /// `!=`
    NotEquals,
    /// `{`
    LBrace,
    /// `}`
    RBrace,
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `/` — property-path sequence.
    Slash,
    /// `|` — property-path alternation.
    Pipe,
    /// `,` — list separator inside `FILTER (... IN (a, b))`.
    Comma,
    /// An unsigned decimal number, kept as text (`0.4`, `12`).
    Number(String),
}

impl TokenKind {
    /// The name payload, if this token is a name.
    pub fn as_name(&self) -> Option<&str> {
        match self {
            TokenKind::Name(n) => Some(n),
            _ => None,
        }
    }
}

fn is_name_char(c: char) -> bool {
    c.is_alphanumeric() || c == '_' || c == '-'
}

/// Tokenize `src`. Comments run from `#` to end of line.
pub fn tokenize(src: &str) -> Result<Vec<Token>, SparqlError> {
    let mut out = Vec::new();
    let mut line = 1usize;
    let mut chars = src.char_indices().peekable();
    // Byte offset at the cursor (== src.len() when exhausted).
    macro_rules! at {
        () => {
            chars.peek().map_or(src.len(), |&(i, _)| i)
        };
    }
    while let Some(&(start, c)) = chars.peek() {
        // Single-character punctuation shares one emission path.
        let mut punct =
            |kind: TokenKind, chars: &mut std::iter::Peekable<std::str::CharIndices>| {
                chars.next();
                let end = chars.peek().map_or(src.len(), |&(i, _)| i);
                out.push(Token {
                    kind,
                    line,
                    span: Span::new(start, end),
                });
            };
        match c {
            '\n' => {
                line += 1;
                chars.next();
            }
            c if c.is_whitespace() => {
                chars.next();
            }
            '#' => {
                for (_, c) in chars.by_ref() {
                    if c == '\n' {
                        line += 1;
                        break;
                    }
                }
            }
            '$' => {
                chars.next();
                let mut name = String::new();
                while let Some(&(_, c)) = chars.peek() {
                    if is_name_char(c) {
                        name.push(c);
                        chars.next();
                    } else {
                        break;
                    }
                }
                if name.is_empty() {
                    return Err(SparqlError::Lex {
                        line,
                        span: Span::new(start, at!()),
                        msg: "expected variable name after `$`".into(),
                    });
                }
                out.push(Token {
                    kind: TokenKind::Var(name),
                    line,
                    span: Span::new(start, at!()),
                });
            }
            '"' => {
                chars.next();
                let mut s = String::new();
                let mut closed = false;
                for (_, c) in chars.by_ref() {
                    if c == '"' {
                        closed = true;
                        break;
                    }
                    if c == '\n' {
                        line += 1;
                    }
                    s.push(c);
                }
                if !closed {
                    return Err(SparqlError::Lex {
                        line,
                        span: Span::new(start, at!()),
                        msg: "unterminated string literal".into(),
                    });
                }
                out.push(Token {
                    kind: TokenKind::Literal(s),
                    line,
                    span: Span::new(start, at!()),
                });
            }
            '<' => {
                chars.next();
                let mut s = String::new();
                let mut closed = false;
                for (_, c) in chars.by_ref() {
                    if c == '>' {
                        closed = true;
                        break;
                    }
                    if c == '\n' {
                        line += 1;
                    }
                    s.push(c);
                }
                if !closed || s.trim().is_empty() {
                    return Err(SparqlError::Lex {
                        line,
                        span: Span::new(start, at!()),
                        msg: "unterminated or empty `<...>` name".into(),
                    });
                }
                out.push(Token {
                    kind: TokenKind::Name(s.trim().to_owned()),
                    line,
                    span: Span::new(start, at!()),
                });
            }
            '[' => {
                chars.next();
                if chars.next().map(|(_, c)| c) != Some(']') {
                    return Err(SparqlError::Lex {
                        line,
                        span: Span::new(start, at!()),
                        msg: "expected `]` after `[`".into(),
                    });
                }
                out.push(Token {
                    kind: TokenKind::Blank,
                    line,
                    span: Span::new(start, at!()),
                });
            }
            '!' => {
                chars.next();
                if chars.peek().map(|&(_, c)| c) == Some('=') {
                    chars.next();
                    out.push(Token {
                        kind: TokenKind::NotEquals,
                        line,
                        span: Span::new(start, at!()),
                    });
                } else {
                    return Err(SparqlError::Lex {
                        line,
                        span: Span::new(start, at!()),
                        msg: "expected `=` after `!`".into(),
                    });
                }
            }
            '.' => punct(TokenKind::Dot, &mut chars),
            '*' => punct(TokenKind::Star, &mut chars),
            '+' => punct(TokenKind::Plus, &mut chars),
            '?' => punct(TokenKind::Question, &mut chars),
            '=' => punct(TokenKind::Equals, &mut chars),
            '{' => punct(TokenKind::LBrace, &mut chars),
            '}' => punct(TokenKind::RBrace, &mut chars),
            '(' => punct(TokenKind::LParen, &mut chars),
            ')' => punct(TokenKind::RParen, &mut chars),
            '/' => punct(TokenKind::Slash, &mut chars),
            '|' => punct(TokenKind::Pipe, &mut chars),
            ',' => punct(TokenKind::Comma, &mut chars),
            c if c.is_ascii_digit() => {
                let mut s = String::new();
                while let Some(&(_, c)) = chars.peek() {
                    if c.is_ascii_digit() {
                        s.push(c);
                        chars.next();
                    } else {
                        break;
                    }
                }
                // A fractional part: only consume the `.` if a digit follows,
                // so `5.` still lexes as number-then-separator.
                let mut look = chars.clone();
                if look.next().map(|(_, c)| c) == Some('.') {
                    if let Some((_, d)) = look.next() {
                        if d.is_ascii_digit() {
                            s.push('.');
                            chars.next();
                            while let Some(&(_, c)) = chars.peek() {
                                if c.is_ascii_digit() {
                                    s.push(c);
                                    chars.next();
                                } else {
                                    break;
                                }
                            }
                        }
                    }
                }
                out.push(Token {
                    kind: TokenKind::Number(s),
                    line,
                    span: Span::new(start, at!()),
                });
            }
            c if is_name_char(c) => {
                let mut s = String::new();
                while let Some(&(_, c)) = chars.peek() {
                    if is_name_char(c) {
                        s.push(c);
                        chars.next();
                    } else {
                        break;
                    }
                }
                out.push(Token {
                    kind: TokenKind::Name(s),
                    line,
                    span: Span::new(start, at!()),
                });
            }
            other => {
                return Err(SparqlError::Lex {
                    line,
                    span: Span::new(start, start + other.len_utf8()),
                    msg: format!("unexpected character {other:?}"),
                });
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<TokenKind> {
        tokenize(src).unwrap().into_iter().map(|t| t.kind).collect()
    }

    #[test]
    fn basic_pattern_line() {
        use TokenKind::*;
        assert_eq!(
            kinds("$w subClassOf* Attraction."),
            vec![
                Var("w".into()),
                Name("subClassOf".into()),
                Star,
                Name("Attraction".into()),
                Dot
            ]
        );
    }

    #[test]
    fn angle_names_and_literals() {
        use TokenKind::*;
        assert_eq!(
            kinds(r#"$x hasLabel "child-friendly". <Maoz Veg.> nearBy $x"#),
            vec![
                Var("x".into()),
                Name("hasLabel".into()),
                Literal("child-friendly".into()),
                Dot,
                Name("Maoz Veg.".into()),
                Name("nearBy".into()),
                Var("x".into()),
            ]
        );
    }

    #[test]
    fn blank_and_multiplicity_tokens() {
        use TokenKind::*;
        assert_eq!(
            kinds("$y+ doAt $x. [] eatAt $z"),
            vec![
                Var("y".into()),
                Plus,
                Name("doAt".into()),
                Var("x".into()),
                Dot,
                Blank,
                Name("eatAt".into()),
                Var("z".into()),
            ]
        );
    }

    #[test]
    fn numbers_and_equals() {
        use TokenKind::*;
        assert_eq!(
            kinds("WITH SUPPORT = 0.4"),
            vec![
                Name("WITH".into()),
                Name("SUPPORT".into()),
                Equals,
                Number("0.4".into())
            ]
        );
        assert_eq!(kinds("{2}"), vec![LBrace, Number("2".into()), RBrace]);
    }

    #[test]
    fn filter_and_path_tokens() {
        use TokenKind::*;
        assert_eq!(
            kinds("FILTER($x != Biking). $a inside/nearBy|doAt $b"),
            vec![
                Name("FILTER".into()),
                LParen,
                Var("x".into()),
                NotEquals,
                Name("Biking".into()),
                RParen,
                Dot,
                Var("a".into()),
                Name("inside".into()),
                Slash,
                Name("nearBy".into()),
                Pipe,
                Name("doAt".into()),
                Var("b".into()),
            ]
        );
        assert_eq!(
            kinds("IN (NYC, Park)"),
            vec![
                Name("IN".into()),
                LParen,
                Name("NYC".into()),
                Comma,
                Name("Park".into()),
                RParen,
            ]
        );
    }

    #[test]
    fn integer_followed_by_dot_separator() {
        use TokenKind::*;
        assert_eq!(
            kinds("5. x"),
            vec![Number("5".into()), Dot, Name("x".into())]
        );
    }

    #[test]
    fn comments_are_skipped_and_lines_tracked() {
        let toks = tokenize("# hi\n$x doAt $y\n$z").unwrap();
        assert_eq!(toks[0].line, 2);
        assert_eq!(toks.last().unwrap().line, 3);
    }

    #[test]
    fn byte_spans_point_into_the_source() {
        let src = "$x doAt <Central Park>";
        let toks = tokenize(src).unwrap();
        assert_eq!(&src[toks[0].span.start..toks[0].span.end], "$x");
        assert_eq!(&src[toks[1].span.start..toks[1].span.end], "doAt");
        assert_eq!(&src[toks[2].span.start..toks[2].span.end], "<Central Park>");
    }

    #[test]
    fn lex_errors() {
        assert!(tokenize("$ x").is_err());
        assert!(tokenize("\"unterminated").is_err());
        assert!(tokenize("<unclosed").is_err());
        assert!(tokenize("[x]").is_err());
        assert!(tokenize("%").is_err());
        assert!(tokenize("<  >").is_err());
        assert!(tokenize("! x").is_err(), "lone `!` is not a token");
    }
}
