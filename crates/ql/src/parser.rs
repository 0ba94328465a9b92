//! Parser for complete OASSIS-QL queries.
//!
//! ```text
//! query      := SELECT (FACT-SETS | VARIABLES) ALL?
//!               WHERE where-clause?
//!               SATISFYING satpattern (DOT satpattern)* (DOT MORE)? DOT?
//!               WITH SUPPORT = number
//! satpattern := term mult? relpos term mult?
//! term       := VAR | NAME | '[]'
//! relpos     := NAME | VAR | '[]'
//! mult       := '+' | '*' | '?' | '{' INT '}'
//! ```
//!
//! The `where-clause` production is the full SPARQL fragment of
//! `oassis-sparql` — group patterns with `UNION` / `OPTIONAL` / `FILTER`,
//! property paths (`*`, `+`, `?`, `/`, `|`), and the solution modifiers
//! `DISTINCT` / `ORDER BY` / `LIMIT` / `OFFSET` — delegated to
//! [`PatternParser::where_clause`].
//!
//! Keywords are uppercase and reserved; element names that collide with a
//! keyword must be written in `<angle brackets>`.

use oassis_sparql::lexer::TokenKind;
use oassis_sparql::parser::PatternParser;
use oassis_sparql::{tokenize, Span, Token, VarTable};
use oassis_store::Ontology;

use crate::ast::{Multiplicity, QlRel, QlTerm, Query, SatPattern, SatisfyingClause, SelectForm};
use crate::error::QlError;
use crate::validate::validate_query;

const KEYWORDS: &[&str] = &[
    "SELECT",
    "WHERE",
    "SATISFYING",
    "MORE",
    "WITH",
    "SUPPORT",
    "FACT-SETS",
    "VARIABLES",
    "ALL",
    // Reserved by the WHERE grammar; quarantined here too so that
    // `SATISFYING` meta-facts cannot shadow them with bare names.
    "OPTIONAL",
    "UNION",
    "FILTER",
    "DISTINCT",
    "ORDER",
    "BY",
    "ASC",
    "DESC",
    "LIMIT",
    "OFFSET",
    "IN",
    "NOT",
];

fn is_keyword(name: &str) -> bool {
    KEYWORDS.contains(&name)
}

/// Parse and validate an OASSIS-QL query against `ontology`.
///
/// ```
/// use oassis_ql::parse_query;
/// use oassis_store::ontology::figure1_ontology;
///
/// let o = figure1_ontology();
/// let q = parse_query(
///     "SELECT FACT-SETS WHERE $y subClassOf* Activity \
///      SATISFYING $y+ doAt <Central Park> WITH SUPPORT = 0.4",
///     &o,
/// ).unwrap();
/// assert_eq!(q.satisfying.support, 0.4);
/// assert_eq!(q.where_clause.required_triples().len(), 1);
/// ```
pub fn parse_query(src: &str, ontology: &Ontology) -> Result<Query, QlError> {
    let tokens = tokenize(src)?;
    let mut p = QueryParser {
        tokens: &tokens,
        pos: 0,
        ontology,
    };
    let q = p.query()?;
    validate_query(&q)?;
    Ok(q)
}

struct QueryParser<'a> {
    tokens: &'a [Token],
    pos: usize,
    ontology: &'a Ontology,
}

impl<'a> QueryParser<'a> {
    fn peek(&self) -> Option<&'a TokenKind> {
        self.tokens.get(self.pos).map(|t| &t.kind)
    }

    fn here(&self) -> (usize, Span) {
        self.tokens
            .get(self.pos.min(self.tokens.len().saturating_sub(1)))
            .map_or((0, Span { start: 0, end: 0 }), |t| (t.line, t.span))
    }

    fn bump(&mut self) -> Option<&'a TokenKind> {
        let t = self.peek();
        self.pos += 1;
        t
    }

    /// Error at the *previous* token if one was just consumed, else at the
    /// current position — `bump()`-then-`err()` is the dominant pattern.
    fn err(&self, msg: impl Into<String>) -> QlError {
        let (line, span) = self.here();
        QlError::Parse {
            line,
            span,
            msg: msg.into(),
        }
    }

    /// Error pinned to the token just consumed by `bump()`.
    fn err_prev(&self, msg: impl Into<String>) -> QlError {
        let at = QueryParser {
            tokens: self.tokens,
            pos: self.pos.saturating_sub(1),
            ontology: self.ontology,
        };
        at.err(msg)
    }

    fn expect_keyword(&mut self, kw: &str) -> Result<(), QlError> {
        match self.bump() {
            Some(TokenKind::Name(n)) if n == kw => Ok(()),
            other => Err(self.err_prev(format!("expected {kw}, got {other:?}"))),
        }
    }

    fn at_keyword(&self, kw: &str) -> bool {
        matches!(self.peek(), Some(TokenKind::Name(n)) if n == kw)
    }

    fn query(&mut self) -> Result<Query, QlError> {
        let mut vars = VarTable::new();

        // SELECT clause.
        self.expect_keyword("SELECT")?;
        let select = match self.bump() {
            Some(TokenKind::Name(n)) if n == "FACT-SETS" => SelectForm::FactSets,
            Some(TokenKind::Name(n)) if n == "VARIABLES" => SelectForm::Variables,
            other => {
                return Err(self.err_prev(format!("expected FACT-SETS or VARIABLES, got {other:?}")))
            }
        };
        let all = if self.at_keyword("ALL") {
            self.bump();
            true
        } else {
            false
        };

        // WHERE clause: hand the token range up to SATISFYING to the SPARQL
        // where-clause parser (groups, UNION/OPTIONAL/FILTER, paths and
        // solution modifiers). Keywords cannot appear inside patterns
        // (collision requires <angle brackets>), so scanning for SATISFYING
        // is safe.
        self.expect_keyword("WHERE")?;
        let where_start = self.pos;
        let sat_pos = (where_start..self.tokens.len())
            .find(|&i| matches!(&self.tokens[i].kind, TokenKind::Name(n) if n == "SATISFYING"))
            .ok_or_else(|| self.err("missing SATISFYING clause"))?;
        let mut where_tokens = &self.tokens[where_start..sat_pos];
        // Allow an optional trailing `.` before SATISFYING.
        if let Some((TokenKind::Dot, rest)) = where_tokens.split_last().map(|(t, r)| (&t.kind, r)) {
            where_tokens = rest;
        }
        let mut pp = PatternParser {
            tokens: where_tokens,
            pos: 0,
            ontology: self.ontology,
        };
        let where_clause = pp.where_clause(&mut vars)?;
        self.pos = sat_pos;

        // SATISFYING clause.
        self.expect_keyword("SATISFYING")?;
        let (patterns, more) = self.sat_patterns(&mut vars)?;

        // WITH SUPPORT = θ.
        self.expect_keyword("WITH")?;
        self.expect_keyword("SUPPORT")?;
        match self.bump() {
            Some(TokenKind::Equals) => {}
            other => return Err(self.err(format!("expected `=`, got {other:?}"))),
        }
        let support = match self.bump() {
            Some(TokenKind::Number(n)) => n
                .parse::<f64>()
                .map_err(|e| self.err(format!("bad support value {n:?}: {e}")))?,
            other => return Err(self.err(format!("expected support value, got {other:?}"))),
        };
        if self.peek().is_some() {
            return Err(self.err("unexpected tokens after WITH SUPPORT"));
        }

        Ok(Query {
            select,
            all,
            where_clause,
            satisfying: SatisfyingClause {
                patterns,
                more,
                support,
            },
            vars,
        })
    }

    fn sat_patterns(&mut self, vars: &mut VarTable) -> Result<(Vec<SatPattern>, bool), QlError> {
        let mut patterns = Vec::new();
        let mut more = false;
        loop {
            if self.at_keyword("WITH") {
                break;
            }
            if self.at_keyword("MORE") {
                self.bump();
                more = true;
                // MORE must be the final item; allow a trailing `.`.
                if matches!(self.peek(), Some(TokenKind::Dot)) {
                    self.bump();
                }
                if !self.at_keyword("WITH") {
                    return Err(self.err("MORE must be the last SATISFYING item"));
                }
                break;
            }
            patterns.push(self.sat_pattern(vars)?);
            match self.peek() {
                Some(TokenKind::Dot) => {
                    self.bump();
                }
                Some(TokenKind::Name(n)) if n == "WITH" => {}
                other => {
                    return Err(self.err(format!(
                        "expected `.` or WITH after meta-fact, got {other:?}"
                    )))
                }
            }
        }
        Ok((patterns, more))
    }

    fn sat_pattern(&mut self, vars: &mut VarTable) -> Result<SatPattern, QlError> {
        let (subject, subject_mult) = self.sat_term(vars)?;
        let relation = self.sat_rel(vars)?;
        let (object, object_mult) = self.sat_term(vars)?;
        Ok(SatPattern {
            subject,
            subject_mult,
            relation,
            object,
            object_mult,
        })
    }

    fn sat_term(&mut self, vars: &mut VarTable) -> Result<(QlTerm, Multiplicity), QlError> {
        let term = match self.bump() {
            Some(TokenKind::Var(name)) => QlTerm::Var(vars.var(name)),
            Some(TokenKind::Blank) => QlTerm::Var(vars.fresh("blank")),
            Some(TokenKind::Name(name)) if !is_keyword(name) => {
                let e = self
                    .ontology
                    .vocabulary()
                    .element(name)
                    .ok_or_else(|| self.err_prev(format!("unknown element {name:?}")))?;
                QlTerm::Element(e)
            }
            other => return Err(self.err_prev(format!("expected term, got {other:?}"))),
        };
        let mult = self.multiplicity()?;
        if mult != Multiplicity::One && term.as_var().is_none() {
            return Err(self.err("multiplicities may only annotate variables"));
        }
        Ok((term, mult))
    }

    fn sat_rel(&mut self, vars: &mut VarTable) -> Result<QlRel, QlError> {
        match self.bump() {
            Some(TokenKind::Var(name)) => Ok(QlRel::Var(vars.var(name))),
            Some(TokenKind::Blank) => Ok(QlRel::Var(vars.fresh("rel"))),
            Some(TokenKind::Name(name)) if !is_keyword(name) => {
                let r = self
                    .ontology
                    .vocabulary()
                    .relation(name)
                    .ok_or_else(|| self.err_prev(format!("unknown relation {name:?}")))?;
                Ok(QlRel::Relation(r))
            }
            other => Err(self.err_prev(format!("expected relation, got {other:?}"))),
        }
    }

    fn multiplicity(&mut self) -> Result<Multiplicity, QlError> {
        match self.peek() {
            Some(TokenKind::Plus) => {
                self.bump();
                Ok(Multiplicity::AtLeastOne)
            }
            Some(TokenKind::Star) => {
                self.bump();
                Ok(Multiplicity::Any)
            }
            Some(TokenKind::Question) => {
                self.bump();
                Ok(Multiplicity::Optional)
            }
            Some(TokenKind::LBrace) => {
                self.bump();
                let n = match self.bump() {
                    Some(TokenKind::Number(n)) => n
                        .parse::<u32>()
                        .map_err(|e| self.err(format!("bad multiplicity {n:?}: {e}")))?,
                    other => {
                        return Err(self.err(format!("expected multiplicity count, got {other:?}")))
                    }
                };
                match self.bump() {
                    Some(TokenKind::RBrace) => Ok(Multiplicity::Exactly(n)),
                    other => Err(self.err(format!("expected `}}`, got {other:?}"))),
                }
            }
            _ => Ok(Multiplicity::One),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oassis_store::ontology::figure1_ontology;

    /// The paper's Figure 2 query, verbatim up to lexical conventions.
    pub const FIGURE2: &str = r#"
        SELECT FACT-SETS
        WHERE
          $w subClassOf* Attraction.
          $x instanceOf $w.
          $x inside NYC.
          $x hasLabel "child-friendly".
          $y subClassOf* Activity.
          $z instanceOf Restaurant.
          $z nearBy $x
        SATISFYING
          $y+ doAt $x.
          [] eatAt $z.
          MORE
        WITH SUPPORT = 0.4
    "#;

    #[test]
    fn parses_figure2() {
        let o = figure1_ontology();
        let q = parse_query(FIGURE2, &o).unwrap();
        assert_eq!(q.select, SelectForm::FactSets);
        assert!(!q.all);
        assert_eq!(q.where_clause.required_triples().len(), 7);
        assert_eq!(q.satisfying.patterns.len(), 2);
        assert!(q.satisfying.more);
        assert_eq!(q.satisfying.support, 0.4);
        let y = q.vars.get("y").unwrap();
        assert_eq!(q.multiplicity_of(y), Multiplicity::AtLeastOne);
        // `[] eatAt $z` introduced one anonymous variable.
        let sat_vars = q.satisfying_vars();
        assert_eq!(sat_vars.len(), 4); // y, x, blank, z
        assert!(sat_vars.iter().any(|&v| q.vars.is_anon(v)));
    }

    #[test]
    fn select_variables_all() {
        let o = figure1_ontology();
        let q = parse_query(
            "SELECT VARIABLES ALL WHERE $x instanceOf Park SATISFYING $y doAt $x WITH SUPPORT = 0.2",
            &o,
        )
        .unwrap();
        assert_eq!(q.select, SelectForm::Variables);
        assert!(q.all);
    }

    #[test]
    fn empty_where_is_frequent_itemset_mining() {
        // The paper: "to capture mining for frequent itemsets, use an empty
        // WHERE clause and $x+ [] [] as the SATISFYING clause".
        let o = figure1_ontology();
        let q = parse_query(
            "SELECT FACT-SETS WHERE SATISFYING $x+ [] [] WITH SUPPORT = 0.1",
            &o,
        )
        .unwrap();
        assert!(q.where_clause.pattern.items.is_empty());
        let p = &q.satisfying.patterns[0];
        assert!(p.relation.as_var().is_some(), "blank relation is a var");
        assert!(p.object.as_var().is_some());
        assert_eq!(p.subject_mult, Multiplicity::AtLeastOne);
    }

    #[test]
    fn exact_multiplicity() {
        let o = figure1_ontology();
        let q = parse_query(
            "SELECT FACT-SETS WHERE SATISFYING $y{2} doAt $x WITH SUPPORT = 0.3",
            &o,
        )
        .unwrap();
        let y = q.vars.get("y").unwrap();
        assert_eq!(q.multiplicity_of(y), Multiplicity::Exactly(2));
    }

    #[test]
    fn relation_variable() {
        let o = figure1_ontology();
        let q = parse_query(
            "SELECT FACT-SETS WHERE SATISFYING $x $p $z WITH SUPPORT = 0.3",
            &o,
        )
        .unwrap();
        let p = q.vars.get("p").unwrap();
        assert_eq!(q.satisfying.patterns[0].relation, QlRel::Var(p));
    }

    #[test]
    fn trailing_dot_before_satisfying() {
        let o = figure1_ontology();
        let q = parse_query(
            "SELECT FACT-SETS WHERE $x instanceOf Park. SATISFYING $y doAt $x WITH SUPPORT = 0.2",
            &o,
        )
        .unwrap();
        assert_eq!(q.where_clause.required_triples().len(), 1);
    }

    #[test]
    fn where_accepts_the_full_sparql_fragment() {
        let o = figure1_ontology();
        let q = parse_query(
            "SELECT FACT-SETS WHERE \
               { $x instanceOf Park } UNION { $x instanceOf Zoo }. \
               OPTIONAL { $x nearBy $z }. \
               FILTER($x NOT IN (<Bronx Zoo>)) \
               ORDER BY $x LIMIT 5 \
             SATISFYING $y+ doAt $x WITH SUPPORT = 0.3",
            &o,
        )
        .unwrap();
        assert_eq!(q.where_clause.limit, Some(5));
        assert_eq!(q.where_clause.order_by.len(), 1);
        // UNION branches + OPTIONAL body all contribute triples.
        assert_eq!(q.where_clause.pattern.all_triples().len(), 3);
        // Top-level required triples: none (both patterns sit in sub-groups).
        assert!(q.where_clause.required_triples().is_empty());
    }

    #[test]
    fn compound_paths_parse_inside_queries() {
        let o = figure1_ontology();
        let q = parse_query(
            "SELECT FACT-SETS WHERE $z nearBy/inside $c. $w subClassOf? Attraction \
             SATISFYING $y doAt $z WITH SUPPORT = 0.2",
            &o,
        )
        .unwrap();
        let triples = q.where_clause.required_triples();
        assert!(triples[0].path.is_path());
        assert!(triples[1].path.is_path());
    }

    #[test]
    fn errors_carry_the_offending_span() {
        let o = figure1_ontology();
        let src = "SELECT FACT-SETS WHERE SATISFYING $x orbits $y WITH SUPPORT = 0.1";
        let err = parse_query(src, &o).unwrap_err();
        let span = err.span().expect("parse errors carry spans");
        assert_eq!(&src[span.start..span.end], "orbits");
        let msg = err.to_string();
        assert!(msg.contains("orbits"), "{msg}");
        assert!(
            msg.contains(&format!("bytes {}..{}", span.start, span.end)),
            "{msg}"
        );
    }

    #[test]
    fn where_errors_surface_as_sparql_errors_with_spans() {
        let o = figure1_ontology();
        let src = "SELECT FACT-SETS WHERE $x instanceOf Nonexistent \
                   SATISFYING $y doAt $x WITH SUPPORT = 0.1";
        let err = parse_query(src, &o).unwrap_err();
        assert!(matches!(err, QlError::Sparql(_)));
        let span = err.span().unwrap();
        assert_eq!(&src[span.start..span.end], "Nonexistent");
    }

    #[test]
    fn errors() {
        let o = figure1_ontology();
        for (src, what) in [
            (
                "WHERE SATISFYING $x doAt $y WITH SUPPORT = 0.1",
                "no SELECT",
            ),
            (
                "SELECT FACT-SETS WHERE $x instanceOf Park WITH SUPPORT = 0.1",
                "no SATISFYING",
            ),
            ("SELECT FACT-SETS WHERE SATISFYING $x doAt $y", "no WITH"),
            (
                "SELECT FACT-SETS WHERE SATISFYING $x doAt $y WITH SUPPORT 0.1",
                "no equals",
            ),
            (
                "SELECT BOTH WHERE SATISFYING $x doAt $y WITH SUPPORT = 0.1",
                "bad select form",
            ),
            (
                "SELECT FACT-SETS WHERE SATISFYING MORE . $x doAt $y WITH SUPPORT = 0.1",
                "MORE not last",
            ),
            (
                "SELECT FACT-SETS WHERE SATISFYING Park{2} doAt $y WITH SUPPORT = 0.1",
                "mult on constant",
            ),
            (
                "SELECT FACT-SETS WHERE SATISFYING $x doAt $y WITH SUPPORT = 0.1 garbage",
                "trailing tokens",
            ),
            (
                "SELECT FACT-SETS WHERE SATISFYING $x orbits $y WITH SUPPORT = 0.1",
                "unknown relation",
            ),
        ] {
            assert!(parse_query(src, &o).is_err(), "should fail: {what}");
        }
    }

    #[test]
    fn more_with_trailing_dot() {
        let o = figure1_ontology();
        let q = parse_query(
            "SELECT FACT-SETS WHERE SATISFYING $y doAt $x. MORE. WITH SUPPORT = 0.2",
            &o,
        )
        .unwrap();
        assert!(q.satisfying.more);
    }
}
