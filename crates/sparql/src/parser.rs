//! Parser for graph patterns (the body of a WHERE clause).
//!
//! Grammar (keywords are uppercase; element names that collide must be
//! written in `<angle brackets>`):
//!
//! ```text
//! where     := group modifier*
//! group     := item*
//! item      := triple DOT?                 -- DOT required *between* triples
//!            | OPTIONAL '{' group '}' DOT?
//!            | '{' group '}' (UNION '{' group '}')* DOT?
//!            | FILTER '(' filter ')' DOT?
//! triple    := term path term
//! term      := VAR | NAME | LITERAL | '[]'
//! path      := seq ('|' seq)*             -- '/' binds tighter than '|'
//! seq       := step ('/' step)*
//! step      := NAME ('*' | '+' | '?')?
//! filter    := operand '=' operand | operand '!=' operand
//!            | VAR IN '(' const (',' const)* ')'
//!            | VAR NOT IN '(' const (',' const)* ')'
//! operand   := VAR | NAME | LITERAL
//! modifier  := DISTINCT
//!            | ORDER BY (VAR (ASC | DESC)?)+
//!            | LIMIT INT | OFFSET INT
//! ```
//!
//! Names resolve against the ontology at parse time: subjects/objects to
//! elements (or literals when quoted), paths to relations. The blank `[]`
//! becomes a fresh anonymous variable. `FILTER` variables must be bound by
//! a triple pattern inside the filter's own group (including its nested
//! `OPTIONAL`/`UNION` bodies) — referencing an outer variable is an error,
//! which keeps filter semantics identical under compositional and
//! substitution-based evaluation.

use std::collections::HashSet;

use oassis_store::Ontology;

use crate::ast::{
    FilterExpr, FilterTerm, GraphPattern, GroupItem, PatTerm, PropPath, SortDir, TriplePattern,
    Var, VarTable, WhereClause,
};
use crate::error::{Span, SparqlError};
use crate::lexer::{tokenize, Token, TokenKind};

/// Keywords that may open a non-triple item or a solution modifier inside a
/// WHERE clause.
pub const WHERE_KEYWORDS: &[&str] = &[
    "OPTIONAL", "UNION", "FILTER", "DISTINCT", "ORDER", "BY", "ASC", "DESC", "LIMIT", "OFFSET",
    "IN", "NOT",
];

fn is_modifier_start(name: &str) -> bool {
    matches!(name, "DISTINCT" | "ORDER" | "LIMIT" | "OFFSET")
}

/// Parse a WHERE-style pattern block into plain triple patterns.
///
/// This is the pre-algebra entry point: the block must be a bare basic
/// graph pattern (no `UNION`/`OPTIONAL`/`FILTER`, no modifiers). Use
/// [`parse_where`] for the full grammar. `vars` is shared so OASSIS-QL can
/// parse its WHERE and SATISFYING clauses against a single variable
/// namespace.
pub fn parse_patterns(
    src: &str,
    ontology: &Ontology,
    vars: &mut VarTable,
) -> Result<Vec<TriplePattern>, SparqlError> {
    let tokens = tokenize(src)?;
    let mut p = PatternParser {
        tokens: &tokens,
        pos: 0,
        ontology,
    };
    p.patterns(vars)
}

/// Parse a full WHERE clause: group graph pattern plus solution modifiers.
pub fn parse_where(
    src: &str,
    ontology: &Ontology,
    vars: &mut VarTable,
) -> Result<WhereClause, SparqlError> {
    let tokens = tokenize(src)?;
    let mut p = PatternParser {
        tokens: &tokens,
        pos: 0,
        ontology,
    };
    let clause = p.where_clause(vars)?;
    if let Some(t) = p.peek() {
        return Err(SparqlError::Parse {
            line: t.line,
            span: t.span,
            msg: format!("unexpected trailing token {:?}", t.kind),
        });
    }
    Ok(clause)
}

/// Cursor-based pattern parser over a token slice.
///
/// Exposed (doc-hidden) so the OASSIS-QL parser can reuse the WHERE-clause
/// grammar over its own token stream.
#[doc(hidden)]
pub struct PatternParser<'a> {
    /// The full token stream.
    pub tokens: &'a [Token],
    /// Current cursor.
    pub pos: usize,
    /// Ontology used for name resolution.
    pub ontology: &'a Ontology,
}

impl<'a> PatternParser<'a> {
    /// Peek the current token.
    pub fn peek(&self) -> Option<&'a Token> {
        self.tokens.get(self.pos)
    }

    /// Consume and return the current token.
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> Option<&'a Token> {
        let t = self.tokens.get(self.pos);
        self.pos += 1;
        t
    }

    /// Line number at the cursor (for error messages).
    pub fn line(&self) -> usize {
        self.tokens
            .get(self.pos.min(self.tokens.len().saturating_sub(1)))
            .map_or(0, |t| t.line)
    }

    /// Byte span at the cursor (the current token's, or the last one's end).
    pub fn span(&self) -> Span {
        match self.tokens.get(self.pos) {
            Some(t) => t.span,
            None => self
                .tokens
                .last()
                .map_or(Span::at(0), |t| Span::at(t.span.end)),
        }
    }

    fn err(&self, msg: impl Into<String>) -> SparqlError {
        SparqlError::Parse {
            line: self.line(),
            span: self.span(),
            msg: msg.into(),
        }
    }

    fn at_name(&self, name: &str) -> bool {
        matches!(self.peek().map(|t| &t.kind), Some(TokenKind::Name(n)) if n == name)
    }

    fn eat(&mut self, kind: &TokenKind) -> bool {
        if self.peek().map(|t| &t.kind) == Some(kind) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect(&mut self, kind: TokenKind, what: &str) -> Result<(), SparqlError> {
        if self.eat(&kind) {
            Ok(())
        } else {
            Err(self.err(format!(
                "expected {what}, got {:?}",
                self.peek().map(|t| &t.kind)
            )))
        }
    }

    /// Parse `pattern (DOT pattern)* DOT?` until end of tokens — the bare
    /// basic-graph-pattern grammar, with no algebra items or modifiers.
    pub fn patterns(&mut self, vars: &mut VarTable) -> Result<Vec<TriplePattern>, SparqlError> {
        let mut out = Vec::new();
        loop {
            if self.peek().is_none() {
                break;
            }
            out.push(self.pattern(vars)?);
            match self.peek().map(|t| &t.kind) {
                Some(TokenKind::Dot) => {
                    self.next();
                }
                None => break,
                Some(_) => {
                    return Err(self.err("expected `.` between patterns"));
                }
            }
        }
        Ok(out)
    }

    /// Parse a full WHERE clause (top-level group + modifiers), stopping at
    /// end of tokens.
    pub fn where_clause(&mut self, vars: &mut VarTable) -> Result<WhereClause, SparqlError> {
        let pattern = self.group(vars, true)?;
        let mut clause = WhereClause {
            pattern,
            ..WhereClause::default()
        };
        let mut seen: HashSet<&'static str> = HashSet::new();
        loop {
            let which = match self.peek().map(|t| &t.kind) {
                Some(TokenKind::Name(n)) if is_modifier_start(n) => n.clone(),
                _ => break,
            };
            let key: &'static str = match which.as_str() {
                "DISTINCT" => "DISTINCT",
                "ORDER" => "ORDER BY",
                "LIMIT" => "LIMIT",
                _ => "OFFSET",
            };
            if !seen.insert(key) {
                return Err(self.err(format!("duplicate {key} modifier")));
            }
            self.next();
            match key {
                "DISTINCT" => clause.distinct = true,
                "ORDER BY" => {
                    if !self.at_name("BY") {
                        return Err(self.err("expected BY after ORDER"));
                    }
                    self.next();
                    while let Some(TokenKind::Var(name)) = self.peek().map(|t| &t.kind) {
                        let v = vars.var(name);
                        self.next();
                        let dir = if self.at_name("DESC") {
                            self.next();
                            SortDir::Desc
                        } else {
                            if self.at_name("ASC") {
                                self.next();
                            }
                            SortDir::Asc
                        };
                        clause.order_by.push((v, dir));
                    }
                    if clause.order_by.is_empty() {
                        return Err(self.err("ORDER BY needs at least one `$var` key"));
                    }
                }
                "LIMIT" => clause.limit = Some(self.unsigned("LIMIT")?),
                _ => clause.offset = self.unsigned("OFFSET")?,
            }
        }
        Ok(clause)
    }

    /// Parse an unsigned integer argument for `LIMIT`/`OFFSET`.
    fn unsigned(&mut self, what: &str) -> Result<u64, SparqlError> {
        match self.next().map(|t| &t.kind) {
            Some(TokenKind::Number(n)) if !n.contains('.') => n
                .parse::<u64>()
                .map_err(|e| self.err(format!("bad {what} value {n:?}: {e}"))),
            other => Err(self.err(format!("expected integer after {what}, got {other:?}"))),
        }
    }

    /// Parse a group graph pattern. At top level (`top`), the group ends at
    /// end-of-tokens or at a solution-modifier keyword; nested groups end
    /// at `}` (left for the caller to consume).
    fn group(&mut self, vars: &mut VarTable, top: bool) -> Result<GraphPattern, SparqlError> {
        let mut items = Vec::new();
        // Variable references made by FILTERs in this group, to check
        // against the group's bound variables once it is fully parsed.
        let mut filter_refs: Vec<(Var, String, usize, Span)> = Vec::new();
        loop {
            match self.peek().map(|t| &t.kind) {
                None => {
                    if top {
                        break;
                    }
                    return Err(self.err("expected `}` to close group"));
                }
                Some(TokenKind::RBrace) if !top => break,
                Some(TokenKind::Name(n)) if n == "OPTIONAL" => {
                    self.next();
                    self.expect(TokenKind::LBrace, "`{` after OPTIONAL")?;
                    let g = self.group(vars, false)?;
                    self.expect(TokenKind::RBrace, "`}` closing OPTIONAL group")?;
                    items.push(GroupItem::Optional(g));
                    self.eat(&TokenKind::Dot);
                }
                Some(TokenKind::Name(n)) if n == "FILTER" => {
                    self.next();
                    self.expect(TokenKind::LParen, "`(` after FILTER")?;
                    let expr = self.filter_expr(vars, &mut filter_refs)?;
                    self.expect(TokenKind::RParen, "`)` closing FILTER")?;
                    items.push(GroupItem::Filter(expr));
                    self.eat(&TokenKind::Dot);
                }
                Some(TokenKind::LBrace) => {
                    let mut branches = Vec::new();
                    loop {
                        self.expect(TokenKind::LBrace, "`{` opening group")?;
                        branches.push(self.group(vars, false)?);
                        self.expect(TokenKind::RBrace, "`}` closing group")?;
                        if self.at_name("UNION") {
                            self.next();
                        } else {
                            break;
                        }
                    }
                    items.push(GroupItem::Union(branches));
                    self.eat(&TokenKind::Dot);
                }
                Some(TokenKind::Name(n)) if top && is_modifier_start(n) => break,
                _ => {
                    items.push(GroupItem::Triple(self.pattern(vars)?));
                    // A `.` is required between a triple and whatever item
                    // follows; it is optional before the end of the group
                    // or the modifier tail.
                    match self.peek().map(|t| &t.kind) {
                        Some(TokenKind::Dot) => {
                            self.next();
                        }
                        None if top => break,
                        Some(TokenKind::RBrace) if !top => break,
                        Some(TokenKind::Name(n)) if top && is_modifier_start(n) => break,
                        _ => return Err(self.err("expected `.` between patterns")),
                    }
                }
            }
        }
        let pattern = GraphPattern { items };
        // FILTER scope check: every referenced variable must be bound by a
        // triple somewhere inside this very group.
        let bound: HashSet<Var> = pattern.vars().into_iter().collect();
        if let Some((_, name, line, span)) =
            filter_refs.into_iter().find(|(v, ..)| !bound.contains(v))
        {
            return Err(SparqlError::UnboundFilterVar { line, span, name });
        }
        Ok(pattern)
    }

    /// One `FILTER(...)` body.
    fn filter_expr(
        &mut self,
        vars: &mut VarTable,
        refs: &mut Vec<(Var, String, usize, Span)>,
    ) -> Result<FilterExpr, SparqlError> {
        let left_span = self.span();
        let left_line = self.line();
        let left = self.filter_operand(vars, refs)?;
        match self.peek().map(|t| &t.kind) {
            Some(TokenKind::Equals) => {
                self.next();
                let right = self.filter_operand(vars, refs)?;
                Ok(FilterExpr::Eq(left, right))
            }
            Some(TokenKind::NotEquals) => {
                self.next();
                let right = self.filter_operand(vars, refs)?;
                Ok(FilterExpr::Ne(left, right))
            }
            Some(TokenKind::Name(n)) if n == "IN" || n == "NOT" => {
                let negated = n == "NOT";
                self.next();
                if negated {
                    if !self.at_name("IN") {
                        return Err(self.err("expected IN after NOT"));
                    }
                    self.next();
                }
                let Some(v) = left.as_var() else {
                    return Err(SparqlError::Parse {
                        line: left_line,
                        span: left_span,
                        msg: "IN / NOT IN requires a `$variable` on the left".into(),
                    });
                };
                self.expect(TokenKind::LParen, "`(` opening IN list")?;
                let mut terms = Vec::new();
                loop {
                    match self.filter_operand(vars, &mut Vec::new())? {
                        FilterTerm::Const(t) => terms.push(t),
                        FilterTerm::Var(_) => {
                            return Err(self.err("IN lists hold constants, not variables"))
                        }
                    }
                    if !self.eat(&TokenKind::Comma) {
                        break;
                    }
                }
                self.expect(TokenKind::RParen, "`)` closing IN list")?;
                if negated {
                    Ok(FilterExpr::NotIn(v, terms))
                } else {
                    Ok(FilterExpr::In(v, terms))
                }
            }
            other => Err(self.err(format!(
                "expected `=`, `!=`, IN or NOT IN in FILTER, got {other:?}"
            ))),
        }
    }

    fn filter_operand(
        &mut self,
        vars: &mut VarTable,
        refs: &mut Vec<(Var, String, usize, Span)>,
    ) -> Result<FilterTerm, SparqlError> {
        let line = self.line();
        let span = self.span();
        match self.next().map(|t| &t.kind) {
            Some(TokenKind::Var(name)) => {
                let v = vars.var(name);
                refs.push((v, name.clone(), line, span));
                Ok(FilterTerm::Var(v))
            }
            Some(TokenKind::Name(name)) => {
                let e = self.ontology.vocabulary().element(name).ok_or_else(|| {
                    SparqlError::UnknownName {
                        line,
                        span,
                        name: name.clone(),
                        expected: "element",
                    }
                })?;
                Ok(FilterTerm::Const(e.into()))
            }
            Some(TokenKind::Literal(s)) => {
                let l = self
                    .ontology
                    .literal(s)
                    .ok_or_else(|| SparqlError::UnknownName {
                        line,
                        span,
                        name: s.clone(),
                        expected: "literal",
                    })?;
                Ok(FilterTerm::Const(l.into()))
            }
            other => Err(SparqlError::Parse {
                line,
                span,
                msg: format!("expected FILTER operand, got {other:?}"),
            }),
        }
    }

    pub fn pattern(&mut self, vars: &mut VarTable) -> Result<TriplePattern, SparqlError> {
        let subject = self.term(vars, "subject")?;
        let path = self.path()?;
        let object = self.term(vars, "object")?;
        Ok(TriplePattern::new(subject, path, object))
    }

    pub fn term(
        &mut self,
        vars: &mut VarTable,
        position: &'static str,
    ) -> Result<PatTerm, SparqlError> {
        let line = self.line();
        let span = self.span();
        match self.next().map(|t| &t.kind) {
            Some(TokenKind::Var(name)) => Ok(PatTerm::Var(vars.var(name))),
            Some(TokenKind::Blank) => Ok(PatTerm::Var(vars.fresh("blank"))),
            Some(TokenKind::Name(name)) => {
                let e = self.ontology.vocabulary().element(name).ok_or_else(|| {
                    SparqlError::UnknownName {
                        line,
                        span,
                        name: name.clone(),
                        expected: "element",
                    }
                })?;
                Ok(PatTerm::Const(e.into()))
            }
            Some(TokenKind::Literal(s)) => {
                let l = self
                    .ontology
                    .literal(s)
                    .ok_or_else(|| SparqlError::UnknownName {
                        line,
                        span,
                        name: s.clone(),
                        expected: "literal",
                    })?;
                Ok(PatTerm::Const(l.into()))
            }
            other => Err(SparqlError::Parse {
                line,
                span,
                msg: format!("expected {position} term, got {other:?}"),
            }),
        }
    }

    /// Parse `seq ('|' seq)*`.
    pub fn path(&mut self) -> Result<PropPath, SparqlError> {
        let mut branches = vec![self.path_seq()?];
        while self.eat(&TokenKind::Pipe) {
            branches.push(self.path_seq()?);
        }
        Ok(PropPath::alt(branches))
    }

    /// Parse `step ('/' step)*`.
    fn path_seq(&mut self) -> Result<PropPath, SparqlError> {
        let mut steps = vec![self.path_step()?];
        while self.eat(&TokenKind::Slash) {
            steps.push(self.path_step()?);
        }
        Ok(PropPath::seq(steps))
    }

    /// Parse `NAME ('*' | '+' | '?')?`.
    fn path_step(&mut self) -> Result<PropPath, SparqlError> {
        let line = self.line();
        let span = self.span();
        let Some(TokenKind::Name(name)) = self.next().map(|t| &t.kind) else {
            return Err(SparqlError::Parse {
                line,
                span,
                msg: "expected relation name".into(),
            });
        };
        let rel =
            self.ontology
                .vocabulary()
                .relation(name)
                .ok_or_else(|| SparqlError::UnknownName {
                    line,
                    span,
                    name: name.clone(),
                    expected: "relation",
                })?;
        match self.peek().map(|t| &t.kind) {
            Some(TokenKind::Star) => {
                self.next();
                Ok(PropPath::Star(rel))
            }
            Some(TokenKind::Plus) => {
                self.next();
                Ok(PropPath::Plus(rel))
            }
            Some(TokenKind::Question) => {
                self.next();
                Ok(PropPath::Opt(rel))
            }
            _ => Ok(PropPath::Rel(rel)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oassis_store::ontology::figure1_ontology;

    #[test]
    fn parses_the_running_example_where_clause() {
        let o = figure1_ontology();
        let mut vars = VarTable::new();
        let src = r#"
            $w subClassOf* Attraction.
            $x instanceOf $w.
            $x inside NYC.
            $x hasLabel "child-friendly".
            $y subClassOf* Activity .
            $z instanceOf Restaurant.
            $z nearBy $x
        "#;
        let pats = parse_patterns(src, &o, &mut vars).unwrap();
        assert_eq!(pats.len(), 7);
        assert_eq!(vars.len(), 4);
        assert!(matches!(pats[0].path, PropPath::Star(_)));
        assert!(matches!(pats[1].path, PropPath::Rel(_)));
        // `$x inside NYC` resolves NYC as a constant element.
        assert!(matches!(pats[2].object, PatTerm::Const(_)));
        // `$x hasLabel "child-friendly"` resolves the literal.
        assert!(matches!(pats[3].object, PatTerm::Const(t) if t.as_literal().is_some()));
    }

    #[test]
    fn blank_allocates_fresh_vars() {
        let o = figure1_ontology();
        let mut vars = VarTable::new();
        let pats = parse_patterns("[] eatAt $z. [] eatAt $z", &o, &mut vars).unwrap();
        assert_eq!(pats.len(), 2);
        let b1 = pats[0].subject.as_var().unwrap();
        let b2 = pats[1].subject.as_var().unwrap();
        assert_ne!(b1, b2, "each [] is a distinct variable");
        assert!(vars.is_anon(b1));
    }

    #[test]
    fn trailing_dot_is_optional() {
        let o = figure1_ontology();
        let mut vars = VarTable::new();
        assert_eq!(
            parse_patterns("$x inside NYC.", &o, &mut vars)
                .unwrap()
                .len(),
            1
        );
        assert_eq!(
            parse_patterns("$x inside NYC", &o, &mut vars)
                .unwrap()
                .len(),
            1
        );
    }

    #[test]
    fn unknown_names_are_reported_with_kind() {
        let o = figure1_ontology();
        let mut vars = VarTable::new();
        let err = parse_patterns("$x inside Gotham", &o, &mut vars).unwrap_err();
        assert!(matches!(
            err,
            SparqlError::UnknownName {
                expected: "element",
                ..
            }
        ));
        let err = parse_patterns("$x orbits NYC", &o, &mut vars).unwrap_err();
        assert!(matches!(
            err,
            SparqlError::UnknownName {
                expected: "relation",
                ..
            }
        ));
        let err = parse_patterns(r#"$x hasLabel "spooky""#, &o, &mut vars).unwrap_err();
        assert!(matches!(
            err,
            SparqlError::UnknownName {
                expected: "literal",
                ..
            }
        ));
    }

    #[test]
    fn unknown_name_span_points_at_the_name() {
        let o = figure1_ontology();
        let mut vars = VarTable::new();
        let src = "$x inside Gotham";
        let err = parse_patterns(src, &o, &mut vars).unwrap_err();
        let span = err.span();
        assert_eq!(&src[span.start..span.end], "Gotham");
    }

    #[test]
    fn missing_separator_is_an_error() {
        let o = figure1_ontology();
        let mut vars = VarTable::new();
        assert!(parse_patterns("$x inside NYC $y inside NYC", &o, &mut vars).is_err());
        assert!(parse_where("$x inside NYC $y inside NYC", &o, &mut vars).is_err());
    }

    #[test]
    fn empty_input_is_empty_patterns() {
        let o = figure1_ontology();
        let mut vars = VarTable::new();
        assert!(parse_patterns("  # nothing\n", &o, &mut vars)
            .unwrap()
            .is_empty());
    }

    #[test]
    fn angle_bracket_names_resolve() {
        let o = figure1_ontology();
        let mut vars = VarTable::new();
        let pats = parse_patterns("<Maoz Veg.> nearBy <Central Park>", &o, &mut vars).unwrap();
        assert_eq!(pats.len(), 1);
        assert!(matches!(pats[0].subject, PatTerm::Const(_)));
    }

    #[test]
    fn compound_paths_parse() {
        let o = figure1_ontology();
        let mut vars = VarTable::new();
        let pats = parse_patterns(
            "$x instanceOf/subClassOf* $w. $z nearBy|inside $x. $a inside? NYC",
            &o,
            &mut vars,
        )
        .unwrap();
        assert!(matches!(&pats[0].path, PropPath::Seq(s) if s.len() == 2));
        assert!(matches!(&pats[1].path, PropPath::Alt(a) if a.len() == 2));
        assert!(matches!(pats[2].path, PropPath::Opt(_)));
    }

    #[test]
    fn union_optional_filter_parse() {
        let o = figure1_ontology();
        let mut vars = VarTable::new();
        let src = r#"
            $x inside NYC.
            { $x instanceOf Park } UNION { $x instanceOf Zoo }.
            OPTIONAL { $x hasLabel "child-friendly" }
            FILTER($x != <Bronx Zoo>)
        "#;
        let wc = parse_where(src, &o, &mut vars).unwrap();
        assert_eq!(wc.pattern.items.len(), 4);
        assert!(matches!(&wc.pattern.items[1], GroupItem::Union(b) if b.len() == 2));
        assert!(matches!(&wc.pattern.items[2], GroupItem::Optional(_)));
        assert!(matches!(&wc.pattern.items[3], GroupItem::Filter(_)));
        assert_eq!(wc.required_triples().len(), 1);
    }

    #[test]
    fn modifiers_parse() {
        let o = figure1_ontology();
        let mut vars = VarTable::new();
        let wc = parse_where(
            "$x inside NYC. DISTINCT ORDER BY $x DESC LIMIT 5 OFFSET 2",
            &o,
            &mut vars,
        )
        .unwrap();
        assert!(wc.distinct);
        assert_eq!(wc.order_by.len(), 1);
        assert_eq!(wc.order_by[0].1, SortDir::Desc);
        assert_eq!(wc.limit, Some(5));
        assert_eq!(wc.offset, 2);
        assert!(parse_where("$x inside NYC. LIMIT 5 LIMIT 6", &o, &mut vars).is_err());
        assert!(parse_where("$x inside NYC. ORDER BY", &o, &mut vars).is_err());
    }

    #[test]
    fn filter_in_lists_parse() {
        let o = figure1_ontology();
        let mut vars = VarTable::new();
        let wc = parse_where(
            "$x inside NYC. FILTER($x IN (<Central Park>, <Bronx Zoo>))",
            &o,
            &mut vars,
        )
        .unwrap();
        assert!(
            matches!(&wc.pattern.items[1], GroupItem::Filter(FilterExpr::In(_, ts)) if ts.len() == 2)
        );
        let wc = parse_where(
            "$x inside NYC. FILTER($x NOT IN (<Central Park>))",
            &o,
            &mut vars,
        )
        .unwrap();
        assert!(matches!(
            &wc.pattern.items[1],
            GroupItem::Filter(FilterExpr::NotIn(_, _))
        ));
        assert!(parse_where("$x inside NYC. FILTER(NYC IN (NYC))", &o, &mut vars).is_err());
        assert!(parse_where("$x inside NYC. FILTER($x IN ($x))", &o, &mut vars).is_err());
    }

    #[test]
    fn filter_vars_must_be_bound_in_their_group() {
        let o = figure1_ontology();
        let mut vars = VarTable::new();
        // $whom is never bound by a triple in the filter's group.
        let src = "$x inside NYC. FILTER($whom = NYC)";
        let err = parse_where(src, &o, &mut vars).unwrap_err();
        let rendered = err.to_string();
        // The satellite requirement: the message names the variable by its
        // *source* name (not a dense `$N` index) and carries a byte span.
        assert!(rendered.contains("$whom"), "{rendered}");
        let span = err.span();
        assert_eq!(&src[span.start..span.end], "$whom");
        // A filter in a UNION branch cannot see outer bindings either.
        let err = parse_where(
            "$x inside NYC. { $y instanceOf Park. FILTER($x = NYC) } UNION { $y instanceOf Zoo }",
            &o,
            &mut vars,
        )
        .unwrap_err();
        assert!(matches!(err, SparqlError::UnboundFilterVar { .. }));
    }

    #[test]
    fn nested_group_errors() {
        let o = figure1_ontology();
        let mut vars = VarTable::new();
        assert!(parse_where("{ $x inside NYC", &o, &mut vars).is_err());
        assert!(parse_where("OPTIONAL $x inside NYC", &o, &mut vars).is_err());
        assert!(parse_where("$x inside NYC. UNION { $x instanceOf Park }", &o, &mut vars).is_err());
    }
}
