//! Parser for `.wbp` temporal property files.
//!
//! A property file is a list of named specs over the simulator's 11-variant
//! event alphabet. Each spec combines field predicates (`[occupancy <=
//! depth]`) with one temporal operator (`always`, `never`, `after … until …
//! never …`, `after … eventually …`, `eventually`, `at_most k … between …
//! and …`, `increasing …`). The grammar:
//!
//! ```text
//! file   := { prop }
//! prop   := "prop" name "{" { clause } body "}"
//! clause := "desc" string ";"
//!         | "where" symbol op value ";"
//!         | "for_each" "addr" ";"
//! body   := "always" match ";"
//!         | "never" match ";"
//!         | "after" match "until" match "never" match ";"
//!         | "after" match "eventually" match ";"
//!         | "eventually" match ";"
//!         | "at_most" int match "between" match "and" match ";"
//!         | "increasing" match "." field ";"
//! match  := tag [ "[" constraint { "," constraint } "]" ]
//! constraint := field op value
//! op     := "=" | "!=" | "<" | "<=" | ">" | ">="
//! value  := int | "true" | "false" | token | "$addr" | symbol
//! ```
//!
//! `#` starts a comment running to end of line. Event tags, field names,
//! and token values are validated at parse time against the event
//! [`SCHEMA`] the JSON codec derives from, so a property can never
//! silently watch a misspelled field.
//! Errors are structured [`Diagnostic`]s under the `PRP00x` family; the
//! parser recovers at the next `prop` keyword, so one bad property does not
//! mask diagnostics in the rest of the file.

use std::fmt;

use wbsim_sim::event::{FieldKind, TagSpec, NOW, SCHEMA};
use wbsim_types::diagnostics::{Diagnostic, Severity};
use wbsim_types::policy::LoadHazardPolicy;

/// Comparison operator in a field constraint or `where` clause.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    /// `=`
    Eq,
    /// `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

impl CmpOp {
    /// The operator's surface syntax.
    #[must_use]
    pub fn sym(self) -> &'static str {
        match self {
            CmpOp::Eq => "=",
            CmpOp::Ne => "!=",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
        }
    }

    /// Whether the operator orders its operands (token and boolean fields
    /// only admit `=` / `!=`).
    #[must_use]
    pub fn is_ordering(self) -> bool {
        !matches!(self, CmpOp::Eq | CmpOp::Ne)
    }

    /// Applies the operator to two integers.
    #[must_use]
    pub fn eval_u64(self, lhs: u64, rhs: u64) -> bool {
        match self {
            CmpOp::Eq => lhs == rhs,
            CmpOp::Ne => lhs != rhs,
            CmpOp::Lt => lhs < rhs,
            CmpOp::Le => lhs <= rhs,
            CmpOp::Gt => lhs > rhs,
            CmpOp::Ge => lhs >= rhs,
        }
    }
}

/// The right-hand side of a constraint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ValueExpr {
    /// An integer literal.
    Int(u64),
    /// A boolean literal.
    Bool(bool),
    /// A bare token (`buffer-full`, `l2-fill`, …).
    Token(String),
    /// `$addr` — the per-address parameter bound by `for_each addr`.
    Param,
    /// A configuration symbol (`depth`, `mshrs`) resolved from the
    /// checking environment.
    Sym(String),
}

/// One `field op value` predicate inside a match.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FieldConstraint {
    /// The event field (or ambient field) being constrained.
    pub field: String,
    /// The comparison.
    pub op: CmpOp,
    /// The right-hand side.
    pub value: ValueExpr,
}

/// An event pattern: a tag plus zero or more field constraints.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EventMatch {
    /// The event tag (`store-accepted`, `cycle-end`, …).
    pub tag: String,
    /// Conjunction of field predicates.
    pub constraints: Vec<FieldConstraint>,
}

/// The temporal body of a property.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Body {
    /// Every event with the match's tag must satisfy its constraints.
    Always(EventMatch),
    /// No event may satisfy the match.
    Never(EventMatch),
    /// Between an `open` match and the next `close` match, no event may
    /// satisfy `ban`.
    AfterUntilNever {
        /// Opens the scope.
        open: EventMatch,
        /// Closes the scope.
        close: EventMatch,
        /// Banned while the scope is open.
        ban: EventMatch,
    },
    /// Every `open` match must eventually be followed by a `goal` match
    /// (liveness).
    AfterEventually {
        /// Raises the obligation.
        open: EventMatch,
        /// Discharges the obligation.
        goal: EventMatch,
    },
    /// The match must occur at least once (liveness).
    Eventually(EventMatch),
    /// At most `k` `counted` matches between an `open` and the next
    /// `close`.
    AtMostBetween {
        /// The count bound.
        k: u64,
        /// The counted match.
        counted: EventMatch,
        /// Opens the counting window.
        open: EventMatch,
        /// Closes (and re-arms) the counting window.
        close: EventMatch,
    },
    /// The named field of successive matches must strictly increase.
    Increasing {
        /// The matched events.
        of: EventMatch,
        /// The tracked integer field.
        field: String,
    },
}

impl Body {
    /// Whether the body states a liveness obligation (checked at end of
    /// trace / on the fair drain schedule) rather than a safety invariant.
    #[must_use]
    pub fn is_liveness(&self) -> bool {
        matches!(self, Body::AfterEventually { .. } | Body::Eventually(_))
    }

    /// The matches the body references, for validation.
    fn matches(&self) -> Vec<&EventMatch> {
        match self {
            Body::Always(m) | Body::Never(m) | Body::Eventually(m) => vec![m],
            Body::AfterUntilNever { open, close, ban } => vec![open, close, ban],
            Body::AfterEventually { open, goal } => vec![open, goal],
            Body::AtMostBetween {
                counted,
                open,
                close,
                ..
            } => vec![counted, open, close],
            Body::Increasing { of, .. } => vec![of],
        }
    }
}

/// A `where symbol op value` guard: the property only applies when the
/// checking environment satisfies it (an unbound symbol skips the
/// property).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WhereClause {
    /// The environment symbol (`machine`, `hazard`, `depth`, `mshrs`).
    pub sym: String,
    /// The comparison.
    pub op: CmpOp,
    /// The right-hand side (`Int` or `Token`).
    pub value: ValueExpr,
}

/// One named, validated property.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Property {
    /// The property's name (diagnostics and reports carry it).
    pub name: String,
    /// Human description from the `desc` clause.
    pub desc: String,
    /// Applicability guards.
    pub wheres: Vec<WhereClause>,
    /// Whether the property is instantiated per address (`for_each addr`).
    pub per_addr: bool,
    /// The temporal body.
    pub body: Body,
}

/// A parsed property file.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PropSet {
    /// The properties, in file order.
    pub props: Vec<Property>,
}

/// Fields available on every tag: the event's cycle stamp, plus the
/// ambient write-buffer occupancy (occupancy at the most recent
/// `cycle-end`, 0 before the first).
pub static AMBIENT_FIELDS: &[(&str, FieldKind)] = &[NOW, ("wb_occupancy", FieldKind::U64)];

/// Environment symbols a `where` clause or `Sym` value may reference, with
/// their kinds. `machine` is `blocking`/`nonblocking`; `hazard` is a
/// load-hazard policy token.
pub static ENV_SYMBOLS: &[(&str, FieldKind)] = &[
    ("machine", FieldKind::Token(&["blocking", "nonblocking"])),
    ("hazard", FieldKind::Token(LoadHazardPolicy::NAMES)),
    ("depth", FieldKind::U64),
    ("mshrs", FieldKind::U64),
];

/// Looks up a tag in the event [`SCHEMA`].
#[must_use]
pub fn tag_spec(tag: &str) -> Option<&'static TagSpec> {
    SCHEMA.iter().find(|t| t.tag == tag)
}

/// Looks up a field's kind for a tag, including the ambient fields.
#[must_use]
pub fn field_kind(tag: &TagSpec, field: &str) -> Option<FieldKind> {
    tag.fields
        .iter()
        .chain(AMBIENT_FIELDS)
        .find(|(f, _)| *f == field)
        .map(|&(_, k)| k)
}

// ---------------------------------------------------------------------------
// Tokenizer

#[derive(Debug, Clone, PartialEq, Eq)]
enum Tok {
    Ident(String),
    Int(u64),
    Str(String),
    Punct(char), // { } [ ] ; , .
    Op(CmpOp),
}

impl fmt::Display for Tok {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Tok::Ident(s) => write!(f, "{s}"),
            Tok::Int(n) => write!(f, "{n}"),
            Tok::Str(s) => write!(f, "{s:?}"),
            Tok::Punct(c) => write!(f, "{c}"),
            Tok::Op(op) => write!(f, "{}", op.sym()),
        }
    }
}

fn is_ident_char(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_' || c == '-' || c == '$'
}

/// Tokenizes `text`; errors are (line, message) pairs.
fn lex(text: &str) -> Result<Vec<(Tok, u32)>, (u32, String)> {
    let mut toks = Vec::new();
    let mut line: u32 = 1;
    let mut chars = text.chars().peekable();
    while let Some(&c) = chars.peek() {
        match c {
            '\n' => {
                line += 1;
                chars.next();
            }
            c if c.is_whitespace() => {
                chars.next();
            }
            '#' => {
                for c in chars.by_ref() {
                    if c == '\n' {
                        line += 1;
                        break;
                    }
                }
            }
            '{' | '}' | '[' | ']' | ';' | ',' | '.' => {
                toks.push((Tok::Punct(c), line));
                chars.next();
            }
            '=' => {
                chars.next();
                toks.push((Tok::Op(CmpOp::Eq), line));
            }
            '!' => {
                chars.next();
                if chars.peek() == Some(&'=') {
                    chars.next();
                    toks.push((Tok::Op(CmpOp::Ne), line));
                } else {
                    return Err((line, "expected `!=`".to_string()));
                }
            }
            '<' => {
                chars.next();
                if chars.peek() == Some(&'=') {
                    chars.next();
                    toks.push((Tok::Op(CmpOp::Le), line));
                } else {
                    toks.push((Tok::Op(CmpOp::Lt), line));
                }
            }
            '>' => {
                chars.next();
                if chars.peek() == Some(&'=') {
                    chars.next();
                    toks.push((Tok::Op(CmpOp::Ge), line));
                } else {
                    toks.push((Tok::Op(CmpOp::Gt), line));
                }
            }
            '"' => {
                chars.next();
                let mut s = String::new();
                loop {
                    match chars.next() {
                        None => return Err((line, "unterminated string".to_string())),
                        Some('"') => break,
                        Some('\\') => match chars.next() {
                            Some('"') => s.push('"'),
                            Some('\\') => s.push('\\'),
                            other => {
                                return Err((
                                    line,
                                    format!("unsupported escape {other:?} in string"),
                                ))
                            }
                        },
                        Some('\n') => return Err((line, "unterminated string".to_string())),
                        Some(c) => s.push(c),
                    }
                }
                toks.push((Tok::Str(s), line));
            }
            c if c.is_ascii_digit() => {
                let mut n: u64 = 0;
                while let Some(&d) = chars.peek() {
                    if !d.is_ascii_digit() {
                        break;
                    }
                    n = n
                        .checked_mul(10)
                        .and_then(|n| n.checked_add(u64::from(d as u8 - b'0')))
                        .ok_or_else(|| (line, "integer literal overflows u64".to_string()))?;
                    chars.next();
                }
                // An identifier may not start with a digit; `3x` is an error.
                if chars.peek().is_some_and(|&c| is_ident_char(c)) {
                    return Err((line, "identifier may not start with a digit".to_string()));
                }
                toks.push((Tok::Int(n), line));
            }
            c if is_ident_char(c) => {
                let mut s = String::new();
                while let Some(&c) = chars.peek() {
                    if !is_ident_char(c) {
                        break;
                    }
                    s.push(c);
                    chars.next();
                }
                toks.push((Tok::Ident(s), line));
            }
            other => return Err((line, format!("unexpected character {other:?}"))),
        }
    }
    Ok(toks)
}

// ---------------------------------------------------------------------------
// Parser

struct Parser<'a> {
    toks: &'a [(Tok, u32)],
    pos: usize,
    /// The property currently being parsed, for diagnostic field paths.
    prop: String,
    diags: Vec<Diagnostic>,
}

/// A recoverable parse failure: the diagnostic is already recorded; the
/// caller skips to the next property.
struct Bail;

type Parsed<T> = Result<T, Bail>;

fn prp(code: &'static str, path: &str, msg: String) -> Diagnostic {
    Diagnostic::new(code, Severity::Error, path.to_string()).with_message(msg)
}

impl Parser<'_> {
    fn line(&self) -> u32 {
        self.toks
            .get(self.pos.min(self.toks.len().saturating_sub(1)))
            .map_or(0, |&(_, l)| l)
    }

    fn path(&self) -> String {
        if self.prop.is_empty() {
            "props".to_string()
        } else {
            format!("props.{}", self.prop)
        }
    }

    fn peek(&self) -> Option<&Tok> {
        self.toks.get(self.pos).map(|(t, _)| t)
    }

    fn next(&mut self) -> Option<&Tok> {
        let t = self.toks.get(self.pos).map(|(t, _)| t);
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn syntax(&mut self, msg: String) -> Bail {
        let d = prp(
            "PRP001",
            &self.path(),
            format!("line {}: {msg}", self.line()),
        );
        self.diags.push(d);
        Bail
    }

    fn expect_punct(&mut self, c: char) -> Parsed<()> {
        match self.next().cloned() {
            Some(Tok::Punct(p)) if p == c => Ok(()),
            Some(t) => Err(self.syntax(format!("expected `{c}`, found `{t}`"))),
            None => Err(self.syntax(format!("expected `{c}`, found end of file"))),
        }
    }

    fn expect_ident(&mut self, what: &str) -> Parsed<String> {
        match self.next().cloned() {
            Some(Tok::Ident(s)) => Ok(s),
            Some(t) => Err(self.syntax(format!("expected {what}, found `{t}`"))),
            None => Err(self.syntax(format!("expected {what}, found end of file"))),
        }
    }

    fn expect_keyword(&mut self, kw: &str) -> Parsed<()> {
        match self.next().cloned() {
            Some(Tok::Ident(s)) if s == kw => Ok(()),
            Some(t) => Err(self.syntax(format!("expected `{kw}`, found `{t}`"))),
            None => Err(self.syntax(format!("expected `{kw}`, found end of file"))),
        }
    }

    fn expect_op(&mut self) -> Parsed<CmpOp> {
        match self.next().cloned() {
            Some(Tok::Op(op)) => Ok(op),
            Some(t) => Err(self.syntax(format!("expected a comparison operator, found `{t}`"))),
            None => Err(self.syntax("expected a comparison operator, found end of file".into())),
        }
    }

    fn value(&mut self) -> Parsed<ValueExpr> {
        match self.next().cloned() {
            Some(Tok::Int(n)) => Ok(ValueExpr::Int(n)),
            Some(Tok::Ident(s)) => Ok(match s.as_str() {
                "true" => ValueExpr::Bool(true),
                "false" => ValueExpr::Bool(false),
                "$addr" => ValueExpr::Param,
                s if ENV_SYMBOLS.iter().any(|&(n, _)| n == s) => ValueExpr::Sym(s.to_string()),
                _ => ValueExpr::Token(s),
            }),
            Some(t) => Err(self.syntax(format!("expected a value, found `{t}`"))),
            None => Err(self.syntax("expected a value, found end of file".into())),
        }
    }

    fn event_match(&mut self) -> Parsed<EventMatch> {
        let tag = self.expect_ident("an event tag")?;
        let mut constraints = Vec::new();
        if self.peek() == Some(&Tok::Punct('[')) {
            self.next();
            loop {
                let field = self.expect_ident("a field name")?;
                let op = self.expect_op()?;
                let value = self.value()?;
                constraints.push(FieldConstraint { field, op, value });
                match self.next().cloned() {
                    Some(Tok::Punct(',')) => continue,
                    Some(Tok::Punct(']')) => break,
                    Some(t) => return Err(self.syntax(format!("expected `,` or `]`, found `{t}`"))),
                    None => return Err(self.syntax("expected `]`, found end of file".into())),
                }
            }
        }
        Ok(EventMatch { tag, constraints })
    }

    fn body(&mut self, keyword: &str) -> Parsed<Body> {
        let body = match keyword {
            "always" => Body::Always(self.event_match()?),
            "never" => Body::Never(self.event_match()?),
            "eventually" => Body::Eventually(self.event_match()?),
            "after" => {
                let open = self.event_match()?;
                match self.expect_ident("`until` or `eventually`")?.as_str() {
                    "until" => {
                        let close = self.event_match()?;
                        self.expect_keyword("never")?;
                        let ban = self.event_match()?;
                        Body::AfterUntilNever { open, close, ban }
                    }
                    "eventually" => Body::AfterEventually {
                        open,
                        goal: self.event_match()?,
                    },
                    other => {
                        return Err(self.syntax(format!(
                            "expected `until` or `eventually` after the opening match, \
                             found `{other}`"
                        )))
                    }
                }
            }
            "at_most" => {
                let k = match self.next().cloned() {
                    Some(Tok::Int(n)) => n,
                    Some(t) => {
                        return Err(self.syntax(format!(
                            "expected a count after `at_most`, \
                             found `{t}`"
                        )))
                    }
                    None => {
                        return Err(self
                            .syntax("expected a count after `at_most`, found end of file".into()))
                    }
                };
                let counted = self.event_match()?;
                self.expect_keyword("between")?;
                let open = self.event_match()?;
                self.expect_keyword("and")?;
                let close = self.event_match()?;
                Body::AtMostBetween {
                    k,
                    counted,
                    open,
                    close,
                }
            }
            "increasing" => {
                let of = self.event_match()?;
                self.expect_punct('.')?;
                let field = self.expect_ident("a field name")?;
                Body::Increasing { of, field }
            }
            other => {
                return Err(self.syntax(format!(
                    "expected a temporal operator (`always`, `never`, `after`, \
                     `eventually`, `at_most`, `increasing`), found `{other}`"
                )))
            }
        };
        self.expect_punct(';')?;
        Ok(body)
    }

    fn property(&mut self) -> Parsed<Property> {
        self.expect_keyword("prop")?;
        let name = self.expect_ident("a property name")?;
        self.prop = name.clone();
        self.expect_punct('{')?;
        let mut desc = String::new();
        let mut wheres = Vec::new();
        let mut per_addr = false;
        let mut body: Option<Body> = None;
        loop {
            match self.peek().cloned() {
                Some(Tok::Punct('}')) => {
                    self.next();
                    break;
                }
                Some(Tok::Ident(kw)) => {
                    self.next();
                    match kw.as_str() {
                        "desc" => {
                            match self.next().cloned() {
                                Some(Tok::Str(s)) => desc = s,
                                Some(t) => {
                                    return Err(self.syntax(format!(
                                        "expected a string after `desc`, found `{t}`"
                                    )))
                                }
                                None => {
                                    return Err(self.syntax(
                                        "expected a string after `desc`, found end of file".into(),
                                    ))
                                }
                            }
                            self.expect_punct(';')?;
                        }
                        "where" => {
                            let sym = self.expect_ident("an environment symbol")?;
                            let op = self.expect_op()?;
                            let value = self.value()?;
                            self.expect_punct(';')?;
                            wheres.push(WhereClause { sym, op, value });
                        }
                        "for_each" => {
                            self.expect_keyword("addr")?;
                            self.expect_punct(';')?;
                            per_addr = true;
                        }
                        other => {
                            if body.is_some() {
                                return Err(self.syntax(format!(
                                    "property has a second body starting at `{other}`; \
                                     each property has exactly one temporal operator"
                                )));
                            }
                            body = Some(self.body(other)?);
                        }
                    }
                }
                Some(t) => return Err(self.syntax(format!("expected a clause, found `{t}`"))),
                None => return Err(self.syntax("unclosed property: expected `}`".into())),
            }
        }
        let Some(body) = body else {
            self.diags.push(prp(
                "PRP008",
                &self.path(),
                format!("property {name:?} has no temporal body"),
            ));
            return Err(Bail);
        };
        Ok(Property {
            name,
            desc,
            wheres,
            per_addr,
            body,
        })
    }

    /// Skips tokens until the next top-level `prop` keyword (error
    /// recovery after a bailed property).
    fn recover(&mut self) {
        let mut depth = 0i32;
        while let Some(t) = self.peek().cloned() {
            match t {
                Tok::Punct('{') => depth += 1,
                Tok::Punct('}') => depth -= 1,
                Tok::Ident(ref s) if s == "prop" && depth <= 0 => return,
                _ => {}
            }
            self.next();
        }
    }
}

// ---------------------------------------------------------------------------
// Validation

fn validate_match(m: &EventMatch, per_addr: bool, path: &str, diags: &mut Vec<Diagnostic>) {
    let Some(spec) = tag_spec(&m.tag) else {
        diags.push(
            prp("PRP002", path, format!("unknown event tag {:?}", m.tag)).with_suggestion(format!(
                "known tags: {}",
                SCHEMA.iter().map(|t| t.tag).collect::<Vec<_>>().join(", ")
            )),
        );
        return;
    };
    for c in &m.constraints {
        let Some(kind) = field_kind(spec, &c.field) else {
            diags.push(
                prp(
                    "PRP003",
                    path,
                    format!("event {:?} has no field {:?}", m.tag, c.field),
                )
                .with_suggestion(format!(
                    "fields of {}: {}",
                    m.tag,
                    spec.fields
                        .iter()
                        .chain(AMBIENT_FIELDS)
                        .map(|(f, _)| *f)
                        .collect::<Vec<_>>()
                        .join(", ")
                )),
            );
            continue;
        };
        match (&c.value, kind) {
            (ValueExpr::Param, _) => {
                if !per_addr {
                    diags.push(prp(
                        "PRP007",
                        path,
                        format!(
                            "`$addr` on field {:?} requires a `for_each addr;` clause",
                            c.field
                        ),
                    ));
                } else if kind != FieldKind::U64 {
                    diags.push(prp(
                        "PRP004",
                        path,
                        format!(
                            "`$addr` only binds integer fields, and {:?} is not one",
                            c.field
                        ),
                    ));
                } else if c.op != CmpOp::Eq {
                    diags.push(prp(
                        "PRP004",
                        path,
                        format!(
                            "`$addr` constraints use `=` (got `{}`): the parameter is bound \
                             by equality",
                            c.op.sym()
                        ),
                    ));
                }
            }
            (ValueExpr::Int(_), FieldKind::U64) => {}
            (ValueExpr::Sym(s), FieldKind::U64) => {
                let sym_kind = ENV_SYMBOLS.iter().find(|&&(n, _)| n == *s).map(|&(_, k)| k);
                if sym_kind != Some(FieldKind::U64) {
                    diags.push(prp(
                        "PRP004",
                        path,
                        format!(
                            "symbol {s:?} is not an integer symbol; field {:?} needs an \
                             integer value",
                            c.field
                        ),
                    ));
                }
            }
            (ValueExpr::Bool(_), FieldKind::Bool) => {
                if c.op.is_ordering() {
                    diags.push(prp(
                        "PRP004",
                        path,
                        format!(
                            "boolean field {:?} only admits `=` and `!=` (got `{}`)",
                            c.field,
                            c.op.sym()
                        ),
                    ));
                }
            }
            (ValueExpr::Token(t), FieldKind::Token(allowed)) => {
                if c.op.is_ordering() {
                    diags.push(prp(
                        "PRP004",
                        path,
                        format!(
                            "token field {:?} only admits `=` and `!=` (got `{}`)",
                            c.field,
                            c.op.sym()
                        ),
                    ));
                }
                if !allowed.contains(&t.as_str()) {
                    diags.push(
                        prp(
                            "PRP006",
                            path,
                            format!("unknown token {t:?} for field {:?}", c.field),
                        )
                        .with_suggestion(format!("known tokens: {}", allowed.join(", "))),
                    );
                }
            }
            (value, kind) => {
                diags.push(prp(
                    "PRP004",
                    path,
                    format!(
                        "field {:?} ({}) cannot be compared to {}",
                        c.field,
                        kind_name(kind),
                        value_name(value)
                    ),
                ));
            }
        }
    }
}

fn kind_name(kind: FieldKind) -> &'static str {
    match kind {
        FieldKind::U64 => "integer",
        FieldKind::Bool => "boolean",
        FieldKind::Token(_) => "token",
    }
}

fn value_name(value: &ValueExpr) -> &'static str {
    match value {
        ValueExpr::Int(_) => "an integer",
        ValueExpr::Bool(_) => "a boolean",
        ValueExpr::Token(_) => "a token",
        ValueExpr::Param => "`$addr`",
        ValueExpr::Sym(_) => "a symbol",
    }
}

fn validate_property(p: &Property, diags: &mut Vec<Diagnostic>) {
    let path = format!("props.{}", p.name);
    for w in &p.wheres {
        let Some(&(_, kind)) = ENV_SYMBOLS.iter().find(|&&(n, _)| n == w.sym) else {
            diags.push(
                prp(
                    "PRP007",
                    &path,
                    format!("unknown environment symbol {:?} in `where`", w.sym),
                )
                .with_suggestion(format!(
                    "known symbols: {}",
                    ENV_SYMBOLS
                        .iter()
                        .map(|(n, _)| *n)
                        .collect::<Vec<_>>()
                        .join(", ")
                )),
            );
            continue;
        };
        match (&w.value, kind) {
            (ValueExpr::Int(_), FieldKind::U64) => {}
            (ValueExpr::Token(t), FieldKind::Token(allowed)) => {
                if w.op.is_ordering() {
                    diags.push(prp(
                        "PRP004",
                        &path,
                        format!(
                            "token symbol {:?} only admits `=` and `!=` (got `{}`)",
                            w.sym,
                            w.op.sym()
                        ),
                    ));
                }
                if !allowed.contains(&t.as_str()) {
                    diags.push(
                        prp(
                            "PRP006",
                            &path,
                            format!("unknown token {t:?} for symbol {:?}", w.sym),
                        )
                        .with_suggestion(format!("known tokens: {}", allowed.join(", "))),
                    );
                }
            }
            (value, kind) => {
                diags.push(prp(
                    "PRP004",
                    &path,
                    format!(
                        "symbol {:?} ({}) cannot be compared to {}",
                        w.sym,
                        kind_name(kind),
                        value_name(value)
                    ),
                ));
            }
        }
    }
    for m in p.body.matches() {
        validate_match(m, p.per_addr, &path, diags);
    }
    if let Body::Increasing { of, field } = &p.body {
        if let Some(spec) = tag_spec(&of.tag) {
            match field_kind(spec, field) {
                None => diags.push(prp(
                    "PRP003",
                    &path,
                    format!("event {:?} has no field {:?}", of.tag, field),
                )),
                Some(FieldKind::U64) => {}
                Some(_) => diags.push(prp(
                    "PRP004",
                    &path,
                    format!("`increasing` tracks integer fields, and {field:?} is not one"),
                )),
            }
        }
    }
}

/// Parses and validates a `.wbp` property file.
///
/// # Errors
///
/// Every problem found, as structured `PRP00x` [`Diagnostic`]s: `PRP001`
/// syntax, `PRP002` unknown tag, `PRP003` unknown field, `PRP004` type
/// mismatch, `PRP005` duplicate name, `PRP006` unknown token, `PRP007`
/// unknown symbol / unbound `$addr`, `PRP008` empty file or property
/// without a body.
pub fn parse_props(text: &str) -> Result<PropSet, Vec<Diagnostic>> {
    let toks = match lex(text) {
        Ok(t) => t,
        Err((line, msg)) => {
            return Err(vec![prp("PRP001", "props", format!("line {line}: {msg}"))])
        }
    };
    let mut p = Parser {
        toks: &toks,
        pos: 0,
        prop: String::new(),
        diags: Vec::new(),
    };
    let mut props: Vec<Property> = Vec::new();
    while p.peek().is_some() {
        p.prop.clear();
        match p.property() {
            Ok(prop) => {
                if props.iter().any(|q| q.name == prop.name) {
                    p.diags.push(prp(
                        "PRP005",
                        &format!("props.{}", prop.name),
                        format!("duplicate property name {:?}", prop.name),
                    ));
                } else {
                    props.push(prop);
                }
            }
            Err(Bail) => p.recover(),
        }
    }
    let mut diags = p.diags;
    for prop in &props {
        validate_property(prop, &mut diags);
    }
    if props.is_empty() && diags.is_empty() {
        diags.push(prp(
            "PRP008",
            "props",
            "property file defines no properties".to_string(),
        ));
    }
    if diags.is_empty() {
        Ok(PropSet { props })
    } else {
        Err(diags)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn codes(diags: &[Diagnostic]) -> Vec<&str> {
        diags.iter().map(|d| d.code).collect()
    }

    #[test]
    fn parses_every_operator_form() {
        let set = parse_props(
            r#"
            # every grammar form in one file
            prop a { desc "x"; always cycle-end[occupancy <= depth]; }
            prop b { never stall-cycle[kind = buffer-full, wb_occupancy < depth]; }
            prop c {
              where machine = blocking; where hazard = read-from-wb; for_each addr;
              after store-accepted[addr = $addr] until retire-start
                never load-resolved[addr = $addr, source = l2-fill];
            }
            prop d { after store-accepted eventually retire-complete; }
            prop e { eventually cycle-end; }
            prop f { at_most 1 stall-cycle between cycle-end and cycle-end; }
            prop g { increasing retire-start[flush = false].id; }
            "#,
        )
        .expect("valid file");
        assert_eq!(set.props.len(), 7);
        assert!(matches!(set.props[0].body, Body::Always(_)));
        assert!(set.props[2].per_addr);
        assert_eq!(set.props[2].wheres.len(), 2);
        assert!(set.props[3].body.is_liveness());
        assert!(matches!(
            set.props[6].body,
            Body::Increasing { ref field, .. } if field == "id"
        ));
    }

    #[test]
    fn each_diagnostic_code_fires() {
        let cases: &[(&str, &str)] = &[
            ("prop a { always cycle-end", "PRP001"), // truncated
            ("prop a { always coffee-break; }", "PRP002"),
            ("prop a { always cycle-end[depth = 1]; }", "PRP003"),
            (
                "prop a { always stall-cycle[kind < buffer-full]; }",
                "PRP004",
            ),
            (
                "prop a { always cycle-end; } prop a { never cycle-end; }",
                "PRP005",
            ),
            ("prop a { always stall-cycle[kind = espresso]; }", "PRP006"),
            (
                "prop a { always load-resolved[addr = $addr]; }",
                "PRP007", // $addr without for_each
            ),
            ("prop a { where seats = 4; always cycle-end; }", "PRP007"),
            ("prop a { desc \"no body\"; }", "PRP008"),
            ("", "PRP008"),
        ];
        for (text, want) in cases {
            let diags = parse_props(text).expect_err(text);
            assert!(
                codes(&diags).contains(want),
                "{text:?}: wanted {want}, got {:?}",
                codes(&diags)
            );
        }
    }

    #[test]
    fn recovery_reports_errors_in_later_properties_too() {
        let diags = parse_props(
            "prop a { always }\nprop b { never coffee-break; }\nprop c { always cycle-end; }",
        )
        .expect_err("two bad properties");
        let cs = codes(&diags);
        assert!(cs.contains(&"PRP001"), "{cs:?}");
        assert!(cs.contains(&"PRP002"), "{cs:?}");
    }

    #[test]
    fn type_mismatches_are_prp004() {
        for text in [
            "prop a { always cycle-end[occupancy = buffer-full]; }",
            "prop a { always retire-start[flush < true]; }",
            "prop a { always retire-start[flush = 3]; }",
            "prop a { where depth = blocking; always cycle-end; }",
            "prop a { where machine < blocking; always cycle-end; }",
            "prop a { for_each addr; always retire-start[flush = $addr]; }",
            "prop a { for_each addr; always load-resolved[addr > $addr]; }",
            "prop a { increasing retire-start.flush; }",
        ] {
            let diags = parse_props(text).expect_err(text);
            assert!(codes(&diags).contains(&"PRP004"), "{text:?}: {diags:?}");
        }
    }

    #[test]
    fn prp_diagnostics_name_the_property_in_the_field_path() {
        let diags = parse_props("prop tidy { never coffee-break; }").expect_err("bad tag");
        assert_eq!(diags[0].field_path, "props.tidy");
    }

    /// Satellite: the `PRP` family of the unified registry is exactly the
    /// parser's eight input diagnostics plus the two checker verdicts.
    #[test]
    fn prp_codes_agree_with_the_unified_registry() {
        let expected = [
            "PRP001", "PRP002", "PRP003", "PRP004", "PRP005", "PRP006", "PRP007", "PRP008",
            "PRP100", "PRP101",
        ];
        for code in expected {
            let entry = wbsim_types::diagnostics::registry_entry(code)
                .unwrap_or_else(|| panic!("{code} missing from the unified registry"));
            assert_eq!(entry.family, "props", "{code}");
        }
        let registered: Vec<&str> = wbsim_types::diagnostics::REGISTRY
            .iter()
            .filter(|e| e.family == "props")
            .map(|e| e.code)
            .collect();
        assert_eq!(registered, expected);
    }
}
