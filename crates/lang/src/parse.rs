//! Recursive-descent parser for the surface syntax.
//!
//! ```text
//! term        ::= 'forall' binders ',' term
//!               | 'fun' binders '=>' term
//!               | 'let' ident ':' term ':=' term 'in' term
//!               | arrow
//! arrow       ::= app ('->' arrow)?
//! app         ::= atom atom*
//! atom        ::= ident | 'Prop' | 'Set' | 'Type' int? | '(' term ')' | elim
//! elim        ::= 'elim' term ':' app 'return' term 'with' ('|' term)* 'end'
//! binders     ::= ('(' ident+ ':' term ')')+
//! item        ::= 'Definition' ident ':' term ':=' term '.'
//!               | 'Axiom' ident ':' term '.'
//!               | 'Inductive' ident binders? ':' term ':='
//!                     ('|' ident ':' term)* '.'
//! ```
//!
//! Nesting is capped at [`MAX_DEPTH`], the JSON codec's cap: a term nested
//! deeper is a parse error, never a stack overflow. A top-level term is at
//! depth 0, and every term or `elim` nested inside another adds one.

use pumpkin_kernel::trace::json::MAX_DEPTH;
use pumpkin_kernel::universe::Sort;

use crate::ast::{BinderGroup, Expr, Item};
use crate::error::{LangError, Pos, Result};
use crate::lex::{lex, Tok, Token};

const KEYWORDS: &[&str] = &[
    "forall",
    "fun",
    "let",
    "in",
    "elim",
    "return",
    "with",
    "end",
    "Prop",
    "Set",
    "Type",
    "Definition",
    "Axiom",
    "Inductive",
];

struct Parser {
    toks: Vec<Token>,
    i: usize,
    /// Terms and `elim`s currently being parsed (see the module docs).
    depth: usize,
}

impl Parser {
    fn peek(&self) -> &Token {
        &self.toks[self.i]
    }

    fn peek_tok(&self) -> &Tok {
        &self.toks[self.i].tok
    }

    fn pos(&self) -> Pos {
        self.toks[self.i].pos
    }

    fn bump(&mut self) {
        if self.i + 1 < self.toks.len() {
            self.i += 1;
        }
    }

    fn error<T>(&self, message: impl Into<String>) -> Result<T> {
        Err(LangError::Parse {
            pos: self.pos(),
            message: message.into(),
        })
    }

    fn expect(&mut self, tok: &Tok) -> Result<()> {
        if self.peek_tok() == tok {
            self.bump();
            Ok(())
        } else {
            self.error(format!("expected {tok}, found {}", self.peek_tok()))
        }
    }

    /// Runs `f` one nesting level deeper, refusing to go past
    /// [`MAX_DEPTH`].
    fn nested(&mut self, f: impl FnOnce(&mut Self) -> Result<Expr>) -> Result<Expr> {
        if self.depth > MAX_DEPTH {
            return self.error(format!("term nests deeper than {MAX_DEPTH} levels"));
        }
        self.depth += 1;
        let out = f(self);
        self.depth -= 1;
        out
    }

    fn at_keyword(&self, kw: &str) -> bool {
        matches!(self.peek_tok(), Tok::Ident(s) if s == kw)
    }

    fn expect_keyword(&mut self, kw: &str) -> Result<()> {
        if self.at_keyword(kw) {
            self.bump();
            Ok(())
        } else {
            self.error(format!("expected `{kw}`, found {}", self.peek_tok()))
        }
    }

    /// A non-keyword identifier.
    fn ident(&mut self) -> Result<String> {
        match self.peek_tok().clone() {
            Tok::Ident(s) if !KEYWORDS.contains(&s.as_str()) => {
                self.bump();
                Ok(s)
            }
            other => self.error(format!("expected identifier, found {other}")),
        }
    }

    /// One or more parenthesized binder groups.
    fn binders(&mut self) -> Result<Vec<BinderGroup>> {
        let mut groups = Vec::new();
        while self.peek_tok() == &Tok::LParen {
            self.bump();
            let mut names = vec![self.ident()?];
            while matches!(self.peek_tok(), Tok::Ident(s) if !KEYWORDS.contains(&s.as_str())) {
                names.push(self.ident()?);
            }
            self.expect(&Tok::Colon)?;
            let ty = self.term()?;
            self.expect(&Tok::RParen)?;
            groups.push(BinderGroup { names, ty });
        }
        if groups.is_empty() {
            self.error("expected at least one binder group `(x : T)`")
        } else {
            Ok(groups)
        }
    }

    // The functions every nesting level passes through (`term`, `arrow`,
    // `app`, `atom`) leave the binder forms, an arrow's right-hand side
    // and the leaf atoms to helpers, keeping their stack frames small: an
    // unoptimised build otherwise spends about 10 KB of stack per level,
    // and a worker thread must fit `MAX_DEPTH` levels.
    fn term(&mut self) -> Result<Expr> {
        self.nested(|p| {
            if ["forall", "fun", "let"].iter().any(|kw| p.at_keyword(kw)) {
                p.binder_form()
            } else {
                p.arrow()
            }
        })
    }

    /// `forall`, `fun` or `let`, at the current token.
    fn binder_form(&mut self) -> Result<Expr> {
        if self.at_keyword("forall") {
            self.bump();
            let binders = self.binders()?;
            self.expect(&Tok::Comma)?;
            let body = self.term()?;
            Ok(Expr::Forall(binders, Box::new(body)))
        } else if self.at_keyword("fun") {
            self.bump();
            let binders = self.binders()?;
            self.expect(&Tok::FatArrow)?;
            let body = self.term()?;
            Ok(Expr::Fun(binders, Box::new(body)))
        } else {
            self.expect_keyword("let")?;
            let name = self.ident()?;
            self.expect(&Tok::Colon)?;
            let ty = self.term()?;
            self.expect(&Tok::ColonEq)?;
            let val = self.term()?;
            self.expect_keyword("in")?;
            let body = self.term()?;
            Ok(Expr::Let(name, Box::new(ty), Box::new(val), Box::new(body)))
        }
    }

    fn arrow(&mut self) -> Result<Expr> {
        let lhs = self.app()?;
        if self.peek_tok() == &Tok::Arrow {
            self.arrow_rhs(lhs)
        } else {
            Ok(lhs)
        }
    }

    fn arrow_rhs(&mut self, lhs: Expr) -> Result<Expr> {
        self.bump();
        // Right-associative; the RHS may itself be a binder form.
        let rhs = self.term()?;
        Ok(Expr::Arrow(Box::new(lhs), Box::new(rhs)))
    }

    fn at_atom_start(&self) -> bool {
        match self.peek_tok() {
            Tok::LParen => true,
            Tok::Ident(s) => !matches!(
                s.as_str(),
                "return"
                    | "with"
                    | "end"
                    | "in"
                    | "forall"
                    | "fun"
                    | "let"
                    | "Definition"
                    | "Axiom"
                    | "Inductive"
            ),
            _ => false,
        }
    }

    fn app(&mut self) -> Result<Expr> {
        let head = self.atom()?;
        let mut args = Vec::new();
        while self.at_atom_start() {
            args.push(self.atom()?);
        }
        if args.is_empty() {
            Ok(head)
        } else {
            Ok(Expr::App(Box::new(head), args))
        }
    }

    fn atom(&mut self) -> Result<Expr> {
        match self.peek_tok() {
            Tok::LParen => {
                self.bump();
                let t = self.term()?;
                self.expect(&Tok::RParen)?;
                Ok(t)
            }
            // `elim`'s scrutinee and annotation recurse through `app`, not
            // `term`, so the nesting is counted here.
            Tok::Ident(s) if s == "elim" => self.nested(Self::elim),
            _ => self.leaf(),
        }
    }

    /// A sort or a variable.
    fn leaf(&mut self) -> Result<Expr> {
        let pos = self.pos();
        match self.peek_tok().clone() {
            Tok::Ident(s) => match s.as_str() {
                "Prop" => {
                    self.bump();
                    Ok(Expr::Sort(pos, Sort::Prop))
                }
                "Set" => {
                    self.bump();
                    Ok(Expr::Sort(pos, Sort::Set))
                }
                "Type" => {
                    self.bump();
                    if let Tok::Int(i) = *self.peek_tok() {
                        self.bump();
                        Ok(Expr::Sort(pos, Sort::Type(i)))
                    } else {
                        Ok(Expr::Sort(pos, Sort::Type(0)))
                    }
                }
                kw if KEYWORDS.contains(&kw) => self.error(format!("unexpected keyword `{kw}`")),
                _ => {
                    self.bump();
                    Ok(Expr::Var(pos, s))
                }
            },
            other => self.error(format!("expected a term, found {other}")),
        }
    }

    fn elim(&mut self) -> Result<Expr> {
        let pos = self.pos();
        self.expect_keyword("elim")?;
        let scrut = self.app()?;
        self.expect(&Tok::Colon)?;
        let annot = self.app()?;
        self.expect_keyword("return")?;
        let motive = self.term()?;
        self.expect_keyword("with")?;
        let mut cases = Vec::new();
        while self.peek_tok() == &Tok::Pipe {
            self.bump();
            cases.push(self.term()?);
        }
        self.expect_keyword("end")?;
        Ok(Expr::Elim {
            pos,
            scrut: Box::new(scrut),
            annot: Box::new(annot),
            motive: Box::new(motive),
            cases,
        })
    }

    fn item(&mut self) -> Result<Item> {
        if self.at_keyword("Definition") {
            self.bump();
            let name = self.ident()?;
            self.expect(&Tok::Colon)?;
            let ty = self.term()?;
            self.expect(&Tok::ColonEq)?;
            let body = self.term()?;
            self.expect(&Tok::Dot)?;
            Ok(Item::Definition { name, ty, body })
        } else if self.at_keyword("Axiom") {
            self.bump();
            let name = self.ident()?;
            self.expect(&Tok::Colon)?;
            let ty = self.term()?;
            self.expect(&Tok::Dot)?;
            Ok(Item::Axiom { name, ty })
        } else if self.at_keyword("Inductive") {
            self.bump();
            let name = self.ident()?;
            let params = if self.peek_tok() == &Tok::LParen {
                self.binders()?
            } else {
                Vec::new()
            };
            self.expect(&Tok::Colon)?;
            let arity = self.term()?;
            self.expect(&Tok::ColonEq)?;
            let mut ctors = Vec::new();
            while self.peek_tok() == &Tok::Pipe {
                self.bump();
                let cname = self.ident()?;
                self.expect(&Tok::Colon)?;
                let cty = self.term()?;
                ctors.push((cname, cty));
            }
            self.expect(&Tok::Dot)?;
            Ok(Item::Inductive {
                name,
                params,
                arity,
                ctors,
            })
        } else {
            self.error(format!(
                "expected `Definition`, `Axiom`, or `Inductive`, found {}",
                self.peek_tok()
            ))
        }
    }
}

/// Parses a single term, requiring the whole input to be consumed.
pub fn parse_term(src: &str) -> Result<Expr> {
    let mut p = Parser {
        toks: lex(src)?,
        i: 0,
        depth: 0,
    };
    let t = p.term()?;
    if p.peek_tok() != &Tok::Eof {
        return p.error(format!("trailing input: {}", p.peek().tok));
    }
    Ok(t)
}

/// Parses a sequence of vernacular items.
pub fn parse_items(src: &str) -> Result<Vec<Item>> {
    let mut p = Parser {
        toks: lex(src)?,
        i: 0,
        depth: 0,
    };
    let mut items = Vec::new();
    while p.peek_tok() != &Tok::Eof {
        items.push(p.item()?);
    }
    Ok(items)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_lambda_and_app() {
        let e = parse_term("fun (x : T) => f x y").unwrap();
        match e {
            Expr::Fun(groups, body) => {
                assert_eq!(groups.len(), 1);
                assert_eq!(groups[0].names, vec!["x"]);
                assert!(matches!(*body, Expr::App(_, ref args) if args.len() == 2));
            }
            _ => panic!("expected fun"),
        }
    }

    #[test]
    fn arrow_is_right_associative() {
        let e = parse_term("A -> B -> C").unwrap();
        match e {
            Expr::Arrow(_, rhs) => assert!(matches!(*rhs, Expr::Arrow(_, _))),
            _ => panic!("expected arrow"),
        }
    }

    #[test]
    fn parses_forall_with_multiple_groups() {
        let e = parse_term("forall (A B : Type) (x : A), B").unwrap();
        match e {
            Expr::Forall(groups, _) => {
                assert_eq!(groups.len(), 2);
                assert_eq!(groups[0].names, vec!["A", "B"]);
            }
            _ => panic!("expected forall"),
        }
    }

    #[test]
    fn parses_elim() {
        let e = parse_term(
            "elim l : list T return (fun (l : list T) => nat) with | O | fun (t : T) (l : list T) (ih : nat) => S ih end",
        )
        .unwrap();
        match e {
            Expr::Elim { cases, .. } => assert_eq!(cases.len(), 2),
            _ => panic!("expected elim"),
        }
    }

    #[test]
    fn parses_items() {
        let items = parse_items(
            "Inductive nat : Set := | O : nat | S : nat -> nat.\n\
             Definition one : nat := S O.\n\
             Axiom magic : nat.",
        )
        .unwrap();
        assert_eq!(items.len(), 3);
        assert!(matches!(items[0], Item::Inductive { ref ctors, .. } if ctors.len() == 2));
    }

    #[test]
    fn type_levels() {
        assert!(matches!(
            parse_term("Type 2").unwrap(),
            Expr::Sort(_, Sort::Type(2))
        ));
        assert!(matches!(
            parse_term("Type").unwrap(),
            Expr::Sort(_, Sort::Type(0))
        ));
    }

    #[test]
    fn trailing_input_is_an_error() {
        assert!(parse_term("x y )").is_err());
    }

    #[test]
    fn keywords_are_not_identifiers() {
        assert!(parse_term("fun (return : T) => x").is_err());
    }

    #[test]
    fn nesting_past_the_cap_is_a_parse_error_not_an_overflow() {
        let chain = |n: usize| format!("{}O{}", "S (".repeat(n), ")".repeat(n));
        assert!(parse_term(&chain(64)).is_ok());
        assert!(parse_term(&chain(MAX_DEPTH)).is_ok());
        for n in [MAX_DEPTH + 1, 100_000] {
            match parse_term(&chain(n)) {
                Err(LangError::Parse { message, .. }) => {
                    assert!(message.contains(&MAX_DEPTH.to_string()), "{message}");
                }
                other => panic!("depth {n}: expected a parse error, got {other:?}"),
            }
        }
        let items = format!("Definition Old.deep : nat := {}.", chain(100_000));
        assert!(matches!(parse_items(&items), Err(LangError::Parse { .. })));
    }

    #[test]
    fn nested_elim_scrutinees_count_toward_the_cap() {
        // A scrutinee recurses through `app`, never `term`. An unoptimised
        // build spends about 5 KB of stack per `elim` level, more than a
        // default test thread holds for `MAX_DEPTH` levels, so this runs
        // on a thread sized for the cap.
        let elims = "elim ".repeat(100_000) + "x";
        let parsed = std::thread::Builder::new()
            .stack_size(16 << 20)
            .spawn(move || parse_term(&elims))
            .unwrap()
            .join()
            .unwrap();
        assert!(
            matches!(&parsed, Err(LangError::Parse { message, .. })
                if message.contains(&MAX_DEPTH.to_string())),
            "{parsed:?}"
        );
    }

    #[test]
    fn parses_let() {
        let e = parse_term("let x : nat := O in S x").unwrap();
        assert!(matches!(e, Expr::Let(ref n, _, _, _) if n == "x"));
    }
}
