//! Pretty-printing kernel terms back to the surface syntax.
//!
//! The printer is the inverse of the parser: for any term whose globals are
//! declared, `resolve::term(env, &pretty(env, t)) == t` up to binder-name
//! hints (tested by round-trip property tests).

use std::collections::HashSet;

use pumpkin_kernel::env::Env;
use pumpkin_kernel::term::{Term, TermData};

struct Printer {
    /// Names that may not be chosen for binders (globals and outer binders).
    used: HashSet<String>,
    /// In-scope binder names, innermost last.
    scope: Vec<String>,
}

impl Printer {
    fn fresh(&mut self, hint: Option<&str>) -> String {
        let base = match hint {
            Some(h) => h.to_string(),
            None => "x".to_string(),
        };
        let mut candidate = base.clone();
        let mut i = 0;
        while self.used.contains(&candidate) {
            candidate = format!("{base}{i}");
            i += 1;
        }
        self.used.insert(candidate.clone());
        candidate
    }

    fn push(&mut self, hint: Option<&str>) -> String {
        let n = self.fresh(hint);
        self.scope.push(n.clone());
        n
    }

    fn pop(&mut self) {
        if let Some(n) = self.scope.pop() {
            self.used.remove(&n);
        }
    }

    /// Precedence levels: 0 = term (binders), 1 = arrow, 2 = application,
    /// 3 = atom.
    fn print(&mut self, t: &Term, prec: u8, out: &mut String) {
        match t.data() {
            TermData::Rel(i) => {
                let depth = self.scope.len();
                if *i < depth {
                    out.push_str(&self.scope[depth - 1 - i]);
                } else {
                    // Free variable: print a raw index (not re-parseable, but
                    // only reachable for open terms).
                    out.push_str(&format!("__free{}", i - depth));
                }
            }
            TermData::Sort(s) => match s {
                pumpkin_kernel::universe::Sort::Prop => out.push_str("Prop"),
                pumpkin_kernel::universe::Sort::Set => out.push_str("Set"),
                pumpkin_kernel::universe::Sort::Type(0) => out.push_str("Type"),
                pumpkin_kernel::universe::Sort::Type(i) => out.push_str(&format!("Type {i}")),
            },
            TermData::Const(n) | TermData::Ind(n) => out.push_str(n.as_str()),
            TermData::Construct(ind, j) => {
                // Constructors print by name (resolvable), falling back to a
                // raw form if the family is unknown.
                out.push_str(&format!("{ind}!{j}"));
            }
            TermData::App(h, args) => {
                let parens = prec > 2;
                if parens {
                    out.push('(');
                }
                self.print(h, 3, out);
                for a in args {
                    out.push(' ');
                    self.print(a, 3, out);
                }
                if parens {
                    out.push(')');
                }
            }
            TermData::Lambda(_, _) => {
                let parens = prec > 0;
                if parens {
                    out.push('(');
                }
                out.push_str("fun ");
                let mut body = t.clone();
                let mut pushed = 0;
                while let TermData::Lambda(b, inner) = body.data().clone() {
                    if pushed > 0 {
                        out.push(' ');
                    }
                    let name = self.push(b.name.as_str());
                    out.push('(');
                    out.push_str(&name);
                    out.push_str(" : ");
                    // The type is printed in the scope *before* this binder;
                    // temporarily pop it.
                    let saved = self.scope.pop().unwrap();
                    self.print(&b.ty, 0, out);
                    self.scope.push(saved);
                    out.push(')');
                    pushed += 1;
                    body = inner;
                }
                out.push_str(" => ");
                self.print(&body, 0, out);
                for _ in 0..pushed {
                    self.pop();
                }
                if parens {
                    out.push(')');
                }
            }
            TermData::Pi(b, body) => {
                if !body.has_rel(0) {
                    // Non-dependent: print as an arrow.
                    let parens = prec > 1;
                    if parens {
                        out.push('(');
                    }
                    self.print(&b.ty, 2, out);
                    out.push_str(" -> ");
                    self.push(None);
                    self.print(body, 1, out);
                    self.pop();
                    if parens {
                        out.push(')');
                    }
                } else {
                    let parens = prec > 0;
                    if parens {
                        out.push('(');
                    }
                    out.push_str("forall ");
                    let mut cur = t.clone();
                    let mut pushed = 0;
                    // Group consecutive *dependent* products under one
                    // `forall`; a trailing non-dependent product prints as an
                    // arrow inside the body.
                    while let TermData::Pi(b, inner) = cur.data().clone() {
                        if !inner.has_rel(0) {
                            break;
                        }
                        if pushed > 0 {
                            out.push(' ');
                        }
                        let name = self.push(b.name.as_str());
                        out.push('(');
                        out.push_str(&name);
                        out.push_str(" : ");
                        let saved = self.scope.pop().unwrap();
                        self.print(&b.ty, 0, out);
                        self.scope.push(saved);
                        out.push(')');
                        pushed += 1;
                        cur = inner;
                    }
                    out.push_str(", ");
                    self.print(&cur, 0, out);
                    for _ in 0..pushed {
                        self.pop();
                    }
                    if parens {
                        out.push(')');
                    }
                }
            }
            TermData::Let(b, v, body) => {
                let parens = prec > 0;
                if parens {
                    out.push('(');
                }
                out.push_str("let ");
                let name = self.push(b.name.as_str());
                out.push_str(&name);
                out.push_str(" : ");
                let saved = self.scope.pop().unwrap();
                self.print(&b.ty, 0, out);
                out.push_str(" := ");
                self.print(v, 0, out);
                self.scope.push(saved);
                out.push_str(" in ");
                self.print(body, 0, out);
                self.pop();
                if parens {
                    out.push(')');
                }
            }
            TermData::Elim(e) => {
                out.push_str("elim ");
                self.print(&e.scrutinee, 2, out);
                out.push_str(" : ");
                let ann = Term::app(Term::ind(e.ind.clone()), e.params.iter().cloned());
                self.print(&ann, 2, out);
                out.push_str(" return ");
                self.print(&e.motive, 0, out);
                out.push_str(" with");
                for c in &e.cases {
                    out.push_str(" | ");
                    self.print(c, 0, out);
                }
                out.push_str(" end");
            }
        }
    }
}

/// Pretty-prints a closed term using the environment's constructor names.
///
/// Constructor references print by their declared names (e.g. `Old.cons`),
/// which resolve back through [`crate::resolve::term`].
pub fn pretty(env: &Env, t: &Term) -> String {
    pretty_open(env, &[], t)
}

/// Pretty-prints a term that is open in a named context (`ctx` lists binder
/// names, outermost first). Used by the tactic decompiler, whose embedded
/// terms refer to hypotheses.
pub fn pretty_open(env: &Env, ctx: &[String], t: &Term) -> String {
    // Replace Construct nodes by their names first (names resolve).
    fn named(env: &Env, t: &Term) -> Term {
        match t.data() {
            TermData::Construct(ind, j) => {
                if let Ok(decl) = env.inductive(ind) {
                    if let Some(c) = decl.ctors.get(*j) {
                        // Constructors print via a Const-like name; this is
                        // purely a printing device.
                        return Term::const_(c.name.clone());
                    }
                }
                t.clone()
            }
            _ => t.map_children(|c, _| named(env, c)),
        }
    }

    let t = named(env, t);
    let mut used: HashSet<String> = ctx.iter().cloned().collect();
    t.visit(&mut |s| match s.data() {
        TermData::Const(n) | TermData::Ind(n) => {
            used.insert(n.as_str().to_string());
        }
        TermData::Elim(e) => {
            used.insert(e.ind.as_str().to_string());
        }
        _ => {}
    });
    let mut p = Printer {
        used,
        scope: ctx.to_vec(),
    };
    let mut out = String::new();
    p.print(&t, 0, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resolve::{load_source, term};

    fn nat_env() -> Env {
        let mut env = Env::new();
        load_source(
            &mut env,
            "Inductive nat : Set := | O : nat | S : nat -> nat.",
        )
        .unwrap();
        env
    }

    #[test]
    fn roundtrip_simple() {
        let env = nat_env();
        for src in [
            "fun (n : nat) => S n",
            "forall (P : nat -> Prop) (n : nat), P n",
            "nat -> nat",
            "fun (f : nat -> nat) (n : nat) => f (f n)",
            "let x : nat := O in S x",
        ] {
            let t = term(&env, src).unwrap();
            let printed = pretty(&env, &t);
            let t2 = term(&env, &printed).unwrap();
            assert_eq!(t, t2, "roundtrip failed for `{src}` → `{printed}`");
        }
    }

    #[test]
    fn roundtrip_elim() {
        let env = nat_env();
        let src = "fun (n : nat) =>
            elim n : nat return (fun (x : nat) => nat) with
            | O
            | fun (p : nat) (ih : nat) => S ih
            end";
        let t = term(&env, src).unwrap();
        let printed = pretty(&env, &t);
        let t2 = term(&env, &printed).unwrap();
        assert_eq!(t, t2, "printed: {printed}");
    }

    #[test]
    fn constructor_names_are_used() {
        let env = nat_env();
        let t = term(&env, "S O").unwrap();
        assert_eq!(pretty(&env, &t), "S O");
    }

    #[test]
    fn shadowed_binders_get_fresh_names() {
        let env = nat_env();
        // fun (n : nat) (n : nat) => inner n — printer must rename.
        let t = Term::lambda(
            "n",
            Term::ind("nat"),
            Term::lambda("n", Term::ind("nat"), Term::rel(1)),
        );
        let printed = pretty(&env, &t);
        let t2 = term(&env, &printed).unwrap();
        assert_eq!(t, t2, "printed: {printed}");
    }

    #[test]
    fn arrow_sugar_for_nondependent_pi() {
        let env = nat_env();
        let t = term(&env, "nat -> nat -> nat").unwrap();
        assert_eq!(pretty(&env, &t), "nat -> nat -> nat");
    }
}
