//! Inductive families and the synthesis of constructor and eliminator types.
//!
//! A declaration consists of a uniform parameter telescope, an index
//! telescope, a target sort, and a list of constructors. Recursive
//! constructor arguments must be *plain*: their type is exactly the inductive
//! applied to the (uniform) parameters and some index values. This covers
//! every type in the paper (`nat`, `list`, `vector`, `positive`, `N`, `eq`,
//! `Σ`, pairs, records, the REPLICA `Term` language); functional (infinitely
//! branching) recursive arguments are rejected by the positivity check with a
//! clear error.

use crate::error::{KernelError, Result};
use crate::name::{GlobalName, Name};
use crate::subst::lift;
use crate::term::{Binder, Term, TermData};

/// A constructor declaration.
///
/// `args` is a telescope interpreted under the family's parameters (so inside
/// `args[k]`, the parameters are `Rel(k + nparams - 1 - i)` for parameter
/// `i`, and earlier arguments are the nearer indices). `result_indices` are
/// interpreted under parameters + all arguments.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct CtorDecl {
    /// Globally unique constructor name, e.g. `"Old.cons"`.
    pub name: GlobalName,
    /// Argument telescope (under the family parameters).
    pub args: Vec<Binder>,
    /// Index values of the constructed term (under parameters + arguments).
    pub result_indices: Vec<Term>,
}

/// An inductive family declaration.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct InductiveDecl {
    /// The family's name, e.g. `"Old.list"`.
    pub name: GlobalName,
    /// Uniform parameter telescope.
    pub params: Vec<Binder>,
    /// Index telescope (under the parameters).
    pub indices: Vec<Binder>,
    /// The sort of the fully applied family.
    pub sort: crate::universe::Sort,
    /// Constructors in declaration order.
    pub ctors: Vec<CtorDecl>,
}

pub use crate::subst::subst_group;

/// Instantiates a telescope whose binders live under a prefix of
/// `values.len()` binders with the given concrete values.
///
/// Binder `k` of the telescope sees the prefix at indices `k..k+len`, so we
/// substitute at base `k`.
pub fn instantiate_telescope(tele: &[Binder], values: &[Term]) -> Vec<Binder> {
    tele.iter()
        .enumerate()
        .map(|(k, b)| Binder {
            name: b.name.clone(),
            ty: subst_group(&b.ty, k, values),
        })
        .collect()
}

/// The de Bruijn references to a telescope of length `len`, in declaration
/// order, as seen from directly under the telescope: `Rel(len-1) … Rel(0)`.
pub fn telescope_rels(len: usize) -> Vec<Term> {
    (0..len).rev().map(Term::rel).collect()
}

impl InductiveDecl {
    /// Number of uniform parameters.
    pub fn nparams(&self) -> usize {
        self.params.len()
    }

    /// Number of indices.
    pub fn nindices(&self) -> usize {
        self.indices.len()
    }

    /// The type of the family itself: `∀ params indices, sort`.
    pub fn arity(&self) -> Term {
        let mut binders = self.params.clone();
        binders.extend(self.indices.iter().cloned());
        Term::pis(binders, Term::sort(self.sort))
    }

    /// Is constructor argument `arg_ty` (a type in some context) a *plain*
    /// recursive occurrence, i.e. literally `Ind(self) applied to the uniform
    /// parameters and some indices`? Returns the index values if so.
    ///
    /// `param_base` is the de Bruijn index at which the parameter group
    /// starts in `arg_ty`'s context (i.e. the number of constructor argument
    /// binders in scope).
    pub fn as_recursive_arg<'t>(&self, arg_ty: &'t Term, param_base: usize) -> Option<&'t [Term]> {
        let (name, args) = arg_ty.as_ind_app()?;
        if name != &self.name {
            return None;
        }
        let p = self.nparams();
        if args.len() != p + self.nindices() {
            return None;
        }
        // Uniform parameters: args[i] must be Rel(param_base + p - 1 - i).
        for (i, a) in args.iter().take(p).enumerate() {
            match a.data() {
                TermData::Rel(r) if *r == param_base + p - 1 - i => {}
                _ => return None,
            }
        }
        Some(&args[p..])
    }

    /// Which constructor arguments are plain recursive occurrences?
    pub fn recursive_flags(&self, j: usize) -> Vec<bool> {
        let ctor = &self.ctors[j];
        ctor.args
            .iter()
            .enumerate()
            .map(|(k, b)| self.as_recursive_arg(&b.ty, k).is_some())
            .collect()
    }

    /// The (closed) type of constructor `j`:
    /// `∀ params args, Ind params result_indices`.
    pub fn ctor_type(&self, j: usize) -> Result<Term> {
        let ctor = self
            .ctors
            .get(j)
            .ok_or_else(|| KernelError::NoSuchConstructor {
                ind: self.name.clone(),
                index: j,
            })?;
        let p = self.nparams();
        let a = ctor.args.len();
        // Under params ++ args: parameter i is Rel(p + a - 1 - i).
        let param_refs: Vec<Term> = (0..p).map(|i| Term::rel(p + a - 1 - i)).collect();
        let head = Term::app(
            Term::ind(self.name.clone()),
            param_refs
                .into_iter()
                .chain(ctor.result_indices.iter().cloned()),
        );
        let mut binders = self.params.clone();
        binders.extend(ctor.args.iter().cloned());
        Ok(Term::pis(binders, head))
    }

    /// The expected type of eliminator case `j`, given concrete `params` and
    /// a concrete `motive` (both interpreted in the ambient context of the
    /// eliminator node).
    ///
    /// Following Coq's recursor shape, each plain recursive argument is
    /// immediately followed by its induction hypothesis:
    /// `∀ a₁ [IH₁] … aₙ [IHₙ], motive idxs (Construct j params a₁ … aₙ)`.
    pub fn case_type(&self, j: usize, params: &[Term], motive: &Term) -> Result<Term> {
        let ctor = self
            .ctors
            .get(j)
            .ok_or_else(|| KernelError::NoSuchConstructor {
                ind: self.name.clone(),
                index: j,
            })?;
        let nargs = ctor.args.len();

        // Output binders (args and IHs interleaved) built left to right.
        let mut out: Vec<Binder> = Vec::with_capacity(nargs * 2);
        // For each original argument, its *level* in `out` (position from the
        // start). The de Bruijn reference at output depth `d` is
        // `Rel(d - 1 - level)`.
        let mut arg_levels: Vec<usize> = Vec::with_capacity(nargs);

        // Remaps a term from the original context `params ++ args[..k]`
        // (depth k above the ambient context once params are substituted) to
        // the output context of current depth `d`.
        fn remap(t: &Term, k: usize, arg_levels: &[usize], d: usize) -> Term {
            fn go(t: &Term, depth: usize, k: usize, arg_levels: &[usize], d: usize) -> Term {
                match t.data() {
                    TermData::Rel(m) => {
                        if *m < depth {
                            t.clone()
                        } else {
                            let m0 = m - depth; // index in the root context
                            if m0 < k {
                                // Refers to original arg (k - 1 - m0).
                                let level = arg_levels[k - 1 - m0];
                                Term::rel(depth + d - 1 - level)
                            } else {
                                // Ambient context: shift by (d - k).
                                Term::rel(m - k + d)
                            }
                        }
                    }
                    _ => t.map_children(|c, shift| go(c, depth + shift, k, arg_levels, d)),
                }
            }
            go(t, 0, k, arg_levels, d)
        }

        for (k, b) in ctor.args.iter().enumerate() {
            // Instantiate parameters in the argument type, then remap it into
            // the output context.
            let ty_inst = subst_group(&b.ty, k, params);
            let d = out.len();
            let ty_out = remap(&ty_inst, k, &arg_levels, d);
            let rec_indices = self.as_recursive_arg(&b.ty, k).map(|idxs| idxs.to_vec());
            out.push(Binder {
                name: b.name.clone(),
                ty: ty_out,
            });
            arg_levels.push(d);
            if let Some(idxs) = rec_indices {
                // IH : motive idxs' arg, in the context *after* pushing arg.
                let d_ih = out.len();
                let idxs_out: Vec<Term> = idxs
                    .iter()
                    .map(|ix| {
                        let ix_inst = subst_group(ix, k, params);
                        remap(&ix_inst, k, &arg_levels, d_ih)
                    })
                    .collect();
                let arg_ref = Term::rel(d_ih - 1 - arg_levels[k]);
                let ih_ty = Term::app(lift(motive, d_ih), idxs_out.into_iter().chain([arg_ref]));
                let ih_name = match b.name.as_str() {
                    Some(s) => Name::named(format!("IH{s}")),
                    None => Name::named("IH"),
                };
                out.push(Binder {
                    name: ih_name,
                    ty: ih_ty,
                });
            }
        }

        // Conclusion: motive result_indices (Construct j params args…), all
        // remapped into the output context.
        let d = out.len();
        let idxs_out: Vec<Term> = ctor
            .result_indices
            .iter()
            .map(|ix| {
                let ix_inst = subst_group(ix, nargs, params);
                remap(&ix_inst, nargs, &arg_levels, d)
            })
            .collect();
        let arg_refs: Vec<Term> = (0..nargs)
            .map(|k| Term::rel(d - 1 - arg_levels[k]))
            .collect();
        let ctor_app = Term::app(
            Term::construct(self.name.clone(), j),
            params.iter().map(|p| lift(p, d)).chain(arg_refs),
        );
        let concl = Term::app(lift(motive, d), idxs_out.into_iter().chain([ctor_app]));
        Ok(Term::pis(out, concl))
    }

    /// Checks strict positivity (in our restricted form): any occurrence of
    /// the family in a constructor argument type must be a plain recursive
    /// argument; occurrences anywhere else (nested, to the left of an arrow,
    /// in indices of another argument) are rejected.
    pub fn check_positivity(&self) -> Result<()> {
        for (j, ctor) in self.ctors.iter().enumerate() {
            for (k, b) in ctor.args.iter().enumerate() {
                if b.ty.mentions_global(&self.name) && self.as_recursive_arg(&b.ty, k).is_none() {
                    return Err(KernelError::Positivity {
                        ind: self.name.clone(),
                        reason: format!(
                            "constructor #{j} ({}) argument #{k} mentions `{}` \
                             but is not a plain recursive occurrence \
                             (functional/nested recursion is not supported)",
                            ctor.name, self.name
                        ),
                    });
                }
            }
            for ix in &ctor.result_indices {
                if ix.mentions_global(&self.name) {
                    return Err(KernelError::Positivity {
                        ind: self.name.clone(),
                        reason: format!(
                            "constructor #{j} ({}) has a result index mentioning `{}`",
                            ctor.name, self.name
                        ),
                    });
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::universe::Sort;

    /// `nat` with constructors `O` and `S : nat → nat`.
    fn nat_decl() -> InductiveDecl {
        InductiveDecl {
            name: "nat".into(),
            params: vec![],
            indices: vec![],
            sort: Sort::Set,
            ctors: vec![
                CtorDecl {
                    name: "O".into(),
                    args: vec![],
                    result_indices: vec![],
                },
                CtorDecl {
                    name: "S".into(),
                    args: vec![Binder::new("n", Term::ind("nat"))],
                    result_indices: vec![],
                },
            ],
        }
    }

    /// `list (T : Type0)` with `nil` and `cons : T → list T → list T`.
    fn list_decl() -> InductiveDecl {
        InductiveDecl {
            name: "list".into(),
            params: vec![Binder::new("T", Term::type_(0))],
            indices: vec![],
            sort: Sort::Type(0),
            ctors: vec![
                CtorDecl {
                    name: "nil".into(),
                    args: vec![],
                    result_indices: vec![],
                },
                CtorDecl {
                    name: "cons".into(),
                    args: vec![
                        Binder::new("t", Term::rel(0)),
                        Binder::new("l", Term::app(Term::ind("list"), [Term::rel(1)])),
                    ],
                    result_indices: vec![],
                },
            ],
        }
    }

    #[test]
    fn nat_ctor_types() {
        let nat = nat_decl();
        assert_eq!(nat.ctor_type(0).unwrap(), Term::ind("nat"));
        assert_eq!(
            nat.ctor_type(1).unwrap(),
            Term::pi("n", Term::ind("nat"), Term::ind("nat"))
        );
    }

    #[test]
    fn list_ctor_types() {
        let list = list_decl();
        // nil : ∀ (T : Type0), list T
        assert_eq!(
            list.ctor_type(0).unwrap(),
            Term::pi(
                "T",
                Term::type_(0),
                Term::app(Term::ind("list"), [Term::rel(0)])
            )
        );
        // cons : ∀ (T : Type0) (t : T) (l : list T), list T
        assert_eq!(
            list.ctor_type(1).unwrap(),
            Term::pi(
                "T",
                Term::type_(0),
                Term::pi(
                    "t",
                    Term::rel(0),
                    Term::pi(
                        "l",
                        Term::app(Term::ind("list"), [Term::rel(1)]),
                        Term::app(Term::ind("list"), [Term::rel(2)])
                    )
                )
            )
        );
    }

    #[test]
    fn nat_case_types() {
        let nat = nat_decl();
        // Motive `P` as an opaque constant for the test.
        let motive = Term::const_("P");
        // Case for O: P O.
        assert_eq!(
            nat.case_type(0, &[], &motive).unwrap(),
            Term::app(motive.clone(), [Term::construct("nat", 0)])
        );
        // Case for S: ∀ (n : nat), P n → P (S n).
        let expected = Term::pi(
            "n",
            Term::ind("nat"),
            Term::pi(
                "IHn",
                Term::app(motive.clone(), [Term::rel(0)]),
                Term::app(
                    motive.clone(),
                    [Term::app(Term::construct("nat", 1), [Term::rel(1)])],
                ),
            ),
        );
        assert_eq!(nat.case_type(1, &[], &motive).unwrap(), expected);
    }

    #[test]
    fn list_case_type_with_params() {
        let list = list_decl();
        let t0 = Term::const_("A");
        let motive = Term::const_("P");
        // cons case: ∀ (t : A) (l : list A), P l → P (cons A t l)
        let expected = Term::pi(
            "t",
            t0.clone(),
            Term::pi(
                "l",
                Term::app(Term::ind("list"), [t0.clone()]),
                Term::pi(
                    "IHl",
                    Term::app(motive.clone(), [Term::rel(0)]),
                    Term::app(
                        motive.clone(),
                        [Term::app(
                            Term::construct("list", 1),
                            [t0.clone(), Term::rel(2), Term::rel(1)],
                        )],
                    ),
                ),
            ),
        );
        assert_eq!(list.case_type(1, &[t0], &motive).unwrap(), expected);
    }

    #[test]
    fn positivity_rejects_negative_occurrence() {
        // bad := Ind bad { mk : (bad → bool) → bad }
        let bad = InductiveDecl {
            name: "bad".into(),
            params: vec![],
            indices: vec![],
            sort: Sort::Set,
            ctors: vec![CtorDecl {
                name: "mk".into(),
                args: vec![Binder::new(
                    "f",
                    Term::arrow(Term::ind("bad"), Term::ind("bool")),
                )],
                result_indices: vec![],
            }],
        };
        assert!(matches!(
            bad.check_positivity(),
            Err(KernelError::Positivity { .. })
        ));
    }

    #[test]
    fn positivity_accepts_list() {
        assert!(list_decl().check_positivity().is_ok());
        assert!(nat_decl().check_positivity().is_ok());
    }
}
