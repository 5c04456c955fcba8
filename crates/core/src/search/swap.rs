//! Automatic configuration for renaming and permuting constructors of
//! inductive types (paper §3.3 search procedure 2, case study §6.1).
//!
//! Given two non-indexed inductive families with the same constructor
//! *shapes* up to a bijection, [`discover_mappings`] enumerates all
//! type-correct constructor mappings (the paper's "all other 23 type-correct
//! permutations" for the REPLICA `Term`), [`configure_with`] builds the
//! configuration for a chosen mapping, and [`configure`] picks the most
//! name-preserving mapping automatically — presented first, exactly like the
//! paper's interactive prompt.
//!
//! The generated equivalence (`f`, `g`, `section`, `retraction` — paper
//! Fig. 3) is defined in the environment and therefore *checked by the
//! kernel*; configuration succeeds only if the proofs go through.

use pumpkin_kernel::env::Env;
use pumpkin_kernel::inductive::InductiveDecl;
use pumpkin_kernel::name::GlobalName;
use pumpkin_kernel::term::{Binder, ElimData, Term, TermData};

use crate::config::{EquivalenceNames, Lifting, MatchedElim, NameMap, SideBuild, SideMatch};
use crate::error::{RepairError, Result};

/// Source-side recognizers: the type, its constructors, and its eliminator
/// are all syntactic (paper §4.2.1: "unification is straightforward, since
/// DepConstr and DepElim correspond to Constr and Elim directly").
pub struct SwapMatch {
    a: GlobalName,
}

impl SideMatch for SwapMatch {
    fn match_type(&self, _env: &Env, t: &Term) -> Option<Vec<Term>> {
        let (name, args) = t.as_ind_app()?;
        (name == &self.a).then(|| args.to_vec())
    }

    fn match_constr(&self, _env: &Env, t: &Term) -> Option<(usize, Vec<Term>)> {
        let (name, j, args) = t.as_construct_app()?;
        (name == &self.a).then(|| (j, args.to_vec()))
    }

    fn match_elim(&self, _env: &Env, t: &Term) -> Option<MatchedElim> {
        match t.data() {
            TermData::Elim(e) if e.ind == self.a => Some(MatchedElim {
                type_args: e.params.clone(),
                motive: e.motive.clone(),
                cases: e.cases.clone(),
                scrutinee: e.scrutinee.clone(),
            }),
            _ => None,
        }
    }
}

/// Target-side builders: permute constructor indices and eliminator cases.
pub struct SwapBuild {
    b: GlobalName,
    /// `perm[j]` is the index in `b` of the dependent constructor `j`.
    perm: Vec<usize>,
}

impl SideBuild for SwapBuild {
    fn build_type(&self, _env: &Env, args: Vec<Term>) -> Result<Term> {
        Ok(Term::app(Term::ind(self.b.clone()), args))
    }

    fn build_constr(&self, _env: &Env, j: usize, args: Vec<Term>) -> Result<Term> {
        let j2 = *self
            .perm
            .get(j)
            .ok_or_else(|| RepairError::BadMapping(format!("no constructor #{j}")))?;
        Ok(Term::app(Term::construct(self.b.clone(), j2), args))
    }

    fn build_elim(&self, _env: &Env, me: MatchedElim) -> Result<Term> {
        let mut cases = vec![Term::sort(pumpkin_kernel::universe::Sort::Prop); me.cases.len()];
        for (j, c) in me.cases.into_iter().enumerate() {
            let j2 = *self
                .perm
                .get(j)
                .ok_or_else(|| RepairError::BadMapping(format!("no constructor #{j}")))?;
            cases[j2] = c;
        }
        Ok(Term::elim(ElimData {
            ind: self.b.clone(),
            params: me.type_args,
            motive: me.motive,
            cases,
            scrutinee: me.scrutinee,
        }))
    }
}

/// Are two constructor argument telescopes equal up to exchanging the two
/// family names (and ignoring binder hints)?
fn same_shape(a_name: &GlobalName, b_name: &GlobalName, a: &[Binder], b: &[Binder]) -> bool {
    fn rename(t: &Term, from: &GlobalName, to: &GlobalName) -> Term {
        match t.data() {
            TermData::Ind(n) if n == from => Term::ind(to.clone()),
            TermData::Construct(n, j) if n == from => Term::construct(to.clone(), *j),
            _ => {
                let t = t.map_children(|c, _| rename(c, from, to));
                match t.data() {
                    TermData::Elim(e) if e.ind == *from => Term::elim(ElimData {
                        ind: to.clone(),
                        ..e.clone()
                    }),
                    _ => t,
                }
            }
        }
    }
    a.len() == b.len()
        && a.iter()
            .zip(b.iter())
            .all(|(x, y)| rename(&x.ty, a_name, b_name) == y.ty)
}

/// Enumerates every type-correct constructor mapping from `a` to `b`
/// (bijections preserving argument shapes), ordered so that the most
/// name-preserving mapping comes first — the paper presents "the desired
/// transformation as the first option in the list" (§6.1.2).
pub fn discover_mappings(a: &InductiveDecl, b: &InductiveDecl) -> Vec<Vec<usize>> {
    discover_mappings_bounded(a, b, 10_000)
}

/// [`discover_mappings`] with an explicit candidate cap. Highly ambiguous
/// types (like the paper's 30-constructor `Enum`, with 30! shape-correct
/// mappings) stop enumerating at the cap; ranking still applies to the
/// candidates found.
pub fn discover_mappings_bounded(
    a: &InductiveDecl,
    b: &InductiveDecl,
    cap: usize,
) -> Vec<Vec<usize>> {
    let n = a.ctors.len();
    if n != b.ctors.len() || a.nindices() != 0 || b.nindices() != 0 {
        return Vec::new();
    }
    let mut out: Vec<Vec<usize>> = Vec::new();
    let mut perm: Vec<usize> = Vec::with_capacity(n);
    let mut used = vec![false; n];
    fn go(
        a: &InductiveDecl,
        b: &InductiveDecl,
        perm: &mut Vec<usize>,
        used: &mut Vec<bool>,
        out: &mut Vec<Vec<usize>>,
        cap: usize,
    ) {
        if out.len() >= cap {
            return;
        }
        let j = perm.len();
        if j == a.ctors.len() {
            out.push(perm.clone());
            return;
        }
        for k in 0..b.ctors.len() {
            if !used[k] && same_shape(&a.name, &b.name, &a.ctors[j].args, &b.ctors[k].args) {
                used[k] = true;
                perm.push(k);
                go(a, b, perm, used, out, cap);
                perm.pop();
                used[k] = false;
            }
        }
    }
    go(a, b, &mut perm, &mut used, &mut out, cap);

    // Rank by how many constructor base names are preserved.
    let score = |perm: &Vec<usize>| -> usize {
        perm.iter()
            .enumerate()
            .filter(|(j, k)| a.ctors[*j].name.basename() == b.ctors[**k].name.basename())
            .count()
    };
    out.sort_by_key(|p| std::cmp::Reverse(score(p)));
    out
}

/// Context for generating the Fig. 3 equivalence for a same-shape mapping.
struct EquivGen;

impl EquivGen {
    /// `fun params (x : Src params) => Elim(x, fun _ => Dst params){cases}`
    /// where each case rebuilds the image constructor from arguments,
    /// replacing recursive arguments with induction hypotheses.
    fn map_fn(&self, src: &InductiveDecl, dst: &InductiveDecl, ctor_map: &[usize]) -> Result<Term> {
        let p = src.nparams();
        let param_refs_at =
            |extra: usize| -> Vec<Term> { (0..p).map(|i| Term::rel(extra + p - 1 - i)).collect() };
        // Under params + (x : Src params):
        let src_ty = Term::app(Term::ind(src.name.clone()), param_refs_at(0));
        let motive = Term::lambda(
            "_x",
            Term::app(Term::ind(src.name.clone()), param_refs_at(1)),
            Term::app(Term::ind(dst.name.clone()), param_refs_at(2)),
        );
        let mut cases = Vec::new();
        for (j, _) in src.ctors.iter().enumerate() {
            // Case type gives us binder types (args + IHs interleaved).
            let case_ty = src.case_type(j, &param_refs_at(1), &motive)?;
            let (binders, _) = case_ty.strip_pis();
            let flags = src.recursive_flags(j);
            let nb = binders.len();
            // References in constructor-argument order: recursive args use
            // their IH (which follows them immediately).
            let mut refs = Vec::new();
            let mut pos = 0usize; // position among binders
            for &rec in &flags {
                if rec {
                    // binder `pos` is the arg, `pos + 1` is the IH.
                    refs.push(Term::rel(nb - 1 - (pos + 1)));
                    pos += 2;
                } else {
                    refs.push(Term::rel(nb - 1 - pos));
                    pos += 1;
                }
            }
            let body = Term::app(
                Term::construct(dst.name.clone(), ctor_map[j]),
                param_refs_at(1 + nb).into_iter().chain(refs),
            );
            cases.push(Term::lambdas(binders, body));
        }
        let body = Term::elim(ElimData {
            ind: src.name.clone(),
            params: param_refs_at(1),
            motive,
            cases,
            scrutinee: Term::rel(0),
        });
        let mut binders = src.params.clone();
        binders.push(Binder::new("x", src_ty));
        Ok(Term::lambdas(binders, body))
    }

    /// Round-trip proof `∀ params (x : Src), back (fwd x) = x`, where `fwd`
    /// and `back` are constants. Cases use `eq_refl`, `f_equal`, or
    /// `f_equal2` depending on the number of recursive arguments.
    fn roundtrip_proof(
        &self,
        src: &InductiveDecl,
        fwd: &GlobalName,
        back: &GlobalName,
    ) -> Result<Term> {
        let p = src.nparams();
        let param_refs_at =
            |extra: usize| -> Vec<Term> { (0..p).map(|i| Term::rel(extra + p - 1 - i)).collect() };
        let src_at = |extra: usize| Term::app(Term::ind(src.name.clone()), param_refs_at(extra));
        let round = |x: Term, extra: usize| -> Term {
            Term::app(
                Term::const_(back.clone()),
                param_refs_at(extra).into_iter().chain([Term::app(
                    Term::const_(fwd.clone()),
                    param_refs_at(extra).into_iter().chain([x]),
                )]),
            )
        };
        // motive := fun (x : Src) => eq Src (back (fwd x)) x, under params.
        let motive = Term::lambda(
            "x",
            src_at(1),
            Term::app(
                Term::ind("eq"),
                [src_at(2), round(Term::rel(0), 2), Term::rel(0)],
            ),
        );
        let mut cases = Vec::new();
        for (j, _ctor) in src.ctors.iter().enumerate() {
            let case_ty = src.case_type(j, &param_refs_at(1), &motive)?;
            let (binders, _) = case_ty.strip_pis();
            let flags = src.recursive_flags(j);
            let nb = binders.len();
            let depth = 1 + nb; // params then (x-binder? no) — binders under params+... motive consumed x
                                // Positions of args and IHs among binders.
            let mut arg_refs = Vec::new();
            let mut ih_refs = Vec::new();
            let mut rec_positions = Vec::new(); // indices (into ctor args) of recursive args
            let mut pos = 0usize;
            for (i, &rec) in flags.iter().enumerate() {
                arg_refs.push(Term::rel(nb - 1 - pos));
                if rec {
                    ih_refs.push(Term::rel(nb - 1 - (pos + 1)));
                    rec_positions.push(i);
                    pos += 2;
                } else {
                    pos += 1;
                }
            }
            let ctor_app = |args: Vec<Term>| {
                Term::app(
                    Term::construct(src.name.clone(), j),
                    param_refs_at(depth).into_iter().chain(args),
                )
            };
            let src_here = src_at(depth);
            let body = match rec_positions.len() {
                0 => Term::app(
                    Term::construct("eq", 0),
                    [src_here, ctor_app(arg_refs.clone())],
                ),
                1 => {
                    let ri = rec_positions[0];
                    // fun (z : Src) => C … z …  (z at the recursive slot)
                    let congr_fn = {
                        let mut zargs = Vec::new();
                        for (i, a) in arg_refs.iter().enumerate() {
                            if i == ri {
                                zargs.push(Term::rel(0));
                            } else {
                                zargs.push(pumpkin_kernel::subst::lift(a, 1));
                            }
                        }
                        Term::lambda(
                            "z",
                            src_at(depth),
                            Term::app(
                                Term::construct(src.name.clone(), j),
                                param_refs_at(depth + 1).into_iter().chain(zargs),
                            ),
                        )
                    };
                    let x = round(arg_refs[ri].clone(), depth);
                    let y = arg_refs[ri].clone();
                    Term::app(
                        Term::const_("f_equal"),
                        [
                            src_here.clone(),
                            src_here,
                            congr_fn,
                            x,
                            y,
                            ih_refs[0].clone(),
                        ],
                    )
                }
                2 => {
                    let (r1, r2) = (rec_positions[0], rec_positions[1]);
                    // fun (z1 z2 : Src) => C … z1 … z2 …
                    let congr_fn = {
                        let mut zargs = Vec::new();
                        for (i, a) in arg_refs.iter().enumerate() {
                            if i == r1 {
                                zargs.push(Term::rel(1));
                            } else if i == r2 {
                                zargs.push(Term::rel(0));
                            } else {
                                zargs.push(pumpkin_kernel::subst::lift(a, 2));
                            }
                        }
                        Term::lambda(
                            "z1",
                            src_at(depth),
                            Term::lambda(
                                "z2",
                                src_at(depth + 1),
                                Term::app(
                                    Term::construct(src.name.clone(), j),
                                    param_refs_at(depth + 2).into_iter().chain(zargs),
                                ),
                            ),
                        )
                    };
                    Term::app(
                        Term::const_("f_equal2"),
                        [
                            src_here.clone(),
                            src_here.clone(),
                            src_here,
                            congr_fn,
                            round(arg_refs[r1].clone(), depth),
                            arg_refs[r1].clone(),
                            round(arg_refs[r2].clone(), depth),
                            arg_refs[r2].clone(),
                            ih_refs[0].clone(),
                            ih_refs[1].clone(),
                        ],
                    )
                }
                k => {
                    return Err(RepairError::BadMapping(format!(
                        "constructors with {k} recursive arguments are not supported \
                         by the swap equivalence generator"
                    )))
                }
            };
            cases.push(Term::lambdas(binders, body));
        }
        let body = Term::elim(ElimData {
            ind: src.name.clone(),
            params: param_refs_at(1),
            motive,
            cases,
            scrutinee: Term::rel(0),
        });
        let mut binders = src.params.clone();
        binders.push(Binder::new("x", src_at(0)));
        Ok(Term::lambdas(binders, body))
    }
}

/// Declares the Fig. 3 equivalence for a chosen mapping and returns its
/// names. The kernel checks every generated term.
fn generate_equivalence(
    env: &mut Env,
    a: &InductiveDecl,
    b: &InductiveDecl,
    perm: &[usize],
) -> Result<EquivalenceNames> {
    let inv: Vec<usize> = {
        let mut inv = vec![0; perm.len()];
        for (j, &k) in perm.iter().enumerate() {
            inv[k] = j;
        }
        inv
    };
    let gen = EquivGen;
    let p = a.nparams();
    let fn_ty = |src: &InductiveDecl, dst: &InductiveDecl| -> Term {
        let mut binders = src.params.clone();
        binders.push(Binder::new(
            "x",
            Term::app(
                Term::ind(src.name.clone()),
                (0..p).map(|i| Term::rel(p - 1 - i)),
            ),
        ));
        Term::pis(
            binders,
            Term::app(
                Term::ind(dst.name.clone()),
                (0..p).map(|i| Term::rel(p - i)),
            ),
        )
    };
    let round_ty = |src: &InductiveDecl, fwd: &GlobalName, back: &GlobalName| -> Term {
        let src_at = |extra: usize| {
            Term::app(
                Term::ind(src.name.clone()),
                (0..p).map(move |i| Term::rel(extra + p - 1 - i)),
            )
        };
        let mut binders = src.params.clone();
        binders.push(Binder::new("x", src_at(0)));
        let x = Term::rel(0);
        let fx = Term::app(
            Term::const_(fwd.clone()),
            (0..p).map(|i| Term::rel(1 + p - 1 - i)).chain([x.clone()]),
        );
        let gfx = Term::app(
            Term::const_(back.clone()),
            (0..p).map(|i| Term::rel(1 + p - 1 - i)).chain([fx]),
        );
        Term::pis(binders, Term::app(Term::ind("eq"), [src_at(1), gfx, x]))
    };

    let f_name = GlobalName::new(format!("{}_to_{}", a.name, b.name));
    let g_name = GlobalName::new(format!("{}_to_{}", b.name, a.name));
    let section_name = GlobalName::new(format!("{f_name}_section"));
    let retraction_name = GlobalName::new(format!("{f_name}_retraction"));

    define_or_reuse(env, &f_name, fn_ty(a, b), gen.map_fn(a, b, perm)?)?;
    define_or_reuse(env, &g_name, fn_ty(b, a), gen.map_fn(b, a, &inv)?)?;
    let section = gen.roundtrip_proof(a, &f_name, &g_name)?;
    define_or_reuse(env, &section_name, round_ty(a, &f_name, &g_name), section)?;
    let retraction = gen.roundtrip_proof(b, &g_name, &f_name)?;
    define_or_reuse(
        env,
        &retraction_name,
        round_ty(b, &g_name, &f_name),
        retraction,
    )?;
    Ok(EquivalenceNames {
        f: f_name,
        g: g_name,
        section: section_name,
        retraction: retraction_name,
    })
}

/// Declares `name : ty := body`, or keeps an existing declaration of
/// `name` that is exactly this one. Any other declaration under the name
/// belongs to another mapping (or to something else entirely), and reusing
/// it would pair this mapping's builder with that equivalence.
fn define_or_reuse(env: &mut Env, name: &GlobalName, ty: Term, body: Term) -> Result<()> {
    if !env.contains(name.as_str()) {
        env.define(name.clone(), ty, body)?;
        return Ok(());
    }
    match env.const_decl(name) {
        Ok(d) if d.ty == ty && d.body.as_ref() == Some(&body) => Ok(()),
        _ => Err(RepairError::BadMapping(format!(
            "`{name}` is already declared, and not as this mapping's equivalence"
        ))),
    }
}

/// Renders a candidate mapping for the interactive selection prompt
/// (paper §6.1.3: "an interactive interface to choose between mappings when
/// there are multiple possible mappings").
pub fn describe_mapping(a: &InductiveDecl, b: &InductiveDecl, perm: &[usize]) -> String {
    perm.iter()
        .enumerate()
        .map(|(j, &k)| format!("{} ↦ {}", a.ctors[j].name, b.ctors[k].name))
        .collect::<Vec<_>>()
        .join(", ")
}

/// Configures a lifting for an explicit constructor mapping.
///
/// # Errors
///
/// Fails if the mapping is not a type-correct bijection or the generated
/// equivalence does not check.
pub fn configure_with(
    env: &mut Env,
    a_name: &GlobalName,
    b_name: &GlobalName,
    perm: &[usize],
    names: NameMap,
) -> Result<Lifting> {
    let a = env.inductive(a_name)?.clone();
    let b = env.inductive(b_name)?.clone();
    if perm.len() != a.ctors.len() {
        return Err(RepairError::BadMapping(format!(
            "mapping has {} entries for {} constructors",
            perm.len(),
            a.ctors.len()
        )));
    }
    let mut seen = vec![false; perm.len()];
    for (j, &k) in perm.iter().enumerate() {
        if k >= b.ctors.len() || seen[k] {
            return Err(RepairError::BadMapping(format!("entry {j} ↦ {k} invalid")));
        }
        if !same_shape(&a.name, &b.name, &a.ctors[j].args, &b.ctors[k].args) {
            return Err(RepairError::BadMapping(format!(
                "constructor {} and {} have different shapes",
                a.ctors[j].name, b.ctors[k].name
            )));
        }
        seen[k] = true;
    }
    let equivalence = generate_equivalence(env, &a, &b, perm)?;
    Ok(Lifting {
        a_name: a_name.clone(),
        b_name: b_name.clone(),
        matcher: Box::new(SwapMatch { a: a_name.clone() }),
        builder: Box::new(SwapBuild {
            b: b_name.clone(),
            perm: perm.to_vec(),
        }),
        names,
        equivalence: Some(equivalence),
    })
}

/// Automatic configuration: discovers all type-correct mappings and uses the
/// most name-preserving one (index 0 of [`discover_mappings`]).
///
/// # Errors
///
/// Fails if no type-correct mapping exists.
pub fn configure(
    env: &mut Env,
    a_name: &GlobalName,
    b_name: &GlobalName,
    names: NameMap,
) -> Result<Lifting> {
    let a = env.inductive(a_name)?.clone();
    let b = env.inductive(b_name)?.clone();
    let mappings = discover_mappings(&a, &b);
    let best = mappings.first().ok_or_else(|| RepairError::SearchFailed {
        from: a_name.clone(),
        to: b_name.clone(),
        reason: "no type-correct constructor mapping".into(),
    })?;
    configure_with(env, a_name, b_name, best, names)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pumpkin_kernel::reduce::normalize;
    use pumpkin_stdlib as stdlib;

    #[test]
    fn discovers_unique_list_mapping() {
        let env = stdlib::std_env();
        let a = env.inductive(&"Old.list".into()).unwrap();
        let b = env.inductive(&"New.list".into()).unwrap();
        let m = discover_mappings(a, b);
        assert_eq!(m, vec![vec![1, 0]]);
    }

    #[test]
    fn discovers_24_term_mappings_with_desired_first() {
        let env = stdlib::std_env();
        let a = env.inductive(&"Old.Term".into()).unwrap();
        let b = env.inductive(&"New.Term".into()).unwrap();
        let m = discover_mappings(a, b);
        // Eq/Plus/Times/Minus share a shape: 4! = 24 candidates; the paper
        // reports discovering the desired one plus "all other 23".
        assert_eq!(m.len(), 24);
        // The name-preserving mapping comes first: Old.Int (#1) ↦ New.Int
        // (#2), Old.Eq (#2) ↦ New.Eq (#1), everything else fixed.
        assert_eq!(m[0], vec![0, 2, 1, 3, 4, 5, 6]);
    }

    #[test]
    fn swap_equivalence_typechecks_and_computes() {
        let mut env = stdlib::std_env();
        let l = configure(
            &mut env,
            &"Old.list".into(),
            &"New.list".into(),
            NameMap::prefix("Old.", "New."),
        )
        .unwrap();
        let eqv = l.equivalence.as_ref().unwrap();
        assert_eq!(eqv.f.as_str(), "Old.list_to_New.list");
        // f [1] = New.cons 1 New.nil (constructor indices swapped).
        let one = stdlib::nat::nat_lit(1);
        let old_list =
            stdlib::list::list_lit("Old.list", Term::ind("nat"), std::slice::from_ref(&one));
        let fx = Term::app(
            Term::const_(eqv.f.clone()),
            [Term::ind("nat"), old_list.clone()],
        );
        let expect = Term::app(
            Term::construct("New.list", 0),
            [
                Term::ind("nat"),
                one,
                Term::app(Term::construct("New.list", 1), [Term::ind("nat")]),
            ],
        );
        assert_eq!(normalize(&env, &fx), expect);
        // g (f x) normalizes back to x.
        let gfx = Term::app(Term::const_(eqv.g.clone()), [Term::ind("nat"), fx]);
        assert_eq!(normalize(&env, &gfx), old_list);
    }

    #[test]
    fn term_language_equivalence_typechecks() {
        let mut env = stdlib::std_env();
        let l = configure(
            &mut env,
            &"Old.Term".into(),
            &"New.Term".into(),
            NameMap::prefix("Old.", "New."),
        )
        .unwrap();
        assert!(l.equivalence.is_some());
        assert!(env.contains("Old.Term_to_New.Term_section"));
        assert!(env.contains("Old.Term_to_New.Term_retraction"));
    }

    #[test]
    fn a_second_mapping_on_one_env_refuses_the_first_ones_equivalence() {
        use pumpkin_kernel::inductive::{CtorDecl, InductiveDecl};
        use pumpkin_kernel::universe::Sort;
        let mut env = stdlib::std_env();
        for (family, ctors) in [
            ("Old.c", ["Old.ra", "Old.rb", "Old.rc"]),
            ("New.c", ["New.ra", "New.rb", "New.rc"]),
        ] {
            let ctors = ctors
                .iter()
                .map(|c| CtorDecl {
                    name: (*c).into(),
                    args: vec![],
                    result_indices: vec![],
                })
                .collect();
            env.declare_inductive(InductiveDecl {
                name: family.into(),
                params: vec![],
                indices: vec![],
                sort: Sort::Set,
                ctors,
            })
            .unwrap();
        }
        let (a, b) = (GlobalName::new("Old.c"), GlobalName::new("New.c"));
        let first = configure_with(&mut env, &a, &b, &[0, 1, 2], NameMap::default()).unwrap();
        let f = first.equivalence.unwrap().f;
        let f_ra = Term::app(Term::const_(f.clone()), [Term::construct("Old.c", 0)]);
        assert_eq!(normalize(&env, &f_ra), Term::construct("New.c", 0));
        // The same mapping again reuses its own declarations.
        assert!(configure_with(&mut env, &a, &b, &[0, 1, 2], NameMap::default()).is_ok());
        // Another mapping must not inherit them: under [1, 2, 0] the
        // first mapping's `f` would still send `Old.ra` to `New.c!0`.
        match configure_with(&mut env, &a, &b, &[1, 2, 0], NameMap::default()) {
            Err(RepairError::BadMapping(msg)) => assert!(msg.contains("`Old.c_to_New.c`"), "{msg}"),
            other => panic!(
                "expected BadMapping, got {:?}",
                other.map(|l| l.equivalence)
            ),
        }
        // In an env of its own, the second mapping computes as it says.
        let mut fresh = env.clone();
        for n in [
            "Old.c_to_New.c_retraction",
            "Old.c_to_New.c_section",
            "New.c_to_Old.c",
            "Old.c_to_New.c",
        ] {
            fresh.remove(&n.into()).unwrap();
        }
        let second = configure_with(&mut fresh, &a, &b, &[1, 2, 0], NameMap::default()).unwrap();
        assert_eq!(second.equivalence.unwrap().f, f);
        assert_eq!(normalize(&fresh, &f_ra), Term::construct("New.c", 1));
    }

    #[test]
    fn rejects_bad_mapping() {
        let mut env = stdlib::std_env();
        let r = configure_with(
            &mut env,
            &"Old.list".into(),
            &"New.list".into(),
            &[0, 1], // wrong: shapes don't line up
            NameMap::default(),
        );
        assert!(matches!(r, Err(RepairError::BadMapping(_))));
    }
}
