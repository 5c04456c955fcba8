//! Automatic configuration for porting between anonymous (right-nested)
//! tuples and named records (paper §6.4, Fig. 17) — the search procedure
//! added for the Galois proof engineer.
//!
//! The tuple side's unification heuristics are the interesting part
//! (paper §4.2.1, `liftconfig.ml`):
//!
//! * projection *chains* `fst (snd (… (snd c)))` are recognized as record
//!   field projections, by locating each `fst`/`snd`'s type arguments in the
//!   tuple's field/tail spine;
//! * *partial* pair chains (e.g. `(x, (y, snd (snd c)))`, as produced by the
//!   SAWCore compiler's `cork`) are η-expanded: the reused tail is split
//!   into the remaining field projections (the paper handles non-primitive
//!   projections "using Eta").
//!
//! Both directions are supported, which is what the Galois round-trip
//! workflow needs: port generated functions to records, prove over records,
//! port proofs back.

use pumpkin_kernel::conv::conv;
use pumpkin_kernel::env::Env;
use pumpkin_kernel::name::GlobalName;
use pumpkin_kernel::reduce::whnf;
use pumpkin_kernel::subst::lift;
use pumpkin_kernel::term::{ElimData, Term, TermData};

use crate::config::{
    EquivalenceNames, Lifting, MatchedElim, MatchedProj, NameMap, SideBuild, SideMatch,
};
use crate::error::{RepairError, Result};

/// The analyzed shape of a right-nested tuple type.
#[derive(Clone, Debug)]
pub struct TupleSpec {
    /// The named tuple type (a transparent constant, e.g. `Connection`).
    pub tuple: GlobalName,
    /// Field types, as written (closed terms), `fields.len() == n ≥ 2`.
    pub fields: Vec<Term>,
    /// The "rest" type argument at each pair level `k < n-1`, as written
    /// (e.g. `Conn2`, …); `snd_tys[n-2] == fields[n-1]`.
    pub snd_tys: Vec<Term>,
}

impl TupleSpec {
    /// Number of fields.
    pub fn arity(&self) -> usize {
        self.fields.len()
    }

    /// Which pair level has `(A, B)` as its type arguments?
    fn level_of(&self, env: &Env, a: &Term, b: &Term) -> Option<usize> {
        (0..self.arity() - 1)
            .find(|&k| conv(env, a, &self.fields[k]) && conv(env, b, &self.snd_tys[k]))
    }

    /// A projection chain for field `i`, rooted at `target` (which has the
    /// tail type of `from_level`).
    fn proj_term(&self, i: usize, from_level: usize, target: Term) -> Term {
        let n = self.arity();
        debug_assert!(i >= from_level);
        let mut t = target;
        // Walk snd's from `from_level` up to the level we need.
        let upto = if i == n - 1 { n - 1 } else { i };
        for k in from_level..upto {
            t = Term::app(
                Term::const_("snd"),
                [self.fields[k].clone(), self.snd_tys[k].clone(), t],
            );
        }
        if i < n - 1 {
            t = Term::app(
                Term::const_("fst"),
                [self.fields[i].clone(), self.snd_tys[i].clone(), t],
            );
        }
        t
    }

    /// The full right-nested pair chain for the given field values.
    fn pair_chain(&self, args: &[Term]) -> Term {
        let n = self.arity();
        debug_assert_eq!(args.len(), n);
        let mut t = args[n - 1].clone();
        for k in (0..n - 1).rev() {
            t = Term::app(
                Term::construct("prod", 0),
                [
                    self.fields[k].clone(),
                    self.snd_tys[k].clone(),
                    args[k].clone(),
                    t,
                ],
            );
        }
        t
    }
}

/// Analyzes a named tuple type constant into its field/tail spine.
///
/// # Errors
///
/// Fails if the constant does not unfold to a right-nested `prod` of at
/// least two closed field types.
pub fn analyze_tuple(env: &Env, tuple: &GlobalName) -> Result<TupleSpec> {
    let mut fields = Vec::new();
    let mut snd_tys = Vec::new();
    let mut t = Term::const_(tuple.clone());
    loop {
        let w = whnf(env, &t);
        match w.as_ind_app() {
            Some((name, args)) if name.as_str() == "prod" && args.len() == 2 => {
                fields.push(args[0].clone());
                snd_tys.push(args[1].clone());
                t = args[1].clone();
            }
            _ => {
                fields.push(t.clone());
                snd_tys.pop();
                // The last recorded snd_ty equals the last field; restore it.
                snd_tys.push(fields.last().expect("nonempty").clone());
                break;
            }
        }
    }
    if fields.len() < 2 {
        return Err(RepairError::SearchFailed {
            from: tuple.clone(),
            to: tuple.clone(),
            reason: "not a nested product".into(),
        });
    }
    if fields.iter().any(|f| !f.is_closed()) {
        return Err(RepairError::SearchFailed {
            from: tuple.clone(),
            to: tuple.clone(),
            reason: "open field types are not supported".into(),
        });
    }
    Ok(TupleSpec {
        tuple: tuple.clone(),
        fields,
        snd_tys,
    })
}

// ---------------------------------------------------------------------
// Tuple side
// ---------------------------------------------------------------------

struct TupleMatch {
    spec: TupleSpec,
}

impl TupleMatch {
    /// Matches a (possibly partial) pair chain starting at `level`,
    /// η-expanding a reused tail into projections.
    fn match_chain(&self, env: &Env, t: &Term, level: usize) -> Option<Vec<Term>> {
        let n = self.spec.arity();
        if level == n - 1 {
            return Some(vec![t.clone()]);
        }
        if let Some((ind, 0, args)) = t.as_construct_app() {
            if ind.as_str() == "prod" && args.len() == 4 {
                let matches_level = conv(env, &args[0], &self.spec.fields[level])
                    && conv(env, &args[1], &self.spec.snd_tys[level]);
                if matches_level {
                    let mut out = vec![args[2].clone()];
                    out.extend(self.match_chain(env, &args[3], level + 1)?);
                    return Some(out);
                }
            }
        }
        if level == 0 {
            // The whole term must be a pair to count as DepConstr.
            return None;
        }
        // η: a reused tail expands into the remaining projections.
        Some(
            (level..n)
                .map(|i| self.spec.proj_term(i, level, t.clone()))
                .collect(),
        )
    }
}

impl SideMatch for TupleMatch {
    fn match_type(&self, _env: &Env, t: &Term) -> Option<Vec<Term>> {
        match t.data() {
            TermData::Const(c) if c == &self.spec.tuple => Some(Vec::new()),
            _ => None,
        }
    }

    fn match_constr(&self, env: &Env, t: &Term) -> Option<(usize, Vec<Term>)> {
        self.match_chain(env, t, 0).map(|args| (0, args))
    }

    fn match_elim(&self, _env: &Env, _t: &Term) -> Option<MatchedElim> {
        // Tuple-side eliminations in the corpus appear as projection chains,
        // which are handled by `match_proj`.
        None
    }

    fn match_proj(&self, env: &Env, t: &Term) -> Option<MatchedProj> {
        // Peel fst/snd applications, recording each op's level.
        let n = self.spec.arity();
        let mut ops: Vec<(bool, usize)> = Vec::new(); // (is_fst, level), outermost first
        let mut cur = t.clone();
        #[allow(clippy::while_let_loop)]
        loop {
            let Some((c, args)) = cur.as_const_app() else {
                break;
            };
            if args.len() != 3 {
                break;
            }
            let is_fst = match c.as_str() {
                "fst" => true,
                "snd" => false,
                _ => break,
            };
            let Some(level) = self.spec.level_of(env, &args[0], &args[1]) else {
                break;
            };
            ops.push((is_fst, level));
            cur = args[2].clone();
        }
        if ops.is_empty() {
            return None;
        }
        // Innermost op must be at level 0, levels decrease inward by 1, all
        // inner ops are snd.
        let innermost = ops.len() - 1;
        for (i, &(is_fst, level)) in ops.iter().enumerate() {
            let expected_level = innermost - i;
            if level != expected_level {
                return None;
            }
            if i != 0 && is_fst {
                return None;
            }
        }
        let (outer_fst, outer_level) = ops[0];
        let field = if outer_fst {
            outer_level
        } else if outer_level == n - 2 {
            n - 1
        } else {
            return None;
        };
        Some(MatchedProj { field, target: cur })
    }
}

struct TupleBuild {
    spec: TupleSpec,
}

impl TupleBuild {
    /// Nested `prod` eliminations realizing the record's dependent
    /// eliminator over the tuple (used when porting record-destructuring
    /// proofs back).
    fn nested_elim(&self, motive: &Term, case: &Term, scrut: &Term) -> Term {
        let spec = &self.spec;
        let n = spec.arity();
        // chain(xs, r): the pair chain of fields 0..k-1 (xs) ending in r.
        fn chain(spec: &TupleSpec, xs: &[Term], r: Term) -> Term {
            let mut t = r;
            for (k, x) in xs.iter().enumerate().rev() {
                t = Term::app(
                    Term::construct("prod", 0),
                    [
                        spec.fields[k].clone(),
                        spec.snd_tys[k].clone(),
                        x.clone(),
                        t,
                    ],
                );
            }
            t
        }
        #[allow(clippy::too_many_arguments)]
        fn level(
            spec: &TupleSpec,
            n: usize,
            motive: &Term,
            case: &Term,
            k: usize,
            extra: usize,
            scrut: Term,
            xs: &[Term],
        ) -> Term {
            let fk = spec.fields[k].clone();
            let tk1 = spec.snd_tys[k].clone();
            // motive_k = fun (r : prod fk tk1) => P (chain(xs, r))
            let xs1: Vec<Term> = xs.iter().map(|x| lift(x, 1)).collect();
            let motive_k = Term::lambda(
                "r",
                Term::app(Term::ind("prod"), [fk.clone(), tk1.clone()]),
                Term::app(lift(motive, extra + 1), [chain(spec, &xs1, Term::rel(0))]),
            );
            let xs2: Vec<Term> = xs.iter().map(|x| lift(x, 2)).collect();
            let inner = if k == n - 2 {
                let mut args = xs2.clone();
                args.push(Term::rel(1));
                args.push(Term::rel(0));
                Term::app(lift(case, extra + 2), args)
            } else {
                let mut xs_next = xs2.clone();
                xs_next.push(Term::rel(1));
                level(
                    spec,
                    n,
                    motive,
                    case,
                    k + 1,
                    extra + 2,
                    Term::rel(0),
                    &xs_next,
                )
            };
            let case_k = Term::lambda("x", fk.clone(), Term::lambda("rest", lift(&tk1, 1), inner));
            Term::elim(ElimData {
                ind: "prod".into(),
                params: vec![fk, tk1],
                motive: motive_k,
                cases: vec![case_k],
                scrutinee: scrut,
            })
        }
        level(spec, n, motive, case, 0, 0, scrut.clone(), &[])
    }
}

impl SideBuild for TupleBuild {
    fn build_type(&self, _env: &Env, _args: Vec<Term>) -> Result<Term> {
        Ok(Term::const_(self.spec.tuple.clone()))
    }

    fn build_constr(&self, _env: &Env, _j: usize, args: Vec<Term>) -> Result<Term> {
        if args.len() != self.spec.arity() {
            return Err(RepairError::UnificationFailed {
                term: Term::const_(self.spec.tuple.clone()),
                reason: format!(
                    "record constructor applied to {} of {} fields",
                    args.len(),
                    self.spec.arity()
                ),
            });
        }
        Ok(self.spec.pair_chain(&args))
    }

    fn build_elim(&self, _env: &Env, me: MatchedElim) -> Result<Term> {
        if me.cases.len() != 1 {
            return Err(RepairError::UnificationFailed {
                term: Term::const_(self.spec.tuple.clone()),
                reason: "record eliminator must have exactly one case".into(),
            });
        }
        Ok(self.nested_elim(&me.motive, &me.cases[0], &me.scrutinee))
    }

    fn build_proj(&self, _env: &Env, proj: MatchedProj) -> Result<Term> {
        Ok(self.spec.proj_term(proj.field, 0, proj.target))
    }
}

// ---------------------------------------------------------------------
// Record side
// ---------------------------------------------------------------------

struct RecordMatch {
    record: GlobalName,
    projs: Vec<GlobalName>,
}

impl SideMatch for RecordMatch {
    fn match_type(&self, _env: &Env, t: &Term) -> Option<Vec<Term>> {
        let (name, args) = t.as_ind_app()?;
        (name == &self.record && args.is_empty()).then(Vec::new)
    }

    fn match_constr(&self, _env: &Env, t: &Term) -> Option<(usize, Vec<Term>)> {
        let (name, j, args) = t.as_construct_app()?;
        (name == &self.record && j == 0 && args.len() == self.projs.len())
            .then(|| (0, args.to_vec()))
    }

    fn match_elim(&self, _env: &Env, t: &Term) -> Option<MatchedElim> {
        match t.data() {
            TermData::Elim(e) if e.ind == self.record => Some(MatchedElim {
                type_args: Vec::new(),
                motive: e.motive.clone(),
                cases: e.cases.clone(),
                scrutinee: e.scrutinee.clone(),
            }),
            _ => None,
        }
    }

    fn match_proj(&self, _env: &Env, t: &Term) -> Option<MatchedProj> {
        let (c, args) = t.as_const_app()?;
        if args.len() != 1 {
            return None;
        }
        let field = self.projs.iter().position(|p| p == c)?;
        Some(MatchedProj {
            field,
            target: args[0].clone(),
        })
    }
}

struct RecordBuild {
    record: GlobalName,
    projs: Vec<GlobalName>,
}

impl SideBuild for RecordBuild {
    fn build_type(&self, _env: &Env, _args: Vec<Term>) -> Result<Term> {
        Ok(Term::ind(self.record.clone()))
    }

    fn build_constr(&self, _env: &Env, _j: usize, args: Vec<Term>) -> Result<Term> {
        Ok(Term::app(Term::construct(self.record.clone(), 0), args))
    }

    fn build_elim(&self, _env: &Env, me: MatchedElim) -> Result<Term> {
        Ok(Term::elim(ElimData {
            ind: self.record.clone(),
            params: vec![],
            motive: me.motive,
            cases: me.cases,
            scrutinee: me.scrutinee,
        }))
    }

    fn build_proj(&self, _env: &Env, proj: MatchedProj) -> Result<Term> {
        Ok(Term::app(
            Term::const_(self.projs[proj.field].clone()),
            [proj.target],
        ))
    }
}

// ---------------------------------------------------------------------
// Equivalence + configuration
// ---------------------------------------------------------------------

fn generate_equivalence(
    env: &mut Env,
    spec: &TupleSpec,
    record: &GlobalName,
    projs: &[GlobalName],
) -> Result<EquivalenceNames> {
    let n = spec.arity();
    let tuple_ty = Term::const_(spec.tuple.clone());
    let record_ty = Term::ind(record.clone());
    let f_name = GlobalName::new(format!("{}_to_{}", spec.tuple, record));
    let g_name = GlobalName::new(format!("{}_to_{}", record, spec.tuple));
    let section_name = GlobalName::new(format!("{f_name}_section"));
    let retraction_name = GlobalName::new(format!("{f_name}_retraction"));

    if !env.contains(f_name.as_str()) {
        // f := fun (c : T) => MkRecord (proj chains of c).
        let body = Term::app(
            Term::construct(record.clone(), 0),
            (0..n).map(|i| spec.proj_term(i, 0, Term::rel(0))),
        );
        let f = Term::lambda("c", tuple_ty.clone(), body);
        env.define(
            f_name.clone(),
            Term::arrow(tuple_ty.clone(), record_ty.clone()),
            f,
        )?;
    }
    if !env.contains(g_name.as_str()) {
        // g := fun (r : R) => pair chain of record projections.
        let args: Vec<Term> = projs
            .iter()
            .map(|p| Term::app(Term::const_(p.clone()), [Term::rel(0)]))
            .collect();
        let g = Term::lambda("r", record_ty.clone(), spec.pair_chain(&args));
        env.define(
            g_name.clone(),
            Term::arrow(record_ty.clone(), tuple_ty.clone()),
            g,
        )?;
    }
    let eq_app = |ty: &Term, x: Term, y: Term| Term::app(Term::ind("eq"), [ty.clone(), x, y]);
    let round = |outer: &GlobalName, inner: &GlobalName, x: Term| {
        Term::app(
            Term::const_(outer.clone()),
            [Term::app(Term::const_(inner.clone()), [x])],
        )
    };
    if !env.contains(section_name.as_str()) {
        // ∀ c, g (f c) = c: destructure the tuple fully, then refl.
        let ty = Term::pi(
            "c",
            tuple_ty.clone(),
            eq_app(
                &tuple_ty,
                round(&g_name, &f_name, Term::rel(0)),
                Term::rel(0),
            ),
        );
        let motive = Term::lambda(
            "c",
            lift(&tuple_ty, 1),
            eq_app(
                &tuple_ty,
                round(&g_name, &f_name, Term::rel(0)),
                Term::rel(0),
            ),
        );
        // case := fun (x0 … x_{n-1}) => eq_refl T (pair chain of refs).
        let binders: Vec<pumpkin_kernel::term::Binder> = (0..n)
            .map(|i| {
                pumpkin_kernel::term::Binder::new(format!("x{i}").as_str(), spec.fields[i].clone())
            })
            .collect();
        let refs: Vec<Term> = (0..n).map(|i| Term::rel(n - 1 - i)).collect();
        let case = Term::lambdas(
            binders,
            Term::app(
                Term::construct("eq", 0),
                [tuple_ty.clone(), spec.pair_chain(&refs)],
            ),
        );
        let builder = TupleBuild { spec: spec.clone() };
        let body = Term::lambda(
            "c",
            tuple_ty.clone(),
            builder.nested_elim(&motive, &case, &Term::rel(0)),
        );
        env.define(section_name.clone(), ty, body)?;
    }
    if !env.contains(retraction_name.as_str()) {
        // ∀ r, f (g r) = r: one record elimination, then refl.
        let ty = Term::pi(
            "r",
            record_ty.clone(),
            eq_app(
                &record_ty,
                round(&f_name, &g_name, Term::rel(0)),
                Term::rel(0),
            ),
        );
        let binders: Vec<pumpkin_kernel::term::Binder> = (0..n)
            .map(|i| {
                pumpkin_kernel::term::Binder::new(format!("x{i}").as_str(), spec.fields[i].clone())
            })
            .collect();
        let refs: Vec<Term> = (0..n).map(|i| Term::rel(n - 1 - i)).collect();
        let case = Term::lambdas(
            binders,
            Term::app(
                Term::construct("eq", 0),
                [
                    record_ty.clone(),
                    Term::app(Term::construct(record.clone(), 0), refs),
                ],
            ),
        );
        let body = Term::lambda(
            "r",
            record_ty.clone(),
            Term::elim(ElimData {
                ind: record.clone(),
                params: vec![],
                motive: Term::lambda(
                    "r",
                    lift(&record_ty, 1),
                    eq_app(
                        &record_ty,
                        round(&f_name, &g_name, Term::rel(0)),
                        Term::rel(0),
                    ),
                ),
                cases: vec![case],
                scrutinee: Term::rel(0),
            }),
        );
        env.define(retraction_name.clone(), ty, body)?;
    }
    Ok(EquivalenceNames {
        f: f_name,
        g: g_name,
        section: section_name,
        retraction: retraction_name,
    })
}

fn validate(env: &Env, spec: &TupleSpec, record: &GlobalName, projs: &[GlobalName]) -> Result<()> {
    let decl = env.inductive(record)?;
    if decl.ctors.len() != 1 || decl.nparams() != 0 || decl.nindices() != 0 {
        return Err(RepairError::SearchFailed {
            from: spec.tuple.clone(),
            to: record.clone(),
            reason: "target must be a simple single-constructor record".into(),
        });
    }
    let args = &decl.ctors[0].args;
    if args.len() != spec.arity() {
        return Err(RepairError::SearchFailed {
            from: spec.tuple.clone(),
            to: record.clone(),
            reason: format!(
                "record has {} fields, tuple has {}",
                args.len(),
                spec.arity()
            ),
        });
    }
    for (i, b) in args.iter().enumerate() {
        if !conv(env, &b.ty, &spec.fields[i]) {
            return Err(RepairError::SearchFailed {
                from: spec.tuple.clone(),
                to: record.clone(),
                reason: format!("field #{i} type mismatch"),
            });
        }
    }
    if projs.len() != spec.arity() {
        return Err(RepairError::BadMapping(format!(
            "{} projections given for {} fields",
            projs.len(),
            spec.arity()
        )));
    }
    for p in projs {
        env.const_decl(p)
            .map_err(|_| RepairError::MissingDependency(p.clone()))?;
    }
    Ok(())
}

/// Configures tuple → record (the paper's step 1: make generated code
/// readable).
///
/// # Errors
///
/// Fails if the shapes don't correspond or the generated equivalence does
/// not check.
pub fn configure_to_record(
    env: &mut Env,
    tuple: &GlobalName,
    record: &GlobalName,
    projs: &[GlobalName],
    names: NameMap,
) -> Result<Lifting> {
    let spec = analyze_tuple(env, tuple)?;
    validate(env, &spec, record, projs)?;
    let equivalence = generate_equivalence(env, &spec, record, projs)?;
    Ok(Lifting {
        a_name: tuple.clone(),
        b_name: record.clone(),
        matcher: Box::new(TupleMatch { spec: spec.clone() }),
        builder: Box::new(RecordBuild {
            record: record.clone(),
            projs: projs.to_vec(),
        }),
        names,
        equivalence: Some(equivalence),
    })
}

/// Configures record → tuple (the paper's step 3: port the human-written
/// proofs back to the generated representation).
///
/// # Errors
///
/// Fails if the shapes don't correspond or the generated equivalence does
/// not check.
pub fn configure_to_tuple(
    env: &mut Env,
    record: &GlobalName,
    tuple: &GlobalName,
    projs: &[GlobalName],
    names: NameMap,
) -> Result<Lifting> {
    let spec = analyze_tuple(env, tuple)?;
    validate(env, &spec, record, projs)?;
    let equivalence = generate_equivalence(env, &spec, record, projs)?;
    Ok(Lifting {
        a_name: record.clone(),
        b_name: tuple.clone(),
        matcher: Box::new(RecordMatch {
            record: record.clone(),
            projs: projs.to_vec(),
        }),
        builder: Box::new(TupleBuild { spec }),
        names,
        equivalence: Some(equivalence),
    })
}

/// The standard projection list for the Galois `Record.Connection`.
pub fn connection_projs() -> Vec<GlobalName> {
    [
        "clientAuthFlag",
        "corked",
        "corkedIO",
        "handshake",
        "isCachingEnabled",
        "keyExchangeEPH",
        "mode",
        "resumeFromCache",
        "serverCanSendOCSP",
    ]
    .iter()
    .map(GlobalName::new)
    .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lift::LiftState;
    use crate::repairer::Repairer;
    use pumpkin_kernel::reduce::normalize;
    use pumpkin_stdlib as stdlib;

    fn env_with_equiv() -> (Env, Lifting) {
        let mut env = stdlib::std_env();
        let l = configure_to_record(
            &mut env,
            &"Connection".into(),
            &"Record.Connection".into(),
            &connection_projs(),
            NameMap::prefix("", "Record."),
        )
        .unwrap();
        (env, l)
    }

    #[test]
    fn analyze_connection_spine() {
        let env = stdlib::std_env();
        let spec = analyze_tuple(&env, &"Connection".into()).unwrap();
        assert_eq!(spec.arity(), 9);
        assert_eq!(spec.fields[0], Term::ind("bool"));
        assert_eq!(spec.fields[3], Term::const_("Handshake"));
        assert_eq!(spec.snd_tys[0], Term::const_("Conn2"));
        assert_eq!(spec.snd_tys[7], Term::ind("bool"));
    }

    #[test]
    fn equivalence_typechecks() {
        let (env, l) = env_with_equiv();
        let eqv = l.equivalence.as_ref().unwrap();
        assert!(env.contains(eqv.section.as_str()));
        assert!(env.contains(eqv.retraction.as_str()));
    }

    #[test]
    fn cork_ports_to_records_and_computes() {
        let (mut env, l) = env_with_equiv();
        let mut st = LiftState::new();
        let new = Repairer::new(&l)
            .state(&mut st)
            .run_one(&mut env, &"cork".into())
            .unwrap();
        assert_eq!(new.as_str(), "Record.cork");
        // Record.cork increments the corked field.
        let rec = pumpkin_lang::term(
            &env,
            "MkConnection true (bvNat O) (bvNat O) \
             (pair word word (bvNat O) (bvNat O)) false false (bvNat O) false true",
        )
        .unwrap();
        let t = Term::app(
            Term::const_("corked"),
            [Term::app(Term::const_("Record.cork"), [rec])],
        );
        let one = pumpkin_lang::term(&env, "bvNat (S O)").unwrap();
        assert_eq!(normalize(&env, &t), normalize(&env, &one));
    }

    #[test]
    fn cork_lemma_ports_to_records() {
        let (mut env, l) = env_with_equiv();
        let mut st = LiftState::new();
        let new = Repairer::new(&l)
            .state(&mut st)
            .run_one(&mut env, &"corkLemma".into())
            .unwrap();
        crate::repair::check_source_free(&env, &l, &new).unwrap();
        // The ported statement talks about the `corked` projection.
        let decl = env.const_decl(&new).unwrap();
        assert!(decl.ty.mentions_global(&"corked".into()));
    }

    #[test]
    fn round_trip_record_proof_back_to_tuples() {
        // Port a record-level lemma back to tuples (the paper's step 3).
        let mut env = stdlib::std_env();
        // A record-level proof written by the "proof engineer":
        // corked (MkConnection …fields…) computes, so a simple lemma about
        // Record.cork suffices: we reuse corkLemma ported forward, then port
        // it back and compare types.
        let fwd = configure_to_record(
            &mut env,
            &"Connection".into(),
            &"Record.Connection".into(),
            &connection_projs(),
            NameMap::prefix("", "Record."),
        )
        .unwrap();
        let mut st = LiftState::new();
        let ported = Repairer::new(&fwd)
            .state(&mut st)
            .run_one(&mut env, &"corkLemma".into())
            .unwrap();

        let back = configure_to_tuple(
            &mut env,
            &"Record.Connection".into(),
            &"Connection".into(),
            &connection_projs(),
            NameMap::prefix("Record.", "Tup."),
        )
        .unwrap();
        let mut st2 = LiftState::new();
        // Stop the round trip at the function boundary: Record.cork is the
        // image of cork.
        st2.map_constant("Record.cork", "cork");
        let round = Repairer::new(&back)
            .state(&mut st2)
            .run_one(&mut env, &ported)
            .unwrap();
        // The round-tripped lemma is about tuples again and typechecks
        // (define() already verified); its type matches the original's.
        let orig = env.const_decl(&"corkLemma".into()).unwrap().ty.clone();
        let got = env.const_decl(&round).unwrap().ty.clone();
        assert!(pumpkin_kernel::conv::conv(&env, &orig, &got));
    }
}
