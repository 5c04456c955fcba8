//! `paper_corpus`: one-shot cold repair of the paper's evaluation, in
//! process. One unit is one full pass: a fresh standard library, then
//! every case study in a seeded order.

use std::time::Instant;

use pumpkin_pi::case_studies::{declare_replica_variants, REPLICA_CONSTANTS, ZIP_CONSTANTS};
use pumpkin_pi::pumpkin_core::repair::check_source_free;
use pumpkin_pi::pumpkin_core::search::{factor, ornament, swap, tuple_record};
use pumpkin_pi::pumpkin_core::{manual, LiftState, Lifting, NameMap, RepairReport, Repairer};
use pumpkin_pi::pumpkin_kernel::env::Env;
use pumpkin_pi::pumpkin_kernel::name::GlobalName;
use pumpkin_pi::pumpkin_kernel::reduce::normalize;
use pumpkin_pi::pumpkin_kernel::term::Term;
use pumpkin_pi::pumpkin_kernel::typecheck::check_closed;
use pumpkin_pi::pumpkin_stdlib::{self as stdlib, list::list_lit, nat::nat_lit};
use pumpkin_pi::{pumpkin_lang, pumpkin_tactics};

use crate::gen::{self, CorpusPass, Item};
use crate::span::Spans;
use crate::{Args, Counters, Layers, Outcome};

/// What one pass leaves behind for its output checks.
pub struct PassOut {
    env: Env,
    /// Every configuration the pass made, in order.
    liftings: Vec<Lifting>,
    /// Each repaired constant with the index of its configuration.
    repaired: Vec<(usize, GlobalName)>,
    reports: Vec<RepairReport>,
    /// Whether the decompiled `New.rev_app_distr` script re-proved it.
    reproved: bool,
    /// Index of the `Old.list → New.list` configuration.
    swap: Option<usize>,
}

impl PassOut {
    fn record(&mut self, lifting: usize, report: RepairReport) {
        self.repaired
            .extend(report.repaired.iter().map(|(_, to)| (lifting, to.clone())));
        self.reports.push(report);
    }
}

type Res<T> = Result<T, String>;

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

fn configure(
    sp: &mut Spans,
    out: &mut PassOut,
    f: impl FnOnce(&mut Env) -> pumpkin_pi::pumpkin_core::Result<Lifting>,
) -> Res<usize> {
    let lifting = sp
        .span("core.search.configure", |_| f(&mut out.env))
        .map_err(err)?;
    out.liftings.push(lifting);
    Ok(out.liftings.len() - 1)
}

fn repair(
    sp: &mut Spans,
    out: &mut PassOut,
    lifting: usize,
    st: &mut LiftState,
    names: &[&str],
) -> Res<()> {
    let l = &out.liftings[lifting];
    let env = &mut out.env;
    let report = sp
        .span("core.repairer.run", |_| {
            Repairer::new(l).state(st).run(env, names)
        })
        .map_err(err)?;
    out.record(lifting, report);
    Ok(())
}

fn repair_one(
    sp: &mut Spans,
    out: &mut PassOut,
    lifting: usize,
    st: &mut LiftState,
    name: &str,
) -> Res<GlobalName> {
    let l = &out.liftings[lifting];
    let env = &mut out.env;
    let to = sp
        .span("core.repairer.run", |_| {
            Repairer::new(l).state(st).run_one(env, &name.into())
        })
        .map_err(err)?;
    out.repaired.push((lifting, to.clone()));
    Ok(to)
}

fn declare_enum(sp: &mut Spans, env: &mut Env, names: [&str; 2], n: usize) -> Res<()> {
    sp.span("kernel.declare", |_| {
        for name in names {
            env.declare_inductive(stdlib::replica::enum_decl(name, n))
                .map_err(err)?;
        }
        Ok(())
    })
}

/// One full pass: the timed unit.
pub fn pass(sp: &mut Spans, plan: &CorpusPass) -> Res<PassOut> {
    let env = sp.span("stdlib.std_env", |_| stdlib::std_env());
    let mut out = PassOut {
        env,
        liftings: Vec::new(),
        repaired: Vec::new(),
        reports: Vec::new(),
        reproved: false,
        swap: None,
    };
    // The swap configuration and its lift state are shared by the swap
    // module and the synthetic `app_assoc` instance, whichever runs first
    // configures.
    let mut swap_st = LiftState::new();
    for item in &plan.order {
        match *item {
            Item::SwapModule | Item::SynthAppAssoc { .. } => {
                let l = match out.swap {
                    Some(l) => l,
                    None => {
                        let l = configure(sp, &mut out, |env| {
                            swap::configure(
                                env,
                                &"Old.list".into(),
                                &"New.list".into(),
                                NameMap::prefix("Old.", "New."),
                            )
                        })?;
                        out.swap = Some(l);
                        l
                    }
                };
                if let Item::SynthAppAssoc { len } = *item {
                    let src = gen::app_assoc_source(len);
                    sp.span("lang.load_source", |_| {
                        pumpkin_lang::load_source(&mut out.env, &src)
                    })
                    .map_err(err)?;
                    repair(sp, &mut out, l, &mut swap_st, &["Old.assoc_inst"])?;
                } else {
                    repair(
                        sp,
                        &mut out,
                        l,
                        &mut swap_st,
                        stdlib::swap::OLD_MODULE_CONSTANTS,
                    )?;
                    let (goal, script) = sp
                        .span("tactics.decompile", |_| {
                            pumpkin_tactics::decompile_constant(&out.env, "New.rev_app_distr")
                                .map(|(goal, raw)| (goal, pumpkin_tactics::second_pass(&raw)))
                        })
                        .ok_or("New.rev_app_distr has no body")?;
                    out.reproved = sp.span("tactics.prove", |_| {
                        pumpkin_tactics::prove(&out.env, &goal, &script).is_ok()
                    });
                }
            }
            Item::Replica => {
                let mut variants = sp
                    .span("kernel.declare", |_| declare_replica_variants(&mut out.env))
                    .map_err(err)?;
                variants.insert(0, ("New.Term".to_string(), "New.".to_string()));
                for (to, prefix) in variants {
                    let l = configure(sp, &mut out, |env| {
                        swap::configure(
                            env,
                            &"Old.Term".into(),
                            &to.as_str().into(),
                            NameMap::prefix("Old.", &prefix),
                        )
                    })?;
                    repair(sp, &mut out, l, &mut LiftState::new(), REPLICA_CONSTANTS)?;
                }
            }
            Item::Enum30 => {
                declare_enum(sp, &mut out.env, ["Enum", "Enum2"], 30)?;
                let perm: Vec<usize> = (0..30).map(|i| (i + 7) % 30).collect();
                configure(sp, &mut out, |env| {
                    swap::configure_with(
                        env,
                        &"Enum".into(),
                        &"Enum2".into(),
                        &perm,
                        NameMap::prefix("Enum.", "Enum2."),
                    )
                })?;
            }
            Item::SynthEnum { n, rot } => {
                declare_enum(sp, &mut out.env, ["SynE", "SynF"], n)?;
                let perm: Vec<usize> = (0..n).map(|i| (i + rot) % n).collect();
                configure(sp, &mut out, |env| {
                    swap::configure_with(
                        env,
                        &"SynE".into(),
                        &"SynF".into(),
                        &perm,
                        NameMap::prefix("SynE.", "SynF."),
                    )
                })?;
            }
            Item::OrnamentZip => {
                let l = configure(sp, &mut out, |env| {
                    ornament::configure(env, NameMap::prefix("", "Sig."))
                })?;
                repair(sp, &mut out, l, &mut LiftState::new(), ZIP_CONSTANTS)?;
            }
            Item::BinaryNat => {
                let names = NameMap::prefix("add_n_Sm_expanded", "slow_add_n_Sm")
                    .with_rule("add_1_r", "Bin.add_1_r")
                    .with_rule("add", "slow_add")
                    .with_rule("mul", "slow_mul")
                    .with_rule("", "Bin.");
                let l = configure(sp, &mut out, |env| manual::configure_nat_to_bin(env, names))?;
                sp.span("lang.load_source", |_| {
                    manual::load_expanded_add_n_sm(&mut out.env)
                })
                .map_err(err)?;
                let mut st = LiftState::new();
                for name in ["add", "mul", "add_n_Sm_expanded"] {
                    repair_one(sp, &mut out, l, &mut st, name)?;
                }
            }
            Item::Galois => {
                let projs = tuple_record::connection_projs();
                let fwd = configure(sp, &mut out, |env| {
                    tuple_record::configure_to_record(
                        env,
                        &"Connection".into(),
                        &"Record.Connection".into(),
                        &projs,
                        NameMap::prefix("", "Record."),
                    )
                })?;
                let mut st = LiftState::new();
                repair_one(sp, &mut out, fwd, &mut st, "cork")?;
                let lemma = repair_one(sp, &mut out, fwd, &mut st, "corkLemma")?;
                let back = configure(sp, &mut out, |env| {
                    tuple_record::configure_to_tuple(
                        env,
                        &"Record.Connection".into(),
                        &"Connection".into(),
                        &projs,
                        NameMap::prefix("Record.", "Tup."),
                    )
                })?;
                let mut st2 = LiftState::new();
                st2.map_constant("Record.cork", "cork");
                repair_one(sp, &mut out, back, &mut st2, lemma.as_str())?;
            }
            Item::Factor => {
                let l = configure(sp, &mut out, |env| {
                    factor::configure_with(
                        env,
                        &"I".into(),
                        &"J".into(),
                        [0, 1],
                        NameMap::prefix("I.", "J."),
                    )
                })?;
                repair(
                    sp,
                    &mut out,
                    l,
                    &mut LiftState::new(),
                    &["I.neg", "I.and", "I.or", "I.demorgan_1", "I.demorgan_2"],
                )?;
            }
        }
    }
    Ok(out)
}

/// The output checks of one pass, outside the timed region: a kernel
/// re-check of every repaired constant, freedom from each source type,
/// the re-proved decompiled script, and a transport check on the swap.
pub fn check(sp: &mut Spans, out: &PassOut, plan: &CorpusPass) -> Res<()> {
    let env = &out.env;
    sp.span("kernel.recheck", |_| {
        for (_, name) in &out.repaired {
            let decl = env.const_decl(name).map_err(err)?;
            if let Some(body) = &decl.body {
                check_closed(env, body, &decl.ty).map_err(|e| format!("{name}: {e}"))?;
            }
        }
        Ok::<_, String>(())
    })?;
    sp.span("core.check_source_free", |_| {
        for (l, name) in &out.repaired {
            check_source_free(env, &out.liftings[*l], name).map_err(err)?;
        }
        Ok::<_, String>(())
    })?;
    if !out.reproved {
        return Err("the decompiled New.rev_app_distr script did not re-prove".into());
    }
    // Old function on x ≡ repaired function on transport(x).
    let swap = &out.liftings[out.swap.ok_or("no swap configuration")?];
    let f = swap
        .equivalence
        .as_ref()
        .ok_or("swap configuration has no equivalence")?
        .f
        .clone();
    let elems: Vec<Term> = plan.transport_xs.iter().map(|&x| nat_lit(x)).collect();
    let xs = list_lit("Old.list", Term::ind("nat"), &elems);
    let transport = |t: Term| Term::app(Term::const_(f.clone()), [Term::ind("nat"), t]);
    sp.span("kernel.normalize", |_| {
        for (old, new) in [("Old.rev", "New.rev"), ("Old.length", "New.length")] {
            let lhs = Term::app(Term::const_(old), [Term::ind("nat"), xs.clone()]);
            let lhs = if old == "Old.length" {
                lhs
            } else {
                transport(lhs)
            };
            let rhs = Term::app(Term::const_(new), [Term::ind("nat"), transport(xs.clone())]);
            if normalize(env, &lhs) != normalize(env, &rhs) {
                return Err(format!("{new} disagrees with {old} across transport"));
            }
        }
        Ok(())
    })
}

/// Runs the workload.
pub fn run(args: &Args, origin: Instant, sp: &mut Spans) -> Res<Outcome> {
    // Set-up: plan the warm-up pass and run it untimed, so allocator and
    // page-cache warm-up do not land in the first unit.
    let ((), setup_s) = crate::repeated_setup(origin, |rep| {
        let plan = gen::corpus_pass(args.seed, u64::MAX - rep as u64);
        let mut quiet = Spans::new(false, origin);
        let out = pass(&mut quiet, &plan)?;
        check(&mut quiet, &out, &plan)
    })?;
    let mut counters = Counters::default();
    let lp = crate::timed_loop(
        args,
        crate::stats::samples_for(90.0),
        sp,
        |u| gen::corpus_pass(args.seed, u),
        pass,
        |sp, plan, out| {
            if sp.is_on() {
                out.reports.iter().for_each(|r| counters.add(r));
            }
            check(sp, &out, &plan)
        },
    );
    let metrics = if args.trace {
        let mut layers = Layers::new();
        counters.layers(lp.traced_ms.len(), &mut layers);
        crate::span_layers(&mut layers, sp, &lp);
        crate::per_layer(&layers)
    } else {
        crate::end_to_end(&lp, 90.0, setup_s)?
    };
    Ok(Outcome {
        attempted: lp.attempted,
        failed: lp.failed,
        metrics,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every seeded pass order repairs, and its outputs pass the checks.
    #[test]
    fn seeded_passes_repair_and_check() {
        for seed in 0..4 {
            let plan = gen::corpus_pass(seed, seed * 7);
            let mut sp = Spans::new(false, Instant::now());
            let out = pass(&mut sp, &plan).expect("pass");
            check(&mut sp, &out, &plan).expect("check");
        }
    }

    /// Wrong outputs count as failed: a script that did not re-prove, and
    /// a "repaired" constant that still mentions its source type.
    #[test]
    fn injected_wrong_outputs_fail_the_checks() {
        let plan = gen::corpus_pass(1, 1);
        let mut sp = Spans::new(false, Instant::now());
        let mut out = pass(&mut sp, &plan).expect("pass");
        out.reproved = false;
        assert!(check(&mut sp, &out, &plan).is_err());
        out.reproved = true;
        check(&mut sp, &out, &plan).expect("restored output checks");
        let swap = out.swap.expect("swap configured");
        out.repaired.push((swap, "Old.rev".into()));
        assert!(check(&mut sp, &out, &plan).is_err());
    }
}
