//! The admission memo: an exact record of the constants the kernel has
//! accepted, shared by the environments that carry a handle to it
//! (DESIGN.md §19).
//!
//! [`Env::define`] checks a new constant's type and body. A daemon session
//! repairs every request in a fresh clone of a configured environment, and
//! a persist replay re-installs an earlier run's repairs, so the same
//! constants are defined over and over. An environment that carries a memo
//! admits a declaration without the check when the memo has accepted one
//! of the same *identity* before; every `std_env()` clone shares one.
//!
//! The identity of a global in an environment is an integer the memo
//! interns from a key that holds, in full, the global's declaration (for a
//! constant: name, type and body [`TermId`]s, opacity; for an inductive
//! family: the whole declaration) and the identities of every other global
//! that declaration mentions. Equal identities therefore mean equal
//! declarations over equal dependency closures, which is all a kernel
//! verdict depends on. Identities are never reused, so clearing the memo at
//! its cap only causes misses.

use std::cell::RefCell;
use std::collections::{HashMap, HashSet};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use crate::env::{Env, GlobalRef};
use crate::inductive::InductiveDecl;
use crate::intern::TermId;
use crate::name::GlobalName;
use crate::term::{Term, TermData};

/// Interned keys plus cached mention lists past which the memo clears its
/// tables. A session's working set is a few hundred keys; a stream of
/// never-repeating modules reaches the cap and costs misses, not memory.
const MEMO_CAP: usize = 1 << 14;

/// What an identity stands for. Keys compare in full; dependencies enter
/// as identities, which stand for their own keys in turn.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
enum Key {
    /// A constant, with the identities of the globals its type mentions
    /// and then of those its body mentions, each list in name order (the
    /// lists are functions of `ty` and `body`, so the sequence is exact).
    Const {
        name: GlobalName,
        ty: TermId,
        body: Option<TermId>,
        opaque: bool,
        deps: Box<[u64]>,
    },
    /// An inductive family, with the identities of the other globals its
    /// declaration mentions, in name order.
    Ind {
        decl: InductiveDecl,
        deps: Box<[u64]>,
    },
}

#[derive(Debug, Default)]
struct Table {
    ids: HashMap<Key, u64>,
    /// Identities of the constant declarations the kernel has accepted.
    accepted: HashSet<u64>,
    /// The globals a term mentions, sorted: a pure function of the term.
    mentions: HashMap<TermId, Arc<[GlobalName]>>,
    /// The next identity. Never reset, so no identity is ever reused.
    next: u64,
    hits: u64,
    resets: u64,
}

impl Table {
    fn intern(&mut self, key: Key) -> u64 {
        if let Some(&id) = self.ids.get(&key) {
            return id;
        }
        let id = self.next;
        self.next += 1;
        self.ids.insert(key, id);
        id
    }

    fn clear_at_cap(&mut self) {
        if self.ids.len() + self.mentions.len() >= MEMO_CAP {
            self.ids.clear();
            self.accepted.clear();
            self.mentions.clear();
            self.resets += 1;
        }
    }

    /// The globals `t` mentions, sorted.
    fn mentions(&mut self, t: &Term) -> Arc<[GlobalName]> {
        self.mentions
            .entry(t.id())
            .or_insert_with(|| globals_in([t]).into())
            .clone()
    }
}

/// The globals the terms mention (a constant, a family, a constructor's or
/// an eliminator's family), sorted and deduplicated. Walks each distinct
/// subterm once.
fn globals_in<'a>(roots: impl IntoIterator<Item = &'a Term>) -> Vec<GlobalName> {
    let mut seen: HashSet<TermId> = HashSet::new();
    let mut todo: Vec<&Term> = roots.into_iter().collect();
    let mut out = Vec::new();
    while let Some(t) = todo.pop() {
        if !seen.insert(t.id()) {
            continue;
        }
        match t.data() {
            TermData::Const(n) | TermData::Ind(n) | TermData::Construct(n, _) => {
                out.push(n.clone());
            }
            TermData::Elim(e) => out.push(e.ind.clone()),
            _ => {}
        }
        t.for_each_child(|c, _| todo.push(c));
    }
    out.sort();
    out.dedup();
    out
}

/// A shared admission memo. Clones are handles on one memo; install one on
/// an environment with [`Env::set_admission_memo`], and every clone of
/// that environment shares its verdicts.
#[derive(Clone, Debug, Default)]
pub struct AdmissionMemo(Arc<Mutex<Table>>);

impl AdmissionMemo {
    /// An empty memo.
    pub fn new() -> AdmissionMemo {
        AdmissionMemo::default()
    }

    /// Declarations admitted without a check, over every environment that
    /// shares this memo: the sum of their
    /// [`crate::stats::KernelStats::admission_hits`].
    pub fn hits(&self) -> u64 {
        self.lock().hits
    }

    /// How often the memo has cleared its tables at its cap.
    pub fn resets(&self) -> u64 {
        self.lock().resets
    }

    fn lock(&self) -> MutexGuard<'_, Table> {
        // Every update under the lock is a single insert, so a worker that
        // panicked while holding it left a usable table behind; the other
        // workers carry on with it.
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// An environment's handle on a memo, with the identities of the globals
/// the environment declares, filled on demand. Only declared globals are
/// recorded; `Env` drops the records a mutation invalidates.
#[derive(Clone, Debug)]
pub(crate) struct Admission {
    memo: AdmissionMemo,
    idents: RefCell<HashMap<GlobalName, u64>>,
}

impl Admission {
    /// A handle on `memo` for `env`, with the identity of every global
    /// `env` declares already recorded, so its clones inherit them.
    pub(crate) fn new(memo: AdmissionMemo, env: &Env) -> Admission {
        let admission = Admission {
            memo,
            idents: RefCell::default(),
        };
        {
            let mut table = admission.memo.lock();
            for r in env.order() {
                let (GlobalRef::Const(n) | GlobalRef::Ind(n)) = r;
                admission.ident(env, &mut table, n);
            }
        }
        admission
    }

    pub(crate) fn memo(&self) -> &AdmissionMemo {
        &self.memo
    }

    /// The identity the transparent constant `name : ty := body` would
    /// have in `env`, and whether the memo has accepted it (counted as a
    /// hit). `None` when it mentions an undeclared global, which no
    /// accepted declaration does, or when a dependency cycle, which no
    /// well-formed environment holds, leaves it without an identity.
    pub(crate) fn lookup(
        &self,
        env: &Env,
        name: &GlobalName,
        ty: &Term,
        body: &Term,
    ) -> Option<(u64, bool)> {
        let mut table = self.memo.lock();
        table.clear_at_cap();
        let (in_ty, in_body) = (table.mentions(ty), table.mentions(body));
        let deps = in_ty
            .iter()
            .chain(in_body.iter())
            .map(|n| self.ident(env, &mut table, n))
            .collect::<Option<_>>()?;
        let id = table.intern(Key::Const {
            name: name.clone(),
            ty: ty.id(),
            body: Some(body.id()),
            opaque: false,
            deps,
        });
        let accepted = table.accepted.contains(&id);
        table.hits += u64::from(accepted);
        Some((id, accepted))
    }

    /// Records that the kernel accepted the declaration `id` stands for.
    pub(crate) fn accept(&self, id: u64) {
        self.memo.lock().accepted.insert(id);
    }

    /// Records the identity of the global `name`, just declared.
    pub(crate) fn record(&self, name: GlobalName, id: u64) {
        self.idents.borrow_mut().insert(name, id);
    }

    /// Drops the recorded identity of `name`.
    pub(crate) fn forget(&self, name: &GlobalName) {
        self.idents.borrow_mut().remove(name);
    }

    /// Drops every recorded identity.
    pub(crate) fn forget_all(&self) {
        self.idents.borrow_mut().clear();
    }

    /// The recorded identity of `name`.
    fn known(&self, name: &GlobalName) -> Option<u64> {
        self.idents.borrow().get(name).copied()
    }

    /// The identity of the global `root`, computing and recording it and
    /// those of the unrecorded globals it depends on; `None` if one of them
    /// is undeclared or on a cycle. A recorded identity needs no walk. The
    /// walk keeps its own stack, since a chain of definitions is as deep as
    /// a module is long; an entry holds the global's mentions once they are
    /// pushed.
    fn ident(&self, env: &Env, table: &mut Table, root: &GlobalName) -> Option<u64> {
        if let Some(id) = self.known(root) {
            return Some(id);
        }
        let mut stack: Vec<(GlobalName, Option<Vec<GlobalName>>)> = vec![(root.clone(), None)];
        while let Some((name, mentioned)) = stack.pop() {
            if let Some(id) = self.known(&name) {
                if stack.is_empty() {
                    return Some(id);
                }
                continue;
            }
            let Some(mentioned) = mentioned else {
                let mentioned = self.mentioned_by(env, table, &name)?;
                let missing: Vec<GlobalName> = mentioned
                    .iter()
                    .filter(|d| self.known(d).is_none())
                    .cloned()
                    .collect();
                stack.push((name, Some(mentioned)));
                for d in missing {
                    // The entries whose mentions are pushed are the path
                    // from `root`: meeting one again is a cycle.
                    if stack.iter().any(|(s, m)| m.is_some() && *s == d) {
                        return None;
                    }
                    stack.push((d, None));
                }
                continue;
            };
            let deps = mentioned
                .iter()
                .map(|d| self.known(d))
                .collect::<Option<_>>()?;
            let key = match env.const_decl(&name) {
                Ok(c) => Key::Const {
                    name: name.clone(),
                    ty: c.ty.id(),
                    body: c.body.as_ref().map(Term::id),
                    opaque: c.opaque,
                    deps,
                },
                Err(_) => Key::Ind {
                    decl: env.inductive(&name).ok()?.clone(),
                    deps,
                },
            };
            let id = table.intern(key);
            self.record(name, id);
            if stack.is_empty() {
                return Some(id);
            }
        }
        None
    }

    /// The other globals the declaration of `name` mentions, in the order
    /// its key lists them, or `None` if `env` does not declare `name`.
    fn mentioned_by(
        &self,
        env: &Env,
        table: &mut Table,
        name: &GlobalName,
    ) -> Option<Vec<GlobalName>> {
        let mut out = match (env.const_decl(name), env.inductive(name)) {
            (Ok(c), _) => match &c.body {
                Some(b) => [table.mentions(&c.ty), table.mentions(b)].concat(),
                None => table.mentions(&c.ty).to_vec(),
            },
            (_, Ok(ind)) => globals_in(
                ind.params.iter().chain(&ind.indices).map(|b| &b.ty).chain(
                    ind.ctors
                        .iter()
                        .flat_map(|c| c.args.iter().map(|b| &b.ty).chain(&c.result_indices)),
                ),
            ),
            _ => return None,
        };
        out.retain(|n| n != name);
        Some(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inductive::CtorDecl;
    use crate::term::Binder;
    use crate::universe::Sort;

    /// `nat` and `bool`, with a fresh memo installed.
    fn root() -> Env {
        let ctor = |name: &str, args: Vec<Binder>| CtorDecl {
            name: name.into(),
            args,
            result_indices: vec![],
        };
        let family = |name: &str, ctors| InductiveDecl {
            name: name.into(),
            params: vec![],
            indices: vec![],
            sort: Sort::Set,
            ctors,
        };
        let mut env = Env::new();
        let nat = vec![
            ctor("O", vec![]),
            ctor("S", vec![Binder::new("n", Term::ind("nat"))]),
        ];
        env.declare_inductive(family("nat", nat)).unwrap();
        let bool_ = vec![ctor("true", vec![]), ctor("false", vec![])];
        env.declare_inductive(family("bool", bool_)).unwrap();
        env.set_admission_memo(Some(AdmissionMemo::new()));
        env
    }

    fn zero() -> Term {
        Term::construct("nat", 0)
    }

    fn hits(env: &Env) -> u64 {
        env.kernel_stats().admission_hits
    }

    #[test]
    fn divergent_clones_do_not_share_verdicts_about_different_dependencies() {
        let base = root();
        let (mut as_nat, mut as_bool) = (base.clone(), base.clone());
        as_nat.define("N", Term::set(), Term::ind("nat")).unwrap();
        as_bool.define("N", Term::set(), Term::ind("bool")).unwrap();
        let mut twin = as_nat.clone();
        // `x : N := O` checks where `N` is `nat`, and not where it is `bool`.
        as_nat.define("x", Term::const_("N"), zero()).unwrap();
        let x = as_bool.clone().define("x", Term::const_("N"), zero());
        assert!(x.is_err(), "O was admitted at type bool");
        // The same declaration over the same dependencies is a hit.
        twin.define("x", Term::const_("N"), zero()).unwrap();
        assert_eq!(hits(&twin), 1);
        // Two levels: `y` mentions `X`, which mentions `N`.
        for env in [&mut as_nat, &mut as_bool] {
            env.define("X", Term::set(), Term::const_("N")).unwrap();
        }
        as_nat.define("y", Term::const_("X"), zero()).unwrap();
        let y = as_bool.define("y", Term::const_("X"), zero());
        assert!(y.is_err(), "O was admitted at type bool through X");
        assert_eq!(hits(&as_bool), 0);
    }

    #[test]
    fn opacity_is_part_of_the_identity() {
        let mut base = root();
        base.define("T", Term::set(), Term::ind("nat")).unwrap();
        let mut transparent = base.clone();
        transparent.define("c", Term::const_("T"), zero()).unwrap();
        let mut opaque = base.clone();
        opaque.set_opaque(&"T".into(), true).unwrap();
        let c = opaque.define("c", Term::const_("T"), zero());
        assert!(c.is_err(), "c was admitted with T opaque");
        // Transparent again: the identity matches the accepted one.
        opaque.set_opaque(&"T".into(), false).unwrap();
        opaque.define("c", Term::const_("T"), zero()).unwrap();
        assert_eq!(hits(&opaque), 1);
    }

    #[test]
    fn a_rollback_or_a_removal_forgets_the_identities_it_drops() {
        let mut env = root();
        let mark = env.order().len();
        let accept_n_and_x = |env: &mut Env| {
            env.define("N", Term::set(), Term::ind("nat")).unwrap();
            env.define("x", Term::const_("N"), zero()).unwrap();
        };
        accept_n_and_x(&mut env);
        // `N` again, as an axiom, which `define` never sees: `x` is
        // checked again, and refused.
        env.rollback_to(mark);
        env.assume("N", Term::set()).unwrap();
        let x = env.define("x", Term::const_("N"), zero());
        assert!(x.is_err(), "x was admitted at an axiom type");
        // A different definition of `N`.
        env.rollback_to(mark);
        env.define("N", Term::set(), Term::ind("bool")).unwrap();
        let x = env.define("x", Term::const_("N"), zero());
        assert!(x.is_err(), "x was admitted after N was redefined");
        // The same after removing `N` instead of rolling it back.
        env.rollback_to(mark);
        accept_n_and_x(&mut env);
        env.remove(&"x".into()).unwrap();
        env.remove(&"N".into()).unwrap();
        env.assume("N", Term::set()).unwrap();
        let x = env.define("x", Term::const_("N"), zero());
        assert!(
            x.is_err(),
            "x was admitted at an axiom type after a removal"
        );
        // Only the identical redefinitions were hits: `N` and `x` once.
        assert_eq!(hits(&env), 2);
    }

    #[test]
    fn an_env_without_a_memo_always_checks() {
        let mut base = root();
        base.set_admission_memo(None);
        for _ in 0..2 {
            let mut env = base.clone();
            env.define("N", Term::set(), Term::ind("nat")).unwrap();
            assert_eq!(hits(&env), 0);
        }
    }

    #[test]
    fn a_poisoned_lock_does_not_wedge_the_memo() {
        let mut env = root();
        let memo = env.admission_memo().unwrap().clone();
        let worker = std::thread::spawn(move || {
            let _held = memo.0.lock().unwrap();
            panic!("a worker panics while holding the memo");
        });
        assert!(worker.join().is_err());
        assert!(env.admission_memo().unwrap().0.is_poisoned());
        let mut twin = env.clone();
        env.define("N", Term::set(), Term::ind("nat")).unwrap();
        twin.define("N", Term::set(), Term::ind("nat")).unwrap();
        assert_eq!(hits(&twin), 1);
        assert_eq!(env.admission_memo().unwrap().hits(), 1);
    }

    #[test]
    fn the_cap_clears_the_tables_and_counts_it() {
        let mut env = root();
        let memo = env.admission_memo().unwrap().clone();
        let mut twin = env.clone();
        env.define("N", Term::set(), Term::ind("nat")).unwrap();
        {
            let mut table = memo.lock();
            for i in 0..MEMO_CAP {
                table.intern(Key::Const {
                    name: GlobalName::new(format!("filler{i}")),
                    ty: Term::set().id(),
                    body: None,
                    opaque: true,
                    deps: Box::new([]),
                });
            }
        }
        // The cap fires at the next lookup: a miss, checked again.
        twin.define("N", Term::set(), Term::ind("nat")).unwrap();
        assert_eq!(hits(&twin), 0);
        assert_eq!(memo.resets(), 1);
        assert!(memo.lock().ids.len() < MEMO_CAP);
    }
}
