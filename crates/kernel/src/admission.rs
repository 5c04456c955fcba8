//! The admission memo: an exact record of the constants the kernel has
//! accepted, shared by the environments that carry a handle to it
//! (DESIGN.md §19), and the dependency fingerprints every environment
//! records beside the identities.
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
//!
//! The same walk computes each global's *fingerprint*
//! ([`Env::fingerprint`]): a fixed-key hash of the same declaration,
//! through [`Term::structural_hash`] instead of the `TermId`s, and of the
//! fingerprints of the globals it mentions, in the key's order. An identity
//! means something only to the memo that interned it; a fingerprint is a
//! pure function of content, equal across processes, memo clears and
//! environments without a memo, so the caches that outlive a process (the
//! persist cache, the incremental snapshot) key staleness on it.

use std::cell::RefCell;
use std::collections::hash_map::DefaultHasher;
use std::collections::{HashMap, HashSet};
use std::hash::{Hash, Hasher};
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
}

/// The globals `t` mentions, sorted: from the memo's cache when there is
/// one.
fn mentions(table: Option<&mut Table>, t: &Term) -> Arc<[GlobalName]> {
    match table {
        Some(table) => table
            .mentions
            .entry(t.id())
            .or_insert_with(|| globals_in([t]).into())
            .clone(),
        None => globals_in([t]).into(),
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

/// A fingerprint being computed: the declaration, then the fingerprints
/// of the globals it mentions in its key's order (a function of the
/// declaration, so their number needs no prefix). `DefaultHasher::new()`
/// has fixed keys, as behind `structural_hash`.
struct Fingerprint(DefaultHasher);

impl Fingerprint {
    fn constant(name: &GlobalName, ty: &Term, body: Option<&Term>, opaque: bool) -> Fingerprint {
        // Whole words, which the hasher takes fastest (a constant is
        // fingerprinted at every `define` with a memo): the name's length
        // with the definedness and opacity bits, the structural hashes,
        // then the name's bytes.
        let name = name.as_str();
        let mut h = DefaultHasher::new();
        h.write_u64((name.len() as u64) << 2 | u64::from(body.is_some()) << 1 | u64::from(opaque));
        h.write_u64(ty.structural_hash());
        h.write_u64(body.map_or(0, Term::structural_hash));
        h.write(name.as_bytes());
        Fingerprint(h)
    }

    fn family(decl: &InductiveDecl) -> Fingerprint {
        // No constant's first word is all ones; a term hashes as its
        // structural hash.
        let mut h = DefaultHasher::new();
        h.write_u64(u64::MAX);
        decl.hash(&mut h);
        Fingerprint(h)
    }

    /// Folds in the next dependency's record, and passes on its identity.
    fn dep(&mut self, record: Record) -> u64 {
        self.0.write_u64(record.fingerprint);
        record.identity
    }

    fn finish(&self) -> u64 {
        self.0.finish()
    }
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

/// What an environment records of one global it declares.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Record {
    /// The dependency fingerprint.
    fingerprint: u64,
    /// The identity in the environment's memo. Meaningless without one:
    /// installing a memo recomputes every record.
    identity: u64,
}

/// An environment's records of the globals it declares, filled on demand,
/// and its handle on a memo if it has one. Only declared globals are
/// recorded; `Env` drops the records a mutation invalidates.
#[derive(Clone, Debug, Default)]
pub(crate) struct Admission {
    memo: Option<AdmissionMemo>,
    records: RefCell<HashMap<GlobalName, Record>>,
}

impl Admission {
    /// A handle on `memo` for `env`, with the record of every global `env`
    /// declares already computed, so its clones inherit them.
    pub(crate) fn new(memo: AdmissionMemo, env: &Env) -> Admission {
        let admission = Admission::default();
        {
            let mut table = memo.lock();
            for r in env.order() {
                let (GlobalRef::Const(n) | GlobalRef::Ind(n)) = r;
                admission.record_of(env, Some(&mut *table), n);
            }
        }
        Admission {
            memo: Some(memo),
            records: admission.records,
        }
    }

    pub(crate) fn memo(&self) -> Option<&AdmissionMemo> {
        self.memo.as_ref()
    }

    /// Drops the memo handle and keeps the records, whose fingerprints do
    /// not depend on it.
    pub(crate) fn drop_memo(&mut self) {
        self.memo = None;
    }

    /// The record the transparent constant `name : ty := body` would have
    /// in `env`, and whether the memo has accepted its identity (counted
    /// as a hit). `None` without a memo, when it mentions an undeclared
    /// global, which no accepted declaration does, or when a dependency
    /// cycle, which no well-formed environment holds, leaves it without
    /// an identity.
    pub(crate) fn lookup(
        &self,
        env: &Env,
        name: &GlobalName,
        ty: &Term,
        body: &Term,
    ) -> Option<(Record, bool)> {
        let mut guard = self.memo.as_ref()?.lock();
        let table = &mut *guard;
        table.clear_at_cap();
        let (in_ty, in_body) = (
            mentions(Some(&mut *table), ty),
            mentions(Some(&mut *table), body),
        );
        let mut fingerprint = Fingerprint::constant(name, ty, Some(body), false);
        let deps = in_ty
            .iter()
            .chain(in_body.iter())
            .map(|n| Some(fingerprint.dep(self.record_of(env, Some(&mut *table), n)?)))
            .collect::<Option<_>>()?;
        let identity = table.intern(Key::Const {
            name: name.clone(),
            ty: ty.id(),
            body: Some(body.id()),
            opaque: false,
            deps,
        });
        let accepted = table.accepted.contains(&identity);
        table.hits += u64::from(accepted);
        let record = Record {
            fingerprint: fingerprint.finish(),
            identity,
        };
        Some((record, accepted))
    }

    /// Records that the kernel accepted the declaration `record` stands
    /// for.
    pub(crate) fn accept(&self, record: Record) {
        if let Some(memo) = &self.memo {
            memo.lock().accepted.insert(record.identity);
        }
    }

    /// Records the global `name`, just declared.
    pub(crate) fn record(&self, name: GlobalName, record: Record) {
        self.records.borrow_mut().insert(name, record);
    }

    /// Drops the record of `name`.
    pub(crate) fn forget(&self, name: &GlobalName) {
        self.records.borrow_mut().remove(name);
    }

    /// Drops every record.
    pub(crate) fn forget_all(&self) {
        self.records.borrow_mut().clear();
    }

    /// The fingerprint of the global `name` in `env`, computed and
    /// recorded on first use; `None` if `env` does not declare it.
    pub(crate) fn fingerprint(&self, env: &Env, name: &GlobalName) -> Option<u64> {
        if let Some(r) = self.known(name) {
            return Some(r.fingerprint);
        }
        let mut table = self.memo.as_ref().map(AdmissionMemo::lock);
        self.record_of(env, table.as_deref_mut(), name)
            .map(|r| r.fingerprint)
    }

    /// The recorded record of `name`.
    fn known(&self, name: &GlobalName) -> Option<Record> {
        self.records.borrow().get(name).copied()
    }

    /// The record of the global `root`, computing and recording it and
    /// those of the unrecorded globals it depends on — identities only
    /// with a memo's `table` — or `None` if one of them is undeclared or
    /// on a cycle. A recorded global needs no walk. The walk keeps its own
    /// stack, since a chain of definitions is as deep as a module is long;
    /// an entry holds the global's mentions once they are pushed.
    fn record_of(
        &self,
        env: &Env,
        mut table: Option<&mut Table>,
        root: &GlobalName,
    ) -> Option<Record> {
        if let Some(r) = self.known(root) {
            return Some(r);
        }
        let mut stack: Vec<(GlobalName, Option<Vec<GlobalName>>)> = vec![(root.clone(), None)];
        while let Some((name, mentioned)) = stack.pop() {
            if let Some(r) = self.known(&name) {
                if stack.is_empty() {
                    return Some(r);
                }
                continue;
            }
            let Some(mentioned) = mentioned else {
                let mentioned = mentioned_by(env, table.as_deref_mut(), &name)?;
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
            let (constant, family) = (env.const_decl(&name).ok(), env.inductive(&name).ok());
            let mut fingerprint = match (constant, family) {
                (Some(c), _) => Fingerprint::constant(&name, &c.ty, c.body.as_ref(), c.opaque),
                (_, Some(ind)) => Fingerprint::family(ind),
                _ => return None,
            };
            let deps: Box<[u64]> = mentioned
                .iter()
                .map(|d| Some(fingerprint.dep(self.known(d)?)))
                .collect::<Option<_>>()?;
            let identity = table.as_deref_mut().map_or(0, |t| {
                t.intern(match (constant, family) {
                    (Some(c), _) => Key::Const {
                        name: name.clone(),
                        ty: c.ty.id(),
                        body: c.body.as_ref().map(Term::id),
                        opaque: c.opaque,
                        deps,
                    },
                    (_, ind) => Key::Ind {
                        decl: ind.expect("a family").clone(),
                        deps,
                    },
                })
            });
            let record = Record {
                fingerprint: fingerprint.finish(),
                identity,
            };
            self.record(name, record);
            if stack.is_empty() {
                return Some(record);
            }
        }
        None
    }
}

/// The other globals the declaration of `name` mentions, in the order its
/// key lists them, or `None` if `env` does not declare `name`.
fn mentioned_by(
    env: &Env,
    mut table: Option<&mut Table>,
    name: &GlobalName,
) -> Option<Vec<GlobalName>> {
    let mut out = match (env.const_decl(name), env.inductive(name)) {
        (Ok(c), _) => {
            let in_ty = mentions(table.as_deref_mut(), &c.ty);
            match &c.body {
                Some(b) => [in_ty, mentions(table, b)].concat(),
                None => in_ty.to_vec(),
            }
        }
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

    /// `root()`'s families with `N := nat`, `X := N` and `y : X := O`
    /// defined, plus `extra` declared first.
    fn chain(mut env: Env, extra: impl FnOnce(&mut Env)) -> Env {
        extra(&mut env);
        env.define("N", Term::set(), Term::ind("nat")).unwrap();
        env.define("X", Term::set(), Term::const_("N")).unwrap();
        env.define("y", Term::const_("X"), zero()).unwrap();
        env
    }

    fn fingerprint(env: &Env, name: &str) -> u64 {
        env.fingerprint(&name.into()).unwrap()
    }

    #[test]
    fn fingerprints_are_content_hashes_whatever_the_memo() {
        let env = chain(root(), |_| ());
        let y = fingerprint(&env, "y");
        // A fresh clone, and one whose memo is removed, carry the records.
        assert_eq!(fingerprint(&env.clone(), "y"), y);
        let mut memo_less = env.clone();
        memo_less.set_admission_memo(None);
        assert_eq!(fingerprint(&memo_less, "y"), y);
        // An environment that never had a memo computes them on first use.
        let mut never = root();
        never.set_admission_memo(None);
        let never = chain(never, |_| ());
        assert_eq!(fingerprint(&never, "y"), y);
        assert_eq!(fingerprint(&never, "nat"), fingerprint(&env, "nat"));
        // Another memo, cleared at its cap after the declarations.
        let mut other = root();
        other.set_admission_memo(Some(AdmissionMemo::new()));
        let other = chain(other, |_| ());
        {
            let memo = other.admission_memo().unwrap();
            let mut table = memo.lock();
            table.ids.extend((0..MEMO_CAP as u64).map(|i| {
                let key = Key::Ind {
                    decl: other.inductive(&"bool".into()).unwrap().clone(),
                    deps: Box::new([i]),
                };
                (key, u64::MAX - i)
            }));
            table.clear_at_cap();
            assert_eq!(table.resets, 1);
        }
        assert_eq!(fingerprint(&other, "y"), y);
        let mut twin = other.clone();
        twin.set_admission_memo(Some(AdmissionMemo::new()));
        assert_eq!(fingerprint(&twin, "y"), y);
        // An unknown name has none.
        assert_eq!(env.fingerprint(&"nowhere".into()), None);
    }

    #[test]
    fn a_fingerprint_changes_with_any_transitive_dependency() {
        let base = chain(root(), |_| ());
        let y = fingerprint(&base, "y");
        // An unrelated global declared first leaves it alone.
        let unrelated = chain(root(), |env| {
            env.define("z", Term::ind("nat"), zero()).unwrap();
        });
        assert_eq!(fingerprint(&unrelated, "y"), y);
        // So does one declared after.
        let mut later = base.clone();
        later.define("z", Term::ind("nat"), zero()).unwrap();
        assert_eq!(fingerprint(&later, "y"), y);
        // `y` mentions only `X`; a change to `N`, two levels down, shows.
        let mut edited = root();
        edited.define("N", Term::set(), Term::ind("bool")).unwrap();
        edited.define("X", Term::set(), Term::const_("N")).unwrap();
        edited
            .define("y", Term::const_("X"), Term::construct("bool", 0))
            .unwrap();
        assert_ne!(fingerprint(&edited, "X"), fingerprint(&base, "X"));
        // `y`'s own type is unchanged: only its body differs here, so
        // check a dependent whose declaration is identical in both.
        for env in [&mut edited, &mut later] {
            env.define("w", Term::set(), Term::const_("X")).unwrap();
        }
        assert_ne!(fingerprint(&edited, "w"), fingerprint(&later, "w"));
        // An opacity flip two levels down shows too.
        let mut opaque = later.clone();
        opaque.set_opaque(&"N".into(), true).unwrap();
        assert_ne!(fingerprint(&opaque, "w"), fingerprint(&later, "w"));
        opaque.set_opaque(&"N".into(), false).unwrap();
        assert_eq!(fingerprint(&opaque, "w"), fingerprint(&later, "w"));
        // An inductive's constructor list: `nat` with a third constructor.
        let mut three = Env::new();
        let mut nat = root().inductive(&"nat".into()).unwrap().clone();
        nat.ctors.push(CtorDecl {
            name: "Z".into(),
            args: vec![],
            result_indices: vec![],
        });
        three.declare_inductive(nat).unwrap();
        three
            .declare_inductive(root().inductive(&"bool".into()).unwrap().clone())
            .unwrap();
        let three = chain(three, |_| ());
        assert_ne!(fingerprint(&three, "nat"), fingerprint(&base, "nat"));
        assert_ne!(fingerprint(&three, "y"), y);
        assert_eq!(fingerprint(&three, "bool"), fingerprint(&base, "bool"));
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
