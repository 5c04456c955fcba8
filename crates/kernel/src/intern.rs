//! The global hash-consing term arena.
//!
//! Every [`Term`] in the process is allocated through `intern`: a sharded
//! global table maps term payloads (children compared by *pointer*, so a
//! lookup is O(arity)) to their unique canonical allocation. Two
//! consequences the rest of the kernel builds on:
//!
//! * **Identity is structure.** Structurally identical payloads (including
//!   binder names) share one allocation, so `Term::same_allocation` — and
//!   with it the `Term: Eq` fast path — succeeds for *all* equal terms built
//!   anywhere in the process, not just for clones of one another.
//! * **Alpha-equivalence is an integer.** Each node records the id of its
//!   *alpha-canonical skeleton* (the same structure with every binder name
//!   erased), exposed as [`Term::id`]. Two terms are alpha-equivalent — the
//!   kernel's structural equality — iff their [`TermId`]s are equal, which
//!   is what lets the kernel's memo tables key on plain integers.
//!
//! Binder names participate in the intern key on purpose: interning *modulo*
//! names would make the canonical name of a binder "whichever thread
//! interned it first", and with a process-global table that is
//! nondeterministic under parallel tests — pretty-printed output and wire
//! JSON would flake. Instead names are kept per-node and alpha-equivalence
//! is carried by the side skeleton.
//!
//! Every cell also caches, computed once at intern time from its children's
//! cells (O(arity), never O(size)):
//!
//! * `hash` — the alpha-invariant structural hash (the same fixed-key value
//!   the pre-arena representation computed, so wire digests and persisted
//!   cache keys are unchanged);
//! * `ceil` — the least `n` such that every free `Rel` is `< n`, which
//!   gives `lift`/`subst` an O(1) skip over closed subterms;
//! * `size` — the tree node count (saturating), for the benchmarks.
//!
//! The arena holds strong references and never frees: terms are immutable,
//! so a node is valid forever, and the repair workloads re-intern the same
//! structures across runs (that reuse is the point). A long-lived daemon
//! that wants to bound arena growth would need an epoch/trace GC; see
//! DESIGN.md §15 for the tradeoff discussion.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

use crate::name::Name;
use crate::term::{Binder, ElimData, Term, TermData, TermRc};

/// The alpha-canonical identity of a term: equal iff the terms are
/// structurally equal (alpha-equivalent). Obtained via [`Term::id`]; used as
/// the integer key of the kernel's memo tables and the wire node table.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TermId(pub(crate) u32);

/// The allocation unit behind [`Term`]: the payload plus everything the
/// kernel wants to know about it in O(1), computed once at intern time.
pub(crate) struct TermCell {
    /// The payload. Children are themselves interned `Term`s.
    pub(crate) data: TermData,
    /// Alpha-invariant structural hash (fixed-key, process-stable): the
    /// `DefaultHasher` of `data` under the name-ignoring `Hash` impls, which
    /// is exactly what the pre-arena representation cached — wire digests
    /// derive from it and must not change.
    pub(crate) hash: u64,
    /// This node's own slot (unique per allocation, name-sensitive).
    pub(crate) slot: u32,
    /// The alpha-canonical skeleton (every binder name erased), or `None`
    /// when this node is its own skeleton. [`Term::id`] is the skeleton's
    /// slot.
    pub(crate) alpha: Option<Term>,
    /// Least `n` such that every free `Rel` in this term is `< n`; `0`
    /// means closed.
    pub(crate) ceil: u32,
    /// Tree node count, saturating at `u32::MAX`.
    pub(crate) size: u32,
}

const SHARD_COUNT: usize = 16;

#[derive(Default)]
struct Shard {
    /// Full (name-sensitive) hash → the interned terms with that hash.
    /// Buckets are almost always singletons; collisions chain in the `Vec`.
    map: HashMap<u64, Vec<Term>>,
}

struct Interner {
    shards: [Mutex<Shard>; SHARD_COUNT],
    next_slot: AtomicU64,
    lookups: AtomicU64,
    hits: AtomicU64,
}

/// Point-in-time counters of the global arena, for stats probes and the
/// EXPERIMENTS.md notes.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct InternerStats {
    /// Distinct nodes ever interned (the arena never frees).
    pub nodes: u64,
    /// Total intern requests.
    pub lookups: u64,
    /// Requests answered by an existing node (structural sharing wins).
    pub hits: u64,
}

fn interner() -> &'static Interner {
    static INTERNER: OnceLock<Interner> = OnceLock::new();
    INTERNER.get_or_init(|| Interner {
        shards: std::array::from_fn(|_| Mutex::new(Shard::default())),
        next_slot: AtomicU64::new(0),
        lookups: AtomicU64::new(0),
        hits: AtomicU64::new(0),
    })
}

/// Counters of the global arena.
pub fn interner_stats() -> InternerStats {
    let i = interner();
    InternerStats {
        nodes: i.next_slot.load(Ordering::Relaxed),
        lookups: i.lookups.load(Ordering::Relaxed),
        hits: i.hits.load(Ordering::Relaxed),
    }
}

/// Interns `data`, returning the canonical [`Term`] for it. Children of
/// `data` must already be interned terms (they always are — `Term`s cannot
/// be built any other way).
pub(crate) fn intern(data: TermData) -> Term {
    let it = interner();
    it.lookups.fetch_add(1, Ordering::Relaxed);
    let key = full_hash(&data);
    let shard = &it.shards[(key as usize) & (SHARD_COUNT - 1)];
    {
        let guard = shard.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(bucket) = guard.map.get(&key) {
            if let Some(t) = bucket.iter().find(|t| shallow_eq(t.data(), &data)) {
                it.hits.fetch_add(1, Ordering::Relaxed);
                return t.clone();
            }
        }
    }
    // Miss: build the cell outside the lock (computing the alpha skeleton
    // re-enters `intern`, possibly on this same shard).
    let alpha = if is_self_canonical(&data) {
        None
    } else {
        Some(intern(anonymize(&data)))
    };
    let hash = {
        // A fixed-key hasher: `DefaultHasher::new()` is deterministic, so
        // structural hashes are stable within (and across) processes.
        let mut h = DefaultHasher::new();
        data.hash(&mut h);
        h.finish()
    };
    let ceil = ceil_of(&data);
    let size = size_of(&data);
    let mut guard = shard.lock().unwrap_or_else(|e| e.into_inner());
    // Re-probe: another thread may have interned the same payload while the
    // lock was released.
    if let Some(bucket) = guard.map.get(&key) {
        if let Some(t) = bucket.iter().find(|t| shallow_eq(t.data(), &data)) {
            it.hits.fetch_add(1, Ordering::Relaxed);
            return t.clone();
        }
    }
    let slot = it.next_slot.fetch_add(1, Ordering::Relaxed);
    assert!(slot < u32::MAX as u64, "term arena exhausted 2^32 slots");
    #[allow(clippy::disallowed_methods)]
    let t = raw_cell(TermCell {
        data,
        hash,
        slot: slot as u32,
        alpha,
        ceil,
        size,
    });
    guard.map.entry(key).or_default().push(t.clone());
    t
}

/// Wraps a [`TermCell`] allocation into a [`Term`]. **The interner's single
/// allocation point** — calling it anywhere else would mint a term that
/// bypasses hash-consing and break the `TermId`-equality invariant, which is
/// why `clippy.toml` lists it under `disallowed-methods` (the one legitimate
/// call site above carries the `#[allow]`).
#[doc(hidden)]
pub(crate) fn raw_cell(cell: TermCell) -> Term {
    Term(TermRc::new(cell))
}

/// Is `data` its own alpha-canonical skeleton (no named binders anywhere)?
fn is_self_canonical(data: &TermData) -> bool {
    let child_ok = |t: &Term| t.cell().alpha.is_none();
    match data {
        TermData::Rel(_) | TermData::Sort(_) | TermData::Const(_) | TermData::Ind(_) => true,
        TermData::Construct(_, _) => true,
        TermData::App(h, args) => child_ok(h) && args.iter().all(child_ok),
        TermData::Lambda(b, body) | TermData::Pi(b, body) => {
            b.name.is_anonymous() && child_ok(&b.ty) && child_ok(body)
        }
        TermData::Let(b, v, body) => {
            b.name.is_anonymous() && child_ok(&b.ty) && child_ok(v) && child_ok(body)
        }
        TermData::Elim(e) => {
            e.params.iter().all(child_ok)
                && child_ok(&e.motive)
                && e.cases.iter().all(child_ok)
                && child_ok(&e.scrutinee)
        }
    }
}

/// The payload of the alpha-canonical skeleton: every binder name erased,
/// every child replaced by its own skeleton. O(arity): children carry their
/// skeletons precomputed.
fn anonymize(data: &TermData) -> TermData {
    let c = |t: &Term| t.alpha_canonical().clone();
    match data {
        TermData::Rel(_)
        | TermData::Sort(_)
        | TermData::Const(_)
        | TermData::Ind(_)
        | TermData::Construct(_, _) => data.clone(),
        TermData::App(h, args) => TermData::App(c(h), args.iter().map(c).collect()),
        TermData::Lambda(b, body) => TermData::Lambda(
            Binder {
                name: Name::Anonymous,
                ty: c(&b.ty),
            },
            c(body),
        ),
        TermData::Pi(b, body) => TermData::Pi(
            Binder {
                name: Name::Anonymous,
                ty: c(&b.ty),
            },
            c(body),
        ),
        TermData::Let(b, v, body) => TermData::Let(
            Binder {
                name: Name::Anonymous,
                ty: c(&b.ty),
            },
            c(v),
            c(body),
        ),
        TermData::Elim(e) => TermData::Elim(ElimData {
            ind: e.ind.clone(),
            params: e.params.iter().map(c).collect(),
            motive: c(&e.motive),
            cases: e.cases.iter().map(c).collect(),
            scrutinee: c(&e.scrutinee),
        }),
    }
}

/// The full, name-*sensitive* lookup hash: children hashed by their unique
/// slot (pointer identity), names and payloads hashed by value. Only ever
/// used in-memory as the shard map key.
fn full_hash(data: &TermData) -> u64 {
    let mut h = DefaultHasher::new();
    let slot = |t: &Term| t.cell().slot;
    match data {
        TermData::Rel(i) => {
            h.write_u8(0);
            i.hash(&mut h);
        }
        TermData::Sort(s) => {
            h.write_u8(1);
            s.hash(&mut h);
        }
        TermData::Const(n) => {
            h.write_u8(2);
            n.hash(&mut h);
        }
        TermData::Ind(n) => {
            h.write_u8(3);
            n.hash(&mut h);
        }
        TermData::Construct(n, j) => {
            h.write_u8(4);
            n.hash(&mut h);
            j.hash(&mut h);
        }
        TermData::App(f, args) => {
            h.write_u8(5);
            h.write_u32(slot(f));
            h.write_usize(args.len());
            for a in args {
                h.write_u32(slot(a));
            }
        }
        TermData::Lambda(b, body) => {
            h.write_u8(6);
            b.name.hash(&mut h);
            h.write_u32(slot(&b.ty));
            h.write_u32(slot(body));
        }
        TermData::Pi(b, body) => {
            h.write_u8(7);
            b.name.hash(&mut h);
            h.write_u32(slot(&b.ty));
            h.write_u32(slot(body));
        }
        TermData::Let(b, v, body) => {
            h.write_u8(8);
            b.name.hash(&mut h);
            h.write_u32(slot(&b.ty));
            h.write_u32(slot(v));
            h.write_u32(slot(body));
        }
        TermData::Elim(e) => {
            h.write_u8(9);
            e.ind.hash(&mut h);
            h.write_usize(e.params.len());
            for p in &e.params {
                h.write_u32(slot(p));
            }
            h.write_u32(slot(&e.motive));
            h.write_usize(e.cases.len());
            for c in &e.cases {
                h.write_u32(slot(c));
            }
            h.write_u32(slot(&e.scrutinee));
        }
    }
    h.finish()
}

/// Name-sensitive shallow equality: payloads by value, children by pointer
/// (children are interned, so pointer equality *is* their full equality
/// including names).
fn shallow_eq(a: &TermData, b: &TermData) -> bool {
    let same = Term::same_allocation;
    match (a, b) {
        (TermData::Rel(i), TermData::Rel(j)) => i == j,
        (TermData::Sort(s1), TermData::Sort(s2)) => s1 == s2,
        (TermData::Const(n1), TermData::Const(n2)) => n1 == n2,
        (TermData::Ind(n1), TermData::Ind(n2)) => n1 == n2,
        (TermData::Construct(n1, j1), TermData::Construct(n2, j2)) => n1 == n2 && j1 == j2,
        (TermData::App(f1, a1), TermData::App(f2, a2)) => {
            same(f1, f2) && a1.len() == a2.len() && a1.iter().zip(a2).all(|(x, y)| same(x, y))
        }
        (TermData::Lambda(b1, c1), TermData::Lambda(b2, c2))
        | (TermData::Pi(b1, c1), TermData::Pi(b2, c2)) => {
            b1.name == b2.name && same(&b1.ty, &b2.ty) && same(c1, c2)
        }
        (TermData::Let(b1, v1, c1), TermData::Let(b2, v2, c2)) => {
            b1.name == b2.name && same(&b1.ty, &b2.ty) && same(v1, v2) && same(c1, c2)
        }
        (TermData::Elim(e1), TermData::Elim(e2)) => {
            e1.ind == e2.ind
                && e1.params.len() == e2.params.len()
                && e1.cases.len() == e2.cases.len()
                && e1.params.iter().zip(&e2.params).all(|(x, y)| same(x, y))
                && same(&e1.motive, &e2.motive)
                && e1.cases.iter().zip(&e2.cases).all(|(x, y)| same(x, y))
                && same(&e1.scrutinee, &e2.scrutinee)
        }
        _ => false,
    }
}

/// Least `n` such that every free `Rel` of the node is `< n`, from the
/// children's cached values.
fn ceil_of(data: &TermData) -> u32 {
    let c = |t: &Term| t.cell().ceil;
    let under = |t: &Term| t.cell().ceil.saturating_sub(1);
    match data {
        TermData::Rel(i) => u32::try_from(i + 1).unwrap_or(u32::MAX),
        TermData::Sort(_) | TermData::Const(_) | TermData::Ind(_) | TermData::Construct(_, _) => 0,
        TermData::App(h, args) => args.iter().map(c).fold(c(h), u32::max),
        TermData::Lambda(b, body) | TermData::Pi(b, body) => c(&b.ty).max(under(body)),
        TermData::Let(b, v, body) => c(&b.ty).max(c(v)).max(under(body)),
        TermData::Elim(e) => e
            .params
            .iter()
            .chain(&e.cases)
            .map(c)
            .fold(c(&e.motive).max(c(&e.scrutinee)), u32::max),
    }
}

/// Tree node count (1 + children, counted with multiplicity), saturating.
fn size_of(data: &TermData) -> u32 {
    let c = |t: &Term| t.cell().size;
    let sum = |acc: u32, t: &Term| acc.saturating_add(c(t));
    match data {
        TermData::Rel(_)
        | TermData::Sort(_)
        | TermData::Const(_)
        | TermData::Ind(_)
        | TermData::Construct(_, _) => 1,
        TermData::App(h, args) => args.iter().fold(1u32.saturating_add(c(h)), sum),
        TermData::Lambda(b, body) | TermData::Pi(b, body) => {
            1u32.saturating_add(c(&b.ty)).saturating_add(c(body))
        }
        TermData::Let(b, v, body) => 1u32
            .saturating_add(c(&b.ty))
            .saturating_add(c(v))
            .saturating_add(c(body)),
        TermData::Elim(e) => e.params.iter().chain(&e.cases).fold(
            1u32.saturating_add(c(&e.motive))
                .saturating_add(c(&e.scrutinee)),
            sum,
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_builds_share_one_allocation() {
        let a = Term::lambda("x", Term::set(), Term::rel(0));
        let b = Term::lambda("x", Term::set(), Term::rel(0));
        assert!(a.same_allocation(&b));
    }

    #[test]
    fn alpha_variants_share_id_but_not_allocation() {
        let a = Term::lambda("x", Term::set(), Term::rel(0));
        let b = Term::lambda("y", Term::set(), Term::rel(0));
        assert!(!a.same_allocation(&b), "names differ, nodes must differ");
        assert_eq!(a.id(), b.id());
        assert!(a.alpha_canonical().same_allocation(b.alpha_canonical()));
    }

    #[test]
    fn skeleton_is_fully_anonymous_and_self_canonical() {
        let t = Term::pi(
            "a",
            Term::set(),
            Term::lambda("b", Term::rel(0), Term::rel(0)),
        );
        let s = t.alpha_canonical();
        assert_eq!(t.id(), s.id());
        assert!(s.alpha_canonical().same_allocation(s));
        match s.data() {
            TermData::Pi(b, _) => assert!(b.name.is_anonymous()),
            _ => panic!("skeleton shape changed"),
        }
    }

    #[test]
    fn distinct_structures_get_distinct_ids() {
        assert_ne!(Term::rel(0).id(), Term::rel(1).id());
        assert_ne!(
            Term::lambda("x", Term::set(), Term::rel(0)).id(),
            Term::lambda("x", Term::prop(), Term::rel(0)).id()
        );
    }

    #[test]
    fn ceil_tracks_free_variables() {
        assert_eq!(Term::rel(3).free_rel_bound(), 4);
        assert_eq!(Term::set().free_rel_bound(), 0);
        // fun (x : Set) => #0 is closed; fun (x : Set) => #1 has one free.
        assert_eq!(
            Term::lambda("x", Term::set(), Term::rel(0)).free_rel_bound(),
            0
        );
        assert_eq!(
            Term::lambda("x", Term::set(), Term::rel(1)).free_rel_bound(),
            1
        );
    }

    #[test]
    fn interner_stats_monotone() {
        let before = interner_stats();
        let _ = Term::const_("intern.stats.probe");
        let _ = Term::const_("intern.stats.probe");
        let after = interner_stats();
        assert!(after.lookups >= before.lookups + 2);
        assert!(after.hits > before.hits);
    }
}
