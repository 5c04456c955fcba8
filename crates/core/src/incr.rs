//! Incremental differential repair (salsa-style, DESIGN.md §16).
//!
//! The paper's 10 s interactive budget only matters if edit→repair cycles
//! reuse work. This module supplies the pieces that make "touch 1 of 13
//! constants → re-lift ~1" a first-class number:
//!
//! * [`DigestMap`] — a snapshot, from the last repair, of each *source*
//!   declaration's content digest ([`pumpkin_wire::decl_digest`]) and
//!   dependency fingerprint ([`Env::fingerprint`]), kept in each serve
//!   `Session` and in `pumpkin watch`.
//! * [`DigestMap::diff`] — which work-list constants changed since the
//!   snapshot (edited, or new to the snapshot): the `changed` count.
//! * [`DigestMap::stale`] — which work-list constants' fingerprints left
//!   the snapshot's: the edited ones and every one that depends on an
//!   edit, through the work list or off it. A threaded
//!   [`crate::LiftState`] forgets their mappings, and only the others may
//!   reuse a resident repair. Staleness on disk needs no list: a persist
//!   record replays only under the fingerprint it was lifted against (see
//!   [`crate::persist`]), so everything else replays from the
//!   [`crate::PersistCache`] and a stale constant re-lifts.
//!
//! Accounting lands in [`IncrStats`] (`{changed, replayed, skipped}`),
//! carried on [`crate::RepairReport::incr`] and the wire report form.

use std::collections::{HashMap, HashSet};
use std::fmt;

use pumpkin_kernel::env::Env;
use pumpkin_kernel::name::GlobalName;
use pumpkin_wire::{decl_digest, TermDigest};

/// A snapshot of source declarations from one repair run: each one's
/// content digest and dependency fingerprint.
///
/// Capture it after a successful repair with [`DigestMap::capture`]; diff
/// a later environment against it with [`DigestMap::diff`] and
/// [`DigestMap::stale`]. Constants the environment no longer has are
/// simply absent from the next capture — deletion needs no repair work, so
/// it never enters the changed set.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct DigestMap {
    entries: HashMap<GlobalName, (TermDigest, u64)>,
}

impl DigestMap {
    /// An empty snapshot: every constant diffs as changed (a cold run).
    pub fn new() -> DigestMap {
        DigestMap::default()
    }

    /// Snapshots the digests and fingerprints of `names` as they stand in
    /// `env` (names the environment lacks are skipped — they will diff as
    /// changed if they appear later). Reads the fingerprints the
    /// environment recorded; walks nothing it already knows.
    pub fn capture(env: &Env, names: &[&str]) -> DigestMap {
        let entries = names
            .iter()
            .filter_map(|n| {
                let name = GlobalName::new(*n);
                let decl = env.const_decl(&name).ok()?;
                let fingerprint = env.fingerprint(&name)?;
                Some((name, (decl_digest(decl), fingerprint)))
            })
            .collect();
        DigestMap { entries }
    }

    /// Number of snapshotted constants.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Is the snapshot empty (i.e. would every constant diff as changed)?
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The snapshotted digest for a constant, if present.
    pub fn get(&self, name: &GlobalName) -> Option<TermDigest> {
        self.entries.get(name).map(|&(digest, _)| digest)
    }

    /// Which of `names` changed in `env` relative to this snapshot: the
    /// declaration's digest differs, the constant is new to the snapshot,
    /// or (defensively) the environment cannot produce it. Order follows
    /// `names`.
    pub fn diff(&self, env: &Env, names: &[GlobalName]) -> Vec<GlobalName> {
        names
            .iter()
            .filter(|name| match env.const_decl(name) {
                Ok(decl) => self.get(name) != Some(decl_digest(decl)),
                Err(_) => true,
            })
            .cloned()
            .collect()
    }

    /// Which of `names` are stale: the fingerprint in `env` differs from
    /// the snapshot's, or either is absent. A superset of
    /// [`DigestMap::diff`]'s constants that also holds every constant whose
    /// dependencies changed, however indirectly.
    pub fn stale(&self, env: &Env, names: &[GlobalName]) -> HashSet<GlobalName> {
        names
            .iter()
            .filter(|name| {
                let now = env.fingerprint(name);
                now.is_none() || self.entries.get(*name).map(|&(_, f)| f) != now
            })
            .cloned()
            .collect()
    }
}

/// Incremental accounting for one differential run, over the work list:
/// how many inputs changed, how many constants were re-lifted fresh, and
/// how many were skipped (replayed from the persist cache, or already
/// repaired in the threaded state).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct IncrStats {
    /// Work-list constants whose source digest differed from the snapshot
    /// (edited or new).
    pub changed: u64,
    /// Work-list constants re-lifted fresh this run: the stale ones
    /// ([`DigestMap::stale`]) whose persist record, if any, was lifted
    /// against other dependencies, and any others the cache could not
    /// serve.
    pub replayed: u64,
    /// Work-list constants not re-lifted: served by a persist-cache
    /// replay or already present in the threaded lift state.
    pub skipped: u64,
}

impl fmt::Display for IncrStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "changed={} replayed={} skipped={}",
            self.changed, self.replayed, self.skipped
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pumpkin_kernel::term::Term;

    fn global(names: &[&str]) -> Vec<GlobalName> {
        names.iter().map(|n| GlobalName::new(*n)).collect()
    }

    fn tiny_env() -> Env {
        let mut env = pumpkin_stdlib::std_env();
        let nat = Term::ind("nat");
        env.define("base", nat.clone(), Term::construct("nat", 0))
            .unwrap();
        env.define("mid", nat.clone(), Term::const_("base"))
            .unwrap();
        env.define("top", nat, Term::const_("mid")).unwrap();
        env
    }

    /// `tiny_env` with `mid` edited (same type, digest-changing body),
    /// `top` re-declared as it was, and a `fresh` constant.
    fn edited_env() -> Env {
        let mut env = tiny_env();
        let nat = Term::ind("nat");
        env.remove(&"top".into()).unwrap();
        env.remove(&"mid".into()).unwrap();
        env.define(
            "mid",
            nat.clone(),
            Term::let_(
                "x",
                nat.clone(),
                Term::construct("nat", 0),
                Term::const_("base"),
            ),
        )
        .unwrap();
        env.define("top", nat.clone(), Term::const_("mid")).unwrap();
        env.define("fresh", nat, Term::construct("nat", 0)).unwrap();
        env
    }

    #[test]
    fn capture_then_diff_is_empty_without_edits() {
        let env = tiny_env();
        let names = ["base", "mid", "top"];
        let snap = DigestMap::capture(&env, &names);
        assert_eq!(snap.len(), 3);
        assert!(snap.diff(&env, &global(&names)).is_empty());
        assert!(snap.stale(&env, &global(&names)).is_empty());
    }

    #[test]
    fn diff_reports_edited_and_new_constants() {
        let snap = DigestMap::capture(&tiny_env(), &["base", "mid", "top"]);
        let changed = snap.diff(&edited_env(), &global(&["base", "mid", "top", "fresh"]));
        assert_eq!(
            changed,
            vec![GlobalName::new("mid"), GlobalName::new("fresh")],
            "edited + snapshot-new constants diff as changed; untouched do not"
        );
    }

    #[test]
    fn stale_holds_the_edits_and_their_dependents_only() {
        let snap = DigestMap::capture(&tiny_env(), &["base", "mid", "top"]);
        // Touching the middle makes it and its dependent stale, not its
        // dependency; a constant new to the snapshot is stale too.
        let stale = snap.stale(&edited_env(), &global(&["base", "mid", "top", "fresh"]));
        let want: HashSet<GlobalName> = global(&["mid", "top", "fresh"]).into_iter().collect();
        assert_eq!(stale, want);
        // A dependency off the work list counts as well: `top` alone is
        // snapshotted, and `mid`'s edit reaches it.
        let snap = DigestMap::capture(&tiny_env(), &["top"]);
        let stale = snap.stale(&edited_env(), &global(&["top"]));
        assert!(stale.contains(&GlobalName::new("top")));
        assert!(snap.diff(&edited_env(), &global(&["top"])).is_empty());
    }

    #[test]
    fn empty_snapshot_diffs_everything() {
        let env = tiny_env();
        let names = global(&["base", "mid", "top"]);
        assert_eq!(DigestMap::new().diff(&env, &names).len(), 3);
        assert_eq!(DigestMap::new().stale(&env, &names).len(), 3);
    }
}
