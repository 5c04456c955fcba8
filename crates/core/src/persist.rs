//! The persistent, cross-run lift cache.
//!
//! A [`PersistCache`] is a content-addressed store of repaired
//! declarations on disk:
//!
//! ```text
//! <root>/v<WIRE_VERSION>/<config-digest>/<decl-digest>.bin
//! ```
//!
//! * `<root>` is the user-chosen cache directory (`--cache-dir`, or the
//!   daemon's default under `~/.cache/pumpkin`).
//! * `v<WIRE_VERSION>` is the invalidation tag: bumping the wire format
//!   orphans every old entry wholesale (they are simply never looked at
//!   again), and entries that fail to decode — including any whose
//!   embedded digest no longer verifies — read as absent.
//! * `<config-digest>` identifies the lifting recipe: the equivalence's
//!   endpoint names, the rename rules in order, and the names and
//!   declaration digests of the generated equivalence constants (see
//!   [`config_digest`]). The declarations encode the constructor mapping,
//!   so two mappings of one pair of types never observe each other's
//!   entries.
//! * `<decl-digest>` is [`pumpkin_wire::decl_digest`] of the *old*
//!   declaration — name, type and body digests, opacity — so a source
//!   edit re-keys the entry automatically.
//!
//! The value is the [`pumpkin_wire::encode_decl`] binary frame of the
//! *repaired* declaration. Replay installs it via `Env::admit_checked`
//! (debug builds re-typecheck; release builds trust the digests, which is
//! where the warm-path speedup comes from — see `repair_constant`).
//!
//! Shared-directory hardening (DESIGN.md §16):
//!
//! * Writes are atomic (temp file + rename), so concurrent daemons
//!   sharing a cache directory never observe partial entries.
//! * Reads are corruption-tolerant: an entry that fails to decode is
//!   *evicted* (deleted) and reads as a miss, so the fresh lift that
//!   follows re-publishes a good frame — a damaged cache can slow a run
//!   down but never fail it.
//! * The digests detect damage, not forgery. A frame whose digests were
//!   recomputed over a different declaration verifies, and release
//!   builds install it without a kernel check (debug builds re-check),
//!   so a release build trusts whoever can write the cache directory.
//! * The store can be size-bounded ([`PersistCache::open_bounded`],
//!   `--cache-max-bytes`): when the root directory's entries exceed the
//!   budget, the least-recently-used entries (by modification time;
//!   lookups touch their entry) are removed. Eviction across daemons is
//!   serialized by a `create_new` lock file with a stale-steal guard, so
//!   two daemons never scan-and-delete concurrently.

use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, SystemTime};

use pumpkin_kernel::env::{ConstDecl, Env};
use pumpkin_wire::{
    decl_digest, decode_decl, encode_decl, DigestBuilder, TermDigest, WIRE_VERSION,
};

use crate::config::Lifting;

/// The digest identifying a lifting configuration for cache-keying
/// purposes: wire version, endpoint type names, rename rules in order,
/// and the equivalence constants (when generated) with their declaration
/// digests in `env`. A `Lifting` holds trait objects, so this digests the
/// *recipe's observable identity*, not the code. The equivalence's names
/// are the same for every constructor mapping of a pair of types
/// (`{A}_to_{B}`, …); its declarations are what tell the mappings apart.
pub fn config_digest(env: &Env, l: &Lifting) -> TermDigest {
    let mut h = DigestBuilder::new();
    h.write_u64(WIRE_VERSION as u64);
    h.write_str(l.a_name.as_str());
    h.write_str(l.b_name.as_str());
    let rules = l.names.rules();
    h.write_u64(rules.len() as u64);
    for (from, to) in rules {
        h.write_str(from);
        h.write_str(to);
    }
    match &l.equivalence {
        Some(eqv) => {
            h.write_u64(1);
            for name in [&eqv.f, &eqv.g, &eqv.section, &eqv.retraction] {
                h.write_str(name.as_str());
                h.write_u64(env.const_decl(name).map_or(0, |d| decl_digest(d).0));
            }
        }
        None => h.write_u64(0),
    }
    TermDigest(h.finish())
}

/// An open handle on one configuration's shard of the on-disk cache.
///
/// Immutable after opening (all I/O goes through `&self`), so a
/// [`crate::LiftState`] holds it behind an `Arc`.
#[derive(Debug)]
pub struct PersistCache {
    root: PathBuf,
    dir: PathBuf,
    /// Size budget for the whole cache root (all shards), in bytes;
    /// `None` = unbounded.
    max_bytes: Option<u64>,
}

/// How long an eviction lock may sit before another daemon steals it
/// (covers a daemon killed mid-eviction).
const EVICT_LOCK_STALE: Duration = Duration::from_secs(60);

/// Process-global memo of decoded cache frames, keyed by the frame's raw
/// bytes. `decode_decl` is a pure function of the bytes, so an entry can
/// never go stale — a rewritten file simply has different bytes and
/// misses. This is what keeps a warm session cheap: every run (and every
/// daemon session in this process) re-reads the same frames, but only the
/// first decode pays the term-interning cost.
static DECODED: std::sync::OnceLock<
    std::sync::Mutex<std::collections::HashMap<Vec<u8>, ConstDecl>>,
> = std::sync::OnceLock::new();

/// Entry cap for [`DECODED`] (cleared whole at the cap, see
/// [`crate::insert_capped`]): 1 024 frames and their declarations. Hitting
/// it means the working set dwarfs anything a session replays.
const DECODED_CAP: usize = 1024;

fn decode_decl_cached(bytes: &[u8]) -> Option<ConstDecl> {
    let memo = DECODED.get_or_init(Default::default);
    if let Ok(memo) = memo.lock() {
        if let Some(decl) = memo.get(bytes) {
            return Some(decl.clone());
        }
    }
    let decl = decode_decl(bytes).ok()?;
    if let Ok(mut memo) = memo.lock() {
        crate::insert_capped(&mut memo, DECODED_CAP, bytes.to_vec(), decl.clone());
    }
    Some(decl)
}

impl PersistCache {
    /// Opens (creating as needed) the shard of `root` belonging to this
    /// lifting configuration over `env`, unbounded.
    pub fn open(
        root: impl AsRef<Path>,
        env: &Env,
        lifting: &Lifting,
    ) -> std::io::Result<PersistCache> {
        PersistCache::open_bounded(root, env, lifting, None)
    }

    /// Opens the shard with a size budget over the whole cache root:
    /// after a store pushes the root's entries past `max_bytes`, the
    /// least-recently-used entries are evicted back under budget.
    pub fn open_bounded(
        root: impl AsRef<Path>,
        env: &Env,
        lifting: &Lifting,
        max_bytes: Option<u64>,
    ) -> std::io::Result<PersistCache> {
        let root = root.as_ref().to_path_buf();
        let dir = root
            .join(format!("v{WIRE_VERSION}"))
            .join(config_digest(env, lifting).to_string());
        fs::create_dir_all(&dir)?;
        Ok(PersistCache {
            root,
            dir,
            max_bytes,
        })
    }

    /// The shard directory (for diagnostics and tests).
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Looks up the repaired declaration persisted for `old`. Corrupt,
    /// truncated, or digest-mismatching entries are *evicted* and read as
    /// absent — the caller falls back to a fresh lift, whose store then
    /// re-publishes a good frame. Never an error.
    pub fn lookup(&self, old: &ConstDecl) -> Option<ConstDecl> {
        let path = self.entry_path(old);
        let bytes = fs::read(&path).ok()?;
        match decode_decl_cached(&bytes) {
            Some(decl) => {
                if self.max_bytes.is_some() {
                    // LRU touch: a hit refreshes the entry's mtime so
                    // eviction removes cold entries first. Best-effort.
                    if let Ok(f) = fs::OpenOptions::new().write(true).open(&path) {
                        let _ = f.set_times(fs::FileTimes::new().set_modified(SystemTime::now()));
                    }
                }
                Some(decl)
            }
            None => {
                let _ = fs::remove_file(&path);
                None
            }
        }
    }

    /// Persists `new` as the repair of `old`. Best-effort: I/O failures
    /// are swallowed (the cache is an accelerator, never a correctness
    /// dependency). The write is atomic — temp file, then rename — so a
    /// concurrent reader sees either nothing or a complete frame.
    pub fn store(&self, old: &ConstDecl, new: &ConstDecl) {
        self.store_with(old, new, false);
    }

    /// [`PersistCache::store`], with explicit overwrite control. The
    /// incremental layer passes `overwrite = true` for invalidated
    /// constants: their digest-unchanged entries may hold repairs
    /// computed against an upstream that has since changed.
    pub fn store_with(&self, old: &ConstDecl, new: &ConstDecl, overwrite: bool) {
        let path = self.entry_path(old);
        if !overwrite && path.exists() {
            return;
        }
        // The temp name must be unique per *store call*, not just per
        // process: two worker threads in one daemon storing the same
        // entry through a pid-only suffix would interleave their
        // write/rename/remove on a single tmp path — publishing a torn
        // frame or deleting a freshly renamed entry.
        static TMP_SEQ: AtomicU64 = AtomicU64::new(0);
        let seq = TMP_SEQ.fetch_add(1, Ordering::Relaxed);
        let tmp = path.with_extension(format!("tmp{}.{seq}", std::process::id()));
        if fs::write(&tmp, encode_decl(new)).is_ok() && fs::rename(&tmp, &path).is_err() {
            let _ = fs::remove_file(&tmp);
        }
        self.evict_to_budget();
    }

    fn entry_path(&self, old: &ConstDecl) -> PathBuf {
        self.dir.join(format!("{}.bin", decl_digest(old)))
    }

    /// Every `.bin` entry under the cache root, across all versions and
    /// configuration shards, with size and modification time.
    fn entries(&self) -> Vec<(PathBuf, u64, SystemTime)> {
        let mut out = Vec::new();
        let Ok(versions) = fs::read_dir(&self.root) else {
            return out;
        };
        for v in versions.flatten() {
            let Ok(shards) = fs::read_dir(v.path()) else {
                continue;
            };
            for shard in shards.flatten() {
                let Ok(files) = fs::read_dir(shard.path()) else {
                    continue;
                };
                for f in files.flatten() {
                    let path = f.path();
                    if path.extension().is_none_or(|e| e != "bin") {
                        continue;
                    }
                    if let Ok(m) = f.metadata() {
                        let mtime = m.modified().unwrap_or(SystemTime::UNIX_EPOCH);
                        out.push((path, m.len(), mtime));
                    }
                }
            }
        }
        out
    }

    /// Takes the cross-daemon eviction lock, stealing it if its holder
    /// looks dead ([`EVICT_LOCK_STALE`]). Returns `None` when another
    /// live daemon holds it — the caller just skips this round; that
    /// daemon's eviction covers the same entries.
    fn try_lock_evict(&self) -> Option<PathBuf> {
        let lock = self.root.join(".evict.lock");
        let acquire = |lock: &Path| {
            fs::OpenOptions::new()
                .write(true)
                .create_new(true)
                .open(lock)
                .ok()
                .map(|mut f| {
                    let _ = write!(f, "{}", std::process::id());
                })
        };
        if acquire(&lock).is_some() {
            return Some(lock);
        }
        let stale = fs::metadata(&lock)
            .and_then(|m| m.modified())
            .ok()
            .and_then(|t| t.elapsed().ok())
            .is_some_and(|age| age > EVICT_LOCK_STALE);
        if !stale {
            return None;
        }
        let _ = fs::remove_file(&lock);
        acquire(&lock).map(|()| lock)
    }

    /// Brings the root back under the size budget by deleting the
    /// least-recently-used entries (oldest mtime first). No-op when
    /// unbounded, under budget, or when another daemon holds the
    /// eviction lock. Best-effort throughout: the cache is an
    /// accelerator, never a correctness dependency.
    fn evict_to_budget(&self) {
        let Some(max) = self.max_bytes else { return };
        let mut entries = self.entries();
        let total: u64 = entries.iter().map(|(_, len, _)| len).sum();
        if total <= max {
            return;
        }
        let Some(lock) = self.try_lock_evict() else {
            return;
        };
        // Re-scan under the lock: another daemon may have evicted while
        // we raced for it.
        entries = self.entries();
        let mut total: u64 = entries.iter().map(|(_, len, _)| len).sum();
        entries.sort_by_key(|(_, _, mtime)| *mtime);
        for (path, len, _) in entries {
            if total <= max {
                break;
            }
            if fs::remove_file(&path).is_ok() {
                total = total.saturating_sub(len);
            }
        }
        let _ = fs::remove_file(&lock);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pumpkin_kernel::term::Term;

    fn sample_lifting(env: &mut pumpkin_kernel::env::Env) -> Lifting {
        crate::search::swap::configure(
            env,
            &"Old.list".into(),
            &"New.list".into(),
            crate::config::NameMap::prefix("Old.", "New."),
        )
        .unwrap()
    }

    #[test]
    fn store_then_lookup_roundtrips() {
        let mut env = pumpkin_stdlib::std_env();
        let lifting = sample_lifting(&mut env);
        let root =
            std::env::temp_dir().join(format!("pumpkin-persist-test-{}", std::process::id()));
        let cache = PersistCache::open(&root, &env, &lifting).unwrap();
        let old = env.const_decl(&"Old.rev".into()).unwrap().clone();
        let new = ConstDecl {
            name: "New.rev".into(),
            ty: Term::prop(),
            body: None,
            opaque: false,
        };
        assert!(cache.lookup(&old).is_none());
        cache.store(&old, &new);
        assert_eq!(cache.lookup(&old), Some(new));
        // A corrupt entry reads as absent.
        let path = cache.entry_path(&old);
        let mut bytes = fs::read(&path).unwrap();
        bytes[8] ^= 0xff;
        fs::write(&path, bytes).unwrap();
        assert!(cache.lookup(&old).is_none());
        let _ = fs::remove_dir_all(&root);
    }

    /// Regression test for the tmp-path collision: many threads storing
    /// the same entries into one shard concurrently must leave every
    /// entry complete. With a pid-only temp suffix the threads shared one
    /// tmp path, so an interleaved write/rename could publish a torn
    /// frame — which reads as absent forever after, because `store` sees
    /// the path exists and never rewrites it.
    #[test]
    fn concurrent_stores_into_a_shared_dir_publish_complete_entries() {
        let mut env = pumpkin_stdlib::std_env();
        let lifting = sample_lifting(&mut env);
        let root = std::env::temp_dir().join(format!(
            "pumpkin-persist-race-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&root);
        let cache = PersistCache::open(&root, &env, &lifting).unwrap();
        let entries: Vec<(ConstDecl, ConstDecl)> = (0..64usize)
            .map(|i| {
                let old = ConstDecl {
                    name: format!("Old.c{i}").into(),
                    ty: Term::prop(),
                    body: None,
                    opaque: false,
                };
                let new = ConstDecl {
                    name: format!("New.c{i}").into(),
                    ty: Term::prop(),
                    body: Some(Term::rel(i)),
                    opaque: false,
                };
                (old, new)
            })
            .collect();
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    for (old, new) in &entries {
                        cache.store(old, new);
                    }
                });
            }
        });
        for (old, new) in &entries {
            assert_eq!(
                cache.lookup(old).as_ref(),
                Some(new),
                "entry for {} is missing or torn",
                old.name
            );
        }
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn corrupt_entries_are_evicted_and_repairable_by_restore() {
        let mut env = pumpkin_stdlib::std_env();
        let lifting = sample_lifting(&mut env);
        let root = std::env::temp_dir().join(format!(
            "pumpkin-persist-corrupt-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&root);
        let cache = PersistCache::open(&root, &env, &lifting).unwrap();
        let old = env.const_decl(&"Old.rev".into()).unwrap().clone();
        let new = ConstDecl {
            name: "New.rev".into(),
            ty: Term::prop(),
            body: None,
            opaque: false,
        };
        cache.store(&old, &new);
        let path = cache.entry_path(&old);
        fs::write(&path, b"garbage").unwrap();
        // The corrupt read is a miss that also deletes the entry...
        assert!(cache.lookup(&old).is_none());
        assert!(!path.exists(), "corrupt entry is evicted, not left to rot");
        // ...so the store path (which skips existing entries) re-publishes.
        cache.store(&old, &new);
        assert_eq!(cache.lookup(&old), Some(new));
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn store_with_overwrite_replaces_an_existing_entry() {
        let mut env = pumpkin_stdlib::std_env();
        let lifting = sample_lifting(&mut env);
        let root = std::env::temp_dir().join(format!(
            "pumpkin-persist-overwrite-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&root);
        let cache = PersistCache::open(&root, &env, &lifting).unwrap();
        let old = env.const_decl(&"Old.rev".into()).unwrap().clone();
        let v1 = ConstDecl {
            name: "New.rev".into(),
            ty: Term::prop(),
            body: None,
            opaque: false,
        };
        let v2 = ConstDecl {
            name: "New.rev".into(),
            ty: Term::prop(),
            body: Some(Term::rel(0)),
            opaque: false,
        };
        cache.store(&old, &v1);
        cache.store(&old, &v2);
        assert_eq!(
            cache.lookup(&old),
            Some(v1.clone()),
            "plain store never clobbers"
        );
        cache.store_with(&old, &v2, true);
        assert_eq!(cache.lookup(&old), Some(v2), "overwrite store replaces");
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn size_budget_evicts_least_recently_used_entries() {
        let mut env = pumpkin_stdlib::std_env();
        let lifting = sample_lifting(&mut env);
        let root = std::env::temp_dir().join(format!(
            "pumpkin-persist-lru-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&root);
        let decl = |i: usize, prefix: &str| ConstDecl {
            name: format!("{prefix}.c{i}").into(),
            ty: Term::prop(),
            body: Some(Term::rel(i)),
            opaque: false,
        };
        // Measure one entry's on-disk size, then budget for exactly two.
        let probe = PersistCache::open(&root, &env, &lifting).unwrap();
        probe.store(&decl(0, "Old"), &decl(0, "New"));
        let entry_len = fs::metadata(probe.entry_path(&decl(0, "Old")))
            .unwrap()
            .len();
        let _ = fs::remove_dir_all(&root);
        let cache =
            PersistCache::open_bounded(&root, &env, &lifting, Some(2 * entry_len + entry_len / 2))
                .unwrap();
        for i in 0..4 {
            cache.store(&decl(i, "Old"), &decl(i, "New"));
            // Distinct mtimes so LRU order is unambiguous.
            std::thread::sleep(std::time::Duration::from_millis(10));
        }
        assert!(
            cache.lookup(&decl(0, "Old")).is_none(),
            "oldest entry is evicted"
        );
        assert_eq!(
            cache.lookup(&decl(3, "Old")),
            Some(decl(3, "New")),
            "newest entry survives"
        );
        let survivors = cache
            .entries()
            .iter()
            .filter(|(p, _, _)| p.extension().is_some_and(|e| e == "bin"))
            .count();
        assert!(
            survivors <= 2,
            "budget holds two entries, found {survivors}"
        );
        // The eviction lock never outlives the call.
        assert!(!root.join(".evict.lock").exists());
        let _ = fs::remove_dir_all(&root);
    }

    /// Three nullary constructors, so every permutation is a mapping, and
    /// a constant whose repair is the constructor its mapping picks.
    const PICK_TYPES: &str = "\
        Inductive Old.c : Set := | Old.ra : Old.c | Old.rb : Old.c | Old.rc : Old.c.\n\
        Inductive New.c : Set := | New.ra : New.c | New.rb : New.c | New.rc : New.c.";

    /// `New.pick`'s body after repairing `Old.pick := Old.ra` under `perm`
    /// in a fresh world, through the cache rooted at `root` if given.
    fn repaired_pick(perm: &[usize], root: Option<&Path>) -> Option<Term> {
        let mut env = pumpkin_stdlib::std_env();
        pumpkin_lang::load_source(&mut env, PICK_TYPES).unwrap();
        pumpkin_lang::load_source(&mut env, "Definition Old.pick : Old.c := Old.ra.").unwrap();
        let lifting = crate::search::swap::configure_with(
            &mut env,
            &"Old.c".into(),
            &"New.c".into(),
            perm,
            crate::config::NameMap::prefix("Old.", "New."),
        )
        .unwrap();
        let mut repairer = crate::Repairer::new(&lifting);
        if let Some(root) = root {
            repairer = repairer.persist_cache(root);
        }
        repairer.run(&mut env, &["Old.pick"]).unwrap();
        env.const_decl(&"New.pick".into()).unwrap().body.clone()
    }

    #[test]
    fn each_constructor_mapping_replays_only_its_own_repairs() {
        let root = std::env::temp_dir().join(format!(
            "pumpkin-persist-mappings-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&root);
        for perm in [[0, 1, 2], [1, 2, 0]] {
            assert_eq!(
                repaired_pick(&perm, Some(&root)),
                repaired_pick(&perm, None),
                "mapping {perm:?} through a shared cache directory"
            );
        }
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn a_cache_dir_never_changes_what_the_auto_search_installs() {
        // Warm the cache with the repair of the module's one constant
        // under a mapping that sends `Old.ra` elsewhere than the
        // top-ranked one does; the search's winner must still install its
        // own mapping's repair, as it does without a cache.
        let root = std::env::temp_dir().join(format!(
            "pumpkin-persist-auto-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&root);
        let src = "Definition Old.pick : Old.c := Old.ra.";
        let world = || {
            let mut env = pumpkin_stdlib::std_env();
            pumpkin_lang::load_source(&mut env, PICK_TYPES).unwrap();
            env
        };
        let (a, b) = ("Old.c".into(), "New.c".into());
        let names = crate::config::NameMap::prefix("Old.", "New.");
        let mut warm = world();
        pumpkin_lang::load_source(&mut warm, src).unwrap();
        let mappings = crate::search::swap::discover_mappings(
            warm.inductive(&a).unwrap(),
            warm.inductive(&b).unwrap(),
        );
        let other = mappings.iter().find(|m| m[0] != mappings[0][0]).unwrap();
        let lifting =
            crate::search::swap::configure_with(&mut warm, &a, &b, other, names.clone()).unwrap();
        crate::Repairer::new(&lifting)
            .persist_cache(&root)
            .run(&mut warm, &["Old.pick"])
            .unwrap();
        let search = |cache: Option<&Path>| {
            let mut env = world();
            let mut driver = crate::Repairer::auto(crate::AutoPolicy {
                use_failure_cache: false,
                minimize: false,
                ..Default::default()
            })
            .types(a.clone(), b.clone(), names.clone())
            .source(src);
            if let Some(dir) = cache {
                driver = driver.persist_cache(dir);
            }
            let (auto, result) = driver.run(&mut env, &[]);
            result.unwrap();
            let pick = env.const_decl(&"New.pick".into()).unwrap().body.clone();
            (auto.winner, pick)
        };
        assert_eq!(search(Some(&root)), search(None));
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn config_digest_separates_recipes() {
        let mut env = pumpkin_stdlib::std_env();
        let a = sample_lifting(&mut env);
        let d1 = config_digest(&env, &a);
        let mut b = sample_lifting(&mut env);
        b.names = crate::config::NameMap::prefix("Old.", "Other.");
        assert_ne!(d1, config_digest(&env, &b));
        assert_eq!(d1, config_digest(&env, &a));
    }
}
