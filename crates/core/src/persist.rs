//! The persistent, cross-run lift cache.
//!
//! A [`PersistCache`] is a content-addressed store of repaired
//! declarations on disk: one append-only pack file per configuration
//! shard, in the log-structured layout of Bitcask (Sheehy & Smith 2010):
//!
//! ```text
//! <root>/v<WIRE_VERSION>/<config-digest>/pack
//! ```
//!
//! * `<root>` is the user-chosen cache directory (`--cache-dir`, or the
//!   daemon's default under `~/.cache/pumpkin`).
//! * `v<WIRE_VERSION>` is the invalidation tag: bumping the wire format
//!   orphans every old pack wholesale (they are simply never looked at
//!   again), and frames that fail to decode — including any whose
//!   embedded digest no longer verifies — read as absent.
//! * `<config-digest>` identifies the lifting recipe: the equivalence's
//!   endpoint names, the rename rules in order, and the names and
//!   declaration digests of the generated equivalence constants (see
//!   [`config_digest`]). The declarations encode the constructor mapping,
//!   so two mappings of one pair of types never observe each other's
//!   records.
//!
//! A pack is a 16-byte header — the magic `PUMPACK2`, then a nonce drawn
//! when the file is created — followed by records. A record is a 40-byte
//! head (magic, frame length, key, fingerprint, frame checksum, head
//! checksum) and a frame:
//!
//! * the key is [`pumpkin_wire::decl_digest`] of the *old* declaration —
//!   name, type and body digests, opacity — so a source edit re-keys the
//!   record automatically;
//! * the fingerprint is the old declaration's [`Env::fingerprint`] when
//!   the repair was lifted, which covers everything the declaration
//!   depends on, however indirectly;
//! * the frame is the [`pumpkin_wire::encode_decl`] binary frame of the
//!   *repaired* declaration, and an empty frame is a tombstone;
//! * the newest record for a key wins.
//!
//! That is the one staleness rule for persisted repairs: a lookup hits
//! only when the newest record for its key carries the old declaration's
//! current fingerprint. A dependency edit — on the work list or off it —
//! changes the fingerprint of every declaration that depends on it, so
//! their records read as misses, and the re-lift's store supersedes each
//! one. A store appends nothing when the newest record already holds the
//! same fingerprint and frame. A pack with another header (an earlier
//! layout, or damage) reads as empty, and the first store replaces it.
//!
//! Replay installs a frame through `Env::define`, as a fresh lift does, in
//! every build profile; it stays cheap because the admission memo admits
//! a declaration this process's kernel accepted before by its exact
//! identity (see `repair_constant`).
//!
//! Shared-directory hardening (DESIGN.md §16):
//!
//! * A store is one `write` of a whole record on an `O_APPEND` handle, so
//!   concurrent writers never interleave inside a record. A reader sees a
//!   whole record or none: indexing stops at a record cut short at the
//!   tail, and picks it up once it is whole.
//! * Reads are damage-tolerant: the checksums detect a damaged record,
//!   which reads as a miss, so the fresh lift that follows re-publishes
//!   it; indexing resynchronizes at the next head that verifies. A damaged
//!   cache can slow a run down but never fail it.
//! * The checksums and digests detect damage, not forgery, so replay
//!   trusts no frame: a frame the kernel refuses is tombstoned and counted
//!   as `persist_rejected`. Whoever can write the cache directory cannot
//!   get an ill-typed declaration installed, though only the digests tie a
//!   well-typed frame to the repair a fresh lift would produce.
//! * One index per pack is shared by the whole process: key → record
//!   offset, plus the declaration once a hit has decoded it, so a repeated
//!   hit makes no system call. Each `PersistCache` brings the index up to
//!   date once, on first use: it reads the pack's header, whose nonce
//!   tells a recreated or rewritten pack from the one indexed (which is
//!   then re-indexed from scratch), and the bytes appended since.
//! * A pack whose dead records (superseded, tombstoned or damaged)
//!   outweigh its live ones is compacted: rewritten, live records only, by
//!   temp file and rename. The size budget ([`PersistCache::open_bounded`],
//!   `--cache-max-bytes`) rewrites packs the same way, dropping the least
//!   recently used records: by this process's use, then by append order
//!   within a shard, and shards by their last-open time. Both run under a
//!   `create_new` lock file in the root with a stale-steal guard, so two
//!   daemons never rewrite concurrently. An append another process makes
//!   to a pack while it is rewritten is lost: it reads as a miss and is
//!   re-lifted.

use std::collections::{HashMap, HashSet};
use std::fs::{self, File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::{Duration, SystemTime, UNIX_EPOCH};

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

/// A shard's pack, inside its shard directory.
const PACK: &str = "pack";
/// The pack header's magic; the header's other 8 bytes are its nonce.
const PACK_MAGIC: &[u8; 8] = b"PUMPACK2";
/// Pack header length.
const PACK_HEAD: u64 = 16;
/// A record head's magic.
const RECORD_MAGIC: &[u8; 4] = b"PREC";
/// Record head length: magic, frame length (u32), key, fingerprint, frame
/// checksum and head checksum (u64 each), little-endian.
const RECORD_HEAD: usize = 40;
/// Dead bytes a pack must hold before it is compacted, so a small pack is
/// not rewritten for every superseded record.
const COMPACT_MIN_DEAD: u64 = 4096;
/// How long the eviction lock may sit before another daemon steals it
/// (covers a daemon killed mid-rewrite); also the age past which a temp
/// file in a shard is a dead writer's.
const EVICT_LOCK_STALE: Duration = Duration::from_secs(60);

/// Distinguishes temp files and nonces drawn in one process.
static SEQ: AtomicU64 = AtomicU64::new(0);

/// Every pack index of the process, by pack path.
static PACKS: OnceLock<Mutex<HashMap<PathBuf, Arc<Mutex<Pack>>>>> = OnceLock::new();

/// The process-wide index of the pack at `path`.
fn pack_index(path: PathBuf) -> Arc<Mutex<Pack>> {
    let mut packs = lock(PACKS.get_or_init(Default::default));
    packs
        .entry(path.clone())
        .or_insert_with(|| Arc::new(Mutex::new(Pack::new(path))))
        .clone()
}

/// Every update under these locks leaves a usable state (at worst a
/// record that reads as a miss), so a panicked holder poisons nothing.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

fn checksum(bytes: &[u8]) -> u64 {
    let mut h = DigestBuilder::new();
    h.write(bytes);
    h.finish()
}

/// A nonce no other pack at the same path has had: per-process random
/// keys over a sequence number, the process id and the time.
fn fresh_nonce() -> u64 {
    use std::hash::{BuildHasher, Hasher};
    let mut h = std::collections::hash_map::RandomState::new().build_hasher();
    h.write_u64(SEQ.fetch_add(1, Ordering::Relaxed));
    h.write_u32(std::process::id());
    h.write_u128(
        SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map_or(0, |d| d.as_nanos()),
    );
    h.finish()
}

/// A unique temp path beside `path`.
fn temp_path(path: &Path) -> PathBuf {
    let seq = SEQ.fetch_add(1, Ordering::Relaxed);
    path.with_extension(format!("tmp{}.{seq}", std::process::id()))
}

fn pack_header(nonce: u64) -> Vec<u8> {
    let mut head = PACK_MAGIC.to_vec();
    head.extend_from_slice(&nonce.to_le_bytes());
    head
}

/// What a record head holds besides its magic and its own checksum.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Head {
    /// Frame length; the record is [`RECORD_HEAD`] bytes longer.
    len: u32,
    key: u64,
    fingerprint: u64,
    /// The frame's checksum.
    sum: u64,
}

impl Head {
    fn of(key: u64, fingerprint: u64, frame: &[u8]) -> Option<Head> {
        Some(Head {
            len: u32::try_from(frame.len()).ok()?,
            key,
            fingerprint,
            sum: checksum(frame),
        })
    }

    fn size(&self) -> u64 {
        RECORD_HEAD as u64 + self.len as u64
    }
}

/// One whole record: `head`, then `frame` (empty for a tombstone).
fn record(head: &Head, frame: &[u8]) -> Vec<u8> {
    let mut rec = Vec::with_capacity(RECORD_HEAD + frame.len());
    rec.extend_from_slice(RECORD_MAGIC);
    rec.extend_from_slice(&head.len.to_le_bytes());
    for word in [head.key, head.fingerprint, head.sum] {
        rec.extend_from_slice(&word.to_le_bytes());
    }
    let head_sum = checksum(&rec);
    rec.extend_from_slice(&head_sum.to_le_bytes());
    rec.extend_from_slice(frame);
    rec
}

/// The record head at the start of `bytes`, if its magic and checksum
/// verify.
fn parse_head(bytes: &[u8]) -> Option<Head> {
    let head = bytes.get(..RECORD_HEAD)?;
    let word = |i: usize| u64::from_le_bytes(head[i..i + 8].try_into().expect("8 bytes"));
    (&head[..4] == RECORD_MAGIC && checksum(&head[..32]) == word(32)).then(|| Head {
        len: u32::from_le_bytes(head[4..8].try_into().expect("4 bytes")),
        key: word(8),
        fingerprint: word(16),
        sum: word(24),
    })
}

/// One live record of a pack.
#[derive(Debug)]
struct Slot {
    offset: u64,
    head: Head,
    /// The declaration, once a hit decoded the frame or a store of this
    /// process wrote it.
    decoded: Option<ConstDecl>,
    /// This process's last use (hit or store) on the pack's clock; 0 if
    /// unused.
    used: u64,
}

impl Slot {
    fn size(&self) -> u64 {
        self.head.size()
    }
}

/// The process-wide index of one pack file.
#[derive(Debug)]
struct Pack {
    path: PathBuf,
    /// The pack indexed: reads seek it under the index's lock, and appends
    /// go to its end (`O_APPEND`). `None` while there is no usable pack.
    file: Option<File>,
    /// The indexed pack's header nonce.
    nonce: u64,
    /// The offset just past the last whole record indexed.
    end: u64,
    /// The newest live record per key.
    slots: HashMap<u64, Slot>,
    /// Bytes of the records in `slots`.
    live: u64,
    /// Bytes of superseded, tombstoned and damaged records.
    dead: u64,
    /// Recency clock for [`Slot::used`].
    clock: u64,
}

impl Pack {
    fn new(path: PathBuf) -> Pack {
        Pack {
            path,
            file: None,
            nonce: 0,
            end: 0,
            slots: HashMap::new(),
            live: 0,
            dead: 0,
            clock: 0,
        }
    }

    fn reset(&mut self) {
        let path = std::mem::take(&mut self.path);
        *self = Pack::new(path);
    }

    /// Brings the index up to date with the file at `path`: a pack that is
    /// gone or has a damaged header reads as empty, one with another nonce
    /// (recreated or rewritten since) is re-indexed from scratch, and
    /// otherwise only the bytes appended since are read.
    fn refresh(&mut self) {
        let opened = OpenOptions::new().read(true).append(true).open(&self.path);
        let Ok(mut file) = opened else {
            self.reset();
            return;
        };
        let mut head = [0u8; PACK_HEAD as usize];
        let len = file.metadata().map_or(0, |m| m.len());
        if file.read_exact(&mut head).is_err() || &head[..8] != PACK_MAGIC {
            self.reset();
            return;
        }
        let nonce = u64::from_le_bytes(head[8..].try_into().expect("8 bytes"));
        if nonce != self.nonce || len < self.end {
            self.reset();
            self.nonce = nonce;
            self.end = PACK_HEAD;
        }
        self.file = Some(file);
        if len > self.end {
            self.scan(len);
        }
    }

    /// Indexes the records in `[end, len)` with O(head) work per record;
    /// a frame is verified when a hit first decodes it.
    fn scan(&mut self, len: u64) {
        let Some(file) = self.file.as_mut() else {
            return;
        };
        let mut buf = Vec::with_capacity((len - self.end) as usize);
        if file.seek(SeekFrom::Start(self.end)).is_err()
            || (&*file).take(len - self.end).read_to_end(&mut buf).is_err()
        {
            return;
        }
        let mut at = 0;
        let mut head = parse_head(&buf);
        while buf.len() - at >= RECORD_HEAD {
            let Some(found) = head else {
                // Damage: resynchronize at the next head that verifies.
                let next = (at + 1..buf.len())
                    .find(|&i| parse_head(&buf[i..]).is_some())
                    .unwrap_or(buf.len());
                self.dead += (next - at) as u64;
                at = next;
                head = parse_head(&buf[at..]);
                continue;
            };
            let next = at + found.size() as usize;
            if next > buf.len() {
                // Cut short at the tail: a writer mid-append, or one
                // killed there. Indexed once whole.
                break;
            }
            // A record followed by neither a head, the end nor a head cut
            // short may be a torn one that later appends ran past: it
            // counts only if its frame verifies.
            let following = parse_head(&buf[next..]);
            if following.is_none()
                && buf.len() - next >= RECORD_HEAD
                && checksum(&buf[at + RECORD_HEAD..next]) != found.sum
            {
                self.dead += 1;
                at += 1;
                head = None;
                continue;
            }
            self.index(self.end + at as u64, found, None);
            at = next;
            head = following;
        }
        self.end += at as u64;
    }

    /// Indexes the record with `head` at `offset` (a tombstone when its
    /// frame is empty): the newest record for a key wins.
    fn index(&mut self, offset: u64, head: Head, decoded: Option<ConstDecl>) {
        let (key, size) = (head.key, head.size());
        let used = match self.slots.get(&key) {
            // A store of this process, indexed when it was appended.
            Some(slot) if slot.offset == offset => return,
            Some(slot) if slot.offset > offset => {
                self.dead += size;
                return;
            }
            Some(slot) => {
                self.live -= slot.size();
                self.dead += slot.size();
                slot.used
            }
            None => 0,
        };
        if head.len == 0 {
            self.slots.remove(&key);
            self.dead += size;
            return;
        }
        self.live += size;
        let slot = Slot {
            offset,
            head,
            decoded,
            used,
        };
        self.slots.insert(key, slot);
    }

    /// Marks `key` used by this process now.
    fn touch(&mut self, key: u64) {
        self.clock += 1;
        if let Some(slot) = self.slots.get_mut(&key) {
            slot.used = self.clock;
        }
    }

    /// The declaration stored for `key` if the newest record for it
    /// carries `fingerprint`: from the index once decoded, else read (a
    /// seek under the index's lock) and decoded once. A record with
    /// another fingerprint is a miss that the next store supersedes; a
    /// damaged one reads as a miss and leaves the index, so the next store
    /// re-publishes it.
    fn get(&mut self, key: u64, fingerprint: u64) -> Option<ConstDecl> {
        let slot = self
            .slots
            .get(&key)
            .filter(|s| s.head.fingerprint == fingerprint)?;
        let (offset, head, decoded) = (slot.offset, slot.head, slot.decoded.clone());
        self.touch(key);
        if decoded.is_some() {
            return decoded;
        }
        match self.read_frame(offset, head) {
            Some(decl) => {
                self.slots.get_mut(&key)?.decoded = Some(decl.clone());
                Some(decl)
            }
            None => {
                if let Some(slot) = self.slots.remove(&key) {
                    self.live -= slot.size();
                    self.dead += slot.size();
                }
                None
            }
        }
    }

    fn read_frame(&mut self, offset: u64, head: Head) -> Option<ConstDecl> {
        let file = self.file.as_mut()?;
        let mut rec = vec![0; head.size() as usize];
        file.seek(SeekFrom::Start(offset)).ok()?;
        file.read_exact(&mut rec).ok()?;
        let frame = &rec[RECORD_HEAD..];
        if parse_head(&rec)? != head || checksum(frame) != head.sum {
            return None;
        }
        decode_decl(frame).ok()
    }

    /// Appends the record for `key` with one `write`, creating the pack
    /// first if there is none, and indexes it with `decoded`. Best-effort.
    fn append(&mut self, key: u64, fingerprint: u64, frame: &[u8], decoded: Option<ConstDecl>) {
        let Some(head) = Head::of(key, fingerprint, frame) else {
            return;
        };
        if self.file.is_none() {
            self.create();
        }
        let Some(file) = self.file.as_mut() else {
            return;
        };
        let rec = record(&head, frame);
        if file.write_all(&rec).is_err() {
            return;
        }
        // Under O_APPEND the handle's position is now just past the record.
        let Some(offset) = file
            .stream_position()
            .ok()
            .and_then(|end| end.checked_sub(rec.len() as u64))
        else {
            return;
        };
        if offset == self.end {
            self.end = offset + rec.len() as u64;
        }
        self.index(offset, head, decoded);
    }

    /// Publishes a fresh pack unless another process's appeared first —
    /// then that one is indexed — and replaces a pack whose header is
    /// damaged.
    fn create(&mut self) {
        let tmp = temp_path(&self.path);
        if fs::write(&tmp, pack_header(fresh_nonce())).is_ok()
            && fs::hard_link(&tmp, &self.path).is_err()
        {
            self.refresh();
            if self.file.is_none() {
                let _ = fs::rename(&tmp, &self.path);
            }
        }
        let _ = fs::remove_file(&tmp);
        self.refresh();
    }

    /// Are the dead records worth a rewrite?
    fn wants_compaction(&self) -> bool {
        self.dead > self.live && self.dead >= COMPACT_MIN_DEAD
    }

    /// The live records to drop so that the pack, rewritten, fits in
    /// `bytes`: the least recently used first (this process's use, then
    /// append order).
    fn least_recent(&self, bytes: u64) -> HashSet<u64> {
        let mut order: Vec<(&u64, &Slot)> = self.slots.iter().collect();
        order.sort_by_key(|(_, s)| std::cmp::Reverse((s.used, s.offset)));
        let mut kept = PACK_HEAD;
        let mut fits = true;
        order
            .into_iter()
            .filter(|(_, s)| {
                fits = fits && kept + s.size() <= bytes;
                kept += s.size();
                !fits
            })
            .map(|(k, _)| *k)
            .collect()
    }

    /// Rewrites the pack without the dead records and the live ones in
    /// `drop`, by temp file and rename (or deletes it when nothing is
    /// left); the caller holds the root's eviction lock. Whether the pack
    /// was replaced.
    fn rewrite(&mut self, drop: &HashSet<u64>) -> bool {
        let Some(file) = self.file.as_mut() else {
            return false;
        };
        let mut old = Vec::new();
        if file.seek(SeekFrom::Start(0)).is_err() || file.read_to_end(&mut old).is_err() {
            return false;
        }
        let mut kept: Vec<(u64, u64)> = self
            .slots
            .iter()
            .filter(|(k, _)| !drop.contains(*k))
            .map(|(k, s)| (s.offset, *k))
            .collect();
        if kept.is_empty() {
            let gone = fs::remove_file(&self.path).is_ok();
            if gone {
                self.reset();
            }
            return gone;
        }
        kept.sort_unstable();
        let nonce = fresh_nonce();
        let mut out = pack_header(nonce);
        let mut offsets = Vec::with_capacity(kept.len());
        for &(offset, key) in &kept {
            let size = self.slots[&key].size();
            let Some(bytes) = old.get(offset as usize..(offset + size) as usize) else {
                return false;
            };
            offsets.push(out.len() as u64);
            out.extend_from_slice(bytes);
        }
        let tmp = temp_path(&self.path);
        if fs::write(&tmp, &out).is_err() || fs::rename(&tmp, &self.path).is_err() {
            let _ = fs::remove_file(&tmp);
            return false;
        }
        let mut slots = HashMap::with_capacity(kept.len());
        for ((_, key), offset) in kept.into_iter().zip(offsets) {
            let mut slot = self.slots.remove(&key).expect("kept slot");
            slot.offset = offset;
            slots.insert(key, slot);
        }
        self.file = OpenOptions::new()
            .read(true)
            .append(true)
            .open(&self.path)
            .ok();
        self.nonce = nonce;
        self.end = out.len() as u64;
        self.live = self.end - PACK_HEAD;
        self.dead = 0;
        self.slots = slots;
        true
    }
}

/// The upkeep a store triggered, for [`crate::LiftStats`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Upkeep {
    /// Packs rewritten: compactions, and trims to the size budget.
    pub compactions: u64,
    /// Live records the size budget removed.
    pub evictions: u64,
}

/// One shard directory under the cache root, as the size budget sees it.
struct Shard {
    dir: PathBuf,
    /// Last-open time: the directory's mtime, which a bounded cache's
    /// first use refreshes.
    opened: SystemTime,
    /// The bytes of every file in it, the pack's included.
    bytes: u64,
    /// The pack's length, if there is one.
    pack: Option<u64>,
    /// Files the budget removes before any record, with length and mtime:
    /// entries of the one-file layout, and temp files older than
    /// [`EVICT_LOCK_STALE`] (a dead writer's).
    strays: Vec<(PathBuf, u64, SystemTime)>,
}

/// An open handle on one configuration's shard of the on-disk cache.
///
/// Opening creates the shard directory and does no other I/O; all I/O
/// goes through `&self`, so a [`crate::LiftState`] holds it behind an
/// `Arc`.
pub struct PersistCache {
    root: PathBuf,
    dir: PathBuf,
    /// Size budget for the whole cache root (all shards), in bytes;
    /// `None` = unbounded.
    max_bytes: Option<u64>,
    /// This shard's process-wide index, brought up to date on first use.
    pack: OnceLock<Arc<Mutex<Pack>>>,
}

impl std::fmt::Debug for PersistCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PersistCache")
            .field("dir", &self.dir)
            .field("max_bytes", &self.max_bytes)
            .finish_non_exhaustive()
    }
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
    /// after a store pushes the root's files past `max_bytes`, the
    /// least-recently-used records are evicted back under budget.
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
        if !dir.is_dir() {
            fs::create_dir_all(&dir)?;
        }
        Ok(PersistCache {
            root,
            dir,
            max_bytes,
            pack: OnceLock::new(),
        })
    }

    /// The shard directory (for diagnostics and tests).
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// This shard's index, brought up to date on this handle's first use.
    fn pack(&self) -> MutexGuard<'_, Pack> {
        lock(self.pack.get_or_init(|| {
            let pack = pack_index(self.dir.join(PACK));
            lock(&pack).refresh();
            if self.max_bytes.is_some() {
                // The shard's last-open time, by which the budget ranks
                // shards. Best-effort.
                if let Ok(dir) = File::open(&self.dir) {
                    let _ = dir.set_times(fs::FileTimes::new().set_modified(SystemTime::now()));
                }
            }
            pack
        }))
    }

    /// Looks up the repaired declaration persisted for `old`, whose
    /// [`Env::fingerprint`] is `fingerprint`: a hit only if the newest
    /// record for `old` was lifted against the same dependencies. A
    /// damaged record reads as absent and leaves the index — the caller
    /// falls back to a fresh lift, whose store then re-publishes a good
    /// frame. Never an error.
    pub fn lookup(&self, old: &ConstDecl, fingerprint: u64) -> Option<ConstDecl> {
        self.pack().get(decl_digest(old).0, fingerprint)
    }

    /// Tombstones the record for `old` (best-effort, like every write).
    pub(crate) fn evict(&self, old: &ConstDecl) {
        let key = decl_digest(old).0;
        let mut pack = self.pack();
        if pack.slots.contains_key(&key) {
            pack.append(key, 0, &[], None);
        }
    }

    /// Persists `new` as the repair of `old`, lifted while `old`'s
    /// [`Env::fingerprint`] was `fingerprint`. It supersedes the record
    /// for `old` unless that one already holds this fingerprint and frame,
    /// in which case nothing is appended. Best-effort: I/O failures are
    /// swallowed (the cache is an accelerator, never a correctness
    /// dependency). The append is one `write` of a whole record, so a
    /// concurrent reader sees either nothing or a complete frame.
    pub fn store(&self, old: &ConstDecl, fingerprint: u64, new: &ConstDecl) -> Upkeep {
        let key = decl_digest(old).0;
        let frame = encode_decl(new);
        let mut upkeep = Upkeep::default();
        {
            let mut pack = self.pack();
            let held = pack.slots.get(&key).map(|s| s.head);
            if held.is_some() && held == Head::of(key, fingerprint, &frame) {
                pack.touch(key);
                return upkeep;
            }
            pack.append(key, fingerprint, &frame, Some(new.clone()));
            pack.touch(key);
            if pack.wants_compaction() {
                if let Some(lock) = self.try_lock_evict() {
                    // Index what other processes appended, so the rewrite
                    // keeps it.
                    pack.refresh();
                    upkeep.compactions += pack.rewrite(&HashSet::new()) as u64;
                    let _ = fs::remove_file(lock);
                }
            }
        }
        self.evict_to_budget(&mut upkeep);
        upkeep
    }

    /// Every shard directory under the cache root, across versions.
    fn shards(&self) -> Vec<Shard> {
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
                let opened = shard
                    .metadata()
                    .and_then(|m| m.modified())
                    .unwrap_or(UNIX_EPOCH);
                let mut entry = Shard {
                    dir: shard.path(),
                    opened,
                    bytes: 0,
                    pack: None,
                    strays: Vec::new(),
                };
                for f in files.flatten() {
                    let Ok(m) = f.metadata() else { continue };
                    let path = f.path();
                    entry.bytes += m.len();
                    if path.file_name().is_some_and(|n| n == PACK) {
                        entry.pack = Some(m.len());
                        continue;
                    }
                    let mtime = m.modified().unwrap_or(UNIX_EPOCH);
                    let stale = mtime.elapsed().is_ok_and(|age| age > EVICT_LOCK_STALE);
                    if stale || path.extension().is_some_and(|e| e == "bin") {
                        entry.strays.push((path, m.len(), mtime));
                    }
                }
                out.push(entry);
            }
        }
        out
    }

    /// Takes the cross-daemon eviction lock, stealing it if its holder
    /// looks dead ([`EVICT_LOCK_STALE`]). Returns `None` when another
    /// live daemon holds it — the caller just skips this round; that
    /// daemon re-checks the budget when it lets go.
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

    /// Brings the root back under the size budget. No-op when unbounded
    /// or under budget; when another daemon holds the eviction lock, that
    /// daemon's re-check after it lets go covers this store. Best-effort
    /// throughout: the cache is an accelerator, never a correctness
    /// dependency.
    fn evict_to_budget(&self, upkeep: &mut Upkeep) {
        let Some(max) = self.max_bytes else { return };
        // Re-check after every round: stores that raced it skipped theirs.
        while self.shards().iter().map(|s| s.bytes).sum::<u64>() > max {
            let Some(lock) = self.try_lock_evict() else {
                return;
            };
            let freed = self.evict_locked(max, upkeep);
            let _ = fs::remove_file(&lock);
            if !freed {
                return;
            }
        }
    }

    /// One eviction round under the lock: entries of the one-file layout
    /// and dead writers' temp files first, oldest first; then packs, the
    /// least recently opened shard first and this one last, each rewritten
    /// without its least recently used records. Whether anything was
    /// freed.
    fn evict_locked(&self, max: u64, upkeep: &mut Upkeep) -> bool {
        let mut shards = self.shards();
        let mut total: u64 = shards.iter().map(|s| s.bytes).sum();
        let start = total;
        let mut strays: Vec<_> = shards.iter().flat_map(|s| &s.strays).collect();
        strays.sort_by_key(|o| o.2);
        for (path, len, _) in strays {
            if total <= max {
                return true;
            }
            if fs::remove_file(path).is_ok() {
                total -= len;
            }
        }
        shards.sort_by_key(|s| (s.dir == self.dir, s.opened));
        for shard in shards {
            let Some(before) = shard.pack else { continue };
            if total <= max {
                break;
            }
            let index = pack_index(shard.dir.join(PACK));
            let mut pack = lock(&index);
            pack.refresh();
            let drop = pack.least_recent(before.saturating_sub(total - max));
            if pack.rewrite(&drop) {
                upkeep.compactions += u64::from(pack.file.is_some());
                upkeep.evictions += drop.len() as u64;
                total = total - before + pack.file.as_ref().map_or(0, |_| pack.end);
            }
        }
        total < start
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

    /// A fresh cache root for one test.
    fn scratch_root(tag: &str) -> PathBuf {
        let root = std::env::temp_dir().join(format!(
            "pumpkin-persist-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&root);
        root
    }

    /// The fingerprint the tests store and look records up under.
    const FP: u64 = 0xf1;

    /// The whole record of `new` under `old`'s key and [`FP`].
    fn record_of(old: &ConstDecl, new: &ConstDecl) -> Vec<u8> {
        let frame = encode_decl(new);
        record(&Head::of(decl_digest(old).0, FP, &frame).unwrap(), &frame)
    }

    fn decl(i: usize, prefix: &str) -> ConstDecl {
        ConstDecl {
            name: format!("{prefix}.c{i}").into(),
            ty: Term::prop(),
            body: Some(Term::rel(i)),
            opaque: false,
        }
    }

    /// Drops the process-wide index of `cache`'s pack, so the next handle
    /// opened on the shard indexes it from disk, as another process would.
    fn forget_index(cache: &PersistCache) {
        lock(PACKS.get_or_init(Default::default)).remove(&cache.dir().join(PACK));
    }

    /// A handle on the same shard with a freshly built index.
    fn reopen(cache: &PersistCache, env: &Env, lifting: &Lifting) -> PersistCache {
        forget_index(cache);
        PersistCache::open_bounded(&cache.root, env, lifting, cache.max_bytes).unwrap()
    }

    fn pack_bytes(cache: &PersistCache) -> Vec<u8> {
        fs::read(cache.dir().join(PACK)).unwrap()
    }

    /// The offset of each record in `cache`'s pack, in append order.
    fn record_offsets(cache: &PersistCache) -> Vec<usize> {
        let bytes = pack_bytes(cache);
        let mut at = PACK_HEAD as usize;
        let mut out = Vec::new();
        while let Some(head) = parse_head(&bytes[at..]) {
            out.push(at);
            at += head.size() as usize;
        }
        out
    }

    #[test]
    fn store_then_lookup_roundtrips() {
        let mut env = pumpkin_stdlib::std_env();
        let lifting = sample_lifting(&mut env);
        let root = scratch_root("roundtrip");
        let cache = PersistCache::open(&root, &env, &lifting).unwrap();
        let old = env.const_decl(&"Old.rev".into()).unwrap().clone();
        let fp = env.fingerprint(&old.name).unwrap();
        let new = ConstDecl {
            name: "New.rev".into(),
            ty: Term::prop(),
            body: None,
            opaque: false,
        };
        assert!(cache.lookup(&old, fp).is_none());
        cache.store(&old, fp, &new);
        assert_eq!(cache.lookup(&old, fp), Some(new.clone()));
        // Another process reads the record back from the pack...
        let cache = reopen(&cache, &env, &lifting);
        assert_eq!(cache.lookup(&old, fp), Some(new));
        // ...and a damaged one as absent.
        let path = cache.dir().join(PACK);
        let mut bytes = fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xff;
        fs::write(&path, bytes).unwrap();
        let cache = reopen(&cache, &env, &lifting);
        assert!(cache.lookup(&old, fp).is_none());
        let _ = fs::remove_dir_all(&root);
    }

    /// Many threads storing the same entries into one shard concurrently
    /// must leave every entry complete, in this process's index and on
    /// disk.
    #[test]
    fn concurrent_stores_into_a_shared_dir_publish_complete_entries() {
        let mut env = pumpkin_stdlib::std_env();
        let lifting = sample_lifting(&mut env);
        let root = scratch_root("race");
        let cache = PersistCache::open(&root, &env, &lifting).unwrap();
        let entries: Vec<(ConstDecl, ConstDecl)> = (0..64usize)
            .map(|i| (decl(i, "Old"), decl(i, "New")))
            .collect();
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    for (old, new) in &entries {
                        cache.store(old, FP, new);
                    }
                });
            }
        });
        for cache in [&cache, &reopen(&cache, &env, &lifting)] {
            for (old, new) in &entries {
                assert_eq!(
                    cache.lookup(old, FP).as_ref(),
                    Some(new),
                    "entry for {} is missing or torn",
                    old.name
                );
            }
        }
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn corrupt_entries_are_evicted_and_repairable_by_restore() {
        let mut env = pumpkin_stdlib::std_env();
        let lifting = sample_lifting(&mut env);
        let root = scratch_root("corrupt");
        let cache = PersistCache::open(&root, &env, &lifting).unwrap();
        let old = env.const_decl(&"Old.rev".into()).unwrap().clone();
        let new = ConstDecl {
            name: "New.rev".into(),
            ty: Term::prop(),
            body: None,
            opaque: false,
        };
        let key = decl_digest(&old).0;
        cache.store(&old, FP, &new);
        let path = cache.dir().join(PACK);
        fs::write(&path, b"garbage").unwrap();
        // The damaged read is a miss that also drops the record...
        let cache = reopen(&cache, &env, &lifting);
        assert!(cache.lookup(&old, FP).is_none());
        assert!(
            !cache.pack().slots.contains_key(&key),
            "a damaged record leaves the index, not left to rot"
        );
        // ...so the store path (which skips indexed records) re-publishes,
        // replacing the pack whose header was damaged.
        cache.store(&old, FP, &new);
        assert_eq!(cache.lookup(&old, FP), Some(new.clone()));
        let cache = reopen(&cache, &env, &lifting);
        assert_eq!(cache.lookup(&old, FP), Some(new));
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn a_record_with_another_fingerprint_misses_and_a_fresh_store_supersedes_it() {
        let mut env = pumpkin_stdlib::std_env();
        let lifting = sample_lifting(&mut env);
        let root = scratch_root("supersede");
        let cache = PersistCache::open(&root, &env, &lifting).unwrap();
        let old = decl(0, "Old");
        let (v1, v2) = (decl(1, "New"), decl(2, "New"));
        cache.store(&old, 1, &v1);
        assert!(cache.lookup(&old, 2).is_none(), "lifted against other deps");
        assert_eq!(cache.lookup(&old, 1), Some(v1.clone()));
        // The re-lift against the new dependencies supersedes the record:
        // one live record per key, the old one dead.
        cache.store(&old, 2, &v2);
        assert_eq!(cache.lookup(&old, 2), Some(v2.clone()));
        assert!(cache.lookup(&old, 1).is_none(), "the newest record wins");
        let first = record_of(&old, &v1).len() as u64;
        let check = |cache: &PersistCache| {
            let pack = cache.pack();
            assert_eq!(pack.slots.len(), 1, "{pack:?}");
            assert_eq!(pack.dead, first, "{pack:?}");
            assert_eq!(pack.live, record_of(&old, &v2).len() as u64);
        };
        check(&cache);
        // The same on disk.
        let cache = reopen(&cache, &env, &lifting);
        check(&cache);
        assert_eq!(cache.lookup(&old, 2), Some(v2));
        assert!(cache.lookup(&old, 1).is_none());
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn a_store_with_an_equal_fingerprint_and_frame_appends_nothing() {
        let mut env = pumpkin_stdlib::std_env();
        let lifting = sample_lifting(&mut env);
        let root = scratch_root("same");
        let cache = PersistCache::open(&root, &env, &lifting).unwrap();
        let old = decl(0, "Old");
        cache.store(&old, FP, &decl(1, "New"));
        let len = pack_bytes(&cache).len();
        cache.store(&old, FP, &decl(1, "New"));
        assert_eq!(pack_bytes(&cache).len(), len);
        // Also from an index that never decoded the frame: the head's
        // frame checksum decides.
        let cache = reopen(&cache, &env, &lifting);
        cache.store(&old, FP, &decl(1, "New"));
        assert_eq!(pack_bytes(&cache).len(), len);
        // Another frame under the same fingerprint is appended.
        cache.store(&old, FP, &decl(2, "New"));
        assert!(pack_bytes(&cache).len() > len);
        assert_eq!(cache.lookup(&old, FP), Some(decl(2, "New")));
        let _ = fs::remove_dir_all(&root);
    }

    /// A pack of the layout before fingerprints (`PUMPACK1`, 32-byte
    /// heads) reads as empty, and the first store replaces it.
    #[test]
    fn a_pumpack1_pack_reads_as_empty_and_the_first_store_replaces_it() {
        let mut env = pumpkin_stdlib::std_env();
        let lifting = sample_lifting(&mut env);
        let root = scratch_root("pumpack1");
        let probe = PersistCache::open(&root, &env, &lifting).unwrap();
        let path = probe.dir().join(PACK);
        let frame = encode_decl(&decl(0, "New"));
        let mut v1 = b"PUMPACK1".to_vec();
        v1.extend_from_slice(&fresh_nonce().to_le_bytes());
        let mut head = b"PREC".to_vec();
        head.extend_from_slice(&(frame.len() as u32).to_le_bytes());
        head.extend_from_slice(&decl_digest(&decl(0, "Old")).0.to_le_bytes());
        head.extend_from_slice(&checksum(&frame).to_le_bytes());
        let head_sum = checksum(&head);
        head.extend_from_slice(&head_sum.to_le_bytes());
        v1.extend(head);
        v1.extend_from_slice(&frame);
        fs::write(&path, &v1).unwrap();
        let cache = reopen(&probe, &env, &lifting);
        assert!(cache.lookup(&decl(0, "Old"), FP).is_none());
        assert!(cache.pack().slots.is_empty());
        cache.store(&decl(1, "Old"), FP, &decl(1, "New"));
        let bytes = pack_bytes(&cache);
        assert_eq!(&bytes[..8], PACK_MAGIC);
        assert_eq!(record_offsets(&cache).len(), 1, "the old records are gone");
        let cache = reopen(&cache, &env, &lifting);
        assert_eq!(cache.lookup(&decl(1, "Old"), FP), Some(decl(1, "New")));
        assert!(cache.lookup(&decl(0, "Old"), FP).is_none());
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn size_budget_evicts_least_recently_used_entries() {
        let mut env = pumpkin_stdlib::std_env();
        let lifting = sample_lifting(&mut env);
        let root = scratch_root("lru");
        // Measure one record's size, then budget for exactly two.
        let probe = PersistCache::open(&root, &env, &lifting).unwrap();
        probe.store(&decl(0, "Old"), FP, &decl(0, "New"));
        let record_len = pack_bytes(&probe).len() as u64 - PACK_HEAD;
        forget_index(&probe);
        let _ = fs::remove_dir_all(&root);
        let budget = PACK_HEAD + 2 * record_len + record_len / 2;
        let cache = PersistCache::open_bounded(&root, &env, &lifting, Some(budget)).unwrap();
        let mut upkeep = Upkeep::default();
        for i in 0..4 {
            let u = cache.store(&decl(i, "Old"), FP, &decl(i, "New"));
            upkeep.compactions += u.compactions;
            upkeep.evictions += u.evictions;
        }
        assert_eq!(upkeep.evictions, 2, "two records over budget: {upkeep:?}");
        assert_eq!(upkeep.compactions, 2, "each trim rewrites the pack");
        assert!(
            cache.lookup(&decl(0, "Old"), FP).is_none(),
            "oldest entry is evicted"
        );
        assert_eq!(
            cache.lookup(&decl(3, "Old"), FP),
            Some(decl(3, "New")),
            "newest entry survives"
        );
        let cache = reopen(&cache, &env, &lifting);
        let survivors = (0..4)
            .filter(|&i| cache.lookup(&decl(i, "Old"), FP).is_some())
            .count();
        assert!(
            survivors <= 2,
            "budget holds two entries, found {survivors}"
        );
        assert!(pack_bytes(&cache).len() as u64 <= budget);
        // The eviction lock never outlives the call.
        assert!(!root.join(".evict.lock").exists());
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn a_record_cut_short_at_the_tail_is_ignored() {
        let mut env = pumpkin_stdlib::std_env();
        let lifting = sample_lifting(&mut env);
        let root = scratch_root("torn");
        let cache = PersistCache::open(&root, &env, &lifting).unwrap();
        for i in 0..2 {
            cache.store(&decl(i, "Old"), FP, &decl(i, "New"));
        }
        // A writer killed mid-append leaves part of a record.
        let torn = record_of(&decl(2, "Old"), &decl(2, "New"));
        let mut file = OpenOptions::new()
            .append(true)
            .open(cache.dir().join(PACK))
            .unwrap();
        file.write_all(&torn[..torn.len() - 3]).unwrap();
        let whole = pack_bytes(&cache).len() - (torn.len() - 3);
        let cache = reopen(&cache, &env, &lifting);
        for i in 0..2 {
            assert_eq!(cache.lookup(&decl(i, "Old"), FP), Some(decl(i, "New")));
        }
        assert!(cache.lookup(&decl(2, "Old"), FP).is_none());
        assert_eq!(
            cache.pack().end as usize,
            whole,
            "indexing stops before the torn record"
        );
        // Records appended after the torn one still replay elsewhere.
        cache.store(&decl(3, "Old"), FP, &decl(3, "New"));
        let cache = reopen(&cache, &env, &lifting);
        assert_eq!(cache.lookup(&decl(3, "Old"), FP), Some(decl(3, "New")));
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn damage_in_the_middle_spares_every_other_record() {
        let mut env = pumpkin_stdlib::std_env();
        let lifting = sample_lifting(&mut env);
        let root = scratch_root("middle");
        let cache = PersistCache::open(&root, &env, &lifting).unwrap();
        for i in 0..5 {
            cache.store(&decl(i, "Old"), FP, &decl(i, "New"));
        }
        // Flip a byte in record 1's frame and one in record 3's head.
        let offsets = record_offsets(&cache);
        let mut bytes = pack_bytes(&cache);
        bytes[offsets[1] + RECORD_HEAD + 2] ^= 0xff;
        bytes[offsets[3] + 1] ^= 0xff;
        fs::write(cache.dir().join(PACK), bytes).unwrap();
        let cache = reopen(&cache, &env, &lifting);
        for i in [0, 2, 4] {
            assert_eq!(cache.lookup(&decl(i, "Old"), FP), Some(decl(i, "New")));
        }
        for i in [1, 3] {
            assert!(cache.lookup(&decl(i, "Old"), FP).is_none(), "record {i}");
            // The next store re-publishes the damaged key.
            cache.store(&decl(i, "Old"), FP, &decl(i, "New"));
        }
        let cache = reopen(&cache, &env, &lifting);
        for i in 0..5 {
            assert_eq!(cache.lookup(&decl(i, "Old"), FP), Some(decl(i, "New")));
        }
        let _ = fs::remove_dir_all(&root);
    }

    /// Another process deletes the pack and recreates it at the same path,
    /// with the same length and modification time: only the nonce in the
    /// header tells the two apart, and the index must not trust its state.
    #[test]
    fn a_recreated_pack_is_reindexed_from_scratch() {
        let mut env = pumpkin_stdlib::std_env();
        let lifting = sample_lifting(&mut env);
        let root = scratch_root("recreated");
        let cache = PersistCache::open(&root, &env, &lifting).unwrap();
        cache.store(&decl(0, "Old"), FP, &decl(0, "New"));
        let path = cache.dir().join(PACK);
        let old_len = fs::metadata(&path).unwrap().len();
        let mtime = fs::metadata(&path).unwrap().modified().unwrap();
        fs::remove_file(&path).unwrap();
        let mut other = pack_header(fresh_nonce());
        other.extend(record_of(&decl(1, "Old"), &decl(1, "New")));
        assert_eq!(other.len() as u64, old_len, "same length as the old pack");
        fs::write(&path, other).unwrap();
        File::options()
            .write(true)
            .open(&path)
            .unwrap()
            .set_modified(mtime)
            .unwrap();
        // The same process-wide index, brought up to date by a new handle.
        let cache = PersistCache::open(&root, &env, &lifting).unwrap();
        assert!(cache.lookup(&decl(0, "Old"), FP).is_none());
        assert_eq!(cache.lookup(&decl(1, "Old"), FP), Some(decl(1, "New")));
        let _ = fs::remove_dir_all(&root);
    }

    /// A hit protects an old record from the budget, as a recent store
    /// does.
    #[test]
    fn a_hit_keeps_a_record_alive_under_the_budget() {
        let mut env = pumpkin_stdlib::std_env();
        let lifting = sample_lifting(&mut env);
        let root = scratch_root("hit-lru");
        let probe = PersistCache::open(&root, &env, &lifting).unwrap();
        probe.store(&decl(0, "Old"), FP, &decl(0, "New"));
        let record_len = pack_bytes(&probe).len() as u64 - PACK_HEAD;
        forget_index(&probe);
        let _ = fs::remove_dir_all(&root);
        let budget = PACK_HEAD + 3 * record_len;
        let cache = PersistCache::open_bounded(&root, &env, &lifting, Some(budget)).unwrap();
        for i in 0..3 {
            cache.store(&decl(i, "Old"), FP, &decl(i, "New"));
        }
        let later = PersistCache::open_bounded(&root, &env, &lifting, Some(budget)).unwrap();
        assert_eq!(later.lookup(&decl(0, "Old"), FP), Some(decl(0, "New")));
        let upkeep = later.store(&decl(3, "Old"), FP, &decl(3, "New"));
        assert_eq!(upkeep.evictions, 1);
        assert_eq!(later.lookup(&decl(0, "Old"), FP), Some(decl(0, "New")));
        assert!(
            later.lookup(&decl(1, "Old"), FP).is_none(),
            "the coldest goes"
        );
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn dead_records_outweighing_live_ones_are_compacted_away() {
        let mut env = pumpkin_stdlib::std_env();
        let lifting = sample_lifting(&mut env);
        let root = scratch_root("compact");
        let cache = PersistCache::open(&root, &env, &lifting).unwrap();
        let old = decl(0, "Old");
        let mut compactions = 0;
        let mut last = decl(0, "New");
        // Re-lifts against ever-changing dependencies: each supersedes
        // the record before it.
        for i in 0..400 {
            last = decl(i, "New");
            compactions += cache.store(&old, i as u64, &last).compactions;
        }
        assert!(compactions > 0, "superseded records were never compacted");
        let pack = cache.pack();
        assert!(pack.dead <= pack.live.max(COMPACT_MIN_DEAD), "{pack:?}");
        drop(pack);
        assert!((pack_bytes(&cache).len() as u64) < 2 * COMPACT_MIN_DEAD);
        let cache = reopen(&cache, &env, &lifting);
        assert_eq!(cache.lookup(&old, 399), Some(last));
        let _ = fs::remove_dir_all(&root);
    }

    /// Entries of the one-file layout read as misses, and the budget
    /// removes them before any record of a pack.
    #[test]
    fn one_file_entries_read_as_misses_and_go_first() {
        let mut env = pumpkin_stdlib::std_env();
        let lifting = sample_lifting(&mut env);
        let root = scratch_root("legacy");
        let probe = PersistCache::open(&root, &env, &lifting).unwrap();
        let legacy = probe
            .dir()
            .join(format!("{}.bin", decl_digest(&decl(0, "Old"))));
        fs::write(&legacy, encode_decl(&decl(0, "New"))).unwrap();
        assert!(probe.lookup(&decl(0, "Old"), FP).is_none());
        let budget = PACK_HEAD + record_of(&decl(1, "Old"), &decl(1, "New")).len() as u64;
        let cache = PersistCache::open_bounded(&root, &env, &lifting, Some(budget)).unwrap();
        let upkeep = cache.store(&decl(1, "Old"), FP, &decl(1, "New"));
        assert!(!legacy.exists(), "the one-file entry is removed first");
        assert_eq!(upkeep, Upkeep::default(), "no record was evicted");
        assert_eq!(cache.lookup(&decl(1, "Old"), FP), Some(decl(1, "New")));
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
