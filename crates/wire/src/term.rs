//! Term and declaration codecs: one shared-subterm node table, rendered
//! as JSON for the protocol and as length-prefixed binary for the persist
//! cache.
//!
//! The table lists a term's distinct nodes children first, the root last.
//! Hash-consing in the kernel makes each distinct subterm one allocation,
//! so the table holds it once however often it occurs: terms with heavy
//! internal sharing (literals, repaired proof spines) stay small. A node is
//! its tag number followed by its fields, and a child slot is a *backward
//! reference*, the index of an earlier node:
//!
//! | tag | node | fields after the tag |
//! |-----|------|----------------------|
//! | 0 | `Rel` | index |
//! | 1, 2 | `Prop`, `Set` | — |
//! | 3 | `Type` | level |
//! | 4, 5 | `Const`, `Ind` | name |
//! | 6 | `Construct` | family, constructor number |
//! | 7 | `App` | head, argument count, arguments |
//! | 8, 9 | `Lambda`, `Pi` | binder name, binder type, body |
//! | 10 | `Let` | binder name, binder type, value, body |
//! | 11 | `Elim` | family, parameter count, parameters, motive, case count, cases, scrutinee |
//!
//! JSON form: the envelope `{"wire":"pumpkin-wire/3","digest":"…",
//! "nodes":[…]}`, each node a flat array of numbers and strings, with
//! `null` for an anonymous binder name (binder names travel, although term
//! equality ignores them, so pretty-printing survives a round trip).
//! A frame nests three levels whatever the term.
//!
//! Binary form: magic `PWIR`, version byte, kind byte (`T` term, `D`
//! declaration), the content digest (u64 LE), a u32 LE payload length,
//! then the payload. A term's table is a varint node count and each node's
//! fields: numbers as varints, strings as a varint length and UTF-8 bytes,
//! a binder name as `0` (anonymous) or `1` and the string.
//!
//! One builder writes the table for both forms, and one decoder reads it
//! back, generic over where the fields come from. Decoding is iterative,
//! so no input can exhaust the stack: a forward or self reference is
//! rejected, which makes cycles unrepresentable, and a term deeper than
//! [`MAX_DEPTH`] is refused (see [`term_depth`]). Decoding routes through
//! the kernel's smart constructors, so cached structural hashes are
//! recomputed and `decode(encode(t)) == t`; the digest is recomputed from
//! the decoded term, and any mismatch is [`WireError::BadDigest`].

use std::collections::HashMap;

use pumpkin_kernel::env::ConstDecl;
use pumpkin_kernel::name::Name;
use pumpkin_kernel::term::{ElimData, Term, TermData};
use pumpkin_kernel::universe::Sort;
use pumpkin_trace::json::MAX_DEPTH;

use crate::Value;
use crate::{DigestBuilder, TermDigest, WireError, WIRE_TAG, WIRE_VERSION};

/// Upper bound on binary payload size (16 MiB) — far above any term the
/// pipeline produces, low enough to bound a hostile allocation.
pub const MAX_PAYLOAD: usize = 16 << 20;

// ---------------------------------------------------------------------
// The node table
// ---------------------------------------------------------------------

/// Where an encoded node's fields go: a byte buffer or a JSON array.
trait Sink {
    fn uint(&mut self, v: u64);
    fn str(&mut self, s: &str);
    fn name(&mut self, n: &Name);
}

impl Sink for Vec<u8> {
    fn uint(&mut self, v: u64) {
        put_varint(self, v);
    }

    fn str(&mut self, s: &str) {
        put_varint(self, s.len() as u64);
        self.extend_from_slice(s.as_bytes());
    }

    fn name(&mut self, n: &Name) {
        match n.as_str() {
            Some(s) => {
                self.push(1);
                self.str(s);
            }
            None => self.push(0),
        }
    }
}

impl Sink for Vec<Value> {
    fn uint(&mut self, v: u64) {
        self.push(Value::UInt(v));
    }

    fn str(&mut self, s: &str) {
        self.push(Value::str(s));
    }

    fn name(&mut self, n: &Name) {
        self.push(n.as_str().map_or(Value::Null, Value::str));
    }
}

/// A term's node table: each distinct node once, children before parents,
/// the root last.
struct Table {
    order: Vec<Term>,
    /// Table position by [`Term::alloc_id`]: the interner guarantees that
    /// name-identical structurally equal subterms share an allocation.
    index: HashMap<u32, u64>,
}

impl Table {
    /// Iterative post-order DFS (explicit stack): depth is unbounded.
    fn build(t: &Term) -> Table {
        let mut index = HashMap::new();
        let mut order: Vec<Term> = Vec::new();
        // (node, children already pushed?)
        let mut stack: Vec<(Term, bool)> = vec![(t.clone(), false)];
        while let Some((node, expanded)) = stack.pop() {
            if index.contains_key(&node.alloc_id()) {
                continue;
            }
            if expanded {
                index.insert(node.alloc_id(), order.len() as u64);
                order.push(node);
            } else {
                stack.push((node.clone(), true));
                let mut kids = Vec::new();
                node.for_each_child(|c, _| kids.push(c.clone()));
                // Reversed so the children are numbered in the kernel's
                // canonical order, leftmost first.
                stack.extend(kids.into_iter().rev().map(|c| (c, false)));
            }
        }
        Table { order, index }
    }

    /// Writes one node: its tag, then its fields, children as backward
    /// references.
    fn put<S: Sink>(&self, out: &mut S, t: &Term) {
        let put_ref = |out: &mut S, c: &Term| out.uint(self.index[&c.alloc_id()]);
        let put_refs = |out: &mut S, cs: &[Term]| {
            out.uint(cs.len() as u64);
            cs.iter().for_each(|c| put_ref(out, c));
        };
        match t.data() {
            TermData::Rel(i) => {
                out.uint(0);
                out.uint(*i as u64);
            }
            TermData::Sort(Sort::Prop) => out.uint(1),
            TermData::Sort(Sort::Set) => out.uint(2),
            TermData::Sort(Sort::Type(u)) => {
                out.uint(3);
                out.uint(u64::from(*u));
            }
            TermData::Const(n) => {
                out.uint(4);
                out.str(n.as_str());
            }
            TermData::Ind(n) => {
                out.uint(5);
                out.str(n.as_str());
            }
            TermData::Construct(n, j) => {
                out.uint(6);
                out.str(n.as_str());
                out.uint(*j as u64);
            }
            TermData::App(h, args) => {
                out.uint(7);
                put_ref(out, h);
                put_refs(out, args);
            }
            TermData::Lambda(b, body) | TermData::Pi(b, body) => {
                let lambda = matches!(t.data(), TermData::Lambda(..));
                out.uint(if lambda { 8 } else { 9 });
                out.name(&b.name);
                put_ref(out, &b.ty);
                put_ref(out, body);
            }
            TermData::Let(b, val, body) => {
                out.uint(10);
                out.name(&b.name);
                put_ref(out, &b.ty);
                put_ref(out, val);
                put_ref(out, body);
            }
            TermData::Elim(e) => {
                out.uint(11);
                out.str(e.ind.as_str());
                put_refs(out, &e.params);
                put_ref(out, &e.motive);
                put_refs(out, &e.cases);
                put_ref(out, &e.scrutinee);
            }
        }
    }
}

/// The depth of `t` as the decoder measures it: a leaf is 0, and any other
/// node is one more than its deepest child. A term deeper than
/// [`MAX_DEPTH`] encodes, but neither rendering decodes it.
pub fn term_depth(t: &Term) -> usize {
    let table = Table::build(t);
    let mut depths: Vec<usize> = Vec::with_capacity(table.order.len());
    for node in &table.order {
        let mut depth = 0;
        node.for_each_child(|c, _| {
            depth = depth.max(depths[table.index[&c.alloc_id()] as usize] + 1);
        });
        depths.push(depth);
    }
    depths.last().copied().unwrap_or(0)
}

/// Where a decoded node's fields come from: a binary cursor or one JSON
/// node array.
trait Source {
    fn uint(&mut self) -> Result<u64, WireError>;
    fn string(&mut self) -> Result<String, WireError>;
    fn name(&mut self) -> Result<Name, WireError>;
    /// A count prefix that is about to drive `count` field reads. Each read
    /// consumes at least one field, so any count above the fields left is
    /// malformed (and would otherwise let a tiny frame request a huge
    /// allocation).
    fn count(&mut self) -> Result<usize, WireError>;
}

/// Narrows a decoded number with an explicit range check. A plain `as`
/// cast would silently wrap on 32-bit targets, letting a non-canonical
/// frame (whose digest was computed over the wrapped value) decode to a
/// different term than its fields spell.
fn narrow<T: TryFrom<u64>>(v: u64) -> Result<T, WireError> {
    T::try_from(v)
        .map_err(|_| WireError::Syntax(format!("{v} overflows {}", std::any::type_name::<T>())))
}

/// A node table being decoded: each node so far, with its depth.
struct Decoder {
    nodes: Vec<(Term, usize)>,
}

impl Decoder {
    fn with_capacity(n: usize) -> Decoder {
        Decoder {
            nodes: Vec::with_capacity(n),
        }
    }

    /// Resolves one backward reference against the nodes decoded so far,
    /// raising `depth` past the child's.
    fn child(&self, f: &mut impl Source, depth: &mut usize) -> Result<Term, WireError> {
        let j = f.uint()?;
        let (t, d) = usize::try_from(j)
            .ok()
            .and_then(|j| self.nodes.get(j))
            .ok_or_else(|| {
                WireError::Syntax(format!(
                    "node reference {j} is not backward (only {} nodes decoded)",
                    self.nodes.len()
                ))
            })?;
        *depth = (*depth).max(d + 1);
        Ok(t.clone())
    }

    fn children(&self, f: &mut impl Source, depth: &mut usize) -> Result<Vec<Term>, WireError> {
        let n = f.count()?;
        (0..n).map(|_| self.child(f, depth)).collect()
    }

    /// Decodes the next node from `f` (the inverse of [`Table::put`]) and
    /// appends it, refusing it if it nests deeper than [`MAX_DEPTH`].
    fn push(&mut self, f: &mut impl Source) -> Result<(), WireError> {
        let mut depth = 0;
        let d = &mut depth;
        let t = match f.uint()? {
            0 => Term::rel(narrow(f.uint()?)?),
            1 => Term::prop(),
            2 => Term::set(),
            3 => Term::type_(narrow(f.uint()?)?),
            4 => Term::const_(f.string()?),
            5 => Term::ind(f.string()?),
            6 => {
                let n = f.string()?;
                Term::construct(n, narrow(f.uint()?)?)
            }
            7 => {
                let head = self.child(f, d)?;
                let args = self.children(f, d)?;
                if args.is_empty() {
                    return Err(WireError::Syntax("empty application spine".into()));
                }
                Term::app(head, args)
            }
            tag @ (8 | 9) => {
                let name = f.name()?;
                let ty = self.child(f, d)?;
                let body = self.child(f, d)?;
                if tag == 8 {
                    Term::lambda(name, ty, body)
                } else {
                    Term::pi(name, ty, body)
                }
            }
            10 => {
                let name = f.name()?;
                let ty = self.child(f, d)?;
                let val = self.child(f, d)?;
                let body = self.child(f, d)?;
                Term::let_(name, ty, val, body)
            }
            // Struct expressions evaluate their fields in the order
            // written, which is the table's field order.
            11 => Term::elim(ElimData {
                ind: f.string()?.into(),
                params: self.children(f, d)?,
                motive: self.child(f, d)?,
                cases: self.children(f, d)?,
                scrutinee: self.child(f, d)?,
            }),
            tag => return Err(WireError::Syntax(format!("bad term tag {tag}"))),
        };
        if depth > MAX_DEPTH {
            return Err(WireError::Shape(format!(
                "term nests deeper than {MAX_DEPTH} levels"
            )));
        }
        self.nodes.push((t, depth));
        Ok(())
    }

    /// The root: the last node.
    fn root(mut self) -> Result<Term, WireError> {
        self.nodes
            .pop()
            .map(|(t, _)| t)
            .ok_or_else(|| WireError::Syntax("empty term node table".into()))
    }
}

/// `decoded` if its recomputed digest `actual` is the frame's `expected`.
fn verified<T>(decoded: T, expected: TermDigest, actual: TermDigest) -> Result<T, WireError> {
    if actual != expected {
        return Err(WireError::BadDigest {
            expected: expected.0,
            actual: actual.0,
        });
    }
    Ok(decoded)
}

// ---------------------------------------------------------------------
// JSON form
// ---------------------------------------------------------------------

/// One JSON node's fields, read front to back.
struct Fields<'v>(std::slice::Iter<'v, Value>);

impl<'v> Fields<'v> {
    fn next(&mut self) -> Result<&'v Value, WireError> {
        self.0
            .next()
            .ok_or_else(|| WireError::Shape("a node ends before its last field".into()))
    }
}

impl Source for Fields<'_> {
    fn uint(&mut self) -> Result<u64, WireError> {
        self.next()?
            .as_u64()
            .ok_or_else(|| WireError::Shape("a node field must be a non-negative integer".into()))
    }

    fn string(&mut self) -> Result<String, WireError> {
        self.next()?
            .as_str()
            .map(str::to_string)
            .ok_or_else(|| WireError::Shape("a node field must be a string".into()))
    }

    fn name(&mut self) -> Result<Name, WireError> {
        match self.next()? {
            Value::Null => Ok(Name::Anonymous),
            Value::Str(s) => Ok(Name::named(s)),
            _ => Err(WireError::Shape(
                "binder name must be a string or null".into(),
            )),
        }
    }

    fn count(&mut self) -> Result<usize, WireError> {
        let n = narrow(self.uint()?)?;
        if n > self.0.len() {
            return Err(WireError::Shape(format!(
                "a node counts {n} references but has {} fields left",
                self.0.len()
            )));
        }
        Ok(n)
    }
}

/// Wraps a term in the versioned, digest-carrying envelope
/// `{"wire":…,"digest":…,"nodes":[…]}`.
pub fn term_to_envelope(t: &Term) -> Value {
    let table = Table::build(t);
    let nodes = table
        .order
        .iter()
        .map(|node| {
            let mut fields = Vec::new();
            table.put(&mut fields, node);
            Value::Arr(fields)
        })
        .collect();
    Value::Obj(vec![
        ("wire".into(), Value::str(WIRE_TAG)),
        (
            "digest".into(),
            Value::str(TermDigest::of_term(t).to_string()),
        ),
        ("nodes".into(), Value::Arr(nodes)),
    ])
}

/// Unwraps [`term_to_envelope`], verifying the version tag and digest.
pub fn term_from_envelope(v: &Value) -> Result<Term, WireError> {
    let tag = v
        .get("wire")
        .and_then(Value::as_str)
        .ok_or_else(|| WireError::Shape("envelope is missing `wire` tag".into()))?;
    if tag != WIRE_TAG {
        return Err(WireError::Version(tag.to_string()));
    }
    let digest = v
        .get("digest")
        .and_then(Value::as_str)
        .and_then(TermDigest::from_hex)
        .ok_or_else(|| WireError::Shape("envelope has a missing or malformed `digest`".into()))?;
    let nodes = v
        .get("nodes")
        .and_then(Value::as_arr)
        .ok_or_else(|| WireError::Shape("envelope is missing its `nodes` array".into()))?;
    let mut table = Decoder::with_capacity(nodes.len());
    for node in nodes {
        let fields = node
            .as_arr()
            .ok_or_else(|| WireError::Shape("a node must be an array".into()))?;
        let mut f = Fields(fields.iter());
        table.push(&mut f)?;
        if f.0.len() != 0 {
            return Err(WireError::Shape(
                "a node has more fields than its tag takes".into(),
            ));
        }
    }
    let t = table.root()?;
    let actual = TermDigest::of_term(&t);
    verified(t, digest, actual)
}

/// A content digest for a declaration: name, type digest, body digest (or
/// absence), opacity, all under the wire version.
pub fn decl_digest(d: &ConstDecl) -> TermDigest {
    let mut h = DigestBuilder::new();
    h.write_u64(WIRE_VERSION as u64);
    h.write_str(d.name.as_str());
    h.write_u64(TermDigest::of_term(&d.ty).0);
    match &d.body {
        Some(b) => {
            h.write_u64(1);
            h.write_u64(TermDigest::of_term(b).0);
        }
        None => h.write_u64(0),
    }
    h.write_u64(d.opaque as u64);
    TermDigest(h.finish())
}

// ---------------------------------------------------------------------
// Binary form
// ---------------------------------------------------------------------

const MAGIC: &[u8; 4] = b"PWIR";
const KIND_TERM: u8 = b'T';
const KIND_DECL: u8 = b'D';

fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Writes `t`'s node table: a varint node count, then each node.
fn put_term(out: &mut Vec<u8>, t: &Term) {
    let table = Table::build(t);
    put_varint(out, table.order.len() as u64);
    for node in &table.order {
        table.put(out, node);
    }
}

struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn byte(&mut self) -> Result<u8, WireError> {
        let b = *self.bytes.get(self.pos).ok_or(WireError::Truncated)?;
        self.pos += 1;
        Ok(b)
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        let end = self.pos.checked_add(n).ok_or(WireError::Truncated)?;
        if end > self.bytes.len() {
            return Err(WireError::Truncated);
        }
        let s = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    /// Reads a node table (inverse of [`put_term`]): a varint count, then
    /// that many nodes.
    fn term(&mut self) -> Result<Term, WireError> {
        let n = self.count()?;
        let mut table = Decoder::with_capacity(n);
        for _ in 0..n {
            table.push(self)?;
        }
        table.root()
    }
}

impl Source for Cursor<'_> {
    fn uint(&mut self) -> Result<u64, WireError> {
        let mut v: u64 = 0;
        for shift in (0..64).step_by(7) {
            let b = self.byte()?;
            v |= ((b & 0x7f) as u64) << shift;
            if b & 0x80 == 0 {
                return Ok(v);
            }
        }
        Err(WireError::Syntax("varint too long".into()))
    }

    fn string(&mut self) -> Result<String, WireError> {
        let len = narrow(self.uint()?)?;
        if len > self.bytes.len() - self.pos {
            return Err(WireError::Truncated);
        }
        std::str::from_utf8(self.take(len)?)
            .map(str::to_string)
            .map_err(|_| WireError::Syntax("invalid UTF-8 in string".into()))
    }

    fn name(&mut self) -> Result<Name, WireError> {
        match self.byte()? {
            0 => Ok(Name::Anonymous),
            1 => Ok(Name::named(self.string()?)),
            b => Err(WireError::Syntax(format!("bad name tag {b}"))),
        }
    }

    fn count(&mut self) -> Result<usize, WireError> {
        let n = narrow(self.uint()?)?;
        if n > self.bytes.len() - self.pos {
            return Err(WireError::Truncated);
        }
        Ok(n)
    }
}

fn frame(kind: u8, digest: TermDigest, payload: Vec<u8>) -> Vec<u8> {
    let mut out = Vec::with_capacity(payload.len() + 17);
    out.extend_from_slice(MAGIC);
    out.push(WIRE_VERSION as u8);
    out.push(kind);
    out.extend_from_slice(&digest.0.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&payload);
    out
}

fn open_frame<'b>(bytes: &'b [u8], kind: u8) -> Result<(TermDigest, Cursor<'b>), WireError> {
    let mut cur = Cursor { bytes, pos: 0 };
    if cur.take(4)? != MAGIC {
        return Err(WireError::Syntax("bad magic".into()));
    }
    let version = cur.byte()?;
    if version as u32 != WIRE_VERSION {
        return Err(WireError::Version(format!("pumpkin-wire/{version}")));
    }
    let k = cur.byte()?;
    if k != kind {
        return Err(WireError::Shape(format!(
            "wrong frame kind `{}` (want `{}`)",
            k as char, kind as char
        )));
    }
    let digest = TermDigest(u64::from_le_bytes(cur.take(8)?.try_into().unwrap()));
    let len = u32::from_le_bytes(cur.take(4)?.try_into().unwrap()) as usize;
    if len > MAX_PAYLOAD {
        return Err(WireError::Oversized {
            len,
            max: MAX_PAYLOAD,
        });
    }
    if bytes.len() - cur.pos != len {
        return Err(WireError::Truncated);
    }
    Ok((digest, cur))
}

/// Encodes a term as a self-contained binary frame.
pub fn encode_term(t: &Term) -> Vec<u8> {
    let mut payload = Vec::new();
    put_term(&mut payload, t);
    frame(KIND_TERM, TermDigest::of_term(t), payload)
}

/// Decodes [`encode_term`], recomputing and verifying the digest.
pub fn decode_term(bytes: &[u8]) -> Result<Term, WireError> {
    let (digest, mut cur) = open_frame(bytes, KIND_TERM)?;
    let t = cur.term()?;
    if cur.pos != bytes.len() {
        return Err(WireError::Syntax("trailing bytes in frame".into()));
    }
    let actual = TermDigest::of_term(&t);
    verified(t, digest, actual)
}

/// Encodes a declaration as a self-contained binary frame.
pub fn encode_decl(d: &ConstDecl) -> Vec<u8> {
    let mut payload = Vec::new();
    payload.str(d.name.as_str());
    payload.push(d.opaque as u8);
    payload.push(d.body.is_some() as u8);
    put_term(&mut payload, &d.ty);
    if let Some(b) = &d.body {
        put_term(&mut payload, b);
    }
    frame(KIND_DECL, decl_digest(d), payload)
}

/// Decodes [`encode_decl`], recomputing and verifying the digest.
pub fn decode_decl(bytes: &[u8]) -> Result<ConstDecl, WireError> {
    let (digest, mut cur) = open_frame(bytes, KIND_DECL)?;
    let name = cur.string()?;
    let opaque = match cur.byte()? {
        0 => false,
        1 => true,
        b => return Err(WireError::Syntax(format!("bad opaque flag {b}"))),
    };
    let has_body = match cur.byte()? {
        0 => false,
        1 => true,
        b => return Err(WireError::Syntax(format!("bad body flag {b}"))),
    };
    let ty = cur.term()?;
    let body = if has_body { Some(cur.term()?) } else { None };
    if cur.pos != bytes.len() {
        return Err(WireError::Syntax("trailing bytes in frame".into()));
    }
    let d = ConstDecl {
        name: name.into(),
        ty,
        body,
        opaque,
    };
    let actual = decl_digest(&d);
    verified(d, digest, actual)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pumpkin_testkit::{check, Rng};

    /// A random well-formed term (structurally — not necessarily
    /// well-typed, which serialization must not care about).
    fn random_term(rng: &mut Rng, depth: usize) -> Term {
        let leaf = depth == 0 || rng.chance(2, 5);
        if leaf {
            match rng.below(6) {
                0 => Term::rel(rng.below(8) as usize),
                1 => Term::prop(),
                2 => Term::set(),
                3 => Term::type_(rng.below(4) as u32),
                4 => Term::const_(format!("c{}", rng.below(5))),
                _ => Term::construct(format!("I{}", rng.below(3)), rng.below(4) as usize),
            }
        } else {
            match rng.below(6) {
                0 => Term::app(
                    Term::const_(format!("f{}", rng.below(3))),
                    (0..1 + rng.below(3)).map(|_| random_term(rng, depth - 1)),
                ),
                1 => Term::lambda(
                    ["x", "y", "_", ""][rng.below(4) as usize],
                    random_term(rng, depth - 1),
                    random_term(rng, depth - 1),
                ),
                2 => Term::pi(
                    "p",
                    random_term(rng, depth - 1),
                    random_term(rng, depth - 1),
                ),
                3 => Term::let_(
                    "v",
                    random_term(rng, depth - 1),
                    random_term(rng, depth - 1),
                    random_term(rng, depth - 1),
                ),
                4 => Term::elim(ElimData {
                    ind: format!("I{}", rng.below(3)).into(),
                    params: (0..rng.below(2))
                        .map(|_| random_term(rng, depth - 1))
                        .collect(),
                    motive: random_term(rng, depth - 1),
                    cases: (0..1 + rng.below(3))
                        .map(|_| random_term(rng, depth - 1))
                        .collect(),
                    scrutinee: random_term(rng, depth - 1),
                }),
                _ => Term::ind(format!("I{}", rng.below(3))),
            }
        }
    }

    /// Encodes `t` as a JSON envelope, prints and re-parses it, and decodes.
    fn json_roundtrip(t: &Term) -> Result<Term, WireError> {
        term_from_envelope(&Value::parse(&term_to_envelope(t).to_string()).unwrap())
    }

    /// A JSON envelope around a hand-written node table.
    fn envelope(digest: TermDigest, nodes: &str) -> Value {
        Value::parse(&format!(
            r#"{{"wire":"{WIRE_TAG}","digest":"{digest}","nodes":{nodes}}}"#
        ))
        .unwrap()
    }

    #[test]
    fn json_roundtrip_random_terms() {
        check(200, |rng| {
            let t = random_term(rng, 5);
            let back = json_roundtrip(&t).unwrap();
            assert_eq!(back, t);
            // Structural hashes are recomputed, not trusted: equal terms
            // must agree on the cached hash.
            assert_eq!(back.structural_hash(), t.structural_hash());
        });
    }

    #[test]
    fn json_nodes_are_the_binary_table() {
        // `S (S O)`: S, O, S O, S (S O) — the root last, children as
        // backward references, one flat array per node.
        let s = |t: Term| Term::app(Term::construct("nat", 1), [t]);
        let t = s(s(Term::construct("nat", 0)));
        let env = term_to_envelope(&t);
        assert_eq!(
            env.get("nodes").unwrap().to_string(),
            r#"[[6,"nat",1],[6,"nat",0],[7,0,1,1],[7,0,1,2]]"#
        );
        // The binary payload (past the 18-byte header) holds the same
        // fields in the same order, after the node count.
        let nat = |j| [6, 3, b'n', b'a', b't', j];
        let nodes: Vec<u8> = [&[4u8][..], &nat(1), &nat(0), &[7, 0, 1, 1], &[7, 0, 1, 2]].concat();
        assert_eq!(&encode_term(&t)[18..], &nodes[..]);
        let lam = Term::lambda(Name::Anonymous, Term::prop(), Term::rel(0));
        assert_eq!(
            term_to_envelope(&lam).get("nodes").unwrap().to_string(),
            "[[1],[0,0],[8,null,0,1]]"
        );
    }

    #[test]
    fn binary_roundtrip_random_terms() {
        check(200, |rng| {
            let t = random_term(rng, 5);
            let bytes = encode_term(&t);
            let back = decode_term(&bytes).unwrap();
            assert_eq!(back, t);
            assert_eq!(back.structural_hash(), t.structural_hash());
        });
    }

    #[test]
    fn binder_names_survive_the_roundtrip() {
        let t = Term::lambda("hint", Term::prop(), Term::rel(0));
        let back = decode_term(&encode_term(&t)).unwrap();
        match back.data() {
            TermData::Lambda(b, _) => assert_eq!(b.name.as_str(), Some("hint")),
            _ => panic!("shape changed"),
        }
        let back = json_roundtrip(&t).unwrap();
        match back.data() {
            TermData::Lambda(b, _) => assert_eq!(b.name.as_str(), Some("hint")),
            _ => panic!("shape changed"),
        }
    }

    #[test]
    fn decl_roundtrip() {
        check(100, |rng| {
            let d = ConstDecl {
                name: format!("M.c{}", rng.below(100)).into(),
                ty: random_term(rng, 4),
                body: if rng.bool() {
                    Some(random_term(rng, 4))
                } else {
                    None
                },
                opaque: rng.bool(),
            };
            assert_eq!(decode_decl(&encode_decl(&d)).unwrap(), d);
        });
    }

    #[test]
    fn corrupt_digest_is_rejected() {
        let t = Term::app(Term::const_("f"), [Term::rel(0), Term::prop()]);
        let mut bytes = encode_term(&t);
        bytes[7] ^= 0xff; // flip a digest byte
        assert!(matches!(
            decode_term(&bytes),
            Err(WireError::BadDigest { .. })
        ));
        // Same through the JSON envelope.
        let mut env = term_to_envelope(&t);
        if let Value::Obj(fields) = &mut env {
            fields[1].1 = Value::str("00000000deadbeef");
        }
        assert!(matches!(
            term_from_envelope(&env),
            Err(WireError::BadDigest { .. })
        ));
    }

    #[test]
    fn truncated_and_malformed_frames_are_rejected() {
        let t = Term::lambda("x", Term::ind("nat"), Term::rel(0));
        let bytes = encode_term(&t);
        for cut in [0, 3, 5, 10, bytes.len() - 1] {
            assert!(decode_term(&bytes[..cut]).is_err(), "accepted cut={cut}");
        }
        let mut wrong_magic = bytes.clone();
        wrong_magic[0] = b'X';
        assert!(matches!(
            decode_term(&wrong_magic),
            Err(WireError::Syntax(_))
        ));
        let mut wrong_version = bytes.clone();
        wrong_version[4] = 99;
        assert!(matches!(
            decode_term(&wrong_version),
            Err(WireError::Version(_))
        ));
        // A count prefix larger than the remaining payload must not
        // allocate or loop.
        assert!(decode_decl(&bytes).is_err()); // term frame as decl
    }

    /// Overflowing varints must reject the frame, not wrap. The second
    /// case is the dangerous one: the digest is precomputed over the
    /// *wrapped* value, so before the checked narrowing the frame decoded
    /// "successfully" to a term its bytes do not spell — a non-canonical
    /// encoding the digest check cannot catch.
    #[test]
    fn overflowing_varints_are_rejected() {
        // Type universe far beyond u32: plain rejection. (Payloads open
        // with a node count; these tables hold a single node.)
        let mut payload = vec![1u8, 3u8];
        put_varint(&mut payload, u64::MAX);
        let bytes = frame(KIND_TERM, TermDigest(0), payload);
        assert!(matches!(decode_term(&bytes), Err(WireError::Syntax(m)) if m.contains("overflow")));

        // Type universe 5 + 2^33 wraps to 5 under `as u32`; pair it with
        // the digest of Type(5) so only the overflow check can refuse it.
        let mut payload = vec![1u8, 3u8];
        put_varint(&mut payload, 5 + (1u64 << 33));
        let bytes = frame(KIND_TERM, TermDigest::of_term(&Term::type_(5)), payload);
        assert!(matches!(decode_term(&bytes), Err(WireError::Syntax(m)) if m.contains("overflow")));

        // A huge string-length prefix inside a decl frame's name field is
        // rejected before any allocation (as overflow on 32-bit targets,
        // as truncation on 64-bit ones) — never accepted.
        let mut payload = Vec::new();
        put_varint(&mut payload, u64::MAX - 7);
        payload.extend_from_slice(b"\x00\x00");
        let bytes = frame(KIND_DECL, TermDigest(0), payload);
        assert!(decode_decl(&bytes).is_err());
    }

    #[test]
    fn envelope_version_tag_is_checked() {
        let t = Term::prop();
        let mut env = term_to_envelope(&t);
        if let Value::Obj(fields) = &mut env {
            fields[0].1 = Value::str("pumpkin-wire/99");
        }
        assert!(matches!(
            term_from_envelope(&env),
            Err(WireError::Version(_))
        ));
    }

    #[test]
    fn terms_deeper_than_the_cap_are_refused_in_both_renderings() {
        let lambdas = |n: usize| {
            (0..n).fold(Term::prop(), |t, _| {
                Term::lambda(Name::Anonymous, Term::set(), t)
            })
        };
        let numeral = |n: usize| {
            (0..n).fold(Term::construct("nat", 0), |t, _| {
                Term::app(Term::construct("nat", 1), [t])
            })
        };
        for t in [lambdas(MAX_DEPTH), numeral(MAX_DEPTH)] {
            assert_eq!(term_depth(&t), MAX_DEPTH);
            assert_eq!(decode_term(&encode_term(&t)).unwrap(), t);
            assert_eq!(json_roundtrip(&t).unwrap(), t);
        }
        let refused = |r: Result<Term, WireError>| matches!(r, Err(WireError::Shape(m)) if m.contains(&format!("deeper than {MAX_DEPTH}")));
        // One level past the cap, and 100k levels: the decoders stop at
        // the first node past the cap. Encoding and decoding are both
        // iterative, so neither depth touches the call stack.
        for t in [
            lambdas(MAX_DEPTH + 1),
            numeral(MAX_DEPTH + 1),
            lambdas(100_000),
        ] {
            assert!(term_depth(&t) > MAX_DEPTH);
            assert!(refused(decode_term(&encode_term(&t))), "binary accepted it");
            assert!(refused(json_roundtrip(&t)), "JSON accepted it");
        }
        // Leaves are depth 0; sharing does not add depth.
        assert_eq!(term_depth(&Term::prop()), 0);
        let n = numeral(3);
        assert_eq!(
            term_depth(&Term::app(Term::const_("pair"), [n.clone(), n])),
            4
        );
    }

    #[test]
    fn shared_subterms_are_encoded_once() {
        // A bushy term whose two halves are the same allocation: the node
        // table stores the half once, so doubling the occurrences barely
        // grows the frame, in either rendering.
        let mut big = Term::rel(0);
        for i in 0..64 {
            big = Term::app(Term::const_(format!("f{i}")), [big]);
        }
        let pair = Term::app(Term::const_("pair"), [big.clone(), big.clone()]);
        let once = encode_term(&big).len();
        let twice = encode_term(&pair).len();
        assert!(
            twice < once + 32,
            "sharing lost: one copy {once}B, two copies {twice}B"
        );
        let once = term_to_envelope(&big).to_string().len();
        let twice = term_to_envelope(&pair).to_string().len();
        assert!(
            twice < once + 32,
            "JSON sharing lost: one copy {once}B, two copies {twice}B"
        );
        // And the shared form still decodes to the right term.
        assert_eq!(decode_term(&encode_term(&pair)).unwrap(), pair);
        assert_eq!(json_roundtrip(&pair).unwrap(), pair);
    }

    #[test]
    fn forward_and_self_references_are_rejected() {
        let backward = |r: Result<Term, WireError>| matches!(r, Err(WireError::Syntax(m)) if m.contains("backward"));
        // A single-node table whose lambda cites itself (index 0 = the
        // node being decoded — not yet in the table, so not backward).
        let payload = vec![
            1u8, // node count
            8,   // lambda
            0,   // anonymous binder
            0,   // ty  = ref 0 (self)
            0,   // body = ref 0 (self)
        ];
        let bytes = frame(KIND_TERM, TermDigest(0), payload);
        assert!(backward(decode_term(&bytes)), "self reference accepted");
        let json = envelope(TermDigest(0), "[[8,null,0,0]]");
        assert!(
            backward(term_from_envelope(&json)),
            "JSON self reference accepted"
        );

        // A two-node table where the first node cites the second.
        let payload = vec![
            2u8, // node count
            8, 0, 1, 1, // lambda with ty/body = ref 1 (forward)
            1, // Prop
        ];
        let bytes = frame(KIND_TERM, TermDigest(0), payload);
        assert!(backward(decode_term(&bytes)), "forward reference accepted");
        let json = envelope(TermDigest(0), "[[8,null,1,1],[1]]");
        assert!(
            backward(term_from_envelope(&json)),
            "JSON forward reference accepted"
        );
    }

    #[test]
    fn malformed_json_nodes_are_rejected() {
        let prop = TermDigest::of_term(&Term::prop());
        assert_eq!(
            term_from_envelope(&envelope(prop, "[[1]]")),
            Ok(Term::prop())
        );
        for (nodes, want) in [
            ("[]", "empty term node table"),
            ("[1]", "must be an array"),
            ("[[]]", "ends before"),
            ("[[1,0]]", "more fields than its tag takes"),
            ("[[12]]", "bad term tag"),
            (r#"[["1"]]"#, "non-negative integer"),
            (r#"[[4,7]]"#, "must be a string"),
            ("[[1],[8,0,0,0]]", "binder name"),
            ("[[1],[7,0,5,0]]", "fields left"),
            ("[[1],[7,0,0]]", "empty application spine"),
        ] {
            let err = term_from_envelope(&envelope(prop, nodes)).unwrap_err();
            assert!(err.to_string().contains(want), "{nodes}: {err}");
        }
        let missing =
            Value::parse(&format!(r#"{{"wire":"{WIRE_TAG}","digest":"{prop}"}}"#)).unwrap();
        assert!(matches!(
            term_from_envelope(&missing),
            Err(WireError::Shape(_))
        ));
    }
}
