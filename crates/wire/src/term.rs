//! Term and declaration codecs: versioned JSON and length-prefixed binary.
//!
//! Both directions route through the kernel's smart constructors, so the
//! cached structural hashes (and the spine invariant for applications) are
//! recomputed on decode — `decode(encode(t)) == t` holds including hashes.
//!
//! JSON form: each node is an object tagged by `"k"`; binder name hints are
//! serialized (as `null` when anonymous) even though term equality ignores
//! them, so pretty-printing survives a round-trip. Standalone terms travel
//! in an envelope `{"wire":"pumpkin-wire/2","digest":"…","term":…}` whose
//! digest is verified on decode.
//!
//! Binary form: magic `PWIR`, version byte, kind byte (`T` term, `D`
//! declaration), the content digest (u64 LE), a u32 LE payload length, then
//! a **shared-subterm node table**: a varint node count followed by the
//! term's distinct nodes in children-first order, each a tag byte whose
//! child slots are varint *backward references* into the table (the root is
//! the last node). Hash-consing in the kernel means each distinct subterm
//! is a single allocation, so the encoder emits it exactly once however
//! often it occurs — terms with heavy internal sharing (literals, repaired
//! proof spines) stay small on the wire, and decoding is **iterative**, so
//! no input depth can exhaust the stack. Forward or self references are
//! rejected, which makes cycles unrepresentable. Decoding recomputes the
//! digest from the decoded value; any mismatch is [`WireError::BadDigest`].

use pumpkin_kernel::env::ConstDecl;
use pumpkin_kernel::name::Name;
use pumpkin_kernel::term::{ElimData, Term, TermData};
use pumpkin_kernel::universe::Sort;

use crate::Value;
use crate::{DigestBuilder, TermDigest, WireError, WIRE_TAG, WIRE_VERSION};

/// Upper bound on binary payload size (16 MiB) — far above any term the
/// pipeline produces, low enough to bound a hostile allocation.
pub const MAX_PAYLOAD: usize = 16 << 20;

// ---------------------------------------------------------------------
// JSON form
// ---------------------------------------------------------------------

fn name_to_value(n: &Name) -> Value {
    match n.as_str() {
        Some(s) => Value::str(s),
        None => Value::Null,
    }
}

fn name_from_value(v: &Value) -> Result<Name, WireError> {
    match v {
        Value::Null => Ok(Name::Anonymous),
        Value::Str(s) => Ok(Name::named(s)),
        _ => Err(WireError::Shape(
            "binder name must be a string or null".into(),
        )),
    }
}

/// Encodes a term as a bare (envelope-less) JSON value.
pub fn term_to_value(t: &Term) -> Value {
    let kv = |k: &str, rest: Vec<(String, Value)>| {
        let mut fields = vec![("k".to_string(), Value::str(k))];
        fields.extend(rest);
        Value::Obj(fields)
    };
    match t.data() {
        TermData::Rel(i) => kv("rel", vec![("i".into(), Value::UInt(*i as u64))]),
        TermData::Sort(Sort::Prop) => kv("sort", vec![("s".into(), Value::str("prop"))]),
        TermData::Sort(Sort::Set) => kv("sort", vec![("s".into(), Value::str("set"))]),
        TermData::Sort(Sort::Type(u)) => kv(
            "sort",
            vec![
                ("s".into(), Value::str("type")),
                ("u".into(), Value::UInt(*u as u64)),
            ],
        ),
        TermData::Const(n) => kv("const", vec![("n".into(), Value::str(n.as_str()))]),
        TermData::Ind(n) => kv("ind", vec![("n".into(), Value::str(n.as_str()))]),
        TermData::Construct(n, j) => kv(
            "ctor",
            vec![
                ("n".into(), Value::str(n.as_str())),
                ("j".into(), Value::UInt(*j as u64)),
            ],
        ),
        TermData::App(h, args) => kv(
            "app",
            vec![
                ("f".into(), term_to_value(h)),
                (
                    "a".into(),
                    Value::Arr(args.iter().map(term_to_value).collect()),
                ),
            ],
        ),
        TermData::Lambda(b, body) => kv(
            "lam",
            vec![
                ("x".into(), name_to_value(&b.name)),
                ("t".into(), term_to_value(&b.ty)),
                ("b".into(), term_to_value(body)),
            ],
        ),
        TermData::Pi(b, body) => kv(
            "pi",
            vec![
                ("x".into(), name_to_value(&b.name)),
                ("t".into(), term_to_value(&b.ty)),
                ("b".into(), term_to_value(body)),
            ],
        ),
        TermData::Let(b, val, body) => kv(
            "let",
            vec![
                ("x".into(), name_to_value(&b.name)),
                ("t".into(), term_to_value(&b.ty)),
                ("v".into(), term_to_value(val)),
                ("b".into(), term_to_value(body)),
            ],
        ),
        TermData::Elim(e) => kv(
            "elim",
            vec![
                ("ind".into(), Value::str(e.ind.as_str())),
                (
                    "p".into(),
                    Value::Arr(e.params.iter().map(term_to_value).collect()),
                ),
                ("m".into(), term_to_value(&e.motive)),
                (
                    "c".into(),
                    Value::Arr(e.cases.iter().map(term_to_value).collect()),
                ),
                ("s".into(), term_to_value(&e.scrutinee)),
            ],
        ),
    }
}

fn field<'v>(v: &'v Value, k: &str, node: &str) -> Result<&'v Value, WireError> {
    v.get(k)
        .ok_or_else(|| WireError::Shape(format!("`{node}` node is missing field `{k}`")))
}

fn str_field(v: &Value, k: &str, node: &str) -> Result<String, WireError> {
    field(v, k, node)?
        .as_str()
        .map(str::to_string)
        .ok_or_else(|| WireError::Shape(format!("`{node}.{k}` must be a string")))
}

fn uint_field(v: &Value, k: &str, node: &str) -> Result<u64, WireError> {
    field(v, k, node)?
        .as_u64()
        .ok_or_else(|| WireError::Shape(format!("`{node}.{k}` must be a non-negative integer")))
}

/// Decodes a bare term value (inverse of [`term_to_value`]).
pub fn term_from_value(v: &Value) -> Result<Term, WireError> {
    let kind = v
        .get("k")
        .and_then(Value::as_str)
        .ok_or_else(|| WireError::Shape("term node must be an object with a `k` tag".into()))?;
    let terms = |k: &str| -> Result<Vec<Term>, WireError> {
        field(v, k, kind)?
            .as_arr()
            .ok_or_else(|| WireError::Shape(format!("`{kind}.{k}` must be an array")))?
            .iter()
            .map(term_from_value)
            .collect()
    };
    match kind {
        "rel" => Ok(Term::rel(uint_field(v, "i", "rel")? as usize)),
        "sort" => match str_field(v, "s", "sort")?.as_str() {
            "prop" => Ok(Term::prop()),
            "set" => Ok(Term::set()),
            "type" => Ok(Term::type_(uint_field(v, "u", "sort")? as u32)),
            s => Err(WireError::Shape(format!("unknown sort `{s}`"))),
        },
        "const" => Ok(Term::const_(str_field(v, "n", "const")?)),
        "ind" => Ok(Term::ind(str_field(v, "n", "ind")?)),
        "ctor" => Ok(Term::construct(
            str_field(v, "n", "ctor")?,
            uint_field(v, "j", "ctor")? as usize,
        )),
        "app" => {
            let head = term_from_value(field(v, "f", "app")?)?;
            let args = terms("a")?;
            if args.is_empty() {
                return Err(WireError::Shape("`app.a` must be non-empty".into()));
            }
            Ok(Term::app(head, args))
        }
        "lam" | "pi" => {
            let name = name_from_value(field(v, "x", kind)?)?;
            let ty = term_from_value(field(v, "t", kind)?)?;
            let body = term_from_value(field(v, "b", kind)?)?;
            Ok(if kind == "lam" {
                Term::lambda(name, ty, body)
            } else {
                Term::pi(name, ty, body)
            })
        }
        "let" => {
            let name = name_from_value(field(v, "x", "let")?)?;
            let ty = term_from_value(field(v, "t", "let")?)?;
            let val = term_from_value(field(v, "v", "let")?)?;
            let body = term_from_value(field(v, "b", "let")?)?;
            Ok(Term::let_(name, ty, val, body))
        }
        "elim" => Ok(Term::elim(ElimData {
            ind: str_field(v, "ind", "elim")?.into(),
            params: terms("p")?,
            motive: term_from_value(field(v, "m", "elim")?)?,
            cases: terms("c")?,
            scrutinee: term_from_value(field(v, "s", "elim")?)?,
        })),
        other => Err(WireError::Shape(format!("unknown term tag `{other}`"))),
    }
}

/// Wraps a term in the versioned, digest-carrying envelope.
pub fn term_to_envelope(t: &Term) -> Value {
    Value::Obj(vec![
        ("wire".into(), Value::str(WIRE_TAG)),
        (
            "digest".into(),
            Value::str(TermDigest::of_term(t).to_string()),
        ),
        ("term".into(), term_to_value(t)),
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
    let t = term_from_value(field(v, "term", "envelope")?)?;
    let actual = TermDigest::of_term(&t);
    if actual != digest {
        return Err(WireError::BadDigest {
            expected: digest.0,
            actual: actual.0,
        });
    }
    Ok(t)
}

/// Encodes a declaration as a bare JSON value
/// (`{"name":…,"ty":…,"body":…|null,"opaque":…}`).
pub fn decl_to_value(d: &ConstDecl) -> Value {
    Value::Obj(vec![
        ("name".into(), Value::str(d.name.as_str())),
        ("ty".into(), term_to_value(&d.ty)),
        (
            "body".into(),
            d.body.as_ref().map(term_to_value).unwrap_or(Value::Null),
        ),
        ("opaque".into(), Value::Bool(d.opaque)),
    ])
}

/// Decodes [`decl_to_value`].
pub fn decl_from_value(v: &Value) -> Result<ConstDecl, WireError> {
    let body = match field(v, "body", "decl")? {
        Value::Null => None,
        b => Some(term_from_value(b)?),
    };
    Ok(ConstDecl {
        name: str_field(v, "name", "decl")?.into(),
        ty: term_from_value(field(v, "ty", "decl")?)?,
        body,
        opaque: field(v, "opaque", "decl")?
            .as_bool()
            .ok_or_else(|| WireError::Shape("`decl.opaque` must be a bool".into()))?,
    })
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

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_varint(out, s.len() as u64);
    out.extend_from_slice(s.as_bytes());
}

fn put_name(out: &mut Vec<u8>, n: &Name) {
    match n.as_str() {
        Some(s) => {
            out.push(1);
            put_str(out, s);
        }
        None => out.push(0),
    }
}

fn for_each_child(t: &Term, mut f: impl FnMut(&Term)) {
    match t.data() {
        TermData::Rel(_)
        | TermData::Sort(_)
        | TermData::Const(_)
        | TermData::Ind(_)
        | TermData::Construct(_, _) => {}
        TermData::App(h, args) => {
            f(h);
            args.iter().for_each(f);
        }
        TermData::Lambda(b, body) | TermData::Pi(b, body) => {
            f(&b.ty);
            f(body);
        }
        TermData::Let(b, val, body) => {
            f(&b.ty);
            f(val);
            f(body);
        }
        TermData::Elim(e) => {
            e.params.iter().for_each(&mut f);
            f(&e.motive);
            e.cases.iter().for_each(&mut f);
            f(&e.scrutinee);
        }
    }
}

/// Writes `t` as a node table: a varint node count, then each distinct node
/// once, children before parents, the root last. The dedup key is
/// [`Term::alloc_id`] — the interner guarantees name-identical structurally
/// equal subterms share an allocation, so every shared subterm is emitted
/// exactly once. Iterative (explicit stack): encoding depth is unbounded.
fn put_term(out: &mut Vec<u8>, t: &Term) {
    let mut index: std::collections::HashMap<u32, u64> = std::collections::HashMap::new();
    let mut order: Vec<Term> = Vec::new();
    // (node, children already pushed?) — post-order DFS.
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
            for_each_child(&node, |c| kids.push(c.clone()));
            // Reversed so the leftmost child is visited (and numbered)
            // first — cosmetic, but keeps the table order intuitive.
            stack.extend(kids.into_iter().rev().map(|c| (c, false)));
        }
    }
    put_varint(out, order.len() as u64);
    for node in &order {
        put_node(out, node, &index);
    }
}

/// Writes one table node; child positions carry varint backward references.
fn put_node(out: &mut Vec<u8>, t: &Term, index: &std::collections::HashMap<u32, u64>) {
    let put_ref = |out: &mut Vec<u8>, c: &Term| put_varint(out, index[&c.alloc_id()]);
    match t.data() {
        TermData::Rel(i) => {
            out.push(0);
            put_varint(out, *i as u64);
        }
        TermData::Sort(Sort::Prop) => out.push(1),
        TermData::Sort(Sort::Set) => out.push(2),
        TermData::Sort(Sort::Type(u)) => {
            out.push(3);
            put_varint(out, *u as u64);
        }
        TermData::Const(n) => {
            out.push(4);
            put_str(out, n.as_str());
        }
        TermData::Ind(n) => {
            out.push(5);
            put_str(out, n.as_str());
        }
        TermData::Construct(n, j) => {
            out.push(6);
            put_str(out, n.as_str());
            put_varint(out, *j as u64);
        }
        TermData::App(h, args) => {
            out.push(7);
            put_ref(out, h);
            put_varint(out, args.len() as u64);
            for a in args {
                put_ref(out, a);
            }
        }
        TermData::Lambda(b, body) => {
            out.push(8);
            put_name(out, &b.name);
            put_ref(out, &b.ty);
            put_ref(out, body);
        }
        TermData::Pi(b, body) => {
            out.push(9);
            put_name(out, &b.name);
            put_ref(out, &b.ty);
            put_ref(out, body);
        }
        TermData::Let(b, val, body) => {
            out.push(10);
            put_name(out, &b.name);
            put_ref(out, &b.ty);
            put_ref(out, val);
            put_ref(out, body);
        }
        TermData::Elim(e) => {
            out.push(11);
            put_str(out, e.ind.as_str());
            put_varint(out, e.params.len() as u64);
            for p in &e.params {
                put_ref(out, p);
            }
            put_ref(out, &e.motive);
            put_varint(out, e.cases.len() as u64);
            for c in &e.cases {
                put_ref(out, c);
            }
            put_ref(out, &e.scrutinee);
        }
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

    fn varint(&mut self) -> Result<u64, WireError> {
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

    /// A varint narrowed to `usize` with an explicit range check. A plain
    /// `as` cast would silently wrap on 32-bit targets, letting a
    /// non-canonical frame (whose digest was computed over the wrapped
    /// value) decode to a different term than its bytes spell.
    fn varint_usize(&mut self) -> Result<usize, WireError> {
        let v = self.varint()?;
        usize::try_from(v).map_err(|_| WireError::Syntax(format!("varint {v} overflows usize")))
    }

    /// A varint narrowed to `u32`, rejecting out-of-range values for the
    /// same reason as [`Cursor::varint_usize`].
    fn varint_u32(&mut self) -> Result<u32, WireError> {
        let v = self.varint()?;
        u32::try_from(v).map_err(|_| WireError::Syntax(format!("varint {v} overflows u32")))
    }

    fn string(&mut self) -> Result<String, WireError> {
        let len = self.varint_usize()?;
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

    /// Reads a `count` prefix that is about to drive `count` recursive
    /// decodes; each decoded item consumes ≥ 1 byte, so any count above
    /// the remaining length is malformed (and would otherwise let a tiny
    /// frame request a huge allocation).
    fn count(&mut self) -> Result<usize, WireError> {
        let n = self.varint_usize()?;
        if n > self.bytes.len() - self.pos {
            return Err(WireError::Truncated);
        }
        Ok(n)
    }

    /// Reads a node table (inverse of [`put_term`]): a varint count, then
    /// that many nodes, each resolving its children against the prefix of
    /// the table decoded so far. Iterative — input depth cannot exhaust the
    /// stack — and references are backward by construction (an index at or
    /// past the current position is rejected), so cycles are
    /// unrepresentable.
    fn term(&mut self) -> Result<Term, WireError> {
        let n = self.count()?;
        if n == 0 {
            return Err(WireError::Syntax("empty term node table".into()));
        }
        let mut nodes: Vec<Term> = Vec::with_capacity(n);
        for _ in 0..n {
            let t = self.node(&nodes)?;
            nodes.push(t);
        }
        Ok(nodes.pop().expect("n > 0"))
    }

    /// Resolves one backward reference against the already-decoded prefix.
    fn node_ref(&mut self, nodes: &[Term]) -> Result<Term, WireError> {
        let j = self.varint_usize()?;
        nodes.get(j).cloned().ok_or_else(|| {
            WireError::Syntax(format!(
                "node reference {j} is not backward (only {} nodes decoded)",
                nodes.len()
            ))
        })
    }

    fn node(&mut self, nodes: &[Term]) -> Result<Term, WireError> {
        match self.byte()? {
            0 => Ok(Term::rel(self.varint_usize()?)),
            1 => Ok(Term::prop()),
            2 => Ok(Term::set()),
            3 => Ok(Term::type_(self.varint_u32()?)),
            4 => Ok(Term::const_(self.string()?)),
            5 => Ok(Term::ind(self.string()?)),
            6 => {
                let n = self.string()?;
                Ok(Term::construct(n, self.varint_usize()?))
            }
            7 => {
                let head = self.node_ref(nodes)?;
                let argc = self.count()?;
                if argc == 0 {
                    return Err(WireError::Syntax("empty application spine".into()));
                }
                let mut args = Vec::with_capacity(argc);
                for _ in 0..argc {
                    args.push(self.node_ref(nodes)?);
                }
                Ok(Term::app(head, args))
            }
            8 | 9 => {
                let tag = self.bytes[self.pos - 1];
                let name = self.name()?;
                let ty = self.node_ref(nodes)?;
                let body = self.node_ref(nodes)?;
                Ok(if tag == 8 {
                    Term::lambda(name, ty, body)
                } else {
                    Term::pi(name, ty, body)
                })
            }
            10 => {
                let name = self.name()?;
                let ty = self.node_ref(nodes)?;
                let val = self.node_ref(nodes)?;
                let body = self.node_ref(nodes)?;
                Ok(Term::let_(name, ty, val, body))
            }
            11 => {
                let ind = self.string()?;
                let np = self.count()?;
                let mut params = Vec::with_capacity(np);
                for _ in 0..np {
                    params.push(self.node_ref(nodes)?);
                }
                let motive = self.node_ref(nodes)?;
                let nc = self.count()?;
                let mut cases = Vec::with_capacity(nc);
                for _ in 0..nc {
                    cases.push(self.node_ref(nodes)?);
                }
                let scrutinee = self.node_ref(nodes)?;
                Ok(Term::elim(ElimData {
                    ind: ind.into(),
                    params,
                    motive,
                    cases,
                    scrutinee,
                }))
            }
            b => Err(WireError::Syntax(format!("bad term tag {b}"))),
        }
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
    if actual != digest {
        return Err(WireError::BadDigest {
            expected: digest.0,
            actual: actual.0,
        });
    }
    Ok(t)
}

/// Encodes a declaration as a self-contained binary frame.
pub fn encode_decl(d: &ConstDecl) -> Vec<u8> {
    let mut payload = Vec::new();
    put_str(&mut payload, d.name.as_str());
    payload.push(d.opaque as u8);
    match &d.body {
        Some(b) => {
            payload.push(1);
            put_term(&mut payload, &d.ty);
            put_term(&mut payload, b);
        }
        None => {
            payload.push(0);
            put_term(&mut payload, &d.ty);
        }
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
    if actual != digest {
        return Err(WireError::BadDigest {
            expected: digest.0,
            actual: actual.0,
        });
    }
    Ok(d)
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

    #[test]
    fn json_roundtrip_random_terms() {
        check(200, |rng| {
            let t = random_term(rng, 5);
            let v = term_to_envelope(&t);
            let reparsed = Value::parse(&v.to_string()).unwrap();
            let back = term_from_envelope(&reparsed).unwrap();
            assert_eq!(back, t);
            // Structural hashes are recomputed, not trusted: equal terms
            // must agree on the cached hash.
            assert_eq!(back.structural_hash(), t.structural_hash());
        });
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
        let back = term_from_value(&term_to_value(&t)).unwrap();
        match back.data() {
            TermData::Lambda(b, _) => assert_eq!(b.name.as_str(), Some("hint")),
            _ => panic!("shape changed"),
        }
    }

    #[test]
    fn decl_roundtrip_both_forms() {
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
            let v = Value::parse(&decl_to_value(&d).to_string()).unwrap();
            assert_eq!(decl_from_value(&v).unwrap(), d);
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
    fn deep_terms_roundtrip_iteratively() {
        // 100k nested lambdas: both encode and decode are iterative, so
        // depth is limited by memory, never the call stack.
        let mut t = Term::prop();
        for _ in 0..100_000 {
            t = Term::lambda(Name::Anonymous, Term::set(), t);
        }
        let bytes = encode_term(&t);
        assert_eq!(decode_term(&bytes).unwrap(), t);
    }

    #[test]
    fn shared_subterms_are_encoded_once() {
        // A bushy term whose two halves are the same allocation: the node
        // table stores the half once, so doubling the occurrences barely
        // grows the frame.
        let mut big = Term::rel(0);
        for i in 0..64 {
            big = Term::app(Term::const_(format!("f{i}")), [big]);
        }
        let once = encode_term(&big).len();
        let twice = encode_term(&Term::app(Term::const_("pair"), [big.clone(), big.clone()])).len();
        assert!(
            twice < once + 32,
            "sharing lost: one copy {once}B, two copies {twice}B"
        );
        // And the shared form still decodes to the right term.
        let t = Term::app(Term::const_("pair"), [big.clone(), big]);
        assert_eq!(decode_term(&encode_term(&t)).unwrap(), t);
    }

    #[test]
    fn forward_and_self_references_are_rejected() {
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
        assert!(
            matches!(decode_term(&bytes), Err(WireError::Syntax(m)) if m.contains("backward")),
            "self reference accepted"
        );

        // A two-node table where the first node cites the second.
        let payload = vec![
            2u8, // node count
            8, 0, 1, 1, // lambda with ty/body = ref 1 (forward)
            1, // Prop
        ];
        let bytes = frame(KIND_TERM, TermDigest(0), payload);
        assert!(
            matches!(decode_term(&bytes), Err(WireError::Syntax(m)) if m.contains("backward")),
            "forward reference accepted"
        );
    }
}
