//! # pumpkin-wire
//!
//! Canonical serialization for the repair pipeline: kernel terms,
//! declarations, lifting configurations, and repair reports.
//!
//! A term has one encoding, a shared-subterm **node table** (each
//! hash-consed node once, children before parents, child slots as
//! backward references; see [`term`]), with two renderings:
//!
//! * **JSON** (envelope `{"wire":"pumpkin-wire/3","digest":…,"nodes":[…]}`),
//!   built on the workspace's one JSON codec, [`Value`] (defined in
//!   `pumpkin_trace::json` and re-exported here), used by the
//!   `pumpkin serve` NDJSON-RPC protocol; and
//! * **length-prefixed binary** (magic `PWIR`), used by the persistent lift
//!   cache on disk.
//!
//! One builder writes the table and one iterative decoder reads it back
//! in both renderings; the decoder refuses a term nested deeper than
//! `pumpkin_trace::json::MAX_DEPTH` ([`term_depth`] measures it). Both
//! renderings embed a [`TermDigest`] — a content hash derived from the
//! kernel's cached structural hash, which is computed with a fixed-key
//! hasher and therefore stable across processes — and both verify it on
//! decode, so corrupt frames surface as [`WireError::BadDigest`] instead of
//! silently wrong terms. Round-trip is exact: `decode(encode(t)) == t`,
//! with cached structural hashes recomputed on decode because decoding
//! routes through the kernel's smart constructors.
//!
//! The version tag ([`WIRE_TAG`]) participates in every digest, so bumping
//! [`WIRE_VERSION`] invalidates persisted cache entries wholesale.

use std::fmt;

use pumpkin_kernel::term::Term;

pub mod report;
pub mod spec;
pub mod term;

pub use pumpkin_trace::json::Value;
pub use report::{AutoWire, IncrWire, ReportWire, ReproWire, AUTO_WIRE_VERSION};
pub use spec::LiftSpec;
pub use term::{
    decl_digest, decode_decl, decode_term, encode_decl, encode_term, term_depth,
    term_from_envelope, term_to_envelope,
};

/// Wire format version. Bumping it invalidates all persisted cache entries
/// (the version is folded into every digest) and changes [`WIRE_TAG`].
/// Version 3 renders the JSON envelope as the binary form's node table.
pub const WIRE_VERSION: u32 = 3;

/// The version tag carried by every JSON envelope.
pub const WIRE_TAG: &str = "pumpkin-wire/3";

/// What can go wrong decoding a frame. All decoding is total: hostile
/// input produces one of these, never a panic.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WireError {
    /// Malformed binary framing, or a node table whose tag, reference or
    /// spine is invalid in either rendering (JSON syntax errors are
    /// `pumpkin_trace::json::ParseError`s, raised before a frame gets here).
    Syntax(String),
    /// Well-formed input, wrong shape: a missing envelope field, a JSON
    /// node field of the wrong type, or a term nested past the depth cap.
    Shape(String),
    /// The envelope's version tag is not this crate's [`WIRE_TAG`].
    Version(String),
    /// The embedded content digest does not match the decoded payload.
    BadDigest { expected: u64, actual: u64 },
    /// Binary input ended mid-frame.
    Truncated,
    /// A frame or payload exceeds the size limit it advertises.
    Oversized { len: usize, max: usize },
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Syntax(m) => write!(f, "syntax error: {m}"),
            WireError::Shape(m) => write!(f, "shape error: {m}"),
            WireError::Version(tag) => {
                write!(f, "version mismatch: got `{tag}`, want `{WIRE_TAG}`")
            }
            WireError::BadDigest { expected, actual } => write!(
                f,
                "digest mismatch: frame says {expected:016x}, content is {actual:016x}"
            ),
            WireError::Truncated => write!(f, "truncated frame"),
            WireError::Oversized { len, max } => {
                write!(f, "oversized frame: {len} bytes (limit {max})")
            }
        }
    }
}

impl std::error::Error for WireError {}

/// A content hash for a term (or any digestible wire object), stable
/// across processes.
///
/// Derived from [`Term::structural_hash`], which the kernel computes at
/// allocation with a fixed-key hasher, folded with [`WIRE_VERSION`] so a
/// format bump invalidates everything keyed by a digest. Displayed as 16
/// lowercase hex digits.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TermDigest(pub u64);

impl TermDigest {
    /// The digest of a term.
    pub fn of_term(t: &Term) -> Self {
        let mut d = DigestBuilder::new();
        d.write_u64(WIRE_VERSION as u64);
        d.write_u64(t.structural_hash());
        TermDigest(d.finish())
    }

    /// Parses the 16-hex-digit form produced by `Display`.
    pub fn from_hex(s: &str) -> Option<Self> {
        if s.len() != 16 {
            return None;
        }
        u64::from_str_radix(s, 16).ok().map(TermDigest)
    }
}

impl fmt::Display for TermDigest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

/// An incremental FNV-1a digest over length-prefixed fields.
///
/// Used to derive composite digests (configurations, declarations) from
/// strings and term digests. Every variable-length field is written with a
/// length prefix, so `("ab","c")` and `("a","bc")` digest differently.
#[derive(Clone, Debug)]
pub struct DigestBuilder(u64);

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

impl DigestBuilder {
    pub fn new() -> Self {
        DigestBuilder(FNV_OFFSET)
    }

    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
    }

    pub fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    /// Writes a length-prefixed string.
    pub fn write_str(&mut self, s: &str) {
        self.write_u64(s.len() as u64);
        self.write(s.as_bytes());
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for DigestBuilder {
    fn default() -> Self {
        DigestBuilder::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_hex_roundtrip() {
        let d = TermDigest(0x0123_4567_89ab_cdef);
        assert_eq!(d.to_string(), "0123456789abcdef");
        assert_eq!(TermDigest::from_hex(&d.to_string()), Some(d));
        assert_eq!(TermDigest::from_hex("xyz"), None);
        assert_eq!(TermDigest::from_hex("123"), None);
    }

    #[test]
    fn digest_builder_length_prefixing_separates_fields() {
        let mut a = DigestBuilder::new();
        a.write_str("ab");
        a.write_str("c");
        let mut b = DigestBuilder::new();
        b.write_str("a");
        b.write_str("bc");
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn term_digest_is_stable_for_equal_terms() {
        use pumpkin_kernel::term::Term;
        let a = Term::lambda("x", Term::ind("nat"), Term::rel(0));
        let b = Term::lambda("y", Term::ind("nat"), Term::rel(0));
        // Alpha-equivalent terms share a structural hash, hence a digest.
        assert_eq!(TermDigest::of_term(&a), TermDigest::of_term(&b));
        assert_ne!(
            TermDigest::of_term(&a),
            TermDigest::of_term(&Term::ind("nat"))
        );
    }
}
