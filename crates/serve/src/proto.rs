//! NDJSON-RPC framing for pumpkind.
//!
//! One request per line, one reply per line; both are single JSON
//! objects. A request is `{"id": …, "method": "…", "params": {…}}`; a
//! reply is `{"id": …, "ok": true, "result": {…}}` or
//! `{"id": …, "ok": false, "error": {"code": "…", "message": "…"}}`.
//! Malformed input gets a structured error reply (with `id: null` when
//! the id could not be recovered) and the connection stays usable —
//! except after a truncated frame (EOF mid-line), where there is nothing
//! left to read.
//!
//! Frames are hard-capped at [`MAX_FRAME`] bytes. An oversized line is
//! drained to its newline (bounded memory — the excess is discarded
//! buffer by buffer, never accumulated) and answered with
//! [`code::OVERSIZED`].

use std::io::{self, BufRead, Read};

use pumpkin_wire::Value;

/// Protocol version announced by `ping` (independent of the wire format
/// version embedded in term envelopes).
pub const PROTO_VERSION: u32 = 1;

/// Hard cap on a single request line, in bytes (newline included).
pub const MAX_FRAME: usize = 1 << 20;

/// Machine-readable error codes carried in `error.code`.
pub mod code {
    /// The line is not valid JSON or not a request object.
    pub const PARSE: &str = "parse";
    /// The line exceeded [`super::MAX_FRAME`] bytes.
    pub const OVERSIZED: &str = "oversized_frame";
    /// The connection closed mid-line (no trailing newline).
    pub const TRUNCATED: &str = "truncated_frame";
    /// `method` names nothing the daemon serves.
    pub const UNKNOWN_METHOD: &str = "unknown_method";
    /// `params` is missing a field or holds the wrong shape.
    pub const BAD_PARAMS: &str = "bad_params";
    /// A term envelope's content digest did not verify.
    pub const BAD_DIGEST: &str = "bad_digest";
    /// Admission refused — the session cap is reached or the worker
    /// pool's bounded queue is full; retry later.
    pub const BUSY: &str = "busy";
    /// The request's deadline elapsed; the constants completed before it
    /// were discarded with the session's throwaway environment.
    pub const DEADLINE: &str = "deadline";
    /// The repair itself failed (configuration, unification, kernel).
    pub const REPAIR_FAILED: &str = "repair_failed";
    /// Every candidate configuration of a `repair_auto` search failed;
    /// `data` carries the structured accounting,
    /// [`AutoReport::to_value`](pumpkin_core::AutoReport::to_value)
    /// (including the minimized reproducer, when one was computed).
    pub const AUTO_EXHAUSTED: &str = "auto_exhausted";
    /// The server is draining after a `shutdown`.
    pub const SHUTTING_DOWN: &str = "shutting_down";
    /// The request ran past a resource limit. Today that limit is the
    /// depth of an `eval` normal form: a term nested deeper than
    /// [`MAX_DEPTH`](pumpkin_core::trace::json::MAX_DEPTH) would be
    /// refused by the client's wire decoder, so the daemon sends this
    /// error instead.
    pub const BUDGET_EXCEEDED: &str = "budget_exceeded";

    /// Every code the server can put in `error.code`, in declaration
    /// order. Clients map these to exit statuses; the audit test in the
    /// CLI diffs its map against this list so a new server code cannot
    /// ship without a distinct client exit status.
    pub const ALL: &[&str] = &[
        PARSE,
        OVERSIZED,
        TRUNCATED,
        UNKNOWN_METHOD,
        BAD_PARAMS,
        BAD_DIGEST,
        BUSY,
        DEADLINE,
        REPAIR_FAILED,
        AUTO_EXHAUSTED,
        SHUTTING_DOWN,
        BUDGET_EXCEEDED,
    ];
}

/// A parsed request frame.
#[derive(Clone, Debug)]
pub struct Request {
    /// Echoed verbatim into the reply (null when absent).
    pub id: Value,
    pub method: String,
    /// Null when absent; methods validate their own shapes.
    pub params: Value,
}

/// Parses one request line.
///
/// # Errors
///
/// Returns a human-readable message (for a [`code::PARSE`] reply) when
/// the line is not a JSON object with a string `method`.
pub fn parse_request(line: &str) -> Result<Request, String> {
    let v = Value::parse(line).map_err(|e| e.to_string())?;
    if v.as_obj().is_none() {
        return Err("request must be a JSON object".into());
    }
    let method = v
        .get("method")
        .and_then(Value::as_str)
        .ok_or("request needs a string `method`")?
        .to_string();
    let id = v.get("id").cloned().unwrap_or(Value::Null);
    let params = v.get("params").cloned().unwrap_or(Value::Null);
    Ok(Request { id, method, params })
}

/// Builds a success reply as a [`Value`] (the `repair_batch` reply embeds
/// these per item, so batch entries are byte-identical to single replies).
pub fn ok_reply_value(id: &Value, result: Value) -> Value {
    Value::Obj(vec![
        ("id".into(), id.clone()),
        ("ok".into(), Value::Bool(true)),
        ("result".into(), result),
    ])
}

/// Builds an error reply as a [`Value`] (see [`ok_reply_value`]).
pub fn err_reply_value(id: &Value, code: &str, message: &str) -> Value {
    Value::Obj(vec![
        ("id".into(), id.clone()),
        ("ok".into(), Value::Bool(false)),
        (
            "error".into(),
            Value::Obj(vec![
                ("code".into(), Value::str(code)),
                ("message".into(), Value::str(message)),
            ]),
        ),
    ])
}

/// Builds an error reply with a machine-readable `data` detail string —
/// used where one code covers distinct causes (both admission layers
/// reply [`code::BUSY`]; `data` says `"queue_full"` vs `"session_cap"`).
pub fn err_reply_value_detail(id: &Value, code: &str, message: &str, data: &str) -> Value {
    Value::Obj(vec![
        ("id".into(), id.clone()),
        ("ok".into(), Value::Bool(false)),
        (
            "error".into(),
            Value::Obj(vec![
                ("code".into(), Value::str(code)),
                ("message".into(), Value::str(message)),
                ("data".into(), Value::str(data)),
            ]),
        ),
    ])
}

/// Builds an error reply whose `data` is a structured JSON value — used
/// where the error carries machine-readable accounting (a `repair_auto`
/// exhaustion reply embeds the full `AutoReport` object, reproducer
/// included).
pub fn err_reply_value_data(id: &Value, code: &str, message: &str, data: Value) -> Value {
    Value::Obj(vec![
        ("id".into(), id.clone()),
        ("ok".into(), Value::Bool(false)),
        (
            "error".into(),
            Value::Obj(vec![
                ("code".into(), Value::str(code)),
                ("message".into(), Value::str(message)),
                ("data".into(), data),
            ]),
        ),
    ])
}

/// Stamps a lifecycle request id into a reply envelope, as `"req_id"`
/// immediately after `"id"` (or at the front when `"id"` is absent —
/// which [`ok_reply_value`]/[`err_reply_value`] never produce). Batch
/// *entries* are deliberately not stamped: only top-level frames carry a
/// lifecycle id, so batch entries stay byte-identical to the per-RPC
/// results they embed.
pub fn stamp_req_id(reply: &mut Value, req_id: u64) {
    if let Value::Obj(fields) = reply {
        let at = fields
            .iter()
            .position(|(k, _)| k == "id")
            .map_or(0, |i| i + 1);
        fields.insert(at, ("req_id".into(), Value::UInt(req_id)));
    }
}

/// Builds a success reply line (no trailing newline).
pub fn ok_reply(id: &Value, result: Value) -> String {
    ok_reply_value(id, result).to_string()
}

/// Builds an error reply line (no trailing newline).
pub fn err_reply(id: &Value, code: &str, message: &str) -> String {
    err_reply_value(id, code, message).to_string()
}

/// One framing step's outcome.
#[derive(Debug)]
pub enum Frame {
    /// A complete line (newline stripped).
    Line(Vec<u8>),
    /// The line blew the [`MAX_FRAME`] cap; the excess was drained, so
    /// the next read starts on a fresh frame.
    Oversized,
    /// EOF mid-line: bytes arrived but the newline never did.
    Truncated,
    /// Clean end of stream.
    Eof,
}

/// Reads one frame with bounded memory.
///
/// # Errors
///
/// Propagates I/O errors from the underlying reader.
pub fn read_frame(r: &mut impl BufRead) -> io::Result<Frame> {
    let mut buf = Vec::new();
    r.by_ref()
        .take(MAX_FRAME as u64)
        .read_until(b'\n', &mut buf)?;
    if buf.last() == Some(&b'\n') {
        buf.pop();
        if buf.last() == Some(&b'\r') {
            buf.pop();
        }
        return Ok(Frame::Line(buf));
    }
    if buf.is_empty() {
        return Ok(Frame::Eof);
    }
    if buf.len() < MAX_FRAME {
        return Ok(Frame::Truncated);
    }
    // Cap hit: discard the rest of the line buffer-by-buffer.
    loop {
        let chunk = r.fill_buf()?;
        if chunk.is_empty() {
            // EOF while draining still counts as oversized — the frame
            // was over budget either way.
            return Ok(Frame::Oversized);
        }
        match chunk.iter().position(|&b| b == b'\n') {
            Some(pos) => {
                r.consume(pos + 1);
                return Ok(Frame::Oversized);
            }
            None => {
                let n = chunk.len();
                r.consume(n);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_well_formed_requests() {
        let r = parse_request(r#"{"id":7,"method":"ping","params":{"x":1}}"#).unwrap();
        assert_eq!(r.id, Value::UInt(7));
        assert_eq!(r.method, "ping");
        assert_eq!(r.params.get("x"), Some(&Value::UInt(1)));
        // id and params are optional.
        let r = parse_request(r#"{"method":"ping"}"#).unwrap();
        assert!(r.id.is_null());
        assert!(r.params.is_null());
    }

    #[test]
    fn rejects_malformed_requests() {
        assert!(parse_request("not json").is_err());
        assert!(parse_request("[1,2]").is_err());
        assert!(parse_request(r#"{"id":1}"#).is_err());
        assert!(parse_request(r#"{"method":7}"#).is_err());
    }

    #[test]
    fn reply_builders_emit_the_envelope() {
        assert_eq!(
            ok_reply(
                &Value::UInt(1),
                Value::Obj(vec![("pong".into(), Value::Bool(true))])
            ),
            r#"{"id":1,"ok":true,"result":{"pong":true}}"#
        );
        assert_eq!(
            err_reply(&Value::Null, code::PARSE, "bad"),
            r#"{"id":null,"ok":false,"error":{"code":"parse","message":"bad"}}"#
        );
    }

    #[test]
    fn detail_replies_carry_data_and_req_id_lands_after_id() {
        let mut reply = err_reply_value_detail(&Value::UInt(3), code::BUSY, "full", "queue_full");
        assert_eq!(
            reply.to_string(),
            r#"{"id":3,"ok":false,"error":{"code":"busy","message":"full","data":"queue_full"}}"#
        );
        stamp_req_id(&mut reply, 41);
        assert_eq!(
            reply.to_string(),
            r#"{"id":3,"req_id":41,"ok":false,"error":{"code":"busy","message":"full","data":"queue_full"}}"#
        );
        let mut ok = ok_reply_value(&Value::Null, Value::Obj(vec![]));
        stamp_req_id(&mut ok, 1);
        assert_eq!(
            ok.to_string(),
            r#"{"id":null,"req_id":1,"ok":true,"result":{}}"#
        );
    }

    #[test]
    fn frames_split_on_newlines() {
        let mut r = io::BufReader::new(&b"alpha\nbeta\r\n"[..]);
        assert!(matches!(read_frame(&mut r).unwrap(), Frame::Line(l) if l == b"alpha"));
        assert!(matches!(read_frame(&mut r).unwrap(), Frame::Line(l) if l == b"beta"));
        assert!(matches!(read_frame(&mut r).unwrap(), Frame::Eof));
    }

    #[test]
    fn truncated_and_oversized_frames_are_classified() {
        let mut r = io::BufReader::new(&b"no newline"[..]);
        assert!(matches!(read_frame(&mut r).unwrap(), Frame::Truncated));

        let mut big = vec![b'x'; MAX_FRAME + 100];
        big.push(b'\n');
        big.extend_from_slice(b"after\n");
        let mut r = io::BufReader::new(&big[..]);
        assert!(matches!(read_frame(&mut r).unwrap(), Frame::Oversized));
        // The connection survives: the next frame reads cleanly.
        assert!(matches!(read_frame(&mut r).unwrap(), Frame::Line(l) if l == b"after"));
    }
}
