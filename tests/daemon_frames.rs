//! Hostile frames against a real `pumpkin serve` child process.
//!
//! A stack overflow aborts the whole process, so these tests run the
//! daemon as a child: an abort or a hang fails the test (through socket
//! timeouts and the child's exit status) instead of killing the test
//! binary.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::process::{Child, Command, Stdio};
use std::time::Duration;

use pumpkin_kernel::term::Term;
use pumpkin_serve::proto::MAX_FRAME;
use pumpkin_wire::{term_from_envelope, term_to_envelope, LiftSpec, Value};

/// A `pumpkin serve` child on a free loopback port, killed on drop.
struct Daemon {
    child: Child,
    addr: String,
}

impl Daemon {
    fn spawn() -> Daemon {
        let mut child = Command::new(env!("CARGO_BIN_EXE_pumpkin"))
            .args(["serve", "--listen", "127.0.0.1:0"])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .expect("spawn pumpkin serve");
        let mut line = String::new();
        BufReader::new(child.stdout.take().expect("piped stdout"))
            .read_line(&mut line)
            .expect("read the listening line");
        let addr = line
            .trim()
            .strip_prefix("pumpkind listening on ")
            .unwrap_or_else(|| panic!("unexpected first line: {line:?}"))
            .to_string();
        Daemon { child, addr }
    }

    /// Sends one frame on a fresh connection and reads one reply line.
    /// Panics (failing the test) if the daemon closes the connection or
    /// does not answer within the timeout.
    fn call(&mut self, frame: &str) -> Value {
        let stream = TcpStream::connect(&self.addr).expect("connect");
        let timeout = Some(Duration::from_secs(120));
        stream.set_read_timeout(timeout).unwrap();
        stream.set_write_timeout(timeout).unwrap();
        let mut writer = stream.try_clone().unwrap();
        writer.write_all(frame.as_bytes()).unwrap();
        writer.write_all(b"\n").unwrap();
        let mut reply = String::new();
        let read = BufReader::new(stream).read_line(&mut reply);
        if !matches!(read, Ok(n) if n > 0) {
            let status = self.child.try_wait().ok().flatten();
            panic!("no reply ({read:?}); daemon exit status: {status:?}");
        }
        Value::parse(&reply).unwrap_or_else(|e| panic!("unparseable reply ({e}): {reply}"))
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

#[test]
fn deeply_nested_source_gets_an_error_and_the_daemon_lives() {
    let mut daemon = Daemon::spawn();
    let depth = 2_000;
    let source = format!(
        "Definition Old.deep : nat := {}O{}.",
        "S (".repeat(depth),
        ")".repeat(depth)
    );
    let spec = LiftSpec::swap("Old.list", "New.list", "Old.", "New.").to_value();
    let frame = Value::Obj(vec![
        ("id".into(), Value::UInt(1)),
        ("method".into(), Value::str("repair_auto")),
        (
            "params".into(),
            Value::Obj(vec![
                ("lifting".into(), spec),
                ("source".into(), Value::str(&source)),
                ("names".into(), Value::Arr(vec![Value::str("Old.deep")])),
            ]),
        ),
    ])
    .to_string();
    let reply = daemon.call(&frame);
    assert_eq!(reply.get("ok"), Some(&Value::Bool(false)), "{reply:?}");
    let error = reply.get("error").expect("structured error");
    assert_eq!(
        error.get("code").and_then(Value::as_str),
        Some("auto_exhausted"),
        "{reply:?}"
    );
    let candidates = error
        .get("data")
        .and_then(|d| d.get("candidates"))
        .and_then(Value::as_arr)
        .expect("candidate accounting");
    assert!(!candidates.is_empty());
    for c in candidates {
        assert_eq!(
            c.as_arr().and_then(|row| row[2].as_str()),
            Some("lang"),
            "{c:?}"
        );
    }
    let pong = daemon.call(r#"{"id":2,"method":"ping"}"#);
    assert_eq!(
        pong.get("result").and_then(|r| r.get("pong")),
        Some(&Value::Bool(true)),
        "{pong:?}"
    );
}

/// An `eval` request frame for `term`, a JSON envelope.
fn eval_frame(id: u64, term: Value) -> String {
    Value::Obj(vec![
        ("id".into(), Value::UInt(id)),
        ("method".into(), Value::str("eval")),
        ("params".into(), Value::Obj(vec![("term".into(), term)])),
    ])
    .to_string()
}

#[test]
fn deeply_nested_eval_frame_gets_an_error_and_the_daemon_lives() {
    // A node table 50 000 lambdas deep: `Set`, then each node binds the
    // one before it. The frame is flat JSON well under the frame cap, so
    // only the wire decoder's depth cap stands between it and the kernel.
    let depth = 50_000;
    let mut nodes = String::from("[[2]");
    for k in 0..depth {
        nodes.push_str(&format!(",[8,null,0,{k}]"));
    }
    nodes.push(']');
    let envelope = Value::parse(&format!(
        r#"{{"wire":"{}","digest":"0000000000000000","nodes":{nodes}}}"#,
        pumpkin_wire::WIRE_TAG
    ))
    .unwrap();
    let frame = eval_frame(1, envelope);
    assert!(frame.len() < MAX_FRAME, "{} bytes", frame.len());

    let mut daemon = Daemon::spawn();
    let reply = daemon.call(&frame);
    assert_eq!(reply.get("ok"), Some(&Value::Bool(false)), "{reply:?}");
    let error = reply.get("error").expect("structured error");
    assert_eq!(
        error.get("code").and_then(Value::as_str),
        Some("bad_params"),
        "{reply:?}"
    );
    let message = error.get("message").and_then(Value::as_str).unwrap();
    assert!(message.contains("deeper than 512"), "{message}");
    let pong = daemon.call(r#"{"id":2,"method":"ping"}"#);
    assert_eq!(
        pong.get("result").and_then(|r| r.get("pong")),
        Some(&Value::Bool(true)),
        "{pong:?}"
    );
}

#[test]
fn eval_at_the_depth_cap_answers() {
    // `S^512 O` and a chain of 512 lambdas nest exactly as deep as the
    // decoder accepts: each type-checks, normalises and pretty-prints on
    // a worker's stack, and its normal form (itself) travels back.
    let numeral = (0..512).fold(Term::construct("nat", 0), |t, _| {
        Term::app(Term::construct("nat", 1), [t])
    });
    let lambdas = (0..512).fold(Term::construct("nat", 0), |t, _| {
        Term::lambda("x", Term::ind("nat"), t)
    });
    let mut daemon = Daemon::spawn();
    for (id, term) in [(1, numeral), (2, lambdas)] {
        let reply = daemon.call(&eval_frame(id, term_to_envelope(&term)));
        assert_eq!(reply.get("ok"), Some(&Value::Bool(true)), "{reply:?}");
        let normal = reply.get("result").and_then(|r| r.get("term")).unwrap();
        assert_eq!(term_from_envelope(normal), Ok(term));
    }
}
