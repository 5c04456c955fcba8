//! Golden-file wire-protocol transcript.
//!
//! Drives a [`Session`] directly (no sockets — framing has its own
//! tests) through a fixed request sequence and compares the full
//! `C:`/`S:` transcript byte-for-byte against
//! `tests/golden/serve_transcript.txt`. Every request opts into
//! `"deterministic": true` where timing would otherwise leak in, so the
//! transcript is stable across runs, machines, and debug/release.
//!
//! Regenerate after an intentional protocol change with
//! `PUMPKIN_UPDATE_GOLDEN=1 cargo test --test serve_protocol`.

use pumpkin_kernel::admission::AdmissionMemo;
use pumpkin_kernel::term::Term;
use pumpkin_serve::Session;
use pumpkin_wire::{term_to_envelope, LiftSpec};

const GOLDEN: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/serve_transcript.txt"
);

fn requests() -> Vec<String> {
    let spec = LiftSpec::swap("Old.list", "New.list", "Old.", "New.").to_value();
    // S (S O) + O — small enough to read, big enough to exercise the
    // digest-verified envelope.
    let two = Term::app(
        Term::construct("nat", 1),
        [Term::app(
            Term::construct("nat", 1),
            [Term::construct("nat", 0)],
        )],
    );
    let sum = Term::app(Term::const_("add"), [two, Term::construct("nat", 0)]);
    vec![
        r#"{"id":1,"method":"ping"}"#.to_string(),
        format!(
            r#"{{"id":2,"method":"repair","params":{{"lifting":{spec},"name":"Old.rev","deterministic":true}}}}"#
        ),
        format!(
            r#"{{"id":3,"method":"repair_module","params":{{"lifting":{spec},"names":["Old.rev","Old.app","Old.rev_involutive"],"deterministic":true}}}}"#
        ),
        format!(r#"{{"id":4,"method":"explain","params":{{"lifting":{spec},"name":"Old.rev"}}}}"#),
        format!(
            r#"{{"id":6,"method":"eval","params":{{"term":{}}}}}"#,
            term_to_envelope(&sum)
        ),
        // One frame, several repairs: each results entry must be the
        // byte-identical standalone reply with a null id.
        format!(
            r#"{{"id":8,"method":"repair_batch","params":{{"lifting":{spec},"batch":[{{"name":"Old.rev","deterministic":true}},{{"names":["Old.app","Old.rev_involutive"],"deterministic":true}}]}}}}"#
        ),
        // Error paths are part of the protocol surface too.
        r#"{"id":9,"method":"repair_batch","params":{"batch":[]}}"#.to_string(),
        r#"{"id":10,"method":"repair","params":{"name":"Old.rev"}}"#.to_string(),
        r#"{"id":11,"method":"no_such_method"}"#.to_string(),
        r#"not json"#.to_string(),
        // The automatic search: a clean work list is accepted by the
        // first checked candidate, and the reply embeds the AutoReport
        // wire block (deterministic mode zeroes every cost).
        format!(
            r#"{{"id":12,"method":"repair_auto","params":{{"lifting":{spec},"names":["Old.rev"],"deterministic":true}}}}"#
        ),
        // A name collision no candidate can repair. Cache probing off:
        // the whole enumeration runs and every failure is recorded
        // process-wide; the error reply carries the full accounting as
        // structured data.
        format!(
            r#"{{"id":13,"method":"repair_auto","params":{{"lifting":{spec},"source":"Definition New.transcript_clash : nat := O.\nDefinition Old.transcript_clash : forall (T : Type 1), Old.list T -> Old.list T := fun (T : Type 1) (l : Old.list T) => l.","failure_cache":false,"minimize":false,"deterministic":true}}}}"#
        ),
        // The same module with cache probing on: the failures recorded by
        // the previous request skip the entire enumeration (tried=0) —
        // deterministic because the record always precedes the probe
        // within one transcript.
        format!(
            r#"{{"id":14,"method":"repair_auto","params":{{"lifting":{spec},"source":"Definition New.transcript_clash : nat := O.\nDefinition Old.transcript_clash : forall (T : Type 1), Old.list T -> Old.list T := fun (T : Type 1) (l : Old.list T) => l.","minimize":false,"deterministic":true}}}}"#
        ),
        // A bare session records no latency (that is the server layer's
        // job), so this reply is deterministic: empty method map, zeroed
        // totals, and only deterministic gauge traffic — the lift gauges
        // sum the typed reports above.
        r#"{"id":15,"method":"stats"}"#.to_string(),
        r#"{"id":16,"method":"shutdown"}"#.to_string(),
    ]
}

fn transcript() -> String {
    // A private admission memo: the transcript's `kernel_admission_hits`
    // counts this session's own re-admissions, whatever other tests in
    // the process had the kernel accept first.
    let mut base = pumpkin_stdlib::std_env();
    base.set_admission_memo(Some(AdmissionMemo::new()));
    let mut session = Session::new(base, None);
    let mut out = String::new();
    for line in requests() {
        let (reply, _) = session.handle_line(&line);
        out.push_str("C: ");
        out.push_str(&line);
        out.push('\n');
        out.push_str("S: ");
        out.push_str(&reply);
        out.push('\n');
    }
    out
}

#[test]
fn transcript_matches_golden_file() {
    let got = transcript();
    if std::env::var_os("PUMPKIN_UPDATE_GOLDEN").is_some() {
        std::fs::write(GOLDEN, &got).expect("write golden");
        return;
    }
    let want = std::fs::read_to_string(GOLDEN).unwrap_or_else(|e| {
        panic!(
            "cannot read {GOLDEN}: {e}\n\
             (run once with PUMPKIN_UPDATE_GOLDEN=1 to create it)"
        )
    });
    if got != want {
        for (i, (g, w)) in got.lines().zip(want.lines()).enumerate() {
            if g != w {
                panic!(
                    "transcript diverges from golden at line {}:\n got: {g}\nwant: {w}\n\
                     (PUMPKIN_UPDATE_GOLDEN=1 regenerates after intentional changes)",
                    i + 1
                );
            }
        }
        panic!(
            "transcript length changed: got {} lines, want {}",
            got.lines().count(),
            want.lines().count()
        );
    }
}

/// The transcript is a pure function of the request list — two sessions
/// in the same process agree byte for byte.
#[test]
fn transcript_is_reproducible_within_a_process() {
    assert_eq!(transcript(), transcript());
}
