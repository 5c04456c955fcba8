//! The `pumpkin` binary's flag grammar: every verb, and the bare script
//! runner, refuses an unknown flag the same way — exit status 1, the
//! argument named on stderr, then the usage text — before it reads a
//! file, binds a socket or connects anywhere.

use std::process::Command;

#[test]
fn every_verb_refuses_an_unknown_flag() {
    for line in [
        "--bogus script.pi",
        "script.pi --bogus",
        "trace-report --bogus x.jsonl",
        "serve --bogus",
        "client --bogus --connect 127.0.0.1:1 ping",
        "client --connect 127.0.0.1:1 ping --bogus",
        "client --connect 127.0.0.1:1 stats --json --bogus",
        "client --connect 127.0.0.1:1 repair-module --bogus",
        "client --connect 127.0.0.1:1 call ping {} --bogus",
        "top --bogus",
        "watch --bogus m.pi",
        "auto --bogus m.pi",
        "loadgen --bogus",
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_pumpkin"))
            .args(line.split_whitespace())
            .output()
            .expect("spawn pumpkin");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{line}: {stderr}");
        assert!(
            stderr.starts_with("unexpected argument `--bogus`\nusage: pumpkin"),
            "{line}: {stderr}"
        );
        assert!(out.stdout.is_empty(), "{line} printed to stdout");
    }
}
