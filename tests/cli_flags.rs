//! The `pumpkin` binary's flag grammar: every verb, and the bare script
//! runner, refuses an unknown flag the same way — exit status 1, the
//! argument named on stderr, then the usage text — before it reads a
//! file, binds a socket or connects anywhere. A file a flag or verb
//! names that cannot be written (`--trace`) or read (`watch`) fails the
//! run with exit status 1.

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

#[test]
fn a_trace_that_cannot_be_written_fails_the_run() {
    // `/dev/full` accepts the open and fails every write.
    if !std::path::Path::new("/dev/full").exists() {
        return;
    }
    let out = Command::new(env!("CARGO_BIN_EXE_pumpkin"))
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .args(["--trace", "/dev/full", "examples/scripts/swap.pi"])
        .output()
        .expect("spawn pumpkin");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("cannot write the trace"), "{stderr}");
    assert!(!stdout.contains("trace written"), "{stdout}");
}

#[test]
fn watch_refuses_a_file_it_cannot_read() {
    let missing = std::env::temp_dir()
        .join(format!("pumpkin-watch-missing-{}", std::process::id()))
        .join("m.pi");
    let mut child = Command::new(env!("CARGO_BIN_EXE_pumpkin"))
        .args(["watch", "--poll-ms", "100"])
        .arg(&missing)
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("spawn pumpkin");
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
    let status = loop {
        if let Some(status) = child.try_wait().expect("poll pumpkin") {
            break status;
        }
        if std::time::Instant::now() > deadline {
            let _ = child.kill();
            let _ = child.wait();
            panic!("watch kept polling a file that does not exist");
        }
        std::thread::sleep(std::time::Duration::from_millis(50));
    };
    let mut stderr = String::new();
    std::io::Read::read_to_string(&mut child.stderr.take().expect("piped"), &mut stderr)
        .expect("read stderr");
    assert_eq!(status.code(), Some(1), "{stderr}");
    assert!(
        stderr.starts_with(&format!("cannot read {}: ", missing.display())),
        "{stderr}"
    );
}
