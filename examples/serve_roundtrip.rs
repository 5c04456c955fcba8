//! Round-trip against a live pumpkind: start the daemon in-process,
//! repair a module over the wire, ask it to explain one repair, read its
//! lift gauges from `stats`, then shut it down gracefully.
//!
//! The same protocol works against an external daemon — swap the
//! in-process server for `pumpkin serve --listen 127.0.0.1:7717` and
//! point [`Client::connect`] at it.
//!
//! Run with `cargo run --example serve_roundtrip`.

use pumpkin_serve::{Client, Server, ServerConfig};
use pumpkin_wire::{LiftSpec, Value};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A throwaway daemon on a kernel-assigned port, two workers.
    let server = Server::bind(ServerConfig::default())?;
    let addr = server.local_addr()?.to_string();
    let daemon = std::thread::spawn(move || server.run());
    println!("pumpkind listening on {addr}\n");

    let mut client = Client::connect(&addr)?;
    let pong = client.call("ping", Value::Obj(vec![]))?;
    println!("ping -> {pong}\n");

    // Repair the whole Old.* list module across the constructor swap.
    let spec = LiftSpec::swap("Old.list", "New.list", "Old.", "New.");
    let names: Vec<Value> = pumpkin_stdlib::swap::OLD_MODULE_CONSTANTS
        .iter()
        .map(|n| Value::str(*n))
        .collect();
    println!(
        "== repair_module: {} constants across the swap ==",
        names.len()
    );
    let result = client.call(
        "repair_module",
        Value::Obj(vec![
            ("lifting".into(), spec.to_value()),
            ("names".into(), Value::Arr(names)),
        ]),
    )?;
    let report = result.get("report").expect("reply carries a report");
    if let Some(Value::Arr(pairs)) = report.get("repaired") {
        for pair in pairs {
            if let Value::Arr(p) = pair {
                println!(
                    "  repaired {} -> {}",
                    p[0].as_str().unwrap_or("?"),
                    p[1].as_str().unwrap_or("?")
                );
            }
        }
    }
    let stat = |k: &str| report.get(k).and_then(Value::as_u64).unwrap_or(0);
    println!(
        "  schedule: {} waves, max width {}; lift cache {} hits / {} misses; {:.2} ms\n",
        stat("waves"),
        stat("max_width"),
        stat("cache_hits"),
        stat("cache_misses"),
        stat("wall_ns") as f64 / 1e6,
    );

    // Ask the daemon why one of those repairs looks the way it does.
    println!("== explain: Old.rev across the swap ==");
    let result = client.call(
        "explain",
        Value::Obj(vec![
            ("lifting".into(), spec.to_value()),
            ("name".into(), Value::str("Old.rev")),
        ]),
    )?;
    if let Some(text) = result.get("explanation").and_then(Value::as_str) {
        println!("{text}");
    }

    // The daemon's lift gauges: sums over every repair its workers ran.
    let stats = client.call("stats", Value::Obj(vec![]))?;
    println!("== daemon lift gauges ==");
    for name in ["lift_constants", "lift_cache_hits", "lift_cache_misses"] {
        let value = stats
            .get("gauges")
            .and_then(|g| g.get(name))
            .and_then(Value::as_u64)
            .unwrap_or(0);
        println!("{name:<18} {value}");
    }

    let reply = client.call("shutdown", Value::Obj(vec![]))?;
    println!("shutdown -> {reply}");
    daemon.join().expect("daemon thread")?;
    println!("daemon drained cleanly");
    Ok(())
}
