//! Structured observability, end to end: repair the whole swap-list module
//! through the [`pumpkin_core::Repairer`] front door with trace capture on,
//! then show the three views of the same event stream — the JSON-lines wire
//! form (what `pumpkin --trace out.jsonl` writes), the derived
//! counter/histogram metrics, and the flamegraph-style lift summary.
//!
//! Run with `cargo run --example trace_repair`.

use pumpkin_pi::*;

fn main() -> pumpkin_core::Result<()> {
    let mut env = pumpkin_stdlib::std_env();
    let lifting = pumpkin_core::search::swap::configure(
        &mut env,
        &"Old.list".into(),
        &"New.list".into(),
        pumpkin_core::NameMap::prefix("Old.", "New."),
    )?;

    let report = pumpkin_core::Repairer::new(&lifting)
        .trace(true)
        .run(&mut env, pumpkin_stdlib::swap::OLD_MODULE_CONSTANTS)?;

    println!(
        "repaired {} constants (DAG of {} waves)\n",
        report.repaired.len(),
        report.schedule.waves
    );

    println!("=== first 10 JSON-lines events (full stream: --trace out.jsonl) ===");
    for e in report.trace_events().iter().take(10) {
        println!("{}", e.to_json());
    }
    println!("… {} events total\n", report.trace_events().len());

    println!("=== metrics registry ===");
    print!("{}", report.metrics().to_text());

    println!("\n=== lift summary ===");
    print!("{}", report.trace_summary());
    Ok(())
}
