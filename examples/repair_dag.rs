//! Prints the constant-level dependency DAG of the swap-list module repair
//! as Graphviz DOT, so the module's wave structure is inspectable
//! (`cargo run --example repair_dag | dot -Tsvg > dag.svg`).
//!
//! Nodes are grouped `rank=same` per wave; edges point dependency →
//! dependent. The DAG summary (waves and their widths) goes to stderr so
//! stdout stays valid DOT.

use pumpkin_pi::*;

fn main() -> pumpkin_core::Result<()> {
    let mut env = pumpkin_stdlib::std_env();
    let report = case_studies::swap_list_module(&mut env)?;
    eprintln!("dag: {}", report.schedule);
    eprintln!(
        "{} constants repaired, DAG of {} waves",
        report.repaired.len(),
        report.schedule.waves
    );
    print!("{}", report.dag_dot());
    Ok(())
}
