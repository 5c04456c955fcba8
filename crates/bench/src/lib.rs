//! Benchmark support library for pumpkin-pi-rs.

use pumpkin_kernel::env::Env;

/// The standard library without an admission memo. Every bench row that
/// repeats one repair starts from this, so each iteration's kernel checks
/// what it declares, as in a fresh process; the process-wide memo that
/// `std_env()` carries would admit what the first iteration checked.
pub fn kernel_cold_std_env() -> Env {
    let mut env = pumpkin_stdlib::std_env();
    env.set_admission_memo(None);
    env
}
