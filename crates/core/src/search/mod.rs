//! Search procedures for automatic configuration (paper §3.3): each
//! submodule discovers the configuration for one class of equivalences and
//! generates + checks the equivalence proofs (Fig. 3). [`configure`]
//! picks the procedure a [`LiftSpec`] names.

use pumpkin_kernel::env::Env;
use pumpkin_kernel::name::GlobalName;
use pumpkin_wire::LiftSpec;

use crate::config::{Lifting, NameMap};

pub mod factor;
pub mod ornament;
pub mod swap;
pub mod tuple_record;
pub mod unpack;

/// Runs the procedure `spec.kind` names against `env`, renaming by
/// `spec.rename`: `swap`, `factor` (constructors factored through `bool`),
/// `ornament` (lists to vectors; `a` and `b` are ignored), `bin` (the
/// manual `nat` to `N` configuration; `a` and `b` are ignored) or
/// `records` (the connection tuple to its record).
///
/// # Errors
///
/// The procedure's error, rendered, or `unknown lifting kind` for any
/// other kind.
pub fn configure(env: &mut Env, spec: &LiftSpec) -> Result<Lifting, String> {
    let names = NameMap::from_rules(&spec.rename);
    let a = GlobalName::new(spec.a.as_str());
    let b = GlobalName::new(spec.b.as_str());
    match spec.kind.as_str() {
        "swap" => swap::configure(env, &a, &b, names),
        "factor" => factor::configure_with(env, &a, &b, [0, 1], names),
        "ornament" => ornament::configure(env, names),
        "bin" => crate::manual::configure_nat_to_bin(env, names),
        "records" => {
            let projs = tuple_record::connection_projs();
            tuple_record::configure_to_record(env, &a, &b, &projs, names)
        }
        other => return Err(format!("unknown lifting kind `{other}`")),
    }
    .map_err(|e| e.to_string())
}
