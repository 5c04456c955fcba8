//! # pumpkin-core
//!
//! The heart of the Pumpkin Pi reproduction: the configurable proof term
//! transformation (paper §4), the search procedures for automatic
//! configuration (§3.3), and the repair driver.

use std::collections::HashMap;
use std::hash::Hash;

pub mod auto;
pub mod config;
pub mod error;
pub mod incr;
pub mod lift;
pub mod manual;
pub mod minimize;
pub mod persist;
pub mod prov;
pub mod repair;
pub mod repairer;
pub mod schedule;
pub mod search;
pub mod smartelim;

pub use auto::{AutoDriver, AutoPolicy, AutoReport};
pub use config::{Lifting, NameMap};
pub use error::{ErrorClass, RepairError, Result};
pub use incr::{DigestMap, IncrStats};
pub use lift::{lift_term, repair_constant, LiftState, LiftStats};
pub use minimize::Reproducer;
pub use persist::PersistCache;
pub use prov::{ConstProv, ProvRecorder, Rule, TermSite};
pub use pumpkin_kernel::stats::KernelStats;
/// Re-export of the structured tracing/metrics layer (event kinds, sinks,
/// metrics registry), so callers of [`Repairer::sink`] need no separate
/// dependency.
pub use pumpkin_trace as trace;
/// Re-export of the wire serialization layer (term/decl codecs, digests),
/// so persistent-cache and service callers need no separate dependency.
pub use pumpkin_wire as wire;
pub use repair::RepairReport;
pub use repairer::Repairer;
pub use schedule::{CancelToken, ModuleDag, ScheduleStats};

/// Inserts into a process-wide memo, first clearing it whole when it
/// already holds `cap` entries. This is the eviction policy of `auto`'s
/// process-wide failure cache: clearing is simpler than tracking recency,
/// holds a memo to `cap` entries, and costs a dropped key one
/// recomputation on its next miss.
pub(crate) fn insert_capped<K: Eq + Hash, V>(
    memo: &mut HashMap<K, V>,
    cap: usize,
    key: K,
    value: V,
) {
    if memo.len() >= cap {
        memo.clear();
    }
    memo.insert(key, value);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_capped_clears_the_memo_at_its_cap() {
        let mut memo = HashMap::new();
        for k in 0..3 {
            insert_capped(&mut memo, 3, k, k * 10);
        }
        assert_eq!(memo.len(), 3);
        // The fourth distinct key finds the memo full: only it survives.
        insert_capped(&mut memo, 3, 3, 30);
        assert_eq!(memo, HashMap::from([(3, 30)]));
        for k in 0..100 {
            insert_capped(&mut memo, 3, k, k);
            assert!(memo.len() <= 3);
            assert_eq!(memo.get(&k), Some(&k), "the newest entry is kept");
        }
    }
}
