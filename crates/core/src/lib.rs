//! # pumpkin-core
//!
//! The heart of the Pumpkin Pi reproduction: the configurable proof term
//! transformation (paper §4), the search procedures for automatic
//! configuration (§3.3), and the repair driver.

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
