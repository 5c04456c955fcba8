//! Errors for the repair engine.

use std::fmt;

use pumpkin_kernel::error::KernelError;
use pumpkin_kernel::name::GlobalName;
use pumpkin_kernel::term::Term;

/// Errors produced while configuring or running a repair.
#[derive(Clone, Debug)]
pub enum RepairError {
    /// The kernel rejected a generated term — a bug in a configuration or a
    /// violation of the correctness criteria (paper Fig. 12).
    Kernel(KernelError),
    /// The surface language rejected an embedded source snippet.
    Lang(String),
    /// A search procedure could not discover a configuration.
    SearchFailed {
        from: GlobalName,
        to: GlobalName,
        reason: String,
    },
    /// A constructor mapping was invalid (wrong length, not a permutation,
    /// or type-incorrect).
    BadMapping(String),
    /// The requested lifting direction is not supported by this
    /// configuration's unification heuristics (paper §4.2.1: heuristics are
    /// incomplete).
    UnsupportedDirection(String),
    /// The termination guard rejected a self-referential lift
    /// (paper §4.4 "Termination & Intent").
    NonTerminating { constant: GlobalName },
    /// A subterm could not be unified with the configuration and no fallback
    /// applied.
    UnificationFailed { term: Term, reason: String },
    /// A constant that must exist (part of a configuration) is missing.
    MissingDependency(GlobalName),
    /// The repair was cancelled before one of its constants — a deadline
    /// expired or a [`crate::schedule::CancelToken`] fired. The
    /// `completed` work-list constants repaired before it remain installed
    /// in the environment.
    Cancelled { completed: usize },
    /// The persistent lift cache directory could not be opened or written.
    PersistCache(String),
    /// The run's events could not be written to its sink
    /// ([`crate::Repairer::sink`]). The repair itself completed and stays
    /// installed.
    Trace(String),
    /// A repaired constant (or one of its reachable dependencies) still
    /// mentions the source type — the repair is not source-free
    /// (paper §3.2: "the old version of the specification may be removed").
    SourceNotFree {
        /// The constant whose source-freedom was being checked.
        root: GlobalName,
        /// The reachable constant that still mentions the source type.
        constant: GlobalName,
        /// The residual source-type subterm, pretty-printed via `lang`.
        residual: String,
    },
    /// The automatic repair search ([`crate::auto`]) ran out of candidate
    /// configurations without the kernel accepting any repair. Carries the
    /// error class of the default (rank-0) candidate and, when the
    /// minimizer ran, the shrunk reproducer.
    AutoExhausted {
        /// Candidate configurations actually run through the oracle
        /// (skipped-by-cache candidates are not counted here).
        tried: usize,
        /// Error class of the default candidate's failure.
        class: ErrorClass,
        /// The minimized failing sub-module, when [`crate::minimize`] ran.
        reproducer: Option<Box<crate::minimize::Reproducer>>,
    },
}

/// A coarse, stable classification of [`RepairError`]s. The auto driver's
/// process-wide failure cache stores classes (not messages) and the
/// minimizer shrinks modules *preserving* the class — so the taxonomy must
/// be small and total.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ErrorClass {
    /// The kernel rejected a generated term (includes redeclarations).
    Kernel,
    /// The surface language rejected a source snippet.
    Lang,
    /// No configuration could be discovered or the mapping was invalid.
    Search,
    /// The configuration's heuristics could not handle a form.
    Unsupported,
    /// The termination guard tripped.
    NonTerminating,
    /// Unification with the configuration failed.
    Unification,
    /// A required global is missing.
    MissingDependency,
    /// A deadline or cancel token fired.
    Cancelled,
    /// The persistent cache layer failed.
    Cache,
    /// The trace sink could not be written.
    Trace,
    /// The repaired output still mentions the source type.
    SourceNotFree,
    /// The auto search itself was exhausted (nested exhaustion).
    Auto,
}

impl ErrorClass {
    /// Stable wire/trace name.
    pub fn as_str(self) -> &'static str {
        match self {
            ErrorClass::Kernel => "kernel",
            ErrorClass::Lang => "lang",
            ErrorClass::Search => "search",
            ErrorClass::Unsupported => "unsupported",
            ErrorClass::NonTerminating => "non_terminating",
            ErrorClass::Unification => "unification",
            ErrorClass::MissingDependency => "missing_dependency",
            ErrorClass::Cancelled => "cancelled",
            ErrorClass::Cache => "cache",
            ErrorClass::Trace => "trace",
            ErrorClass::SourceNotFree => "source_not_free",
            ErrorClass::Auto => "auto",
        }
    }

    /// Parses a stable name back ([`ErrorClass::as_str`]'s inverse).
    pub fn parse(s: &str) -> Option<Self> {
        Some(match s {
            "kernel" => ErrorClass::Kernel,
            "lang" => ErrorClass::Lang,
            "search" => ErrorClass::Search,
            "unsupported" => ErrorClass::Unsupported,
            "non_terminating" => ErrorClass::NonTerminating,
            "unification" => ErrorClass::Unification,
            "missing_dependency" => ErrorClass::MissingDependency,
            "cancelled" => ErrorClass::Cancelled,
            "cache" => ErrorClass::Cache,
            "trace" => ErrorClass::Trace,
            "source_not_free" => ErrorClass::SourceNotFree,
            "auto" => ErrorClass::Auto,
            _ => return None,
        })
    }
}

impl fmt::Display for ErrorClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl RepairError {
    /// This error's [`ErrorClass`].
    pub fn class(&self) -> ErrorClass {
        match self {
            RepairError::Kernel(_) => ErrorClass::Kernel,
            RepairError::Lang(_) => ErrorClass::Lang,
            RepairError::SearchFailed { .. } | RepairError::BadMapping(_) => ErrorClass::Search,
            RepairError::UnsupportedDirection(_) => ErrorClass::Unsupported,
            RepairError::NonTerminating { .. } => ErrorClass::NonTerminating,
            RepairError::UnificationFailed { .. } => ErrorClass::Unification,
            RepairError::MissingDependency(_) => ErrorClass::MissingDependency,
            RepairError::Cancelled { .. } => ErrorClass::Cancelled,
            RepairError::PersistCache(_) => ErrorClass::Cache,
            RepairError::Trace(_) => ErrorClass::Trace,
            RepairError::SourceNotFree { .. } => ErrorClass::SourceNotFree,
            RepairError::AutoExhausted { .. } => ErrorClass::Auto,
        }
    }
}

impl fmt::Display for RepairError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RepairError::Kernel(e) => write!(f, "kernel: {e}"),
            RepairError::Lang(e) => write!(f, "language: {e}"),
            RepairError::SearchFailed { from, to, reason } => {
                write!(
                    f,
                    "search for a configuration {from} ≃ {to} failed: {reason}"
                )
            }
            RepairError::BadMapping(m) => write!(f, "bad constructor mapping: {m}"),
            RepairError::UnsupportedDirection(m) => {
                write!(f, "unsupported lifting direction: {m}")
            }
            RepairError::NonTerminating { constant } => {
                write!(f, "termination guard tripped while lifting `{constant}`")
            }
            RepairError::UnificationFailed { term, reason } => {
                write!(
                    f,
                    "could not unify `{term}` with the configuration: {reason}"
                )
            }
            RepairError::MissingDependency(n) => {
                write!(f, "configuration depends on missing global `{n}`")
            }
            RepairError::Cancelled { completed } => {
                write!(f, "repair cancelled ({completed} constant(s) completed)")
            }
            RepairError::PersistCache(m) => write!(f, "persistent lift cache: {m}"),
            RepairError::Trace(m) => write!(f, "cannot write the trace: {m}"),
            RepairError::SourceNotFree {
                root,
                constant,
                residual,
            } => {
                if root == constant {
                    write!(
                        f,
                        "`{root}` is not source-free: it still mentions the \
                         source type in `{residual}`"
                    )
                } else {
                    write!(
                        f,
                        "`{root}` is not source-free: its dependency \
                         `{constant}` still mentions the source type in \
                         `{residual}`"
                    )
                }
            }
            RepairError::AutoExhausted {
                tried,
                class,
                reproducer,
            } => {
                write!(
                    f,
                    "automatic repair search exhausted {tried} candidate(s); \
                     default configuration failed with class `{class}`"
                )?;
                if let Some(r) = reproducer {
                    write!(
                        f,
                        "; minimized reproducer: {} of {} constant(s) [{}]",
                        r.names.len(),
                        r.original,
                        r.names.join(", ")
                    )?;
                }
                Ok(())
            }
        }
    }
}

impl std::error::Error for RepairError {}

impl From<KernelError> for RepairError {
    fn from(e: KernelError) -> Self {
        RepairError::Kernel(e)
    }
}

impl From<pumpkin_lang::LangError> for RepairError {
    fn from(e: pumpkin_lang::LangError) -> Self {
        RepairError::Lang(e.to_string())
    }
}

/// The crate's result type.
pub type Result<T> = std::result::Result<T, RepairError>;
