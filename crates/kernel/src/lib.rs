//! # pumpkin-kernel
//!
//! A from-scratch kernel for CIC_ω — the calculus of the paper *Proof Repair
//! Across Type Equivalences* (PLDI 2021), Fig. 7: variables, sorts, dependent
//! products, functions, application, inductive families, constructors, and
//! **primitive eliminators** (no `match`/`fix`; the paper's `Preprocess` step
//! is assumed).
//!
//! This crate plays the role Coq's kernel plays for the original Pumpkin Pi
//! plugin: it owns the term language ([`term::Term`]), binding and
//! substitution ([`subst`]), the global environment ([`env::Env`]),
//! βδιζη-reduction ([`reduce`]), definitional equality ([`conv`]), and the
//! dependent type checker ([`typecheck`]).
//!
//! ## Example
//!
//! ```
//! use pumpkin_kernel::prelude::*;
//!
//! # fn main() -> Result<()> {
//! let mut env = Env::new();
//! env.declare_inductive(InductiveDecl {
//!     name: "bool".into(),
//!     params: vec![],
//!     indices: vec![],
//!     sort: Sort::Set,
//!     ctors: vec![
//!         CtorDecl { name: "true".into(), args: vec![], result_indices: vec![] },
//!         CtorDecl { name: "false".into(), args: vec![], result_indices: vec![] },
//!     ],
//! })?;
//! let negb = Term::lambda(
//!     "b",
//!     Term::ind("bool"),
//!     Term::elim(ElimData {
//!         ind: "bool".into(),
//!         params: vec![],
//!         motive: Term::lambda("_", Term::ind("bool"), Term::ind("bool")),
//!         cases: vec![Term::construct("bool", 1), Term::construct("bool", 0)],
//!         scrutinee: Term::rel(0),
//!     }),
//! );
//! env.define("negb", Term::arrow(Term::ind("bool"), Term::ind("bool")), negb)?;
//! let t = Term::app(Term::const_("negb"), [Term::construct("bool", 0)]);
//! assert_eq!(normalize(&env, &t), Term::construct("bool", 1));
//! # Ok(())
//! # }
//! ```

pub mod admission;
pub mod conv;
pub mod env;
pub mod error;
pub mod inductive;
pub mod intern;
pub mod name;
pub mod nbe;
pub mod reduce;
pub mod stats;
pub mod subst;
pub mod term;
pub mod typecheck;
pub mod universe;

/// Re-export of the structured tracing layer the kernel is instrumented
/// with, so downstream crates can name [`trace::Tracer`] and
/// [`trace::EventKind`] without a separate dependency.
pub use pumpkin_trace as trace;

/// Convenient glob-import surface.
pub mod prelude {
    pub use crate::admission::AdmissionMemo;
    pub use crate::conv::{conv, conv_leq};
    pub use crate::env::{ConstDecl, Env, GlobalRef};
    pub use crate::error::{KernelError, Result};
    pub use crate::inductive::{CtorDecl, InductiveDecl};
    pub use crate::intern::{interner_stats, InternerStats, TermId};
    pub use crate::name::{GlobalName, Name};
    pub use crate::reduce::{normalize, whnf};
    pub use crate::stats::KernelStats;
    pub use crate::subst::{
        beta_apply, lift, lift_from, subst1, subst_at, subst_group, subst_many,
    };
    pub use crate::term::{Binder, ElimData, Term, TermData};
    pub use crate::typecheck::{
        check, check_closed, check_is_type, infer, infer_closed, infer_sort, Ctx,
    };
    pub use crate::universe::Sort;
}
