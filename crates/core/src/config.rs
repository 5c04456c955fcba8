//! The configuration of the proof term transformation (paper §4.1).
//!
//! A configuration `((DepConstr, DepElim), (Eta, Iota))` instantiates the
//! transformation to a particular equivalence `A ≃ B`. Operationally it
//! splits into two halves:
//!
//! * a [`SideMatch`] for the source side — the *unification heuristics* of
//!   paper §4.2.1, which recognize subterms as (implicit) applications of
//!   `DepConstr(j, A)`, `DepElim(A)`, `Eta(A)`, and `Iota(j, A)`; and
//! * a [`SideBuild`] for the target side, which assembles the corresponding
//!   `B` forms in already-reduced shape (paper Fig. 11, steps 3–4).
//!
//! A [`Lifting`] couples the two with the equivalence metadata (names, the
//! generated `f`/`g`/`section`/`retraction`) and a constant-renaming policy.

use pumpkin_kernel::env::Env;
use pumpkin_kernel::name::GlobalName;
use pumpkin_kernel::term::Term;

use crate::error::Result;

/// A recognized implicit application of `DepElim` (paper Fig. 10 Dep-Elim).
///
/// The motive is in single-argument form (`T_A args → sort`); cases have the
/// *common* dependent-constructor arities shared by the two sides, with the
/// induction hypothesis immediately following each recursive argument.
#[derive(Clone, Debug)]
pub struct MatchedElim {
    /// Instantiation of the type's arguments (parameters).
    pub type_args: Vec<Term>,
    /// The motive, as a function of the scrutinee.
    pub motive: Term,
    /// One case per dependent constructor.
    pub cases: Vec<Term>,
    /// The term being eliminated.
    pub scrutinee: Term,
}

/// A recognized implicit application of a projection (the tuple/record
/// configurations use these; others return `None`).
#[derive(Clone, Debug)]
pub struct MatchedProj {
    /// Which field (0-based, in the record's declaration order).
    pub field: usize,
    /// The projected term.
    pub target: Term,
}

/// Recognizers for the source side of an equivalence: the unification
/// heuristics of paper §4.2.1. Implementations are per-configuration-class,
/// mirroring `liftconfig.ml`.
///
/// `Send` is a supertrait because a configured [`Lifting`] lives in a
/// serve worker's session, which is moved onto that worker's thread.
/// Recognizers hold interned terms and names, which the global interner
/// already requires to be `Send + Sync`, so this costs implementations
/// nothing. No `Lifting` is shared between threads, so `Sync` is not
/// required.
pub trait SideMatch: Send {
    /// Recognizes the type itself applied to arguments; returns the type
    /// arguments.
    fn match_type(&self, env: &Env, t: &Term) -> Option<Vec<Term>>;

    /// Recognizes `DepConstr(j, ·)` applied to `args` (possibly partially
    /// applied for configurations whose constructors are syntactic).
    fn match_constr(&self, env: &Env, t: &Term) -> Option<(usize, Vec<Term>)>;

    /// Recognizes `DepElim(·)` fully applied.
    fn match_elim(&self, env: &Env, t: &Term) -> Option<MatchedElim>;

    /// Recognizes a field projection.
    fn match_proj(&self, _env: &Env, _t: &Term) -> Option<MatchedProj> {
        None
    }

    /// Recognizes `Iota(j, ·)` applied to arguments.
    fn match_iota(&self, _env: &Env, _t: &Term) -> Option<(usize, Vec<Term>)> {
        None
    }
}

/// Builders for the target side of an equivalence. Builders receive
/// *already lifted* components and must emit reduced terms (paper Fig. 11,
/// step 4 happens here rather than as a separate pass).
///
/// `Send` for the same reason as [`SideMatch`]: a configured [`Lifting`]
/// moves with its serve worker's session.
pub trait SideBuild: Send {
    /// Builds the type applied to the given arguments.
    fn build_type(&self, env: &Env, args: Vec<Term>) -> Result<Term>;

    /// Builds `DepConstr(j, ·)` applied to `args`.
    fn build_constr(&self, env: &Env, j: usize, args: Vec<Term>) -> Result<Term>;

    /// Builds `DepElim(·)` from matched components.
    fn build_elim(&self, env: &Env, elim: MatchedElim) -> Result<Term>;

    /// Builds a field projection.
    fn build_proj(&self, _env: &Env, proj: MatchedProj) -> Result<Term> {
        Err(crate::error::RepairError::UnsupportedDirection(format!(
            "projection of field {} not supported by this configuration",
            proj.field
        )))
    }

    /// Builds `Iota(j, ·)` applied to `args`.
    fn build_iota(&self, _env: &Env, j: usize, _args: Vec<Term>) -> Result<Term> {
        Err(crate::error::RepairError::UnsupportedDirection(format!(
            "Iota({j}, ·) not supported by this configuration"
        )))
    }
}

/// A policy for renaming constants as they are repaired (e.g. `Old.rev` ↦
/// `New.rev`). Rules are tried in order; the first whose prefix matches
/// applies. A rule with an empty prefix always matches (it prepends).
#[derive(Clone, Debug, Default)]
pub struct NameMap {
    rules: Vec<(String, String)>,
}

impl NameMap {
    /// A map with a single prefix-rewrite rule.
    pub fn prefix(from: impl Into<String>, to: impl Into<String>) -> Self {
        NameMap {
            rules: vec![(from.into(), to.into())],
        }
    }

    /// A map with `rules`, tried in order (a [`pumpkin_wire::LiftSpec`]'s
    /// `rename`).
    pub fn from_rules(rules: &[(String, String)]) -> Self {
        NameMap {
            rules: rules.to_vec(),
        }
    }

    /// Adds another prefix-rewrite rule (tried after earlier ones).
    pub fn with_rule(mut self, from: impl Into<String>, to: impl Into<String>) -> Self {
        self.rules.push((from.into(), to.into()));
        self
    }

    /// The rules, in application order (used by the persistent lift cache
    /// to fold the renaming policy into the configuration digest).
    pub fn rules(&self) -> &[(String, String)] {
        &self.rules
    }

    /// Renames a constant. Falls back to appending `_repaired` when no rule
    /// matches, so repair never fails on an unanticipated name.
    pub fn rename(&self, name: &GlobalName) -> GlobalName {
        let (head, rest) = self
            .rules
            .iter()
            .find_map(|(from, to)| Some((to.as_str(), name.as_str().strip_prefix(from.as_str())?)))
            .unwrap_or((name.as_str(), "_repaired"));
        let mut renamed = String::with_capacity(head.len() + rest.len());
        renamed.push_str(head);
        renamed.push_str(rest);
        GlobalName::new(renamed)
    }
}

/// The names of a generated (or manually provided) equivalence
/// (paper Fig. 3): `f : A → B`, `g : B → A`, and the round-trip proofs.
#[derive(Clone, Debug)]
pub struct EquivalenceNames {
    /// The forward map.
    pub f: GlobalName,
    /// The backward map.
    pub g: GlobalName,
    /// `∀ a, g (f a) = a`.
    pub section: GlobalName,
    /// `∀ b, f (g b) = b`.
    pub retraction: GlobalName,
}

/// A configured lifting `A ⇑ B`: everything [`crate::lift`] needs.
pub struct Lifting {
    /// The source type's head global.
    pub a_name: GlobalName,
    /// The target type's head global.
    pub b_name: GlobalName,
    /// Source-side recognizers (unification heuristics).
    pub matcher: Box<dyn SideMatch>,
    /// Target-side builders.
    pub builder: Box<dyn SideBuild>,
    /// Constant renaming policy.
    pub names: NameMap,
    /// The registered equivalence, if one was generated/proved.
    pub equivalence: Option<EquivalenceNames>,
}

impl Lifting {
    /// Does this global belong to the source type (and therefore must not
    /// appear in repaired output)?
    pub fn is_source_global(&self, name: &GlobalName) -> bool {
        name == &self.a_name
    }
}

impl std::fmt::Debug for Lifting {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Lifting")
            .field("a_name", &self.a_name)
            .field("b_name", &self.b_name)
            .field("equivalence", &self.equivalence)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn name_map_prefix_rules() {
        let m = NameMap::prefix("Old.", "New.");
        assert_eq!(m.rename(&"Old.rev".into()).as_str(), "New.rev");
        assert_eq!(m.rename(&"rev".into()).as_str(), "rev_repaired");
        let m2 = NameMap::prefix("", "Sig.");
        assert_eq!(m2.rename(&"zip".into()).as_str(), "Sig.zip");
    }

    #[test]
    fn name_map_rule_order() {
        let m = NameMap::prefix("Old.list", "New.list").with_rule("Old.", "New.");
        assert_eq!(m.rename(&"Old.list".into()).as_str(), "New.list");
        assert_eq!(m.rename(&"Old.app".into()).as_str(), "New.app");
    }
}
