//! Provenance: per-subterm attribution of repairs to configuration rules.
//!
//! The transformation is driven by a configuration (paper §4: Equivalence,
//! Dep-Constr, Dep-Elim, Eta, Iota); provenance records *which* rule fired
//! *where*. Each repaired constant carries a list of rewrite sites — the
//! path of the rewritten subterm (child indices from the declaration root),
//! the [`Rule`] that produced it, and the pretty-printed source/result
//! forms — rendered by `pumpkin explain` and emitted on the wire as the
//! versioned `prov` event family ([`PROV_SCHEMA_VERSION`],
//! [`crate::EventKind::ProvConst`] / [`crate::EventKind::ProvSite`]).
//!
//! A path step is a child's position in the kernel's canonical child
//! order, defined by `Term::for_each_child` in `pumpkin-kernel` (the lift
//! records sites through `Term::try_map_children`, which numbers children
//! the same way). A declaration root prefixes the type with `0` and the
//! body with `1`.

use std::collections::BTreeMap;
use std::fmt;

use crate::{Event, EventKind};

/// Version of the `prov` event family's wire schema. Bumping it makes old
/// readers preserve new events as [`crate::EventKind::Unknown`] instead of
/// misreading them; old traces (without `prov` events) parse unchanged.
pub const PROV_SCHEMA_VERSION: u32 = 1;

/// The configuration rule (or cache short-circuit) that produced a rewrite
/// site (paper §4.1's configuration components, plus the two
/// transformation-level sources of rewrites).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Rule {
    /// The Equivalence rule: the source type itself was rewritten to the
    /// target type.
    Equivalence,
    /// Dep-Constr: a (possibly implicit) source constructor application.
    DepConstr,
    /// Dep-Elim: a dependent eliminator over the source type.
    DepElim,
    /// Eta: an eta-expansion / field projection form.
    Eta,
    /// Iota: a marked iota-reduction witness.
    Iota,
    /// The closed-subterm cache answered with a previously lifted result
    /// (paper §4.4); the rules that originally fired are recorded under
    /// the constant that first lifted the subterm.
    Cached,
    /// A global constant was replaced by its repaired counterpart (the
    /// on-demand dependency repair of paper §2).
    Constant,
}

impl Rule {
    /// Every rule, in display order.
    pub const ALL: [Rule; 7] = [
        Rule::Equivalence,
        Rule::DepConstr,
        Rule::DepElim,
        Rule::Eta,
        Rule::Iota,
        Rule::Cached,
        Rule::Constant,
    ];

    /// The stable wire name used in the JSON-lines schema.
    pub fn as_str(self) -> &'static str {
        match self {
            Rule::Equivalence => "equivalence",
            Rule::DepConstr => "dep_constr",
            Rule::DepElim => "dep_elim",
            Rule::Eta => "eta",
            Rule::Iota => "iota",
            Rule::Cached => "cached",
            Rule::Constant => "constant",
        }
    }

    /// Parses a wire name back ([`Rule::as_str`]'s inverse).
    pub fn from_str_opt(s: &str) -> Option<Rule> {
        Rule::ALL.into_iter().find(|r| r.as_str() == s)
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Renders a subterm path as the dotted wire form (`""` for the root,
/// `"1.0.2"` otherwise).
pub fn path_to_string(path: &[u32]) -> String {
    path.iter()
        .map(|i| i.to_string())
        .collect::<Vec<_>>()
        .join(".")
}

/// Parses the dotted wire form back ([`path_to_string`]'s inverse).
pub fn path_from_str(s: &str) -> Option<Vec<u32>> {
    if s.is_empty() {
        return Some(Vec::new());
    }
    s.split('.').map(|p| p.parse::<u32>().ok()).collect()
}

/// One rewrite site: at `path` (canonical child indices from the
/// declaration root), `rule` rewrote `src` into `dst` (pretty-printed,
/// truncated forms — the terms themselves live in the environment).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ProvSite {
    /// Canonical path from the declaration root (see module docs).
    pub path: Vec<u32>,
    /// The configuration rule that fired.
    pub rule: Rule,
    /// The source subterm, pretty-printed (possibly truncated).
    pub src: String,
    /// The produced subterm, pretty-printed (possibly truncated).
    pub dst: String,
}

/// The provenance tree of one repaired constant: every rewrite site
/// recorded while lifting its declaration, in visit order. Sites nest by
/// path prefix (the tree structure is implicit in the paths).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ConstProvenance {
    /// The source constant.
    pub from: String,
    /// Its repaired name.
    pub to: String,
    /// Rewrite sites, in lift visit order.
    pub sites: Vec<ProvSite>,
}

impl ConstProvenance {
    /// Counts sites per rule, in [`Rule::ALL`] order (zero-count rules are
    /// omitted).
    pub fn rule_counts(&self) -> BTreeMap<Rule, usize> {
        let mut m = BTreeMap::new();
        for s in &self.sites {
            *m.entry(s.rule).or_insert(0) += 1;
        }
        m
    }

    /// A compact one-line citation: `dep_constr×3, dep_elim×1`.
    pub fn citation(&self) -> String {
        let counts = self.rule_counts();
        let mut parts: Vec<String> = Vec::new();
        for r in Rule::ALL {
            if let Some(&n) = counts.get(&r) {
                parts.push(if n == 1 {
                    r.to_string()
                } else {
                    format!("{r}×{n}")
                });
            }
        }
        parts.join(", ")
    }

    /// The constant's `prov` event family: one [`EventKind::ProvConst`]
    /// header followed by one [`EventKind::ProvSite`] per rewrite site.
    pub fn to_events(&self) -> Vec<EventKind> {
        let mut out = Vec::with_capacity(1 + self.sites.len());
        out.push(EventKind::ProvConst {
            name: self.from.as_str().into(),
            to: self.to.as_str().into(),
            sites: self.sites.len() as u32,
        });
        for s in &self.sites {
            out.push(EventKind::ProvSite {
                constant: self.from.as_str().into(),
                path: path_to_string(&s.path).into(),
                rule: s.rule,
                src: s.src.as_str().into(),
                dst: s.dst.as_str().into(),
            });
        }
        out
    }

    /// Reassembles per-constant provenance from an event stream (the
    /// inverse of [`ConstProvenance::to_events`], used by offline
    /// tooling). Constants appear in stream order.
    pub fn from_events(events: &[Event]) -> Vec<ConstProvenance> {
        let mut out: Vec<ConstProvenance> = Vec::new();
        for e in events {
            match &e.kind {
                EventKind::ProvConst { name, to, .. } => out.push(ConstProvenance {
                    from: name.to_string(),
                    to: to.to_string(),
                    sites: Vec::new(),
                }),
                EventKind::ProvSite {
                    constant,
                    path,
                    rule,
                    src,
                    dst,
                } => {
                    if let Some(c) = out.iter_mut().rev().find(|c| c.from == **constant) {
                        c.sites.push(ProvSite {
                            path: path_from_str(path).unwrap_or_default(),
                            rule: *rule,
                            src: src.to_string(),
                            dst: dst.to_string(),
                        });
                    }
                }
                _ => {}
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rule_wire_names_round_trip() {
        for r in Rule::ALL {
            assert_eq!(Rule::from_str_opt(r.as_str()), Some(r));
        }
        assert_eq!(Rule::from_str_opt("nope"), None);
    }

    #[test]
    fn paths_round_trip() {
        for p in [vec![], vec![0], vec![1, 0, 2]] {
            assert_eq!(path_from_str(&path_to_string(&p)), Some(p));
        }
        assert_eq!(path_from_str("1.x"), None);
    }

    #[test]
    fn events_round_trip_per_constant() {
        let prov = ConstProvenance {
            from: "Old.rev".into(),
            to: "New.rev".into(),
            sites: vec![
                ProvSite {
                    path: vec![1, 0],
                    rule: Rule::DepElim,
                    src: "elim l …".into(),
                    dst: "New.list_rect …".into(),
                },
                ProvSite {
                    path: vec![1, 0, 3],
                    rule: Rule::DepConstr,
                    src: "Old.nil nat".into(),
                    dst: "New.nil nat".into(),
                },
            ],
        };
        let events: Vec<Event> = prov
            .to_events()
            .into_iter()
            .map(|kind| Event {
                t_ns: 0,
                dur_ns: 0,
                kind,
            })
            .collect();
        let back = ConstProvenance::from_events(&events);
        assert_eq!(back, vec![prov]);
    }

    #[test]
    fn citation_groups_by_rule() {
        let prov = ConstProvenance {
            from: "a".into(),
            to: "b".into(),
            sites: vec![
                ProvSite {
                    path: vec![],
                    rule: Rule::DepConstr,
                    src: String::new(),
                    dst: String::new(),
                },
                ProvSite {
                    path: vec![0],
                    rule: Rule::DepConstr,
                    src: String::new(),
                    dst: String::new(),
                },
                ProvSite {
                    path: vec![1],
                    rule: Rule::Cached,
                    src: String::new(),
                    dst: String::new(),
                },
            ],
        };
        assert_eq!(prov.citation(), "dep_constr×2, cached");
    }
}
