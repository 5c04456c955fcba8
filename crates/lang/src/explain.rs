//! Annotated old→new diffs with rule citations: the renderer behind
//! `pumpkin explain <const>`.
//!
//! [`explain_decl`] walks a repaired constant's old and new declarations
//! in parallel, descending only while the two terms have the same shape,
//! and reports each *topmost* differing subterm as a [`Divergence`] —
//! pretty-printed old and new forms plus the canonical path where they
//! part ways. Provenance sites (recorded by the lift, passed in as
//! [`DiffSite`]s) are then matched against those paths to cite the
//! configuration rule that produced each divergence.
//!
//! Paths use the canonical child order of [`Term::for_each_child`], the
//! one the lift walk records sites under; a declaration puts its type
//! under `0` and its body under `1`. A divergence is
//! *attributed* when a site's path is a prefix of the divergence path
//! (the rule rewrote an enclosing region) or vice versa (the rewrite
//! happened below and its shape change surfaced here, e.g. through
//! application flattening).
//!
//! This module deliberately computes attribution from the environment's
//! actual terms rather than trusting the recorder: the coverage figure
//! ([`Explanation::coverage`]) is an honest measure of how much of the
//! real diff the provenance layer explains.

use pumpkin_kernel::env::Env;
use pumpkin_kernel::term::{Term, TermData};

use crate::pretty::pretty_open;

/// Maximum rendered length of each side of a divergence.
const SIDE_MAX_CHARS: usize = 120;

/// One provenance site's location and rule label, as recorded by the lift
/// (rule names are opaque strings here; `pumpkin-lang` knows syntax, not
/// configurations).
#[derive(Clone, Copy, Debug)]
pub struct DiffSite<'a> {
    /// Canonical path of the rewrite.
    pub path: &'a [u32],
    /// Wire name of the rule that fired (`dep_constr`, `cached`, …).
    pub rule: &'a str,
}

/// A topmost point where the old and new declarations differ.
#[derive(Clone, Debug)]
pub struct Divergence {
    /// Canonical path from the declaration root.
    pub path: Vec<u32>,
    /// The old subterm, pretty-printed (possibly truncated).
    pub old: String,
    /// The new subterm, pretty-printed (possibly truncated).
    pub new: String,
    /// The citing rule, when a provenance site matched this path.
    pub rule: Option<String>,
}

/// The annotated diff of one repaired constant.
#[derive(Clone, Debug)]
pub struct Explanation {
    /// The source constant.
    pub from: String,
    /// Its repaired name.
    pub to: String,
    /// Topmost divergences, in walk order (type before body).
    pub divergences: Vec<Divergence>,
}

impl Explanation {
    /// How many divergences carry a rule citation.
    pub fn attributed(&self) -> usize {
        self.divergences.iter().filter(|d| d.rule.is_some()).count()
    }

    /// Fraction of divergences attributed to a named rule (1.0 when the
    /// terms do not differ at all).
    pub fn coverage(&self) -> f64 {
        if self.divergences.is_empty() {
            1.0
        } else {
            self.attributed() as f64 / self.divergences.len() as f64
        }
    }

    /// Renders the annotated diff: one `- old` / `+ new` pair per
    /// divergence with its path and rule citation, then the coverage
    /// line and a rule histogram.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("explain {} → {}\n", self.from, self.to));
        if self.divergences.is_empty() {
            out.push_str("  (definitions are identical)\n");
            return out;
        }
        for d in &self.divergences {
            out.push_str(&format!(
                "  at {}  [{}]\n",
                path_label(&d.path),
                d.rule.as_deref().unwrap_or("unattributed"),
            ));
            out.push_str(&format!("    - {}\n", d.old));
            out.push_str(&format!("    + {}\n", d.new));
        }
        let mut rules: Vec<(&str, usize)> = Vec::new();
        for d in &self.divergences {
            let name = d.rule.as_deref().unwrap_or("unattributed");
            match rules.iter_mut().find(|(n, _)| *n == name) {
                Some((_, c)) => *c += 1,
                None => rules.push((name, 1)),
            }
        }
        let hist: Vec<String> = rules
            .iter()
            .map(|(n, c)| {
                if *c == 1 {
                    (*n).to_string()
                } else {
                    format!("{n}×{c}")
                }
            })
            .collect();
        out.push_str(&format!(
            "  {}/{} rewritten subterms attributed ({:.1}%): {}\n",
            self.attributed(),
            self.divergences.len(),
            100.0 * self.coverage(),
            hist.join(", "),
        ));
        out
    }
}

/// Human form of a canonical path: `type`/`body` for the declaration
/// root's two children, then dotted child indices.
fn path_label(path: &[u32]) -> String {
    match path.split_first() {
        None => "root".to_string(),
        Some((0, [])) => "type".to_string(),
        Some((1, [])) => "body".to_string(),
        Some((0, rest)) => format!(
            "type.{}",
            rest.iter()
                .map(u32::to_string)
                .collect::<Vec<_>>()
                .join(".")
        ),
        Some((1, rest)) => format!(
            "body.{}",
            rest.iter()
                .map(u32::to_string)
                .collect::<Vec<_>>()
                .join(".")
        ),
        Some(_) => path
            .iter()
            .map(u32::to_string)
            .collect::<Vec<_>>()
            .join("."),
    }
}

/// Explains a repaired constant: diffs `from`'s declaration against `to`'s
/// and cites `sites` at the divergence points. Returns `None` when either
/// constant is not in the environment.
pub fn explain_decl(
    env: &Env,
    from: &str,
    to: &str,
    sites: &[DiffSite<'_>],
) -> Option<Explanation> {
    let old = env.const_decl(&from.into()).ok()?.clone();
    let new = env.const_decl(&to.into()).ok()?.clone();
    let mut divergences = Vec::new();
    let mut ctx: Vec<String> = Vec::new();
    let mut path = vec![0u32];
    diff(env, &mut ctx, &old.ty, &new.ty, &mut path, &mut divergences);
    if let (Some(ob), Some(nb)) = (&old.body, &new.body) {
        path[0] = 1;
        diff(env, &mut ctx, ob, nb, &mut path, &mut divergences);
    }
    for d in &mut divergences {
        d.rule = cite(&d.path, sites);
    }
    Some(Explanation {
        from: from.to_string(),
        to: to.to_string(),
        divergences,
    })
}

/// Diffs two loose terms (both closed, or open in the same context) under
/// an explicit base path — the building block `explain_decl` applies to
/// the type and body. Exposed for tooling and tests.
pub fn explain_term(env: &Env, old: &Term, new: &Term, base: &[u32]) -> Vec<Divergence> {
    let mut divergences = Vec::new();
    let mut path = base.to_vec();
    diff(env, &mut Vec::new(), old, new, &mut path, &mut divergences);
    divergences
}

/// The best citation for a divergence at `path`: the deepest site at or
/// above it, else the shallowest site below it.
fn cite(path: &[u32], sites: &[DiffSite<'_>]) -> Option<String> {
    let above = sites
        .iter()
        .filter(|s| path.starts_with(s.path))
        .max_by_key(|s| s.path.len());
    if let Some(s) = above {
        return Some(s.rule.to_string());
    }
    sites
        .iter()
        .filter(|s| s.path.starts_with(path))
        .min_by_key(|s| s.path.len())
        .map(|s| s.rule.to_string())
}

fn clip(s: String) -> String {
    if s.chars().count() > SIDE_MAX_CHARS {
        s.chars().take(SIDE_MAX_CHARS).collect::<String>() + "…"
    } else {
        s
    }
}

/// The name a node's binder gives the children under it (`_` if the node
/// binds nothing or the binder is anonymous).
fn binder_name(t: &Term) -> String {
    match t.data() {
        TermData::Lambda(b, _) | TermData::Pi(b, _) | TermData::Let(b, _, _) => {
            b.name.as_str().unwrap_or("_").to_string()
        }
        _ => "_".to_string(),
    }
}

/// Do the two nodes have the same constructor and child count, so their
/// children pair up by canonical position?
fn same_shape(old: &Term, new: &Term) -> bool {
    match (old.data(), new.data()) {
        (TermData::App(_, a1), TermData::App(_, a2)) => a1.len() == a2.len(),
        (TermData::Lambda(..), TermData::Lambda(..))
        | (TermData::Pi(..), TermData::Pi(..))
        | (TermData::Let(..), TermData::Let(..)) => true,
        (TermData::Elim(e1), TermData::Elim(e2)) => {
            e1.ind == e2.ind
                && e1.params.len() == e2.params.len()
                && e1.cases.len() == e2.cases.len()
        }
        _ => false,
    }
}

/// Records the current node as a topmost divergence.
fn record(
    env: &Env,
    ctx: &[String],
    old: &Term,
    new: &Term,
    path: &[u32],
    out: &mut Vec<Divergence>,
) {
    out.push(Divergence {
        path: path.to_vec(),
        old: clip(pretty_open(env, ctx, old)),
        new: clip(pretty_open(env, ctx, new)),
        rule: None,
    });
}

/// The parallel walk: descend while shapes match, record the topmost
/// mismatch. If recursing into same-shaped children surfaces no
/// divergence (e.g. the difference is only in binder name hints), the
/// current node is recorded so no difference is ever silently dropped.
fn diff(
    env: &Env,
    ctx: &mut Vec<String>,
    old: &Term,
    new: &Term,
    path: &mut Vec<u32>,
    out: &mut Vec<Divergence>,
) {
    if old == new {
        return;
    }
    let before = out.len();
    if same_shape(old, new) {
        let mut olds = Vec::new();
        old.for_each_child(|o, shift| olds.push((o, shift)));
        let mut news = Vec::new();
        new.for_each_child(|n, _| news.push(n));
        for (i, ((o, shift), n)) in olds.into_iter().zip(news).enumerate() {
            let scope = ctx.len();
            if shift > 0 {
                ctx.push(binder_name(old));
            }
            path.push(i as u32);
            diff(env, ctx, o, n, path, out);
            path.pop();
            ctx.truncate(scope);
        }
    }
    // A shape mismatch, or same-shaped nodes whose children surfaced no
    // divergence (binder hints): record this node rather than dropping
    // the difference.
    if out.len() == before {
        record(env, ctx, old, new, path, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::load_source;
    use pumpkin_kernel::env::Env;

    fn env_with(src: &str) -> Env {
        let mut env = Env::new();
        load_source(&mut env, src).unwrap();
        env
    }

    const BASE: &str = "
        Inductive nat : Set := | O : nat | S : nat -> nat.
        Definition a : nat := S O.
        Definition b : nat := S (S O).
        Definition twice_a : nat := S a.
        Definition twice_b : nat := S b.
        Definition same1 : nat := O.
        Definition same2 : nat := O.
    ";

    #[test]
    fn identical_definitions_have_no_divergences() {
        let env = env_with(BASE);
        let e = explain_decl(&env, "same1", "same2", &[]).unwrap();
        assert!(e.divergences.is_empty());
        assert_eq!(e.coverage(), 1.0);
        assert!(e.render().contains("identical"));
    }

    #[test]
    fn topmost_divergence_is_reported_once() {
        let env = env_with(BASE);
        // Bodies: S a vs S b → single divergence at the argument, not at
        // the App node and not below.
        let e = explain_decl(&env, "twice_a", "twice_b", &[]).unwrap();
        assert_eq!(e.divergences.len(), 1);
        assert_eq!(e.divergences[0].path, vec![1, 1]);
        assert_eq!(e.divergences[0].old, "a");
        assert_eq!(e.divergences[0].new, "b");
        assert!(e.divergences[0].rule.is_none());
        assert!((e.coverage() - 0.0).abs() < f64::EPSILON);
    }

    #[test]
    fn sites_cite_rules_by_path_prefix() {
        let env = env_with(BASE);
        let sites = [DiffSite {
            path: &[1],
            rule: "constant",
        }];
        let e = explain_decl(&env, "twice_a", "twice_b", &sites).unwrap();
        // Site above the divergence attributes it.
        assert_eq!(e.divergences[0].rule.as_deref(), Some("constant"));
        assert_eq!(e.attributed(), 1);
        let text = e.render();
        assert!(text.contains("at body.1  [constant]"), "{text}");
        assert!(text.contains("100.0%"), "{text}");
    }

    #[test]
    fn sites_below_a_divergence_also_cite() {
        let env = env_with(BASE);
        // Divergence at body.1; a site recorded deeper (e.g. surfaced
        // through app flattening) still explains it.
        let sites = [DiffSite {
            path: &[1, 1, 0],
            rule: "dep_constr",
        }];
        let e = explain_decl(&env, "twice_a", "twice_b", &sites).unwrap();
        assert_eq!(e.divergences[0].rule.as_deref(), Some("dep_constr"));
    }

    #[test]
    fn unknown_constants_yield_none() {
        let env = env_with(BASE);
        assert!(explain_decl(&env, "missing", "also_missing", &[]).is_none());
    }

    #[test]
    fn explain_term_diffs_loose_terms() {
        let env = env_with(BASE);
        let old = crate::term(&env, "fun (x : nat) => S x").unwrap();
        let new = crate::term(&env, "fun (x : nat) => S (S x)").unwrap();
        let ds = explain_term(&env, &old, &new, &[]);
        assert_eq!(ds.len(), 1);
        assert_eq!(ds[0].path, vec![1, 1]);
        assert_eq!(ds[0].old, "x");
        assert_eq!(ds[0].new, "S x");
    }
}
