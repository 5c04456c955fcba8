//! The provenance recorder threaded through the lift (paper §4 rules →
//! per-subterm attribution).
//!
//! [`ProvRecorder`] lives inside [`crate::LiftState`] as an `Option`: when
//! absent (the default) every probe in the lift walk is a single `None`
//! branch, mirroring the disabled-[`pumpkin_trace::Tracer`] discipline —
//! provenance is zero-cost unless a run asks for it.
//!
//! The recorder keeps a stack of frames, one per in-flight
//! [`crate::repair_constant`] call. Each frame tracks the canonical path
//! of the subterm currently being lifted (see
//! [`pumpkin_trace::prov`] for the child indexing) and collects
//! [`TermSite`]s — rewrite sites holding real [`Term`]s (cheap shared
//! clones). Sites are pretty-printed into wire-level
//! [`pumpkin_trace::prov::ConstProvenance`] only once, after the run, by
//! the [`crate::Repairer`].
//!
//! Matched-rule branches *suppress* recording while lifting the rule's
//! components: the rule rewrites the whole matched subterm, and component
//! paths inside the produced form do not follow the source term's
//! canonical indexing. Suppression is per-frame, so an on-demand
//! dependency repair started inside a suppressed region still records its
//! own sites under its own frame.

use pumpkin_kernel::name::GlobalName;
use pumpkin_kernel::term::Term;

pub use pumpkin_trace::prov::Rule;

/// One recorded rewrite: at `path`, `rule` rewrote `src` into `dst`.
/// Term-level twin of [`pumpkin_trace::prov::ProvSite`].
#[derive(Clone, Debug)]
pub struct TermSite {
    /// Canonical path from the declaration root (type under `0`, body
    /// under `1`).
    pub path: Box<[u32]>,
    /// The configuration rule that fired.
    pub rule: Rule,
    /// The source subterm.
    pub src: Term,
    /// The produced subterm.
    pub dst: Term,
}

/// A finished constant's provenance tree, still in term form.
#[derive(Clone, Debug)]
pub struct ConstProv {
    /// The source constant.
    pub from: GlobalName,
    /// Its repaired name.
    pub to: GlobalName,
    /// Rewrite sites, in lift visit order.
    pub sites: Vec<TermSite>,
}

/// One in-flight `repair_constant` call's recording state.
#[derive(Debug)]
struct Frame {
    name: GlobalName,
    path: Vec<u32>,
    suppress: u32,
    sites: Vec<TermSite>,
}

/// The per-run provenance recorder (see module docs).
#[derive(Debug, Default)]
pub struct ProvRecorder {
    frames: Vec<Frame>,
    finished: Vec<ConstProv>,
}

impl ProvRecorder {
    /// Opens a frame for `name`; paired with [`ProvRecorder::end_const`].
    pub fn begin_const(&mut self, name: &GlobalName) {
        self.frames.push(Frame {
            name: name.clone(),
            path: Vec::new(),
            suppress: 0,
            sites: Vec::new(),
        });
    }

    /// Closes the innermost frame. With `Some(to)` (the repair succeeded,
    /// possibly via the idempotence path) the frame's sites are kept; with
    /// `None` (the repair failed) they are discarded.
    pub fn end_const(&mut self, to: Option<&GlobalName>) {
        if let Some(frame) = self.frames.pop() {
            if let Some(to) = to {
                self.finished.push(ConstProv {
                    from: frame.name,
                    to: to.clone(),
                    sites: frame.sites,
                });
            }
        }
    }

    /// Descends into child `i` of the current subterm.
    pub fn push(&mut self, i: u32) {
        if let Some(f) = self.frames.last_mut() {
            f.path.push(i);
        }
    }

    /// Ascends back out of the current child.
    pub fn pop(&mut self) {
        if let Some(f) = self.frames.last_mut() {
            f.path.pop();
        }
    }

    /// Enters a matched-rule component region (recording off).
    pub fn suppress(&mut self) {
        if let Some(f) = self.frames.last_mut() {
            f.suppress += 1;
        }
    }

    /// Leaves a matched-rule component region.
    pub fn unsuppress(&mut self) {
        if let Some(f) = self.frames.last_mut() {
            f.suppress = f.suppress.saturating_sub(1);
        }
    }

    /// Records a rewrite site at the current path, unless recording is
    /// suppressed, no frame is open, or the rewrite is an identity.
    pub fn site(&mut self, rule: Rule, src: &Term, dst: &Term) {
        let Some(f) = self.frames.last_mut() else {
            return;
        };
        if f.suppress > 0 || src == dst {
            return;
        }
        f.sites.push(TermSite {
            path: f.path.clone().into_boxed_slice(),
            rule,
            src: src.clone(),
            dst: dst.clone(),
        });
    }

    /// Takes the finished trees out, leaving the recorder empty (open
    /// frames, if any, are dropped — they belong to a failed run).
    pub fn take_finished(&mut self) -> Vec<ConstProv> {
        self.frames.clear();
        std::mem::take(&mut self.finished)
    }

    /// Keeps only the finished trees `keep` accepts (the scheduler drops
    /// the trees of repairs a rollback removed).
    pub fn retain(&mut self, keep: impl FnMut(&ConstProv) -> bool) {
        self.finished.retain(keep);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(name: &str) -> Term {
        Term::const_(GlobalName::new(name))
    }

    #[test]
    fn sites_record_path_and_rule_inside_a_frame() {
        let mut r = ProvRecorder::default();
        // No frame: silently dropped.
        r.site(Rule::Constant, &t("a"), &t("b"));
        r.begin_const(&"Old.rev".into());
        r.push(1);
        r.push(0);
        r.site(Rule::DepConstr, &t("Old.nil"), &t("New.nil"));
        r.pop();
        r.pop();
        // Identity rewrites are not sites.
        r.site(Rule::Cached, &t("same"), &t("same"));
        r.end_const(Some(&"New.rev".into()));
        let finished = r.take_finished();
        assert_eq!(finished.len(), 1);
        assert_eq!(finished[0].from.as_str(), "Old.rev");
        assert_eq!(finished[0].to.as_str(), "New.rev");
        assert_eq!(finished[0].sites.len(), 1);
        assert_eq!(&*finished[0].sites[0].path, &[1, 0]);
        assert_eq!(finished[0].sites[0].rule, Rule::DepConstr);
    }

    #[test]
    fn suppression_is_per_frame() {
        let mut r = ProvRecorder::default();
        r.begin_const(&"outer".into());
        r.suppress();
        r.site(Rule::DepElim, &t("a"), &t("b")); // suppressed
                                                 // A dependency repair inside the suppressed region records freely.
        r.begin_const(&"inner".into());
        r.site(Rule::Constant, &t("c"), &t("d"));
        r.end_const(Some(&"inner2".into()));
        r.unsuppress();
        r.site(Rule::Constant, &t("e"), &t("f"));
        r.end_const(Some(&"outer2".into()));
        let finished = r.take_finished();
        assert_eq!(finished.len(), 2);
        assert_eq!(finished[0].from.as_str(), "inner");
        assert_eq!(finished[0].sites.len(), 1);
        assert_eq!(finished[1].from.as_str(), "outer");
        assert_eq!(finished[1].sites.len(), 1);
        assert_eq!(finished[1].sites[0].src, t("e"));
    }

    #[test]
    fn failed_frames_discard_their_sites() {
        let mut r = ProvRecorder::default();
        r.begin_const(&"bad".into());
        r.site(Rule::Equivalence, &t("a"), &t("b"));
        r.end_const(None);
        assert!(r.take_finished().is_empty());
    }
}
