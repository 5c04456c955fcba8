//! De Bruijn lifting and capture-avoiding substitution.

use crate::term::{Term, TermData};

/// Shifts all de Bruijn indices `≥ cutoff` by `amount`.
pub fn lift_from(t: &Term, cutoff: usize, amount: usize) -> Term {
    if amount == 0 || t.free_rel_bound() <= cutoff {
        // No free variable reaches the cutoff: the interned node already
        // caches that bound, so closed subterms are skipped in O(1).
        return t.clone();
    }
    match t.data() {
        TermData::Rel(i) => {
            if *i >= cutoff {
                Term::rel(i + amount)
            } else {
                t.clone()
            }
        }
        _ => t.map_children(|c, shift| lift_from(c, cutoff + shift, amount)),
    }
}

/// Shifts all free de Bruijn indices by `amount`.
pub fn lift(t: &Term, amount: usize) -> Term {
    lift_from(t, 0, amount)
}

/// Substitutes `value` for `Rel(k)` in `t`, decrementing indices above `k`.
///
/// `value` is interpreted in the context *outside* binder `k`; it is lifted
/// as the traversal crosses binders.
pub fn subst_at(t: &Term, k: usize, value: &Term) -> Term {
    if t.free_rel_bound() <= k {
        // No free variable reaches index k: nothing to substitute and
        // nothing above k to decrement (O(1), from the interned ceiling).
        return t.clone();
    }
    match t.data() {
        TermData::Rel(i) => {
            if *i == k {
                lift(value, k)
            } else if *i > k {
                Term::rel(i - 1)
            } else {
                t.clone()
            }
        }
        _ => t.map_children(|c, shift| subst_at(c, k + shift, value)),
    }
}

/// Substitutes `value` for the innermost binder (`Rel(0)`).
pub fn subst1(t: &Term, value: &Term) -> Term {
    subst_at(t, 0, value)
}

/// Substitutes a telescope of values for binders `0..values.len()`, where
/// `values[0]` replaces the *innermost* binder `Rel(0)`.
///
/// All values are interpreted in the context outside the whole binder group:
/// this is a genuine *simultaneous* substitution. (A previous implementation
/// iterated [`subst1`], which decremented the free variables of
/// earlier-substituted open values — e.g. `Rel(0)[Rel(5), b]` came out as
/// `Rel(4)`; see `tests/kernel_properties.rs::subst_many_open_values`.)
pub fn subst_many(t: &Term, values: &[Term]) -> Term {
    // `subst_group` declares the *deepest* binder first, so reverse.
    let declared: Vec<Term> = values.iter().rev().cloned().collect();
    subst_group(t, 0, &declared)
}

/// Simultaneously substitutes `values` (in declaration order) for the binder
/// group starting at de Bruijn index `base` in `t`. Binder group convention:
/// the *first* declared value corresponds to the *deepest* index
/// `base + len - 1`. The values are interpreted in the context *outside* the
/// group; indices above the group are shifted down by `values.len()`.
pub fn subst_group(t: &Term, base: usize, values: &[Term]) -> Term {
    if values.is_empty() {
        return t.clone();
    }
    fn go(t: &Term, depth: usize, base: usize, values: &[Term]) -> Term {
        if t.free_rel_bound() <= depth + base {
            // Every free variable is below the group: untouched (O(1)).
            return t.clone();
        }
        let p = values.len();
        match t.data() {
            TermData::Rel(m) => {
                if *m < depth + base {
                    t.clone()
                } else if *m < depth + base + p {
                    // Group member: first declared is the deepest.
                    let offset = m - depth - base; // 0 = innermost = last declared
                    lift(&values[p - 1 - offset], depth + base)
                } else {
                    Term::rel(m - p)
                }
            }
            _ => t.map_children(|c, shift| go(c, depth + shift, base, values)),
        }
    }
    go(t, 0, base, values)
}

/// Beta-reduces `fun xs => body` applied to `args` as far as the binders
/// allow, returning the reduced term and any leftover arguments applied.
pub fn beta_apply(f: &Term, args: &[Term]) -> Term {
    let mut t = f.clone();
    let mut i = 0;
    while i < args.len() {
        match t.data() {
            TermData::Lambda(_, body) => {
                t = subst1(body, &args[i]);
                i += 1;
            }
            _ => break,
        }
    }
    Term::app(t, args[i..].iter().cloned())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::term::Term;

    #[test]
    fn lift_respects_cutoff() {
        // fun (x : Set) => #0 #1  — #0 bound, #1 free.
        let t = Term::lambda("x", Term::set(), Term::app(Term::rel(0), [Term::rel(1)]));
        let lifted = lift(&t, 3);
        let expect = Term::lambda("x", Term::set(), Term::app(Term::rel(0), [Term::rel(4)]));
        assert_eq!(lifted, expect);
    }

    #[test]
    fn subst_under_binder() {
        // (fun (x : Set) => #0 #1)[#0 := c]  ==  fun (x : Set) => #0 c
        let t = Term::lambda("x", Term::set(), Term::app(Term::rel(0), [Term::rel(1)]));
        let c = Term::const_("c");
        let r = subst1(&t, &c);
        let expect = Term::lambda(
            "x",
            Term::set(),
            Term::app(Term::rel(0), [Term::const_("c")]),
        );
        assert_eq!(r, expect);
    }

    #[test]
    fn subst_decrements_higher_indices() {
        let t = Term::app(Term::rel(2), [Term::rel(0)]);
        let r = subst1(&t, &Term::const_("c"));
        assert_eq!(r, Term::app(Term::rel(1), [Term::const_("c")]));
    }

    #[test]
    fn subst_lifts_value_across_binders() {
        // (fun (x : Set) => #1)[#0 := #5]  ==  fun (x : Set) => #6
        let t = Term::lambda("x", Term::set(), Term::rel(1));
        let r = subst1(&t, &Term::rel(5));
        assert_eq!(r, Term::lambda("x", Term::set(), Term::rel(6)));
    }

    #[test]
    fn beta_apply_partial_and_over() {
        // (fun x y => y x) a b  →  b a
        let f = Term::lambda(
            "x",
            Term::set(),
            Term::lambda("y", Term::set(), Term::app(Term::rel(0), [Term::rel(1)])),
        );
        let r = beta_apply(&f, &[Term::const_("a"), Term::const_("b")]);
        assert_eq!(r, Term::app(Term::const_("b"), [Term::const_("a")]));
        // Under-application leaves a lambda.
        let r2 = beta_apply(&f, &[Term::const_("a")]);
        assert!(matches!(r2.data(), TermData::Lambda(_, _)));
        // Over-application re-applies the leftovers.
        let id = Term::lambda("x", Term::set(), Term::rel(0));
        let r3 = beta_apply(&id, &[Term::const_("f"), Term::const_("a")]);
        assert_eq!(r3, Term::app(Term::const_("f"), [Term::const_("a")]));
    }

    #[test]
    fn lift_zero_is_identity() {
        let t = Term::lambda("x", Term::set(), Term::rel(7));
        assert_eq!(lift(&t, 0), t);
    }

    #[test]
    fn subst_many_order() {
        // #0 and #1 replaced by a and b respectively.
        let t = Term::app(Term::rel(0), [Term::rel(1)]);
        let r = subst_many(&t, &[Term::const_("a"), Term::const_("b")]);
        assert_eq!(r, Term::app(Term::const_("a"), [Term::const_("b")]));
    }

    #[test]
    fn subst_many_keeps_open_values_intact() {
        // Regression: iterated subst1 dropped Rel(0)[Rel(5), b] to Rel(4) —
        // the later substitution of `b` decremented the already-substituted
        // open value. Simultaneous substitution must leave it at Rel(5).
        let r = subst_many(&Term::rel(0), &[Term::rel(5), Term::const_("b")]);
        assert_eq!(r, Term::rel(5));
        // Both values open: each keeps its outside-the-group interpretation.
        let t = Term::app(Term::rel(0), [Term::rel(1)]);
        let r = subst_many(&t, &[Term::rel(3), Term::rel(7)]);
        assert_eq!(r, Term::app(Term::rel(3), [Term::rel(7)]));
    }

    #[test]
    fn subst_many_shifts_ambient_indices_down() {
        // Rel(2) is outside a group of two binders: it ends at Rel(0), and
        // open values are untouched by the shift.
        let t = Term::app(Term::rel(2), [Term::rel(0), Term::rel(1)]);
        let r = subst_many(&t, &[Term::rel(0), Term::const_("c")]);
        assert_eq!(
            r,
            Term::app(Term::rel(0), [Term::rel(0), Term::const_("c")])
        );
    }

    #[test]
    fn subst_many_lifts_open_values_under_binders() {
        // (fun (x : Set) => #1 #2)[#4, c] == fun (x : Set) => #5 c:
        // inside the lambda the group sits at indices 1..3, and the open
        // value #4 must be lifted across the lambda binder.
        let t = Term::lambda("x", Term::set(), Term::app(Term::rel(1), [Term::rel(2)]));
        let r = subst_many(&t, &[Term::rel(4), Term::const_("c")]);
        let expect = Term::lambda(
            "x",
            Term::set(),
            Term::app(Term::rel(5), [Term::const_("c")]),
        );
        assert_eq!(r, expect);
    }

    #[test]
    fn subst_many_agrees_with_descending_subst_at() {
        // The spec: simultaneous substitution equals substituting one value
        // at a time at *descending* indices (each subst_at removes the
        // outermost remaining group binder, so earlier-substituted values
        // are never re-traversed).
        let t = Term::app(
            Term::rel(0),
            [
                Term::rel(1),
                Term::rel(2),
                Term::lambda("x", Term::set(), Term::app(Term::rel(1), [Term::rel(3)])),
            ],
        );
        let values = [
            Term::rel(2),
            Term::app(Term::rel(0), [Term::rel(1)]),
            Term::const_("k"),
        ];
        let mut expect = t.clone();
        for (k, v) in values.iter().enumerate().rev() {
            expect = subst_at(&expect, k, v);
        }
        assert_eq!(subst_many(&t, &values), expect);
    }
}
