//! Sorts and the universe discipline of CIC_ω.
//!
//! The paper's calculus (Fig. 7) has sorts `Prop`, `Set`, and `Type⟨i⟩`.
//! We reproduce Coq's core rules:
//!
//! * `Prop : Type(1)`, `Set : Type(1)`, `Type(i) : Type(i+1)`;
//! * cumulativity `Prop ≤ Set ≤ Type(i) ≤ Type(j)` for `i ≤ j`;
//! * products are impredicative in `Prop` and predicative elsewhere.

use std::fmt;

/// A sort (universe) of CIC_ω.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Sort {
    /// The impredicative universe of propositions.
    Prop,
    /// The predicative universe of "small" computational types.
    Set,
    /// The predicative hierarchy; `Type(0)` is one level above `Set`.
    Type(u32),
}

impl Sort {
    /// The sort that this sort inhabits (`s : s.succ()`).
    pub fn succ(self) -> Sort {
        match self {
            Sort::Prop | Sort::Set => Sort::Type(1),
            Sort::Type(i) => Sort::Type(i + 1),
        }
    }

    /// Cumulativity: is `self ≤ other`?
    pub fn leq(self, other: Sort) -> bool {
        match (self, other) {
            (Sort::Prop, _) => true,
            (Sort::Set, Sort::Prop) => false,
            (Sort::Set, _) => true,
            (Sort::Type(_), Sort::Prop | Sort::Set) => false,
            (Sort::Type(i), Sort::Type(j)) => i <= j,
        }
    }

    /// The sort of a product `∀ (x : A), B` where `A : domain` and
    /// `B : codomain`.
    ///
    /// `Prop` is impredicative: if the codomain lives in `Prop`, so does the
    /// product. `Set` and `Type` are predicative and take a maximum.
    pub fn product(domain: Sort, codomain: Sort) -> Sort {
        match codomain {
            Sort::Prop => Sort::Prop,
            Sort::Set => match domain {
                Sort::Prop | Sort::Set => Sort::Set,
                Sort::Type(i) => Sort::Type(i),
            },
            Sort::Type(j) => {
                let i = match domain {
                    Sort::Prop | Sort::Set => 0,
                    Sort::Type(i) => i,
                };
                Sort::Type(i.max(j))
            }
        }
    }

    /// The least upper bound of two sorts under cumulativity.
    pub fn max(self, other: Sort) -> Sort {
        if self.leq(other) {
            other
        } else {
            self
        }
    }
}

impl fmt::Display for Sort {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Sort::Prop => write!(f, "Prop"),
            Sort::Set => write!(f, "Set"),
            Sort::Type(i) => write!(f, "Type({i})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn successor() {
        assert_eq!(Sort::Prop.succ(), Sort::Type(1));
        assert_eq!(Sort::Set.succ(), Sort::Type(1));
        assert_eq!(Sort::Type(3).succ(), Sort::Type(4));
    }

    #[test]
    fn cumulativity_chain() {
        assert!(Sort::Prop.leq(Sort::Set));
        assert!(Sort::Set.leq(Sort::Type(0)));
        assert!(Sort::Type(0).leq(Sort::Type(5)));
        assert!(!Sort::Type(5).leq(Sort::Type(0)));
        assert!(!Sort::Set.leq(Sort::Prop));
        assert!(!Sort::Type(0).leq(Sort::Set));
    }

    #[test]
    fn impredicative_prop() {
        assert_eq!(Sort::product(Sort::Type(7), Sort::Prop), Sort::Prop);
        assert_eq!(Sort::product(Sort::Prop, Sort::Prop), Sort::Prop);
    }

    #[test]
    fn predicative_products() {
        assert_eq!(Sort::product(Sort::Set, Sort::Set), Sort::Set);
        assert_eq!(Sort::product(Sort::Type(2), Sort::Set), Sort::Type(2));
        assert_eq!(Sort::product(Sort::Type(2), Sort::Type(1)), Sort::Type(2));
        assert_eq!(Sort::product(Sort::Prop, Sort::Type(1)), Sort::Type(1));
    }

    #[test]
    fn lub() {
        assert_eq!(Sort::Prop.max(Sort::Set), Sort::Set);
        assert_eq!(Sort::Type(2).max(Sort::Type(3)), Sort::Type(3));
        assert_eq!(Sort::Type(2).max(Sort::Set), Sort::Type(2));
    }
}
