//! # pumpkin-lang
//!
//! A Gallina-like surface language for the CIC_ω kernel: lexer, parser, name
//! resolution (named variables to de Bruijn indices), vernacular item
//! loading (`Inductive` / `Definition` / `Axiom`), and a pretty-printer that
//! round-trips with the parser.
//!
//! This plays the role of Coq's concrete syntax in the reproduction: the
//! standard library and all case studies are written as embedded source.
//!
//! ## Example
//!
//! ```
//! use pumpkin_kernel::prelude::*;
//! use pumpkin_lang::{load_source, term, pretty};
//!
//! # fn main() -> pumpkin_lang::error::Result<()> {
//! let mut env = Env::new();
//! load_source(&mut env, "
//!     Inductive nat : Set := | O : nat | S : nat -> nat.
//!     Definition two : nat := S (S O).
//! ")?;
//! let t = term(&env, "S two")?;
//! assert_eq!(pretty(&env, &normalize(&env, &t)), "S (S (S O))");
//! # Ok(())
//! # }
//! ```

pub mod ast;
pub mod error;
pub mod explain;
pub mod lex;
pub mod parse;
pub mod pretty;
pub mod resolve;

pub use error::{LangError, Pos};
pub use explain::{explain_decl, explain_term, Divergence, Explanation};
pub use parse::{parse_items, parse_term};
pub use pretty::{pretty, pretty_open};
pub use resolve::{load_item, load_source, term, Resolver};
