//! # gamora-sca
//!
//! Symbolic computer algebra for arithmetic-circuit verification: the
//! downstream application that makes adder-tree extraction (and hence
//! Gamora) valuable, and the *slow exact baseline* of the paper's runtime
//! comparison (Figure 7).
//!
//! The stack:
//!
//! * [`Int`] — arbitrary-precision signed integers (coefficients reach
//!   `2^(2w)` for `w`-bit multipliers);
//! * [`Poly`] — multilinear polynomials over Boolean node variables
//!   (`x^2 = x`);
//! * [`backward_rewrite`] — reverse-topological substitution of gate
//!   variables, either node-by-node (naive symbolic evaluation) or
//!   adder-cut-at-a-time when an extracted adder tree is supplied
//!   (the fast flow of Yu et al. TCAD'17);
//! * [`verify`](fn@verify) — checks a network's output signature against a word-level
//!   spec such as `A * B`.
//!
//! ```
//! use gamora_circuits::csa_multiplier;
//! use gamora_sca::{product_spec, verify, RewriteParams};
//! let m = csa_multiplier(4);
//! let spec = product_spec(&m.a, &m.b);
//! let report = verify(&m.aig, &spec, None, &RewriteParams::default())?;
//! assert!(report.equivalent);
//! # Ok::<(), gamora_sca::RewriteError>(())
//! ```

#![warn(missing_docs)]

mod int;
mod poly;
mod rewrite;
mod verify;

pub use int::Int;
pub use poly::{Poly, Term};
pub use rewrite::{
    backward_rewrite, lit_poly, output_signature, poly_from_tt, word_poly, RewriteError,
    RewriteParams, RewriteStats,
};
pub use verify::{mac_spec, product_spec, sum_spec, verify, VerifyReport};
