//! # gamora-aig
//!
//! And-Inverter Graph (AIG) substrate for the Gamora reproduction.
//!
//! An AIG is the uniform Boolean-network representation used throughout
//! modern logic synthesis: every internal node is a two-input AND and every
//! edge may carry an inverter. This crate provides everything the rest of
//! the workspace builds on:
//!
//! * [`Aig`] — structurally hashed construction with constant folding and a
//!   library of derived operators (XOR, MUX, MAJ, adder bitslices, ...);
//! * [`cut`] — K-feasible cut enumeration with truth tables, the engine of
//!   exact function detection and technology mapping;
//! * [`tt`] — truth-table manipulation and exhaustive NPN canonicalisation;
//! * [`sim`] — 64-way bit-parallel simulation and randomised equivalence
//!   checking;
//! * [`aiger`] — ASCII and binary AIGER I/O.
//!
//! ```
//! use gamora_aig::{Aig, cut, tt};
//! let mut aig = Aig::new();
//! let ins = aig.add_inputs(3);
//! let (sum, carry) = aig.full_adder(ins[0], ins[1], ins[2]);
//! aig.add_output(sum);
//! aig.add_output(carry);
//!
//! // The carry has a 3-feasible cut computing MAJ3 over the inputs.
//! let cuts = cut::enumerate_cuts(&aig, &cut::CutParams::for_adder_extraction());
//! let found = cuts.of(carry.var()).iter().any(|c| {
//!     c.len() == 3 && tt::classify_adder_func(c.tt, 3) == Some(tt::AdderFunc::Maj3)
//! });
//! assert!(found);
//! ```

#![warn(missing_docs)]

mod aig;
pub mod aiger;
pub mod cut;
pub mod hasher;
mod lit;
pub mod sim;
pub mod tt;

pub use aig::{Aig, AigStats, NodeKind};
pub use lit::{Lit, NodeId};
