//! Literals and node identifiers.
//!
//! An AIG literal packs a node index and a complement flag into a single
//! `u32`, exactly like the AIGER encoding: `lit = 2 * var + complement`.
//! Node 0 is the constant-false node, so [`Lit::FALSE`] is literal `0` and
//! [`Lit::TRUE`] is literal `1`.

use std::fmt;
use std::ops::Not;

/// Identifier of a node inside an [`crate::Aig`].
///
/// Node 0 is always the constant-false node; primary inputs and AND nodes
/// follow in creation order (which is also a topological order).
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct NodeId(u32);

impl NodeId {
    /// The constant-false node present in every AIG.
    pub const CONST0: NodeId = NodeId(0);

    /// Creates a node id from a raw index.
    #[inline]
    pub fn new(index: u32) -> Self {
        NodeId(index)
    }

    /// Raw index of this node, usable to index per-node side arrays.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Raw index as `u32`.
    #[inline]
    pub fn as_u32(self) -> u32 {
        self.0
    }

    /// The positive (non-complemented) literal of this node.
    #[inline]
    pub fn lit(self) -> Lit {
        Lit::new(self, false)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// A possibly complemented reference to an AIG node.
///
/// ```
/// use gamora_aig::{Lit, NodeId};
/// let a = NodeId::new(3).lit();
/// assert!(!a.is_complement());
/// assert!((!a).is_complement());
/// assert_eq!(!!a, a);
/// assert_eq!(a.var(), NodeId::new(3));
/// ```
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Lit(u32);

impl Lit {
    /// Constant false (the positive literal of node 0).
    pub const FALSE: Lit = Lit(0);
    /// Constant true (the complemented literal of node 0).
    pub const TRUE: Lit = Lit(1);
    /// Sentinel used internally for "no fanin"; never a valid literal.
    pub(crate) const INVALID: Lit = Lit(u32::MAX);

    /// Creates a literal from a node and a complement flag.
    #[inline]
    pub fn new(var: NodeId, complement: bool) -> Self {
        Lit(var.0 << 1 | complement as u32)
    }

    /// Creates a literal from its raw AIGER encoding (`2*var + c`).
    #[inline]
    pub fn from_raw(raw: u32) -> Self {
        Lit(raw)
    }

    /// The raw AIGER encoding of this literal.
    #[inline]
    pub fn raw(self) -> u32 {
        self.0
    }

    /// The node this literal refers to.
    #[inline]
    pub fn var(self) -> NodeId {
        NodeId(self.0 >> 1)
    }

    /// Whether the literal is complemented (carries an inverter).
    #[inline]
    pub fn is_complement(self) -> bool {
        self.0 & 1 != 0
    }

    /// Complements the literal if `c` is true (XOR of inverters).
    #[inline]
    pub fn complement_if(self, c: bool) -> Lit {
        Lit(self.0 ^ c as u32)
    }

    /// Whether this literal is one of the two constants.
    #[inline]
    pub fn is_const(self) -> bool {
        self.var() == NodeId::CONST0
    }

    #[inline]
    pub(crate) fn is_valid(self) -> bool {
        self != Lit::INVALID
    }
}

impl Not for Lit {
    type Output = Lit;
    #[inline]
    fn not(self) -> Lit {
        Lit(self.0 ^ 1)
    }
}

impl From<NodeId> for Lit {
    #[inline]
    fn from(n: NodeId) -> Lit {
        n.lit()
    }
}

impl fmt::Display for Lit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_complement() {
            write!(f, "!{}", self.var())
        } else {
            write!(f, "{}", self.var())
        }
    }
}

impl fmt::Debug for Lit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Lit({self})")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn const_literals() {
        assert_eq!(Lit::FALSE.var(), NodeId::CONST0);
        assert!(!Lit::FALSE.is_complement());
        assert!(Lit::TRUE.is_complement());
        assert_eq!(!Lit::FALSE, Lit::TRUE);
        assert!(Lit::TRUE.is_const());
    }

    #[test]
    fn roundtrip_raw() {
        let l = Lit::new(NodeId::new(17), true);
        assert_eq!(l.raw(), 35);
        assert_eq!(Lit::from_raw(35), l);
        assert_eq!(l.var().index(), 17);
    }

    #[test]
    fn complement_ops() {
        let l = NodeId::new(4).lit();
        assert_eq!(l.complement_if(false), l);
        assert_eq!(l.complement_if(true), !l);
    }

    #[test]
    fn display_forms() {
        let l = Lit::new(NodeId::new(2), true);
        assert_eq!(l.to_string(), "!n2");
        assert_eq!(format!("{:?}", l), "Lit(!n2)");
        assert_eq!(NodeId::new(2).to_string(), "n2");
    }
}
