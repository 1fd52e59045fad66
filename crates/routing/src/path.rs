//! OD pairs: the origin and destination a routed path connects.

use nws_topo::NodeId;

/// An origin–destination pair.
///
/// In the paper's terminology an "origin" or "destination" can be any
/// aggregation level — end host, prefix, AS, PoP (§III). At the routing
/// layer both are topology nodes; higher layers attach semantics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct OdPair {
    /// Origin node.
    pub src: NodeId,
    /// Destination node.
    pub dst: NodeId,
}

impl OdPair {
    /// Convenience constructor.
    pub fn new(src: NodeId, dst: NodeId) -> Self {
        OdPair { src, dst }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn od_pair_equality() {
        let a = NodeId::from_index(0);
        let b = NodeId::from_index(1);
        assert_eq!(OdPair::new(a, b), OdPair { src: a, dst: b });
        assert_ne!(OdPair::new(a, b), OdPair::new(b, a));
    }
}
