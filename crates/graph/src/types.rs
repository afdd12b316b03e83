//! Shared primitive types and the crate error enum.

use std::fmt;

/// Vertex identifier.
///
/// `u32` keeps the CSR arrays at half the footprint of `usize` indices; the
/// paper's largest dataset (PATENT, 3.77M vertices) fits comfortably, and the
/// all-pairs similarity matrices this workspace materializes cap practical
/// sizes far below `u32::MAX` anyway.
pub type NodeId = u32;

/// Errors produced while constructing or deserializing graphs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphError {
    /// An edge referenced a vertex id `>= node_count`.
    NodeOutOfRange {
        /// The offending vertex id.
        node: NodeId,
        /// The number of vertices in the graph being built.
        node_count: usize,
    },
    /// The requested vertex count exceeds what `NodeId` can index.
    TooManyNodes(usize),
    /// A duplicate edge was found where the input contract forbids one
    /// (strict construction from a canonical source, e.g. a persistence
    /// load path — see [`crate::DiGraph::from_edges_strict`]).
    DuplicateEdge {
        /// Source endpoint of the repeated edge.
        from: NodeId,
        /// Target endpoint of the repeated edge.
        to: NodeId,
    },
    /// A parse error in the edge-list text format.
    Parse {
        /// 1-based line number of the malformed record.
        line: usize,
        /// Human-readable description of the problem.
        message: String,
    },
    /// Underlying I/O failure (message-only so the error stays `Clone + Eq`).
    Io(String),
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::NodeOutOfRange { node, node_count } => {
                write!(
                    f,
                    "vertex {node} out of range for graph with {node_count} vertices"
                )
            }
            GraphError::TooManyNodes(n) => {
                write!(f, "{n} vertices exceed the NodeId (u32) index space")
            }
            GraphError::DuplicateEdge { from, to } => {
                write!(f, "duplicate edge {from} -> {to} in strict construction")
            }
            GraphError::Parse { line, message } => {
                write!(f, "edge-list parse error at line {line}: {message}")
            }
            GraphError::Io(msg) => write!(f, "graph I/O error: {msg}"),
        }
    }
}

impl std::error::Error for GraphError {}

impl From<std::io::Error> for GraphError {
    fn from(e: std::io::Error) -> Self {
        GraphError::Io(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        let e = GraphError::NodeOutOfRange {
            node: 7,
            node_count: 3,
        };
        assert!(e.to_string().contains("vertex 7"));
        assert!(e.to_string().contains("3 vertices"));

        let e = GraphError::Parse {
            line: 12,
            message: "bad token".into(),
        };
        assert!(e.to_string().contains("line 12"));

        let e = GraphError::TooManyNodes(1 << 40);
        assert!(e.to_string().contains("u32"));
    }

    #[test]
    fn io_error_converts() {
        let io = std::io::Error::new(std::io::ErrorKind::NotFound, "nope");
        let e: GraphError = io.into();
        assert!(matches!(e, GraphError::Io(_)));
    }
}
