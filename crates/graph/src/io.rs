//! Graph serialization: SNAP-style edge-list text.
//!
//! The format matches what the paper's datasets ship as (e.g. the SNAP
//! `web-BerkStan.txt` download): one `src dst` pair per line, `#` comments
//! allowed.

use crate::digraph::DiGraph;
use crate::types::{GraphError, NodeId};
use std::io::{BufRead, BufReader, BufWriter, Read, Write};

/// Serializes `g` as edge-list text (`src\tdst` per line) with a header
/// comment carrying the vertex count.
pub fn write_edge_list<W: Write>(g: &DiGraph, w: W) -> Result<(), GraphError> {
    let mut w = BufWriter::new(w);
    writeln!(w, "# nodes: {}", g.node_count())?;
    writeln!(w, "# edges: {}", g.edge_count())?;
    for (u, v) in g.edges() {
        writeln!(w, "{u}\t{v}")?;
    }
    w.flush()?;
    Ok(())
}

/// Parses edge-list text produced by [`write_edge_list`] or downloaded from
/// SNAP. Vertex count is taken from the `# nodes:` header when present,
/// otherwise inferred as `max id + 1`.
pub fn read_edge_list<R: Read>(r: R) -> Result<DiGraph, GraphError> {
    let reader = BufReader::new(r);
    let mut edges: Vec<(NodeId, NodeId)> = Vec::new();
    let mut declared_nodes: Option<usize> = None;
    let mut max_id: u64 = 0;
    for (idx, line) in reader.lines().enumerate() {
        let line = line?;
        let line_no = idx + 1;
        let trimmed = line.trim();
        if trimmed.is_empty() {
            continue;
        }
        if let Some(comment) = trimmed.strip_prefix('#') {
            if let Some(rest) = comment.trim().strip_prefix("nodes:") {
                declared_nodes =
                    Some(
                        rest.trim()
                            .parse::<usize>()
                            .map_err(|e| GraphError::Parse {
                                line: line_no,
                                message: format!("bad node count: {e}"),
                            })?,
                    );
            }
            continue;
        }
        let mut it = trimmed.split_whitespace();
        let parse = |tok: Option<&str>, line: usize| -> Result<NodeId, GraphError> {
            tok.ok_or_else(|| GraphError::Parse {
                line,
                message: "expected two vertex ids".into(),
            })?
            .parse::<NodeId>()
            .map_err(|e| GraphError::Parse {
                line,
                message: format!("bad vertex id: {e}"),
            })
        };
        let u = parse(it.next(), line_no)?;
        let v = parse(it.next(), line_no)?;
        if it.next().is_some() {
            return Err(GraphError::Parse {
                line: line_no,
                message: "trailing tokens after edge".into(),
            });
        }
        max_id = max_id.max(u as u64).max(v as u64);
        edges.push((u, v));
    }
    let inferred = if edges.is_empty() {
        0
    } else {
        (max_id + 1) as usize
    };
    let n = declared_nodes.unwrap_or(inferred).max(inferred);
    DiGraph::from_edges(n, edges)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::paper_fig1a;

    #[test]
    fn text_round_trip() {
        let g = paper_fig1a();
        let mut buf = Vec::new();
        write_edge_list(&g, &mut buf).unwrap();
        let g2 = read_edge_list(&buf[..]).unwrap();
        assert_eq!(g, g2);
    }

    #[test]
    fn text_header_preserves_isolated_tail_vertices() {
        // Vertex 4 isolated; header must carry n=5 through the round trip.
        let g = DiGraph::from_edges(5, [(0, 1)]).unwrap();
        let mut buf = Vec::new();
        write_edge_list(&g, &mut buf).unwrap();
        let g2 = read_edge_list(&buf[..]).unwrap();
        assert_eq!(g2.node_count(), 5);
    }

    #[test]
    fn text_parses_snap_style_without_header() {
        let txt = "# Directed graph\n# Comment line\n0 1\n1\t2\n\n2 0\n";
        let g = read_edge_list(txt.as_bytes()).unwrap();
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.edge_count(), 3);
    }

    #[test]
    fn text_rejects_garbage() {
        assert!(matches!(
            read_edge_list("0 x\n".as_bytes()),
            Err(GraphError::Parse { line: 1, .. })
        ));
        assert!(matches!(
            read_edge_list("0\n".as_bytes()),
            Err(GraphError::Parse { line: 1, .. })
        ));
        assert!(matches!(
            read_edge_list("0 1 2\n".as_bytes()),
            Err(GraphError::Parse { line: 1, .. })
        ));
    }
}
