//! Binary persistence for query indexes.
//!
//! Building a [`SimRankIndex`] is expensive enough that servers cache it;
//! this codec stores one with a versioned header so the cache survives
//! process restarts and can be shipped between machines. One format,
//! little-endian throughout:
//!
//! * **`SRI1`** — a self-contained [`SimRankIndex`] (the graph's edge
//!   list travels with the diagonal correction vector, so serving needs
//!   no topology side channel):
//!   `magic "SRI1" | order u32 | depth u32 | edge_count u64 | damping f64
//!   | m × (from u32, to u32) | n doubles`
//!   ([`save_index`] / [`load_index`]).
//!
//! Every malformed-input path returns a typed [`PersistError`] — wrong
//! magic, truncated header or payload, trailing bytes, a header order too
//! large to represent, a file size that contradicts the header, and
//! semantically invalid contents such as out-of-range edge endpoints, a
//! damping factor outside `(0, 1)`, an underflowing series depth, or
//! non-finite diagonal entries — so corrupted caches fail loudly without
//! panicking or aborting. The streaming reader grows its buffers only as
//! payload bytes arrive, so a header claiming a huge order or edge count
//! costs no more memory than the stream actually holds.

use crate::index::{max_depth, SimRankIndex};
use simrank_graph::{DiGraph, NodeId};
use std::fmt;
use std::fs::File;
use std::io::{BufReader, BufWriter, Read, Write};
use std::path::Path;

/// Errors from the `SRI1` persistence codec.
#[derive(Debug)]
pub enum PersistError {
    /// The stream does not start with the magic of the format being read.
    BadMagic {
        /// The four bytes actually found.
        found: [u8; 4],
    },
    /// The stream ended before the structure it promised was complete.
    Truncated {
        /// Which part of the structure was cut short.
        context: String,
    },
    /// A well-formed structure followed by unexpected extra bytes.
    TrailingBytes,
    /// The order of the index being written, or the payload length a
    /// header implies, does not fit the format.
    OrderTooLarge {
        /// The order claimed by the header.
        order: u64,
    },
    /// The file's size contradicts the length implied by its header.
    SizeMismatch {
        /// Bytes implied by the header.
        expected: u64,
        /// Bytes actually present.
        actual: u64,
    },
    /// Structurally well-formed but semantically invalid contents: an
    /// edge endpoint outside the declared order, a damping factor outside
    /// `(0, 1)`, a series depth past its bound, or a non-finite diagonal entry.
    Malformed {
        /// What was invalid.
        context: String,
    },
    /// Underlying I/O failure.
    Io(std::io::Error),
}

impl fmt::Display for PersistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let detail = match self {
            PersistError::BadMagic { found } => format!("bad magic {found:?}"),
            PersistError::Truncated { context } => format!("truncated {context}"),
            PersistError::TrailingBytes => "trailing bytes after payload".into(),
            PersistError::OrderTooLarge { order } => format!("order {order} too large to allocate"),
            PersistError::SizeMismatch { expected, actual } => {
                format!("expected {expected} bytes from header, found {actual}")
            }
            PersistError::Malformed { context } => format!("malformed {context}"),
            PersistError::Io(e) => return write!(f, "persistence I/O error: {e}"),
        };
        write!(f, "persistence codec error: {detail}")
    }
}

impl std::error::Error for PersistError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PersistError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for PersistError {
    fn from(e: std::io::Error) -> Self {
        PersistError::Io(e)
    }
}

/// Reads `N` bytes or fails with a [`PersistError::Truncated`] naming
/// `context`, which is formatted only on failure.
fn read_array<const N: usize, R: Read>(
    r: &mut R,
    context: impl fmt::Display,
) -> Result<[u8; N], PersistError> {
    let mut buf = [0u8; N];
    r.read_exact(&mut buf)
        .map_err(|_| PersistError::Truncated {
            context: context.to_string(),
        })?;
    Ok(buf)
}

const INDEX_MAGIC: [u8; 4] = *b"SRI1";
/// Index header bytes: magic + order + depth + edge count + damping.
const INDEX_HEADER_BYTES: u64 = 28;

/// Serializes a [`SimRankIndex`] to a writer (format `SRI1`).
pub fn write_index<W: Write>(index: &SimRankIndex, mut w: W) -> Result<(), PersistError> {
    let g = index.graph();
    let n = g.node_count();
    let order = u32::try_from(n).map_err(|_| PersistError::OrderTooLarge { order: n as u64 })?;
    w.write_all(&INDEX_MAGIC)?;
    w.write_all(&order.to_le_bytes())?;
    w.write_all(&index.depth().to_le_bytes())?;
    w.write_all(&(g.edge_count() as u64).to_le_bytes())?;
    w.write_all(&index.damping().to_le_bytes())?;
    // Edges stream in the graph's canonical order (sorted by source, then
    // target — `DiGraph` normalizes on construction), so identical
    // indexes serialize to identical bytes.
    for (from, to) in g.edges() {
        w.write_all(&from.to_le_bytes())?;
        w.write_all(&to.to_le_bytes())?;
    }
    for &d in index.diagonal_correction() {
        w.write_all(&d.to_le_bytes())?;
    }
    Ok(())
}

/// Reads and validates an `SRI1` header, returning
/// `(order, depth, edge count, damping)`.
fn read_index_header<R: Read>(r: &mut R) -> Result<(usize, u32, u64, f64), PersistError> {
    let magic: [u8; 4] = read_array(r, "index header")?;
    if magic != INDEX_MAGIC {
        return Err(PersistError::BadMagic { found: magic });
    }
    let n = u32::from_le_bytes(read_array(r, "index order")?) as usize;
    let depth = u32::from_le_bytes(read_array(r, "index depth")?);
    let m = u64::from_le_bytes(read_array(r, "index edge count")?);
    let damping = f64::from_le_bytes(read_array(r, "index damping")?);
    // A simple digraph holds at most n² edges (self-loops allowed, multi-
    // edges deduplicated away), so any larger claim is corruption.
    if m > (n as u64).saturating_mul(n as u64) {
        return Err(PersistError::Malformed {
            context: format!("edge count {m} exceeds order {n} squared"),
        });
    }
    if !damping.is_finite() || damping <= 0.0 || damping >= 1.0 {
        return Err(PersistError::Malformed {
            context: format!("damping {damping} outside (0, 1)"),
        });
    }
    // The builder never writes a deeper series; loads walk `depth` levels.
    let bound = max_depth(damping);
    if depth > bound {
        return Err(PersistError::Malformed {
            context: format!("depth {depth} exceeds the bound {bound} for damping {damping}"),
        });
    }
    Ok((n, depth, m, damping))
}

/// Reads the edge list and diagonal vector for a validated header.
///
/// The header's counts are claims, not facts: both buffers grow only as
/// their bytes arrive, and the graph (whose CSR offsets are `O(order)`)
/// is built only after the whole payload has been read, so a short
/// stream with a huge header fails `Truncated` without a large
/// allocation.
fn read_index_body<R: Read>(
    r: &mut R,
    n: usize,
    depth: u32,
    m: u64,
    damping: f64,
) -> Result<SimRankIndex, PersistError> {
    let mut edges: Vec<(NodeId, NodeId)> = Vec::new();
    for e in 0..m {
        let from = u32::from_le_bytes(read_array(r, format_args!("edge {e} source"))?);
        let to = u32::from_le_bytes(read_array(r, format_args!("edge {e} target"))?);
        edges.push((from, to));
    }
    let mut diag: Vec<f64> = Vec::new();
    for v in 0..n {
        let d = f64::from_le_bytes(read_array(r, format_args!("diagonal entry {v}"))?);
        if !d.is_finite() {
            return Err(PersistError::Malformed {
                context: format!("non-finite diagonal entry {d} at vertex {v}"),
            });
        }
        diag.push(d);
    }
    // The writer serializes a CSR edge iteration — sorted and duplicate-
    // free by construction — so a repeated edge in the payload is
    // corruption, not input to be silently collapsed.
    let graph = DiGraph::from_edges_strict(n, edges).map_err(|e| PersistError::Malformed {
        context: format!("edge list: {e}"),
    })?;
    Ok(SimRankIndex::from_parts(graph, diag, damping, depth))
}

/// Deserializes a [`SimRankIndex`] from a reader (format `SRI1`).
pub fn read_index<R: Read>(mut r: R) -> Result<SimRankIndex, PersistError> {
    let (n, depth, m, damping) = read_index_header(&mut r)?;
    let out = read_index_body(&mut r, n, depth, m, damping)?;
    // Trailing garbage after a complete payload fails loudly.
    let mut probe = [0u8; 1];
    match r.read(&mut probe)? {
        0 => Ok(out),
        _ => Err(PersistError::TrailingBytes),
    }
}

/// Saves an index to `path`.
pub fn save_index(index: &SimRankIndex, path: &Path) -> Result<(), PersistError> {
    let mut w = BufWriter::new(File::create(path)?);
    write_index(index, &mut w)?;
    w.flush()?;
    Ok(())
}

/// Loads an index from `path`.
///
/// Unlike the streaming [`read_index`], the file length is checked
/// against the header *before* the payload is read, so a truncated or
/// padded cache file is rejected without reading it.
pub fn load_index(path: &Path) -> Result<SimRankIndex, PersistError> {
    let mut r = BufReader::new(File::open(path)?);
    let (n, depth, m, damping) = read_index_header(&mut r)?;
    let expected = m
        .checked_mul(8)
        .and_then(|edges| (n as u64).checked_mul(8).map(|diag| (edges, diag)))
        .and_then(|(edges, diag)| edges.checked_add(diag))
        .and_then(|payload| payload.checked_add(INDEX_HEADER_BYTES))
        .ok_or(PersistError::OrderTooLarge { order: n as u64 })?;
    let actual = r.get_ref().metadata()?.len();
    if actual != expected {
        return Err(PersistError::SizeMismatch { expected, actual });
    }
    read_index_body(&mut r, n, depth, m, damping)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::MAX_INDEX_DEPTH;
    use crate::options::SimRankOptions;
    use crate::query::QueryEngine;
    use simrank_graph::fixtures::paper_fig1a;

    #[test]
    fn error_display_and_source() {
        // The n > u32::MAX guard in `write_index` itself is untestable
        // (such an index cannot be built); cover the error type's surface.
        let e = PersistError::OrderTooLarge { order: 1 << 40 };
        assert!(e.to_string().contains("too large"));
        let io = PersistError::from(std::io::Error::other("disk on fire"));
        assert!(std::error::Error::source(&io).is_some());
        assert!(std::error::Error::source(&e).is_none());
    }

    fn sample_index() -> SimRankIndex {
        SimRankIndex::build(
            &paper_fig1a(),
            &SimRankOptions::default()
                .with_damping(0.6)
                .with_epsilon(1e-4),
        )
    }

    #[test]
    fn index_round_trip_in_memory_preserves_queries() {
        let index = sample_index();
        let mut buf = Vec::new();
        write_index(&index, &mut buf).unwrap();
        let back = read_index(&buf[..]).unwrap();
        // The structural payload round-trips bit-exactly...
        assert_eq!(back.graph(), index.graph());
        assert_eq!(back.diagonal_correction(), index.diagonal_correction());
        assert_eq!(back.depth(), index.depth());
        assert_eq!(back.damping(), index.damping());
        assert_eq!(back, index);
        // ...so every query does too.
        for u in 0..index.order() as u32 {
            assert_eq!(
                back.single_source(u),
                index.single_source(u),
                "single_source({u}) drifted"
            );
            assert_eq!(back.top_k(u, 4), index.top_k(u, 4));
        }
    }

    #[test]
    fn loaded_residual_matches_the_solve_at_every_width() {
        // A loaded index computes its residual on the first call, streaming
        // the rows the solve stored: the same bits as the solve's own, which
        // are themselves the same at every pool width.
        let g = simrank_graph::gen::copying_web_graph(
            simrank_graph::gen::CopyingParams::berkstan_like(60),
            3,
        );
        let opts = SimRankOptions::default()
            .with_damping(0.6)
            .with_epsilon(1e-4);
        let bits = [1usize, 2, 4, 8].map(|t| {
            let index = SimRankIndex::build(&g, &opts.with_threads(t));
            let mut buf = Vec::new();
            write_index(&index, &mut buf).unwrap();
            let back = read_index(&buf[..]).unwrap();
            assert_eq!(back, index, "threads = {t}");
            let bits = index.solver_residual().to_bits();
            assert_eq!(back.solver_residual().to_bits(), bits, "threads = {t}");
            bits
        });
        assert!(bits.iter().all(|&b| b == bits[0]), "{bits:?}");
        assert!(f64::from_bits(bits[0]) <= 1e-4 * (1.0 - 0.6) + 1e-12);
    }

    #[test]
    fn index_round_trip_on_disk() {
        let dir = std::env::temp_dir().join("simrank-persist-test-index");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("fig1a.sri");
        let index = sample_index();
        save_index(&index, &path).unwrap();
        let back = load_index(&path).unwrap();
        assert_eq!(back, index);
        assert_eq!(back.single_source(1), index.single_source(1));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn index_rejects_truncation_at_every_byte_boundary() {
        let index = sample_index();
        let mut buf = Vec::new();
        write_index(&index, &mut buf).unwrap();
        // Every strict prefix must fail typed — never panic, never succeed.
        for cut in 0..buf.len() {
            match read_index(&buf[..cut]) {
                Err(PersistError::Truncated { .. }) => {}
                other => panic!("prefix of {cut} bytes: expected Truncated, got {other:?}"),
            }
        }
        // And the full buffer still parses.
        assert_eq!(read_index(&buf[..]).unwrap(), index);
    }

    #[test]
    fn index_rejects_bad_magic_and_trailing_bytes() {
        let index = sample_index();
        let mut buf = Vec::new();
        write_index(&index, &mut buf).unwrap();
        let mut flipped = buf.clone();
        flipped[3] ^= 0x20;
        assert!(matches!(
            read_index(&flipped[..]),
            Err(PersistError::BadMagic { .. })
        ));
        let mut long = buf.clone();
        long.push(0);
        assert!(matches!(
            read_index(&long[..]),
            Err(PersistError::TrailingBytes)
        ));
    }

    /// Hand-assembles an SRI1 stream for corruption tests.
    fn raw_index(n: u32, depth: u32, edges: &[(u32, u32)], damping: f64, diag: &[f64]) -> Vec<u8> {
        let mut buf = Vec::new();
        buf.extend_from_slice(b"SRI1");
        buf.extend_from_slice(&n.to_le_bytes());
        buf.extend_from_slice(&depth.to_le_bytes());
        buf.extend_from_slice(&(edges.len() as u64).to_le_bytes());
        buf.extend_from_slice(&damping.to_le_bytes());
        for &(a, b) in edges {
            buf.extend_from_slice(&a.to_le_bytes());
            buf.extend_from_slice(&b.to_le_bytes());
        }
        for &d in diag {
            buf.extend_from_slice(&d.to_le_bytes());
        }
        buf
    }

    #[test]
    fn index_rejects_semantic_corruption() {
        // Damping outside (0, 1) — including NaN and the closed endpoints.
        for c in [0.0, 1.0, -0.5, f64::NAN, f64::INFINITY] {
            let buf = raw_index(2, 3, &[(0, 1)], c, &[0.4, 0.4]);
            assert!(
                matches!(read_index(&buf[..]), Err(PersistError::Malformed { context }) if context.contains("damping")),
                "damping {c} accepted"
            );
        }
        // Edge endpoint outside the declared order.
        let buf = raw_index(2, 3, &[(0, 7)], 0.6, &[0.4, 0.4]);
        assert!(matches!(
            read_index(&buf[..]),
            Err(PersistError::Malformed { context }) if context.contains("edge list")
        ));
        // Non-finite diagonal entry.
        let buf = raw_index(2, 3, &[(0, 1)], 0.6, &[0.4, f64::NAN]);
        assert!(matches!(
            read_index(&buf[..]),
            Err(PersistError::Malformed { context }) if context.contains("diagonal")
        ));
        // A depth past the level where Cᵏ stops shrinking: rejected from
        // the header, before any level is walked. Near C = 1 the weight
        // shrinks for billions of levels, and the fixed cap decides.
        for (c, depth) in [
            (0.6, u32::MAX),
            (1.0 - 1e-9, u32::MAX),
            (1.0 - 1e-9, MAX_INDEX_DEPTH + 1),
        ] {
            let buf = raw_index(2, depth, &[(0, 1)], c, &[0.4, 0.4]);
            assert!(
                matches!(read_index(&buf[..]), Err(PersistError::Malformed { context }) if context.contains("depth")),
                "depth {depth} at damping {c} accepted"
            );
        }
        // Edge count beyond n² — rejected before any allocation.
        let mut buf = raw_index(2, 3, &[], 0.6, &[]);
        buf[12..20].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(matches!(
            read_index(&buf[..]),
            Err(PersistError::Malformed { context }) if context.contains("edge count")
        ));
        // The largest order behind an empty payload: the reader runs out
        // of bytes before it builds anything order-sized (the graph's
        // offsets alone would be 2 × 32 GiB).
        let buf = raw_index(u32::MAX, 3, &[], 0.6, &[]);
        assert_eq!(buf.len(), INDEX_HEADER_BYTES as usize);
        assert!(matches!(
            read_index(&buf[..]),
            Err(PersistError::Truncated { .. } | PersistError::OrderTooLarge { .. })
        ));
        // Duplicated edge in the payload: the writer never emits one, so
        // the strict load path must flag corruption instead of deduping.
        let buf = raw_index(2, 3, &[(0, 1), (0, 1)], 0.6, &[0.4, 0.4]);
        assert!(matches!(
            read_index(&buf[..]),
            Err(PersistError::Malformed { context }) if context.contains("duplicate edge")
        ));
    }

    #[test]
    fn index_load_checks_file_size_before_allocating() {
        let dir = std::env::temp_dir().join("simrank-persist-test-index-size");
        std::fs::create_dir_all(&dir).unwrap();

        // Header promises far more payload than the file holds.
        let path = dir.join("inflated.sri");
        let mut buf = raw_index(1000, 3, &[], 0.6, &[]);
        buf[12..20].copy_from_slice(&500_000u64.to_le_bytes());
        buf.extend_from_slice(&[0u8; 16]);
        std::fs::write(&path, &buf).unwrap();
        assert!(matches!(
            load_index(&path),
            Err(PersistError::SizeMismatch { actual: 44, .. })
        ));

        // A truncated real index file: also a size mismatch.
        let path2 = dir.join("truncated.sri");
        let mut full = Vec::new();
        write_index(&sample_index(), &mut full).unwrap();
        std::fs::write(&path2, &full[..full.len() - 3]).unwrap();
        assert!(matches!(
            load_index(&path2),
            Err(PersistError::SizeMismatch { .. })
        ));

        std::fs::remove_file(&path).ok();
        std::fs::remove_file(&path2).ok();
    }

    #[test]
    fn index_at_the_depth_bound_round_trips() {
        // A K past the bound clamps to it (the cap, at C = 0.95) and loads.
        for (c, bound) in [(0.6, 1457), (0.95, MAX_INDEX_DEPTH)] {
            let opts = SimRankOptions::default()
                .with_damping(c)
                .with_iterations(u32::MAX);
            let index = SimRankIndex::build(&paper_fig1a(), &opts);
            assert_eq!(index.depth(), bound);
            let mut buf = Vec::new();
            write_index(&index, &mut buf).unwrap();
            assert_eq!(read_index(&buf[..]).unwrap(), index);
            buf[8..12].copy_from_slice(&(bound + 1).to_le_bytes());
            assert!(matches!(
                read_index(&buf[..]),
                Err(PersistError::Malformed { .. })
            ));
        }
    }

    #[test]
    fn empty_index_round_trips() {
        let empty = DiGraph::from_edges(0, []).unwrap();
        let index = SimRankIndex::build(&empty, &SimRankOptions::default());
        let mut buf = Vec::new();
        write_index(&index, &mut buf).unwrap();
        assert_eq!(buf.len(), INDEX_HEADER_BYTES as usize);
        let back = read_index(&buf[..]).unwrap();
        assert_eq!(back.order(), 0);
    }
}
