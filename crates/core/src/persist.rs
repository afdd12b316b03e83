//! Binary persistence for similarity matrices, query indexes, and
//! low-rank factor handles.
//!
//! All-pairs SimRank is expensive enough that downstream users cache it;
//! these codecs store results with versioned headers so caches survive
//! process restarts and can be shipped between machines. Little-endian
//! throughout; three formats:
//!
//! * **`SRM1`** — a packed-triangle score matrix:
//!   `magic "SRM1" | order u32 | n(n+1)/2 doubles`
//!   ([`save_scores`] / [`load_scores`]).
//! * **`SRI1`** — a self-contained [`SimRankIndex`] (the graph's edge
//!   list travels with the diagonal correction vector, so serving needs
//!   no topology side channel):
//!   `magic "SRI1" | order u32 | depth u32 | edge_count u64 | damping f64
//!   | m × (from u32, to u32) | n doubles`
//!   ([`save_index`] / [`load_index`]).
//! * **`SRL1`** — a [`LowRankScores`] factor dump (the `O(n·r + r²)`
//!   mtx result that never densifies; the cached `U·Ms` product is
//!   recomputed bit-identically on load, so round trips are
//!   `PartialEq`-exact):
//!   `magic "SRL1" | order u32 | rank u32 | scale f64
//!   | n·r doubles (U, row-major) | r·r doubles (Ms, row-major)`
//!   ([`save_low_rank`] / [`load_low_rank`]).
//!
//! Every malformed-input path returns a typed [`PersistError`] — wrong
//! magic, truncated header or payload, trailing bytes, a header order too
//! large to allocate, a file size that contradicts the header, and (for
//! indexes) semantically invalid contents such as out-of-range edge
//! endpoints, a damping factor outside `(0, 1)`, an underflowing series
//! depth, or non-finite diagonal entries — so corrupted caches fail
//! loudly without panicking or aborting.

use crate::index::{max_depth, SimRankIndex};
use crate::matrix::SimMatrix;
use crate::store::LowRankScores;
use simrank_graph::{DiGraph, NodeId};
use simrank_linalg::DenseMatrix;
use simrank_par::WorkerPool;
use std::fmt;
use std::fs::File;
use std::io::{BufReader, BufWriter, Read, Write};
use std::path::Path;

/// Errors from the persistence codecs (`SRM1`, `SRI1` and `SRL1`).
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
    /// The header claims an order whose payload cannot be represented or
    /// allocated.
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
/// `context`.
fn read_array<const N: usize, R: Read>(r: &mut R, context: &str) -> Result<[u8; N], PersistError> {
    let mut buf = [0u8; N];
    r.read_exact(&mut buf)
        .map_err(|_| PersistError::Truncated {
            context: context.into(),
        })?;
    Ok(buf)
}

/// `value` if `r` is exhausted, else [`PersistError::TrailingBytes`]:
/// trailing garbage after a complete payload fails loudly.
fn expect_end<T, R: Read>(mut r: R, value: T) -> Result<T, PersistError> {
    let mut probe = [0u8; 1];
    match r.read(&mut probe)? {
        0 => Ok(value),
        _ => Err(PersistError::TrailingBytes),
    }
}

/// Fails unless `file` holds exactly the `expected` bytes its header
/// implies; `None` (a length past `u64`) is an order too large.
fn check_len(file: &File, expected: Option<u64>, order: usize) -> Result<(), PersistError> {
    let expected = expected.ok_or(PersistError::OrderTooLarge {
        order: order as u64,
    })?;
    let actual = file.metadata()?.len();
    if actual != expected {
        return Err(PersistError::SizeMismatch { expected, actual });
    }
    Ok(())
}

/// Writes `magic` and the order `n`, which start every header.
fn write_magic_order<W: Write>(w: &mut W, magic: [u8; 4], n: usize) -> Result<(), PersistError> {
    let order = u32::try_from(n).map_err(|_| PersistError::OrderTooLarge { order: n as u64 })?;
    w.write_all(&magic)?;
    w.write_all(&order.to_le_bytes())?;
    Ok(())
}

/// Creates `path`, runs `write` on a buffered writer over it, flushes.
fn save_buffered(
    path: &Path,
    write: impl FnOnce(&mut BufWriter<File>) -> Result<(), PersistError>,
) -> Result<(), PersistError> {
    let mut w = BufWriter::new(File::create(path)?);
    write(&mut w)?;
    w.flush()?;
    Ok(())
}

const MAGIC: [u8; 4] = *b"SRM1";
/// Header bytes: magic + order.
const HEADER_BYTES: u64 = 8;

/// Packed-triangle entry count for order `n`.
fn entries(n: u64) -> u64 {
    n * (n + 1) / 2
}

/// Serializes `scores` to a writer.
pub fn write_scores<W: Write>(scores: &SimMatrix, mut w: W) -> Result<(), PersistError> {
    write_magic_order(&mut w, MAGIC, scores.order())?;
    // Stream the packed triangle in row order (a ≤ b ⇒ stored once).
    for (_, _, v) in scores.iter_upper() {
        w.write_all(&v.to_le_bytes())?;
    }
    Ok(())
}

/// Reads and validates the header, returning the order.
fn read_header<R: Read>(r: &mut R) -> Result<usize, PersistError> {
    let magic: [u8; 4] = read_array(r, "header")?;
    if magic != MAGIC {
        return Err(PersistError::BadMagic { found: magic });
    }
    Ok(u32::from_le_bytes(read_array(r, "order")?) as usize)
}

/// Reads the packed triangle for a validated order.
fn read_body<R: Read>(r: &mut R, n: usize) -> Result<SimMatrix, PersistError> {
    // Allocation is fallible: a corrupt header claiming a gigantic order
    // must become a typed error, never an OOM abort.
    let mut out = SimMatrix::try_zeros(n).ok_or(PersistError::OrderTooLarge { order: n as u64 })?;
    let mut buf = [0u8; 8];
    for hi in 0..n {
        for lo in 0..=hi {
            r.read_exact(&mut buf)
                .map_err(|_| PersistError::Truncated {
                    context: format!("payload at entry ({lo},{hi})"),
                })?;
            out.set(lo, hi, f64::from_le_bytes(buf));
        }
    }
    Ok(out)
}

/// Deserializes scores from a reader.
pub fn read_scores<R: Read>(mut r: R) -> Result<SimMatrix, PersistError> {
    let n = read_header(&mut r)?;
    let out = read_body(&mut r, n)?;
    expect_end(r, out)
}

/// Saves scores to `path`.
pub fn save_scores(scores: &SimMatrix, path: &Path) -> Result<(), PersistError> {
    save_buffered(path, |w| write_scores(scores, w))
}

/// Loads scores from `path`.
///
/// Unlike the streaming [`read_scores`], the file length is checked against
/// the header *before* the triangle is allocated, so a truncated or padded
/// cache file is rejected without reading (or reserving memory for) the
/// payload.
pub fn load_scores(path: &Path) -> Result<SimMatrix, PersistError> {
    let mut r = BufReader::new(File::open(path)?);
    let n = read_header(&mut r)?;
    let expected = entries(n as u64)
        .checked_mul(8)
        .and_then(|b| b.checked_add(HEADER_BYTES));
    check_len(r.get_ref(), expected, n)?;
    read_body(&mut r, n)
}

const INDEX_MAGIC: [u8; 4] = *b"SRI1";
/// Index header bytes: magic + order + depth + edge count + damping.
const INDEX_HEADER_BYTES: u64 = 28;

/// Serializes a [`SimRankIndex`] to a writer (format `SRI1`).
pub fn write_index<W: Write>(index: &SimRankIndex, mut w: W) -> Result<(), PersistError> {
    let g = index.graph();
    write_magic_order(&mut w, INDEX_MAGIC, g.node_count())?;
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
    // edges deduplicated away), so any larger claim is corruption — and
    // rejecting it here also bounds the edge-list allocation below.
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
fn read_index_body<R: Read>(
    r: &mut R,
    n: usize,
    depth: u32,
    m: u64,
    damping: f64,
) -> Result<SimRankIndex, PersistError> {
    // Fallible reservations: a corrupt (but header-consistent) size claim
    // must become a typed error, never an OOM abort.
    let mut edges: Vec<(NodeId, NodeId)> = Vec::new();
    edges
        .try_reserve_exact(m as usize)
        .map_err(|_| PersistError::OrderTooLarge { order: m })?;
    for e in 0..m {
        let from = u32::from_le_bytes(read_array(r, &format!("edge {e} source"))?);
        let to = u32::from_le_bytes(read_array(r, &format!("edge {e} target"))?);
        edges.push((from, to));
    }
    // The writer serializes a CSR edge iteration — sorted and duplicate-
    // free by construction — so a repeated edge in the payload is
    // corruption, not input to be silently collapsed.
    let graph = DiGraph::from_edges_strict(n, edges).map_err(|e| PersistError::Malformed {
        context: format!("edge list: {e}"),
    })?;
    let mut diag: Vec<f64> = Vec::new();
    diag.try_reserve_exact(n)
        .map_err(|_| PersistError::OrderTooLarge { order: n as u64 })?;
    for v in 0..n {
        let d = f64::from_le_bytes(read_array(r, &format!("diagonal entry {v}"))?);
        if !d.is_finite() {
            return Err(PersistError::Malformed {
                context: format!("non-finite diagonal entry {d} at vertex {v}"),
            });
        }
        diag.push(d);
    }
    Ok(SimRankIndex::from_parts(graph, diag, damping, depth))
}

/// Deserializes a [`SimRankIndex`] from a reader (format `SRI1`).
pub fn read_index<R: Read>(mut r: R) -> Result<SimRankIndex, PersistError> {
    let (n, depth, m, damping) = read_index_header(&mut r)?;
    let out = read_index_body(&mut r, n, depth, m, damping)?;
    expect_end(r, out)
}

/// Saves an index to `path`.
pub fn save_index(index: &SimRankIndex, path: &Path) -> Result<(), PersistError> {
    save_buffered(path, |w| write_index(index, w))
}

/// Loads an index from `path`.
///
/// As with [`load_scores`], the file length is checked against the header
/// *before* the edge list or diagonal is allocated, so a truncated or
/// padded cache file is rejected without reserving payload memory.
pub fn load_index(path: &Path) -> Result<SimRankIndex, PersistError> {
    let mut r = BufReader::new(File::open(path)?);
    let (n, depth, m, damping) = read_index_header(&mut r)?;
    let expected = m
        .checked_mul(8)
        .and_then(|edges| (n as u64).checked_mul(8).map(|diag| (edges, diag)))
        .and_then(|(edges, diag)| edges.checked_add(diag))
        .and_then(|payload| payload.checked_add(INDEX_HEADER_BYTES));
    check_len(r.get_ref(), expected, n)?;
    read_index_body(&mut r, n, depth, m, damping)
}

const LOW_RANK_MAGIC: [u8; 4] = *b"SRL1";
/// Low-rank header bytes: magic + order + rank + scale.
const LOW_RANK_HEADER_BYTES: u64 = 20;

/// Serializes a [`LowRankScores`] factor handle to a writer (format
/// `SRL1`). Only the defining factors `U` and `Ms` are stored; the cached
/// `U·Ms` product is rebuilt deterministically on read.
pub fn write_low_rank<W: Write>(store: &LowRankScores, mut w: W) -> Result<(), PersistError> {
    let (n, r) = (store.order(), store.rank());
    if r > u32::MAX as usize {
        return Err(PersistError::OrderTooLarge { order: n as u64 });
    }
    write_magic_order(&mut w, LOW_RANK_MAGIC, n)?;
    w.write_all(&(r as u32).to_le_bytes())?;
    w.write_all(&store.scale().to_le_bytes())?;
    for &v in store.factor_u().as_slice() {
        w.write_all(&v.to_le_bytes())?;
    }
    for &v in store.mixing().as_slice() {
        w.write_all(&v.to_le_bytes())?;
    }
    Ok(())
}

/// Reads and validates an `SRL1` header, returning `(order, rank, scale)`.
fn read_low_rank_header<R: Read>(r: &mut R) -> Result<(usize, usize, f64), PersistError> {
    let magic: [u8; 4] = read_array(r, "low-rank header")?;
    if magic != LOW_RANK_MAGIC {
        return Err(PersistError::BadMagic { found: magic });
    }
    let n = u32::from_le_bytes(read_array(r, "low-rank order")?) as usize;
    let rank = u32::from_le_bytes(read_array(r, "low-rank rank")?) as usize;
    let scale = f64::from_le_bytes(read_array(r, "low-rank scale")?);
    // The factors come from a truncated SVD of an n-column matrix, so a
    // rank beyond the order is corruption — and rejecting it here also
    // bounds the factor allocations below.
    if rank > n {
        return Err(PersistError::Malformed {
            context: format!("rank {rank} exceeds order {n}"),
        });
    }
    if !scale.is_finite() || scale <= 0.0 || scale >= 1.0 {
        return Err(PersistError::Malformed {
            context: format!("scale {scale} outside (0, 1)"),
        });
    }
    Ok((n, rank, scale))
}

/// Reads one row-major factor matrix of validated dimensions, rejecting
/// non-finite entries.
fn read_factor<R: Read>(
    r: &mut R,
    rows: usize,
    cols: usize,
    name: &str,
) -> Result<DenseMatrix, PersistError> {
    let cells = (rows as u64)
        .checked_mul(cols as u64)
        .filter(|&c| c <= usize::MAX as u64)
        .ok_or(PersistError::OrderTooLarge { order: rows as u64 })? as usize;
    // Fallible reservation: a corrupt (but header-consistent) size claim
    // must become a typed error, never an OOM abort.
    let mut buf: Vec<f64> = Vec::new();
    buf.try_reserve_exact(cells)
        .map_err(|_| PersistError::OrderTooLarge { order: rows as u64 })?;
    for i in 0..cells {
        let v = f64::from_le_bytes(read_array(r, &format!("{name} entry {i}"))?);
        if !v.is_finite() {
            return Err(PersistError::Malformed {
                context: format!("non-finite {name} entry {v} at cell {i}"),
            });
        }
        buf.push(v);
    }
    Ok(DenseMatrix::from_rows(rows, cols, &buf))
}

/// Reads the factor payload for a validated header.
fn read_low_rank_body<R: Read>(
    r: &mut R,
    n: usize,
    rank: usize,
    scale: f64,
) -> Result<LowRankScores, PersistError> {
    let u = read_factor(r, n, rank, "U factor")?;
    let ms = read_factor(r, rank, rank, "mixing")?;
    Ok(WorkerPool::scoped(1, |pool| {
        LowRankScores::from_parts(scale, u, ms, pool)
    }))
}

/// Deserializes a [`LowRankScores`] from a reader (format `SRL1`).
pub fn read_low_rank<R: Read>(mut r: R) -> Result<LowRankScores, PersistError> {
    let (n, rank, scale) = read_low_rank_header(&mut r)?;
    let out = read_low_rank_body(&mut r, n, rank, scale)?;
    expect_end(r, out)
}

/// Saves a low-rank factor handle to `path`.
pub fn save_low_rank(store: &LowRankScores, path: &Path) -> Result<(), PersistError> {
    save_buffered(path, |w| write_low_rank(store, w))
}

/// Loads a low-rank factor handle from `path`.
///
/// As with [`load_scores`], the file length is checked against the header
/// *before* the factors are allocated, so a truncated or padded cache
/// file is rejected without reserving payload memory.
pub fn load_low_rank(path: &Path) -> Result<LowRankScores, PersistError> {
    let mut r = BufReader::new(File::open(path)?);
    let (n, rank, scale) = read_low_rank_header(&mut r)?;
    let expected = (n as u64)
        .checked_mul(rank as u64)
        .and_then(|u_cells| (rank as u64).checked_mul(rank as u64).map(|m| u_cells + m))
        .and_then(|cells| cells.checked_mul(8))
        .and_then(|payload| payload.checked_add(LOW_RANK_HEADER_BYTES));
    check_len(r.get_ref(), expected, n)?;
    read_low_rank_body(&mut r, n, rank, scale)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::MAX_INDEX_DEPTH;
    use crate::oip::oip_simrank;
    use crate::options::SimRankOptions;
    use crate::query::QueryEngine;
    use simrank_graph::fixtures::paper_fig1a;

    fn sample() -> SimMatrix {
        oip_simrank(
            &paper_fig1a(),
            &SimRankOptions::default().with_iterations(5),
        )
    }

    #[test]
    fn round_trip_in_memory() {
        let s = sample();
        let mut buf = Vec::new();
        write_scores(&s, &mut buf).unwrap();
        let back = read_scores(&buf[..]).unwrap();
        assert_eq!(back.order(), s.order());
        assert_eq!(back.max_abs_diff(&s), 0.0, "bit-exact round trip");
    }

    #[test]
    fn round_trip_on_disk() {
        let dir = std::env::temp_dir().join("simrank-persist-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("scores.srm");
        let s = sample();
        save_scores(&s, &path).unwrap();
        let back = load_scores(&path).unwrap();
        assert_eq!(back.max_abs_diff(&s), 0.0);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn rejects_corruption() {
        let s = sample();
        let mut buf = Vec::new();
        write_scores(&s, &mut buf).unwrap();
        // Bad magic.
        let mut bad = buf.clone();
        bad[0] ^= 0xff;
        assert!(matches!(
            read_scores(&bad[..]),
            Err(PersistError::BadMagic { found }) if found[0] == (b'S' ^ 0xff)
        ));
        // Truncation: mid-payload, mid-order, and mid-magic.
        assert!(matches!(
            read_scores(&buf[..buf.len() - 5]),
            Err(PersistError::Truncated { .. })
        ));
        assert!(matches!(
            read_scores(&buf[..6]),
            Err(PersistError::Truncated { .. })
        ));
        assert!(matches!(
            read_scores(&buf[..2]),
            Err(PersistError::Truncated { .. })
        ));
        // Trailing garbage.
        let mut long = buf.clone();
        long.push(0);
        assert!(matches!(
            read_scores(&long[..]),
            Err(PersistError::TrailingBytes)
        ));
    }

    #[test]
    fn rejects_absurd_header_order_without_aborting() {
        // A header claiming order u32::MAX implies a ~64 EiB triangle; the
        // old codec would have tried to allocate it up front. Now it must
        // come back as a typed error.
        let mut buf = Vec::new();
        buf.extend_from_slice(b"SRM1");
        buf.extend_from_slice(&u32::MAX.to_le_bytes());
        buf.extend_from_slice(&[0u8; 64]);
        assert!(matches!(
            read_scores(&buf[..]),
            Err(PersistError::OrderTooLarge { order }) if order == u32::MAX as u64
        ));
    }

    #[test]
    fn load_checks_file_size_before_allocating() {
        let dir = std::env::temp_dir().join("simrank-persist-test-size");
        std::fs::create_dir_all(&dir).unwrap();

        // Header order inflated far beyond the payload: SizeMismatch, and
        // crucially *before* any attempt to reserve the triangle.
        let path = dir.join("inflated.srm");
        let mut buf = Vec::new();
        buf.extend_from_slice(b"SRM1");
        buf.extend_from_slice(&1_000_000u32.to_le_bytes());
        buf.extend_from_slice(&[0u8; 16]);
        std::fs::write(&path, &buf).unwrap();
        assert!(matches!(
            load_scores(&path),
            Err(PersistError::SizeMismatch { actual: 24, .. })
        ));

        // Truncated file: also a size mismatch.
        let path2 = dir.join("truncated.srm");
        let mut full = Vec::new();
        write_scores(&sample(), &mut full).unwrap();
        std::fs::write(&path2, &full[..full.len() - 1]).unwrap();
        assert!(matches!(
            load_scores(&path2),
            Err(PersistError::SizeMismatch { .. })
        ));

        std::fs::remove_file(&path).ok();
        std::fs::remove_file(&path2).ok();
    }

    #[test]
    fn error_display_and_source() {
        // The n > u32::MAX guard in `write_scores` itself is untestable
        // (such a matrix cannot be built); cover the error type's surface.
        let e = PersistError::OrderTooLarge { order: 1 << 40 };
        assert!(e.to_string().contains("too large"));
        let io = PersistError::from(std::io::Error::other("disk on fire"));
        assert!(std::error::Error::source(&io).is_some());
        assert!(std::error::Error::source(&e).is_none());
    }

    #[test]
    fn empty_matrix_round_trips() {
        let s = SimMatrix::zeros(0);
        let mut buf = Vec::new();
        write_scores(&s, &mut buf).unwrap();
        assert_eq!(read_scores(&buf[..]).unwrap().order(), 0);
    }

    // --- SRI1: the index codec. ---

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
        // An SRM1 stream handed to the index reader is a magic mismatch
        // (and vice versa) — the two formats cannot be confused.
        let mut scores = Vec::new();
        write_scores(&sample(), &mut scores).unwrap();
        assert!(matches!(
            read_index(&scores[..]),
            Err(PersistError::BadMagic { found }) if &found == b"SRM1"
        ));
        assert!(matches!(
            read_scores(&buf[..]),
            Err(PersistError::BadMagic { found }) if &found == b"SRI1"
        ));
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

    // --- SRL1: the low-rank factor codec. ---

    fn sample_low_rank() -> LowRankScores {
        crate::mtx::mtx_simrank_low_rank(
            &paper_fig1a(),
            &SimRankOptions::default()
                .with_damping(0.6)
                .with_iterations(8),
            Some(5),
        )
    }

    #[test]
    fn low_rank_round_trip_is_partialeq_identical() {
        let store = sample_low_rank();
        let mut buf = Vec::new();
        write_low_rank(&store, &mut buf).unwrap();
        let back = read_low_rank(&buf[..]).unwrap();
        // The factors round-trip bit-exactly, and the rebuilt U·Ms cache
        // (sequential matmul) matches the pooled original bit-for-bit, so
        // the whole handle is PartialEq-identical...
        assert_eq!(back, store);
        // ...and serves identical queries.
        for a in 0..store.order() {
            for b in 0..store.order() {
                assert_eq!(back.get(a, b), store.get(a, b));
            }
        }
        assert_eq!(
            QueryEngine::top_k(&back, 2, 4),
            QueryEngine::top_k(&store, 2, 4)
        );
    }

    #[test]
    fn low_rank_round_trip_on_disk() {
        let dir = std::env::temp_dir().join("simrank-persist-test-lowrank");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("fig1a.srl");
        let store = sample_low_rank();
        save_low_rank(&store, &path).unwrap();
        let back = load_low_rank(&path).unwrap();
        assert_eq!(back, store);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn low_rank_rejects_truncation_at_every_byte_boundary() {
        let store = sample_low_rank();
        let mut buf = Vec::new();
        write_low_rank(&store, &mut buf).unwrap();
        // Every strict prefix must fail typed — never panic, never succeed.
        for cut in 0..buf.len() {
            match read_low_rank(&buf[..cut]) {
                Err(PersistError::Truncated { .. }) => {}
                other => panic!("prefix of {cut} bytes: expected Truncated, got {other:?}"),
            }
        }
        // And the full buffer still parses.
        assert_eq!(read_low_rank(&buf[..]).unwrap(), store);
    }

    #[test]
    fn low_rank_rejects_cross_format_magic_and_trailing_bytes() {
        let store = sample_low_rank();
        let mut buf = Vec::new();
        write_low_rank(&store, &mut buf).unwrap();
        // All three formats are mutually unconfusable by magic.
        let mut scores = Vec::new();
        write_scores(&sample(), &mut scores).unwrap();
        let mut index = Vec::new();
        write_index(&sample_index(), &mut index).unwrap();
        assert!(matches!(
            read_low_rank(&scores[..]),
            Err(PersistError::BadMagic { found }) if &found == b"SRM1"
        ));
        assert!(matches!(
            read_low_rank(&index[..]),
            Err(PersistError::BadMagic { found }) if &found == b"SRI1"
        ));
        assert!(matches!(
            read_scores(&buf[..]),
            Err(PersistError::BadMagic { found }) if &found == b"SRL1"
        ));
        assert!(matches!(
            read_index(&buf[..]),
            Err(PersistError::BadMagic { found }) if &found == b"SRL1"
        ));
        let mut long = buf.clone();
        long.push(0);
        assert!(matches!(
            read_low_rank(&long[..]),
            Err(PersistError::TrailingBytes)
        ));
    }

    /// Hand-assembles an SRL1 stream for corruption tests.
    fn raw_low_rank(n: u32, rank: u32, scale: f64, u: &[f64], ms: &[f64]) -> Vec<u8> {
        let mut buf = Vec::new();
        buf.extend_from_slice(b"SRL1");
        buf.extend_from_slice(&n.to_le_bytes());
        buf.extend_from_slice(&rank.to_le_bytes());
        buf.extend_from_slice(&scale.to_le_bytes());
        for &v in u.iter().chain(ms) {
            buf.extend_from_slice(&v.to_le_bytes());
        }
        buf
    }

    #[test]
    fn low_rank_rejects_semantic_corruption() {
        // Rank beyond the order — rejected before any allocation.
        let buf = raw_low_rank(2, 3, 0.4, &[0.0; 6], &[0.0; 9]);
        assert!(matches!(
            read_low_rank(&buf[..]),
            Err(PersistError::Malformed { context }) if context.contains("rank")
        ));
        // Scale outside (0, 1) — including NaN and the closed endpoints.
        for s in [0.0, 1.0, -0.4, f64::NAN, f64::INFINITY] {
            let buf = raw_low_rank(2, 1, s, &[0.5, 0.5], &[1.0]);
            assert!(
                matches!(read_low_rank(&buf[..]), Err(PersistError::Malformed { context }) if context.contains("scale")),
                "scale {s} accepted"
            );
        }
        // Non-finite entries in either factor.
        let buf = raw_low_rank(2, 1, 0.4, &[0.5, f64::NAN], &[1.0]);
        assert!(matches!(
            read_low_rank(&buf[..]),
            Err(PersistError::Malformed { context }) if context.contains("U factor")
        ));
        let buf = raw_low_rank(2, 1, 0.4, &[0.5, 0.5], &[f64::NEG_INFINITY]);
        assert!(matches!(
            read_low_rank(&buf[..]),
            Err(PersistError::Malformed { context }) if context.contains("mixing")
        ));
    }

    #[test]
    fn low_rank_rejects_patched_headers() {
        let store = sample_low_rank();
        let mut buf = Vec::new();
        write_low_rank(&store, &mut buf).unwrap();
        // Patch the order up: rank ≤ order still holds, so the header
        // parses — the streaming reader hits Truncated, the file loader a
        // SizeMismatch before allocating.
        let mut patched = buf.clone();
        patched[4..8].copy_from_slice(&100u32.to_le_bytes());
        assert!(matches!(
            read_low_rank(&patched[..]),
            Err(PersistError::Truncated { .. })
        ));
        // Patch the rank above the order: semantic rejection.
        let mut patched = buf.clone();
        patched[8..12].copy_from_slice(&10_000u32.to_le_bytes());
        assert!(matches!(
            read_low_rank(&patched[..]),
            Err(PersistError::Malformed { context }) if context.contains("rank")
        ));
    }

    #[test]
    fn low_rank_load_checks_file_size_before_allocating() {
        let dir = std::env::temp_dir().join("simrank-persist-test-lowrank-size");
        std::fs::create_dir_all(&dir).unwrap();

        // Header promises enormous factors the file does not hold:
        // SizeMismatch, before any attempt to reserve them.
        let path = dir.join("inflated.srl");
        let buf = raw_low_rank(1_000_000, 1_000, 0.4, &[], &[]);
        std::fs::write(&path, &buf).unwrap();
        assert!(matches!(
            load_low_rank(&path),
            Err(PersistError::SizeMismatch { actual: 20, .. })
        ));

        // A truncated real factor file: also a size mismatch.
        let path2 = dir.join("truncated.srl");
        let mut full = Vec::new();
        write_low_rank(&sample_low_rank(), &mut full).unwrap();
        std::fs::write(&path2, &full[..full.len() - 2]).unwrap();
        assert!(matches!(
            load_low_rank(&path2),
            Err(PersistError::SizeMismatch { .. })
        ));

        std::fs::remove_file(&path).ok();
        std::fs::remove_file(&path2).ok();
    }

    #[test]
    fn empty_low_rank_round_trips() {
        let empty = DiGraph::from_edges(0, []).unwrap();
        let store = crate::mtx::mtx_simrank_low_rank(
            &empty,
            &SimRankOptions::default().with_iterations(3),
            None,
        );
        let mut buf = Vec::new();
        write_low_rank(&store, &mut buf).unwrap();
        assert_eq!(buf.len(), LOW_RANK_HEADER_BYTES as usize);
        let back = read_low_rank(&buf[..]).unwrap();
        assert_eq!(back.order(), 0);
        assert_eq!(back, store);
    }
}
