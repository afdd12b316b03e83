//! Deterministic graph generators.
//!
//! Every generator takes an explicit `seed` and is reproducible across runs
//! and platforms (all randomness flows through [`rand::rngs::StdRng`]).
//!
//! * [`rmat`](rmat()) — recursive-matrix generator; GTGraph (used for the paper's
//!   SYN datasets) samples edges from this model.
//! * [`gnm`](gnm()) — uniform Erdős–Rényi `G(n, m)`.
//! * [`preferential`](preferential_attachment()) (module `preferential`) — Barabási–Albert-style preferential attachment.
//! * [`copying`](copying_web_graph()) (module `copying`) — the linked-copying web-graph model used as a
//!   BERKSTAN-like stand-in (copying creates exactly the overlapping
//!   in-neighbor sets OIP-SR exploits).
//! * [`citation`](citation_dag()) (module `citation`) — a time-ordered citation DAG used as a PATENT-like
//!   stand-in.
//! * [`coauthor`](coauthor_graph()) (module `coauthor`) — a community-structured co-authorship simulator used as
//!   the DBLP-like stand-in.
//! * [`overlap`](overlap_graph()) (module `overlap`) — an in-neighbor-set copying model with a controllable
//!   redundancy knob, the SYN density-sweep stand-in: R-MAT scaled down to
//!   a few thousand vertices loses the overlap structure the paper's
//!   Fig. 6c exercises, because its low-degree in-sets stop colliding on
//!   the same hubs.

mod citation;
mod coauthor;
mod copying;
mod gnm;
mod overlap;
mod preferential;
mod rmat;

pub use citation::{citation_dag, CitationParams};
pub use coauthor::{coauthor_graph, CoauthorParams};
pub use copying::{copying_web_graph, CopyingParams};
pub use gnm::gnm;
pub use overlap::{overlap_graph, OverlapParams};
pub use preferential::preferential_attachment;
pub use rmat::{rmat, RmatParams};
