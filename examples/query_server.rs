//! Serving SimRank queries over TCP: index a web-like graph, persist it,
//! stand up the in-process query server with a reload source pointed at
//! the persisted file, and drive it with a mixed client workload.
//!
//! ```text
//! cargo run --release --example query_server
//! ```

use simrank::algo::index::SimRankIndex;
use simrank::algo::query::QueryEngine;
use simrank::algo::{persist, SimRankOptions};
use simrank::serve::{serve, Client, EngineSource, ServerConfig, ZipfWorkload};

fn main() {
    // An index over a Berkeley/Stanford-web-shaped graph, the serving
    // workhorse: O(n) per single-source query after one build.
    let dataset = simrank::datasets::berkstan_like(600, simrank::datasets::DEFAULT_SEED);
    let n = dataset.graph.node_count();
    let opts = SimRankOptions::default()
        .with_damping(0.6)
        .with_epsilon(1e-4);
    let index = SimRankIndex::build(&dataset.graph, &opts);
    println!(
        "indexed {} ({} vertices, {} edges)",
        dataset.name,
        n,
        dataset.graph.edge_count()
    );

    // Persist the index, and make that file the server's reload source:
    // a `Reload` request re-reads it and swaps generations atomically.
    let path = std::env::temp_dir().join("simrank_query_server_example.sri");
    persist::save_index(&index, &path).expect("persist index");
    println!("persisted SRI1 index to {}", path.display());
    let source = {
        let path = path.clone();
        Box::new(move || -> Result<Box<dyn QueryEngine>, String> {
            let loaded = persist::load_index(&path).map_err(|e| e.to_string())?;
            Ok(Box::new(loaded))
        }) as Box<dyn EngineSource>
    };

    let server =
        serve(Box::new(index), Some(source), ServerConfig::default()).expect("start server");
    println!(
        "serving on {} (generation {})",
        server.addr(),
        server.generation()
    );

    // A mixed batch from one client: full rows, rankings, and a reload.
    let mut client = Client::connect(server.addr()).expect("connect");
    let (generation, top) = client.top_k(11, 5).expect("top_k");
    println!("top-5 for vertex 11 (generation {generation}):");
    for (v, score) in &top {
        println!("  vertex {v:>4}  s = {score:.6}");
    }
    let (_, rows) = client.single_source_batch(&[3, 11, 42, 11]).expect("batch");
    println!("batch of {} rows fetched in one request", rows.len());
    let new_generation = client.reload().expect("reload from persisted index");
    println!("reloaded from disk -> generation {new_generation}");

    // Zipf(1.0) reads, the skewed mix the row cache targets: full rows,
    // with every fourth read a top-10 ranking.
    let workload = ZipfWorkload::new(n, 1.0, 7);
    let trace = workload.trace(2000, 9);
    for (i, &u) in trace.iter().enumerate() {
        if i % 4 == 3 {
            client.top_k(u, 10).expect("top_k");
        } else {
            client.single_source(u).expect("single_source");
        }
    }
    let (_, stats) = client.stats().expect("stats");
    println!("sent {} Zipf-skewed reads", trace.len());
    println!(
        "cache: {} hits / {} misses ({} rows resident); served {} requests across {} reloads",
        stats.cache_hits, stats.cache_misses, stats.cached_rows, stats.served, stats.reloads
    );

    drop(client);
    server.shutdown();
    let _ = std::fs::remove_file(&path);
}
