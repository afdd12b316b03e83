//! End-to-end server tests: one serving loop over every engine family,
//! request batching, caching, error paths, and generation reload under
//! concurrent load.

use simrank_core::montecarlo::Fingerprints;
use simrank_core::query::QueryEngine;
use simrank_core::store::ThresholdedSparse;
use simrank_core::{index::SimRankIndex, mtx, oip::oip_simrank, SimRankOptions};
use simrank_graph::fixtures::paper_fig1a;
use simrank_graph::{gen, NodeId};
use simrank_serve::protocol::{Request, Response, ResponseBody};
use simrank_serve::{serve, Client, ClientError, EngineSource, ServerConfig};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

fn opts() -> SimRankOptions {
    SimRankOptions::default().with_iterations(8)
}

/// Bitwise row equality (scores may legitimately hold -0.0).
fn assert_rows_eq(got: &[f64], want: &[f64], ctx: &str) {
    assert_eq!(got.len(), want.len(), "{ctx}: row length");
    for (i, (a, b)) in got.iter().zip(want).enumerate() {
        assert_eq!(a.to_bits(), b.to_bits(), "{ctx}: entry {i}");
    }
}

/// One server loop serves every engine family through `Box<dyn
/// QueryEngine>`, each answering bit-for-bit what the engine answers
/// directly.
#[test]
fn one_loop_serves_every_engine_family() {
    let g = gen::copying_web_graph(gen::CopyingParams::berkstan_like(40), 5);
    let packed = oip_simrank(&g, &opts());
    let engines: Vec<(&str, Box<dyn QueryEngine>)> = vec![
        (
            "index",
            Box::new(SimRankIndex::build(&g, &opts().with_epsilon(1e-4))),
        ),
        ("packed", Box::new(packed.clone())),
        (
            "low_rank",
            Box::new(mtx::mtx_simrank_low_rank(&g, &opts(), Some(8))),
        ),
        (
            "sparse",
            Box::new(ThresholdedSparse::from_store(&packed, 1e-4)),
        ),
        (
            "fingerprints",
            Box::new(Fingerprints::sample(&g, 6, 24, 3, &SimRankOptions::default()).0),
        ),
    ];
    for (name, engine) in engines {
        // Direct answers to compare against (same arithmetic the server
        // must reproduce).
        let want_row = engine.single_source(7);
        let want_top = engine.top_k(7, 5);
        let sources: Vec<NodeId> = vec![0, 7, 3, 7];
        let want_rows: Vec<Vec<f64>> = sources.iter().map(|&u| engine.single_source(u)).collect();

        let server = serve(engine, None, ServerConfig::default()).unwrap();
        let mut client = Client::connect(server.addr()).unwrap();

        let (generation, row) = client.single_source(7).unwrap();
        assert_eq!(generation, 1, "{name}");
        assert_rows_eq(&row, &want_row, name);

        let (_, top) = client.top_k(7, 5).unwrap();
        assert_eq!(top, want_top, "{name}");

        let (_, rows) = client.single_source_batch(&sources).unwrap();
        assert_eq!(rows.len(), sources.len(), "{name}");
        for (got, want) in rows.iter().zip(&want_rows) {
            assert_rows_eq(got, want, name);
        }

        let (_, rankings) = client.top_k_batch(&sources, 4).unwrap();
        for (ranking, &u) in rankings.iter().zip(&sources) {
            assert_eq!(ranking, &engine_top(&want_rows, &sources, u, 4), "{name}");
        }
        server.shutdown();
    }
}

/// Expected ranking for `u` from the precomputed rows.
fn engine_top(rows: &[Vec<f64>], sources: &[NodeId], u: NodeId, k: usize) -> Vec<(NodeId, f64)> {
    let at = sources.iter().position(|&s| s == u).unwrap();
    simrank_core::topk::top_k_scores(&rows[at], u, k)
}

/// Cache hits must be observable in stats and must not change a byte of
/// any response.
#[test]
fn stats_expose_cache_and_serving_counters() {
    let scores = oip_simrank(&paper_fig1a(), &opts());
    let server = serve(Box::new(scores), None, ServerConfig::default()).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();

    let (_, cold) = client.single_source(2).unwrap();
    let (_, warm) = client.single_source(2).unwrap();
    assert_rows_eq(&warm, &cold, "warm hit");

    let (generation, stats) = client.stats().unwrap();
    assert_eq!(generation, 1);
    assert_eq!(stats.order, 9);
    assert!(stats.cache_misses >= 1, "first query must miss");
    assert!(stats.cache_hits >= 1, "second query must hit");
    assert!(stats.cached_rows >= 1);
    assert!(stats.served >= 2);
    assert_eq!(stats.reloads, 0);
    server.shutdown();
}

/// Per-request failures are protocol errors, not connection drops: the
/// same connection keeps serving afterwards.
#[test]
fn errors_do_not_poison_the_connection() {
    let scores = oip_simrank(&paper_fig1a(), &opts());
    let server = serve(Box::new(scores), None, ServerConfig::default()).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();

    match client.single_source(999) {
        Err(ClientError::Server(msg)) => assert!(msg.contains("out of range"), "{msg}"),
        other => panic!("expected a server error, got {other:?}"),
    }
    match client.single_source_batch(&[1, 999]) {
        Err(ClientError::Server(msg)) => assert!(msg.contains("out of range"), "{msg}"),
        other => panic!("expected a server error, got {other:?}"),
    }
    match client.reload() {
        Err(ClientError::Server(msg)) => assert!(msg.contains("no reload source"), "{msg}"),
        other => panic!("expected a server error, got {other:?}"),
    }
    // A malformed frame (unknown opcode) also answers in-band.
    let raw = client.exchange_raw(&[42u8]).unwrap();
    match Response::decode(&raw).unwrap() {
        Response::Err(msg) => assert!(msg.contains("opcode"), "{msg}"),
        other => panic!("expected an error response, got {other:?}"),
    }
    // ...and the connection still works.
    let (generation, row) = client.single_source(1).unwrap();
    assert_eq!(generation, 1);
    assert_eq!(row.len(), 9);
    server.shutdown();
}

/// Reload swaps to the source's engine atomically: the returned
/// generation increments, and subsequent answers are the new engine's.
#[test]
fn reload_swaps_to_the_sourced_engine() {
    let g = paper_fig1a();
    let old = oip_simrank(&g, &opts().with_iterations(2));
    let new = oip_simrank(&g, &opts().with_iterations(12));
    let want_old = QueryEngine::single_source(&old, 3);
    let want_new = QueryEngine::single_source(&new, 3);
    assert_ne!(want_old, want_new, "fixture engines must disagree");

    let source =
        Box::new(move || -> Result<Box<dyn QueryEngine>, String> { Ok(Box::new(new.clone())) });
    let server = serve(Box::new(old), Some(source), ServerConfig::default()).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();

    let (g1, row) = client.single_source(3).unwrap();
    assert_eq!(g1, 1);
    assert_rows_eq(&row, &want_old, "before reload");

    assert_eq!(client.reload().unwrap(), 2);
    assert_eq!(server.generation(), 2);
    let (g2, row) = client.single_source(3).unwrap();
    assert_eq!(g2, 2);
    assert_rows_eq(&row, &want_new, "after reload");

    let (_, stats) = client.stats().unwrap();
    assert_eq!(stats.reloads, 1);
    server.shutdown();
}

/// The non-torn guarantee under fire: clients hammer batched queries
/// while another thread reloads repeatedly. Every response must be
/// *entirely* from the generation it claims — every row bit-for-bit the
/// tagged engine's row, never a mix.
#[test]
fn reload_mid_stream_never_serves_a_torn_generation() {
    let g = gen::gnm(30, 90, 11);
    let n = g.node_count();
    let engine_a = oip_simrank(&g, &opts().with_iterations(3));
    let engine_b = oip_simrank(&g, &opts().with_iterations(9));
    let rows_a: Vec<Vec<f64>> = (0..n as NodeId)
        .map(|u| QueryEngine::single_source(&engine_a, u))
        .collect();
    let rows_b: Vec<Vec<f64>> = (0..n as NodeId)
        .map(|u| QueryEngine::single_source(&engine_b, u))
        .collect();
    assert_ne!(rows_a, rows_b, "fixture engines must disagree");

    // Generation g serves A when odd, B when even (gen 1 = initial A,
    // each reload alternates).
    let flips = Arc::new(AtomicU64::new(0));
    let source = {
        let engine_a = engine_a.clone();
        let engine_b = engine_b.clone();
        let flips = Arc::clone(&flips);
        Box::new(move || -> Result<Box<dyn QueryEngine>, String> {
            // Loads alternate B, A, B, ... (gen 2 is the first load).
            let load = flips.fetch_add(1, Ordering::SeqCst);
            if load % 2 == 0 {
                Ok(Box::new(engine_b.clone()))
            } else {
                Ok(Box::new(engine_a.clone()))
            }
        }) as Box<dyn EngineSource>
    };
    let server = serve(Box::new(engine_a), Some(source), ServerConfig::default()).unwrap();
    let addr = server.addr();

    let reloader = std::thread::spawn(move || {
        let mut client = Client::connect(addr).unwrap();
        for _ in 0..20 {
            client.reload().unwrap();
            std::thread::yield_now();
        }
    });

    let workers: Vec<_> = (0..4)
        .map(|w| {
            let rows_a = rows_a.clone();
            let rows_b = rows_b.clone();
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                for i in 0..60 {
                    let us: Vec<NodeId> = (0..6)
                        .map(|j| ((w * 7 + i * 5 + j * 3) % n) as NodeId)
                        .collect();
                    let (generation, rows) = client.single_source_batch(&us).unwrap();
                    let expect = if generation % 2 == 1 {
                        &rows_a
                    } else {
                        &rows_b
                    };
                    for (row, &u) in rows.iter().zip(&us) {
                        let want = &expect[u as usize];
                        assert_eq!(row.len(), want.len());
                        for (a, b) in row.iter().zip(want) {
                            assert_eq!(
                                a.to_bits(),
                                b.to_bits(),
                                "generation {generation} served a torn row for {u}"
                            );
                        }
                    }
                }
            })
        })
        .collect();

    reloader.join().unwrap();
    for worker in workers {
        worker.join().unwrap();
    }
    assert_eq!(server.generation(), 21, "20 reloads from generation 1");
    server.shutdown();
}

/// Concurrent clients all get correct (and bitwise-identical) answers
/// while their queries coalesce through the shared batcher.
#[test]
fn concurrent_clients_share_the_batcher_correctly() {
    let g = gen::coauthor_graph(gen::CoauthorParams::dblp_like(36), 2);
    let n = g.node_count();
    let scores = oip_simrank(&g, &opts());
    let expected: Vec<Vec<f64>> = (0..n as NodeId)
        .map(|u| QueryEngine::single_source(&scores, u))
        .collect();
    let config = ServerConfig {
        cache_capacity: 8, // small: force plenty of misses through the batcher
        ..ServerConfig::default()
    };
    let server = serve(Box::new(scores), None, config).unwrap();
    let addr = server.addr();
    let handles: Vec<_> = (0..6)
        .map(|w| {
            let expected = expected.clone();
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                for i in 0..50 {
                    let u = ((w * 13 + i * 7) % n) as NodeId;
                    let (_, row) = client.single_source(u).unwrap();
                    for (a, b) in row.iter().zip(&expected[u as usize]) {
                        assert_eq!(a.to_bits(), b.to_bits(), "vertex {u}");
                    }
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    server.shutdown();
}

/// The typed request surface and the raw byte surface agree.
#[test]
fn raw_and_typed_exchanges_agree() {
    let scores = oip_simrank(&paper_fig1a(), &opts());
    let server = serve(Box::new(scores), None, ServerConfig::default()).unwrap();
    let mut a = Client::connect(server.addr()).unwrap();
    let mut b = Client::connect(server.addr()).unwrap();
    let raw = a
        .exchange_raw(&Request::TopK { u: 1, k: 4 }.encode())
        .unwrap();
    let typed = b.top_k(1, 4).unwrap();
    match Response::decode(&raw).unwrap() {
        Response::Ok {
            generation,
            body: ResponseBody::Ranking(ranking),
        } => assert_eq!((generation, ranking), typed),
        other => panic!("unexpected {other:?}"),
    }
    server.shutdown();
}

/// Dynamic maintenance end-to-end: each batch of edge edits repairs the
/// index from the previous generation's diagonal, and the reload source
/// publishes the repaired index as the next generation. Every served row
/// is bit-for-bit the published engine's row, and the published engine
/// agrees with a from-scratch build on the mutated graph to the
/// warm-start convergence bound.
#[test]
fn dynamic_reload_publishes_repaired_index_per_batch() {
    use simrank_graph::EdgeDelta;
    use std::sync::Mutex;

    let opts = SimRankOptions::default()
        .with_damping(0.6)
        .with_epsilon(1e-9);
    let mut g = gen::copying_web_graph(gen::CopyingParams::berkstan_like(32), 9);
    let mut index = SimRankIndex::build(&g, &opts);

    // The maintenance loop publishes each repaired generation here; the
    // reload source hands the server whatever was published last.
    let published: Arc<Mutex<SimRankIndex>> = Arc::new(Mutex::new(index.clone()));
    let source = {
        let published = Arc::clone(&published);
        Box::new(move || -> Result<Box<dyn QueryEngine>, String> {
            Ok(Box::new(published.lock().unwrap().clone()))
        }) as Box<dyn EngineSource>
    };
    let server = serve(
        Box::new(index.clone()),
        Some(source),
        ServerConfig::default(),
    )
    .unwrap();
    let mut client = Client::connect(server.addr()).unwrap();

    let n = g.node_count() as NodeId;
    for round in 0u64..3 {
        // One rewire per batch: drop a real edge, add a (very likely)
        // fresh one.
        let edges: Vec<_> = g.edges().collect();
        let (ru, rv) = edges[(7 * round as usize + 3) % edges.len()];
        let script = vec![
            EdgeDelta::Remove(ru, rv),
            EdgeDelta::Insert((ru + 5) % n, (rv + 11) % n),
        ];
        index = index.repair(&script, &opts).expect("valid script").0;
        g.apply_batch(&script).expect("valid script");
        *published.lock().unwrap() = index.clone();
        assert_eq!(client.reload().unwrap(), round + 2);

        let fresh = SimRankIndex::build(&g, &opts);
        for u in [0 as NodeId, 7, 19] {
            let (generation, row) = client.single_source(u).unwrap();
            assert_eq!(generation, round + 2);
            assert_rows_eq(
                &row,
                &index.single_source(u),
                "served row vs repaired engine",
            );
            for (v, (a, b)) in row.iter().zip(&fresh.single_source(u)).enumerate() {
                assert!(
                    (a - b).abs() < 1e-8,
                    "gen {generation}: s({u},{v}) repaired {a} vs fresh {b}"
                );
            }
        }
    }
    let (_, stats) = client.stats().unwrap();
    assert_eq!(stats.reloads, 3);
    server.shutdown();
}
