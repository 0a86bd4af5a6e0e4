//! Concurrent-serving e2e: N client threads hammer a real TCP server
//! (pipelined tagged requests, single + batch queries) while a writer
//! thread hot-reloads the registry mid-stream — every answer, cached or
//! not, is diffed against a direct [`Workspace::query`] on the same
//! artifact. Zero divergence is tolerated: the sharded answer cache and
//! the all-or-nothing reload invalidation must be invisible in the
//! answers, visible only in the counters.

use analog_mps::api::{ServerConfig, Workspace};
use analog_mps::mps::GeneratorConfig;
use analog_mps::netlist::benchmarks;
use analog_mps::Dims;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::Value;
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

const CLIENTS: usize = 4;
const REQUESTS_PER_CLIENT: usize = 200;
const PIPELINE_DEPTH: usize = 4;

/// What the direct query path says the tagged request must answer.
enum Expect {
    Query(Option<u64>),
    Batch(Vec<Option<u64>>),
}

fn dims_json(dims: &Dims) -> String {
    let pairs: Vec<String> = dims.iter().map(|&(w, h)| format!("[{w},{h}]")).collect();
    format!("[{}]", pairs.join(","))
}

#[test]
fn concurrent_clients_with_hot_reload_never_diverge() {
    let dir = std::env::temp_dir().join(format!("mps_serve_conc_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut ws = Workspace::open(&dir).unwrap();
    let circuit = benchmarks::circ01();
    let config = GeneratorConfig::builder()
        .outer_iterations(40)
        .inner_iterations(30)
        .seed(0xC0)
        .build();
    ws.generate_or_load("circ01", &circuit, config).unwrap();

    let server = Arc::new(
        ws.serve_server(ServerConfig {
            cache_entries: 512,
            ..ServerConfig::default()
        })
        .unwrap(),
    );
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    {
        let server = Arc::clone(&server);
        // Detached accept loop; the test process ends it on exit.
        std::thread::spawn(move || server.serve_tcp(listener));
    }

    // A shared hot set so the cache sees repetition between reloads.
    let bounds = circuit.dim_bounds();
    let mut rng = StdRng::seed_from_u64(0x407);
    let hot: Vec<Dims> = (0..16)
        .map(|_| {
            bounds
                .iter()
                .map(|b| {
                    (
                        rng.random_range(b.w.lo()..=b.w.hi()),
                        rng.random_range(b.h.lo()..=b.h.hi()),
                    )
                })
                .collect()
        })
        .collect();

    let stop = AtomicBool::new(false);
    let reloads = AtomicU64::new(0);
    let divergences = AtomicU64::new(0);

    std::thread::scope(|scope| {
        // The churn writer: hot-reloads the registry over the wire while
        // the clients are mid-stream. The artifact bytes are unchanged,
        // so the direct-query reference stays valid across every swap —
        // what the reload exercises is the snapshot swap and the
        // all-or-nothing cache invalidation under fire.
        scope.spawn(|| {
            let stream = TcpStream::connect(addr).unwrap();
            let _ = stream.set_nodelay(true);
            let mut reader = BufReader::new(stream.try_clone().unwrap());
            let mut writer = stream;
            while !stop.load(Ordering::Relaxed) {
                writeln!(writer, r#"{{"kind":"reload"}}"#).unwrap();
                let mut line = String::new();
                reader.read_line(&mut line).unwrap();
                let value: Value = serde_json::parse(line.trim_end()).unwrap();
                assert_eq!(
                    value.get("ok").and_then(Value::as_bool),
                    Some(true),
                    "reload refused mid-stream: {line}"
                );
                reloads.fetch_add(1, Ordering::Relaxed);
                std::thread::sleep(std::time::Duration::from_millis(5));
            }
        });

        for client in 0..CLIENTS {
            let (ws, hot, divergences, bounds) = (&ws, &hot, &divergences, &bounds);
            scope.spawn(move || {
                let mut rng = StdRng::seed_from_u64(0xC11E57 + client as u64);
                let stream = TcpStream::connect(addr).unwrap();
                let _ = stream.set_nodelay(true);
                let mut reader = BufReader::new(stream.try_clone().unwrap());
                let mut writer = stream;
                let mut expectations: Vec<Option<Expect>> = Vec::new();
                let mut outstanding = 0usize;
                let mut answered = 0usize;

                let mut read_one = |expectations: &mut Vec<Option<Expect>>| {
                    let mut line = String::new();
                    reader.read_line(&mut line).unwrap();
                    let value: Value =
                        serde_json::parse(line.trim_end()).expect("response is JSON");
                    assert_eq!(
                        value.get("ok").and_then(Value::as_bool),
                        Some(true),
                        "client {client} refused: {line}"
                    );
                    let req = value.get("req").and_then(Value::as_u64).expect("tagged") as usize;
                    let expect = expectations[req].take().expect("one response per id");
                    let matches = match expect {
                        Expect::Query(want) => value.get("id").and_then(Value::as_u64) == want,
                        Expect::Batch(want) => value
                            .get("ids")
                            .and_then(Value::as_array)
                            .is_some_and(|ids| {
                                ids.len() == want.len()
                                    && ids.iter().zip(&want).all(|(got, w)| got.as_u64() == *w)
                            }),
                    };
                    if !matches {
                        divergences.fetch_add(1, Ordering::Relaxed);
                        eprintln!("client {client} req {req} diverges: {line}");
                    }
                };

                for _ in 0..REQUESTS_PER_CLIENT {
                    let id = expectations.len();
                    // 80% hot single queries (cache food), 10% cold
                    // singles, 10% batches over the hot set.
                    let roll: f64 = rng.random_range(0.0..1.0);
                    let line = if roll < 0.1 {
                        let batch: Vec<&Dims> =
                            (0..8).map(|_| &hot[rng.random_range(0..hot.len())]).collect();
                        let want = batch
                            .iter()
                            .map(|d| ws.query("circ01", d).unwrap().map(|id| u64::from(id.0)))
                            .collect();
                        expectations.push(Some(Expect::Batch(want)));
                        let vectors: Vec<String> =
                            batch.iter().map(|d| dims_json(d)).collect();
                        format!(
                            r#"{{"id":{id},"kind":"batch_query","structure":"circ01","dims_list":[{}]}}"#,
                            vectors.join(",")
                        )
                    } else {
                        let dims: Dims = if roll < 0.9 {
                            hot[rng.random_range(0..hot.len())].clone()
                        } else {
                            bounds
                                .iter()
                                .map(|b| {
                                    (
                                        rng.random_range(b.w.lo()..=b.w.hi()),
                                        rng.random_range(b.h.lo()..=b.h.hi()),
                                    )
                                })
                                .collect()
                        };
                        let want = ws.query("circ01", &dims).unwrap().map(|id| u64::from(id.0));
                        expectations.push(Some(Expect::Query(want)));
                        format!(
                            r#"{{"id":{id},"kind":"query","structure":"circ01","dims":{}}}"#,
                            dims_json(&dims)
                        )
                    };
                    writeln!(writer, "{line}").unwrap();
                    outstanding += 1;
                    if outstanding == PIPELINE_DEPTH {
                        read_one(&mut expectations);
                        outstanding -= 1;
                        answered += 1;
                    }
                }
                while outstanding > 0 {
                    read_one(&mut expectations);
                    outstanding -= 1;
                    answered += 1;
                }
                assert_eq!(answered, REQUESTS_PER_CLIENT);
            });
        }

        // Let the clients finish, then stop the churn. The scope joins
        // the client threads for us; the reloader needs the flag —
        // waiting threads are joined at scope end, and the clients all
        // finishing is what gates the flag, so set it from a watcher.
        scope.spawn(|| {
            // Clients run bounded work; poll until only the reloader and
            // this watcher could still be running, using the server's
            // own counters as the progress signal.
            let expected = (CLIENTS * REQUESTS_PER_CLIENT) as u64;
            loop {
                let answered = server_requests_done(addr);
                if answered >= expected {
                    break;
                }
                std::thread::sleep(std::time::Duration::from_millis(10));
            }
            stop.store(true, Ordering::Relaxed);
        });
    });

    assert_eq!(
        divergences.load(Ordering::Relaxed),
        0,
        "answers under cache + hot-reload churn must be bit-identical to Workspace::query"
    );
    assert!(
        reloads.load(Ordering::Relaxed) >= 1,
        "the churn writer must have reloaded mid-stream"
    );

    // Counter epilogue over one fresh connection: the cache took hits
    // (the hot set repeats) and the reloads invalidated all-or-nothing.
    let stream = TcpStream::connect(addr).unwrap();
    let _ = stream.set_nodelay(true);
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut writer = stream;
    writeln!(writer, r#"{{"kind":"stats"}}"#).unwrap();
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    let stats: Value = serde_json::parse(line.trim_end()).unwrap();
    let cache = stats.get("cache").expect("stats carries cache counters");
    assert!(
        cache
            .get("invalidations")
            .and_then(Value::as_u64)
            .unwrap_or(0)
            >= 1,
        "reloads must invalidate the cache: {line}"
    );
    assert!(
        cache.get("hits").and_then(Value::as_u64).unwrap_or(0) > 0,
        "the hot set must produce cache hits between reloads: {line}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// 256 concurrent clients against the sharded event-loop server — far
/// past where a thread-per-connection design stops being "a few worker
/// threads" and becomes a context-switch storm. Every answer is diffed
/// against a direct [`Workspace::query`]; zero divergence is tolerated.
/// The epilogue checks the open-connection gauge drains back down once
/// the clients hang up (the drop-guard accounting, end to end).
#[test]
fn two_hundred_fifty_six_clients_never_diverge() {
    const STRESS_CLIENTS: usize = 256;
    const STRESS_REQUESTS: usize = 8;

    let dir = std::env::temp_dir().join(format!("mps_serve_stress_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut ws = Workspace::open(&dir).unwrap();
    let circuit = benchmarks::circ01();
    let config = GeneratorConfig::builder()
        .outer_iterations(40)
        .inner_iterations(30)
        .seed(0xC1)
        .build();
    ws.generate_or_load("circ01", &circuit, config).unwrap();

    let server = Arc::new(
        ws.serve_server(ServerConfig {
            cache_entries: 1024,
            shards: 2,
            ..ServerConfig::default()
        })
        .unwrap(),
    );
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    {
        let server = Arc::clone(&server);
        std::thread::spawn(move || server.serve_tcp(listener));
    }

    // Precompute vectors and expected answers once; the clients share
    // the pool read-only so 256 threads don't each run the reference
    // query path.
    let bounds = circuit.dim_bounds();
    let mut rng = StdRng::seed_from_u64(0x5712E55);
    let pool: Vec<(Dims, Option<u64>)> = (0..64)
        .map(|_| {
            let dims: Dims = bounds
                .iter()
                .map(|b| {
                    (
                        rng.random_range(b.w.lo()..=b.w.hi()),
                        rng.random_range(b.h.lo()..=b.h.hi()),
                    )
                })
                .collect();
            let want = ws.query("circ01", &dims).unwrap().map(|id| u64::from(id.0));
            (dims, want)
        })
        .collect();

    let divergences = AtomicU64::new(0);
    std::thread::scope(|scope| {
        for client in 0..STRESS_CLIENTS {
            let (pool, divergences) = (&pool, &divergences);
            scope.spawn(move || {
                let stream = TcpStream::connect(addr).expect("server must admit 256 clients");
                let _ = stream.set_nodelay(true);
                let mut reader = BufReader::new(stream.try_clone().unwrap());
                let mut writer = stream;
                // Pipeline the whole burst, then read all responses.
                let mut wants = Vec::with_capacity(STRESS_REQUESTS);
                for id in 0..STRESS_REQUESTS {
                    let (dims, want) = &pool[(client * 7 + id * 13) % pool.len()];
                    wants.push(*want);
                    writeln!(
                        writer,
                        r#"{{"id":{id},"kind":"query","structure":"circ01","dims":{}}}"#,
                        dims_json(dims)
                    )
                    .unwrap();
                }
                let mut seen = [false; STRESS_REQUESTS];
                for _ in 0..STRESS_REQUESTS {
                    let mut line = String::new();
                    assert!(
                        reader.read_line(&mut line).unwrap() > 0,
                        "client {client}: early EOF"
                    );
                    let value: Value =
                        serde_json::parse(line.trim_end()).expect("response is JSON");
                    assert_eq!(
                        value.get("ok").and_then(Value::as_bool),
                        Some(true),
                        "client {client} refused: {line}"
                    );
                    let req = value.get("req").and_then(Value::as_u64).expect("tagged") as usize;
                    assert!(!seen[req], "client {client}: req {req} answered twice");
                    seen[req] = true;
                    if value.get("id").and_then(Value::as_u64) != wants[req] {
                        divergences.fetch_add(1, Ordering::Relaxed);
                        eprintln!("client {client} req {req} diverges: {line}");
                    }
                }
            });
        }
    });
    assert_eq!(
        divergences.load(Ordering::Relaxed),
        0,
        "sharded serving must answer bit-identically to Workspace::query under 256 clients"
    );

    // All clients hung up: the open-connection gauge must drain back to
    // just the stats probe itself — the drop-guard accounting survives
    // 256 concurrent lifecycles.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
    loop {
        let open = stats_field(addr, "connections", "open");
        if open <= 1 {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "open-connection gauge stuck at {open} after every client closed"
        );
        std::thread::sleep(std::time::Duration::from_millis(20));
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// One stats request over a fresh connection, returning the named
/// nested counter (0 when anything fails — callers poll).
fn stats_field(addr: std::net::SocketAddr, group: &str, name: &str) -> u64 {
    let Ok(stream) = TcpStream::connect(addr) else {
        return 0;
    };
    let _ = stream.set_nodelay(true);
    let mut reader = BufReader::new(match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return 0,
    });
    let mut writer = stream;
    if writeln!(writer, r#"{{"kind":"stats"}}"#).is_err() {
        return 0;
    }
    let mut line = String::new();
    if reader.read_line(&mut line).is_err() {
        return 0;
    }
    let Ok(value) = serde_json::parse(line.trim_end()) else {
        return 0;
    };
    value
        .get(group)
        .and_then(|g| g.get(name))
        .and_then(Value::as_u64)
        .unwrap_or(0)
}

/// Asks the server (over its own short-lived connection) how many
/// query/batch/instantiate answers it has produced so far.
fn server_requests_done(addr: std::net::SocketAddr) -> u64 {
    let Ok(stream) = TcpStream::connect(addr) else {
        return 0;
    };
    let _ = stream.set_nodelay(true);
    let mut reader = BufReader::new(match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return 0,
    });
    let mut writer = stream;
    if writeln!(writer, r#"{{"kind":"stats"}}"#).is_err() {
        return 0;
    }
    let mut line = String::new();
    if reader.read_line(&mut line).is_err() {
        return 0;
    }
    let Ok(value) = serde_json::parse(line.trim_end()) else {
        return 0;
    };
    let counter = |name: &str| {
        value
            .get("counters")
            .and_then(|c| c.get(name))
            .and_then(Value::as_u64)
            .unwrap_or(0)
    };
    counter("queries") + counter("instantiations")
}

/// Every request is answered on the shard that read it: one tagged
/// connection pipelines an uncached `instantiate`, a 512-vector
/// `batch_query`, a `refine` run and a `query`, and each answer equals
/// the [`Workspace`] reference. The telemetry carries no trace of a
/// worker pool: no `pool` stage, no `worker-*` lane, no `workers` field.
#[test]
fn heavy_tagged_requests_answer_inline_and_match_the_workspace() {
    let dir = std::env::temp_dir().join(format!("mps_serve_inline_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut ws = Workspace::open(&dir).unwrap();
    let circuit = benchmarks::circ01();
    let config = GeneratorConfig::builder()
        .outer_iterations(30)
        .inner_iterations(30)
        .seed(0xC2)
        .build();
    ws.generate_or_load("circ01", &circuit, config).unwrap();
    let server = Arc::new(
        ws.serve_server(ServerConfig {
            shards: 1,
            ..ServerConfig::default()
        })
        .unwrap(),
    );
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    {
        let server = Arc::clone(&server);
        std::thread::spawn(move || server.serve_tcp(listener));
    }

    let bounds = circuit.dim_bounds();
    let mut rng = StdRng::seed_from_u64(0x1A1);
    let mut uniform = || -> Dims {
        bounds
            .iter()
            .map(|b| {
                (
                    rng.random_range(b.w.lo()..=b.w.hi()),
                    rng.random_range(b.h.lo()..=b.h.hi()),
                )
            })
            .collect()
    };
    let instantiate_dims = uniform();
    // Uniform traffic spreads over the whole heat grid, so the refine
    // run finds no concentrated region and leaves the structure as is.
    let batch: Vec<Dims> = (0..512).map(|_| uniform()).collect();
    let query_dims = uniform();
    let batch_json: Vec<String> = batch.iter().map(dims_json).collect();
    let requests = [
        format!(
            r#"{{"id":1,"kind":"instantiate","structure":"circ01","dims":{}}}"#,
            dims_json(&instantiate_dims)
        ),
        format!(
            r#"{{"id":2,"kind":"batch_query","structure":"circ01","dims_list":[{}]}}"#,
            batch_json.join(",")
        ),
        r#"{"id":3,"kind":"refine"}"#.to_owned(),
        format!(
            r#"{{"id":4,"kind":"query","structure":"circ01","dims":{}}}"#,
            dims_json(&query_dims)
        ),
        r#"{"id":5,"kind":"metrics"}"#.to_owned(),
        r#"{"id":6,"kind":"stats"}"#.to_owned(),
    ];
    let stream = TcpStream::connect(addr).unwrap();
    let _ = stream.set_nodelay(true);
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut writer = stream;
    writer
        .write_all(format!("{}\n", requests.join("\n")).as_bytes())
        .unwrap();
    // Matched by `req`, as the protocol asks of every client.
    let mut answers = std::collections::HashMap::new();
    for _ in 0..requests.len() {
        let mut line = String::new();
        assert!(reader.read_line(&mut line).unwrap() > 0, "early EOF");
        let value: Value = serde_json::parse(line.trim_end()).unwrap();
        assert_eq!(
            value.get("ok").and_then(Value::as_bool),
            Some(true),
            "refused: {line}"
        );
        let req = value.get("req").and_then(Value::as_u64).expect("tagged");
        answers.insert(req, value);
    }
    let id_of = |id: Option<analog_mps::mps::PlacementId>| id.map(|id| u64::from(id.0));

    let placement = ws.instantiate("circ01", &instantiate_dims).unwrap();
    let instantiated = &answers[&1];
    assert_eq!(
        instantiated.get("id").and_then(Value::as_u64),
        id_of(ws.query("circ01", &instantiate_dims).unwrap())
    );
    let coords: Vec<(i64, i64)> = instantiated
        .get("coords")
        .and_then(Value::as_array)
        .unwrap()
        .iter()
        .map(|p| {
            let xy = p.as_array().unwrap();
            (xy[0].as_i64().unwrap(), xy[1].as_i64().unwrap())
        })
        .collect();
    let expected: Vec<(i64, i64)> = placement.coords().iter().map(|p| (p.x, p.y)).collect();
    assert_eq!(coords, expected, "instantiate diverges from the workspace");

    let ids: Vec<Option<u64>> = answers[&2]
        .get("ids")
        .and_then(Value::as_array)
        .unwrap()
        .iter()
        .map(Value::as_u64)
        .collect();
    let expected: Vec<Option<u64>> = ws
        .query_batch("circ01", &batch)
        .unwrap()
        .into_iter()
        .map(id_of)
        .collect();
    assert_eq!(ids, expected, "batch diverges from the workspace");

    let refined = &answers[&3];
    assert_eq!(refined.get("ran").and_then(Value::as_bool), Some(true));
    assert_eq!(
        refined.get("outcome").and_then(Value::as_str),
        Some("no_candidate"),
        "uniform traffic must not be refined: {refined:?}"
    );

    assert_eq!(
        answers[&4].get("id").and_then(Value::as_u64),
        id_of(ws.query("circ01", &query_dims).unwrap()),
        "query diverges from the workspace"
    );

    let metrics = &answers[&5];
    let stages = metrics.get("stages").and_then(Value::as_object).unwrap();
    assert!(stages.get("dispatch").is_some(), "{stages:?}");
    assert!(stages.get("pool").is_none(), "no pool stage: {stages:?}");
    for lane in metrics.get("lanes").and_then(Value::as_array).unwrap() {
        let name = lane.get("name").and_then(Value::as_str).unwrap();
        assert!(!name.starts_with("worker-"), "no worker lane: {name}");
    }
    assert!(metrics.get("pool").is_none() && metrics.get("workers").is_none());
    assert!(answers[&6].get("workers").is_none(), "{:?}", answers[&6]);
    let _ = std::fs::remove_dir_all(&dir);
}
