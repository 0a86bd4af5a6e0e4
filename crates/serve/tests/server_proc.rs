//! End-to-end test of the real `mps-serve` binary: generate + save an
//! artifact, start the server process, pipe a query stream through
//! stdin/stdout (and through the optional localhost TCP listener), and
//! diff every answer against direct `query` calls on the same artifact.

use mps_core::{GeneratorConfig, MpsGenerator, MultiPlacementStructure};
use mps_geom::Coord;
use mps_netlist::benchmarks;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::Value;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};

fn artifact_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mps_serve_proc_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn generate_artifact(dir: &std::path::Path) -> MultiPlacementStructure {
    let circuit = benchmarks::circ01();
    let config = GeneratorConfig::builder()
        .outer_iterations(40)
        .inner_iterations(30)
        .seed(31)
        .build();
    let mps = MpsGenerator::new(&circuit, config).generate().unwrap();
    mps.save_json(dir.join("circ01.mps.json")).unwrap();
    mps
}

fn query_line(name: &str, dims: &[(Coord, Coord)]) -> String {
    let pairs: Vec<String> = dims.iter().map(|&(w, h)| format!("[{w},{h}]")).collect();
    format!(
        r#"{{"kind":"query","structure":"{name}","dims":[{}]}}"#,
        pairs.join(",")
    )
}

fn random_stream(n: usize, seed: u64) -> Vec<mps_geom::Dims> {
    let bounds = benchmarks::circ01().dim_bounds();
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
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
        .collect()
}

fn response_id(line: &str) -> Option<u32> {
    let value: Value = serde_json::parse(line).expect("server emits valid JSON");
    assert_eq!(
        value.get("ok").and_then(Value::as_bool),
        Some(true),
        "unexpected refusal: {line}"
    );
    value
        .get("id")
        .and_then(Value::as_u64)
        .map(|id| u32::try_from(id).unwrap())
}

struct KillOnDrop(Child);

impl Drop for KillOnDrop {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

#[test]
fn stdin_stream_answers_match_direct_queries() {
    let dir = artifact_dir("stdin");
    let mps = generate_artifact(&dir);

    let mut child = Command::new(env!("CARGO_BIN_EXE_mps-serve"))
        .arg(&dir)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn mps-serve");
    let mut stdin = child.stdin.take().unwrap();
    let stdout = BufReader::new(child.stdout.take().unwrap());
    let child = KillOnDrop(child);

    let stream = random_stream(200, 0xE2E);
    let writer = {
        let stream = stream.clone();
        std::thread::spawn(move || {
            writeln!(stdin, "{{\"kind\":\"list_structures\"}}").unwrap();
            for dims in &stream {
                writeln!(stdin, "{}", query_line("circ01", dims)).unwrap();
            }
            // One malformed line mid-stream must cost exactly one error
            // response, not the process.
            writeln!(stdin, "{{oops").unwrap();
            // Any in-bounds vector instantiates: covered space answers
            // from the structure, uncovered space from the fallback.
            let pairs: Vec<String> = stream[0]
                .iter()
                .map(|&(w, h)| format!("[{w},{h}]"))
                .collect();
            writeln!(
                stdin,
                r#"{{"kind":"instantiate","structure":"circ01","dims":[{}]}}"#,
                pairs.join(",")
            )
            .unwrap();
            let dims_list: Vec<String> = stream[..50]
                .iter()
                .map(|dims| {
                    let pairs: Vec<String> =
                        dims.iter().map(|&(w, h)| format!("[{w},{h}]")).collect();
                    format!("[{}]", pairs.join(","))
                })
                .collect();
            writeln!(
                stdin,
                r#"{{"kind":"batch_query","structure":"circ01","dims_list":[{}]}}"#,
                dims_list.join(",")
            )
            .unwrap();
            writeln!(stdin, "{{\"kind\":\"stats\"}}").unwrap();
            // dropping stdin closes the stream; the server exits cleanly
        })
    };

    let mut lines = stdout.lines();
    let mut next = || lines.next().expect("server closed early").unwrap();

    // list_structures
    let list = next();
    assert!(list.contains("\"circ01\""), "{list}");

    // the query stream: every answer must equal the direct query
    for (k, dims) in stream.iter().enumerate() {
        let got = response_id(&next());
        let expected = mps.query(dims).map(|id| id.0);
        assert_eq!(got, expected, "probe {k} ({dims:?}) diverges over the wire");
    }

    // the malformed line: one typed error, then business as usual
    let error_line = next();
    let error: Value = serde_json::parse(&error_line).unwrap();
    assert_eq!(error.get("ok").and_then(Value::as_bool), Some(false));

    // instantiate: legal coordinates with one [x, y] pair per block
    let inst: Value = serde_json::parse(&next()).unwrap();
    assert_eq!(inst.get("ok").and_then(Value::as_bool), Some(true));
    let coords = inst.get("coords").and_then(Value::as_array).unwrap();
    assert_eq!(coords.len(), mps.block_count());

    // batch_query: element-wise equal to query_batch
    let batch: Value = serde_json::parse(&next()).unwrap();
    let ids = batch.get("ids").and_then(Value::as_array).unwrap();
    let expected = mps.query_batch(&stream[..50]);
    assert_eq!(ids.len(), expected.len());
    for (got, want) in ids.iter().zip(&expected) {
        assert_eq!(got.as_u64(), want.map(|id| u64::from(id.0)));
    }

    // stats counted the traffic
    let stats: Value = serde_json::parse(&next()).unwrap();
    let counters = stats.get("counters").unwrap();
    assert_eq!(counters.get("errors").and_then(Value::as_u64), Some(1));
    assert_eq!(
        counters.get("queries").and_then(Value::as_u64),
        Some(200 + 50)
    );

    writer.join().unwrap();
    drop(child);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Spawns `mps-serve --tcp 0` over `dir` and returns the child plus the
/// address it announced **on stdout** (the machine-readable contract
/// that lets parallel CI jobs always pass port 0 and never collide).
fn spawn_tcp_server(dir: &std::path::Path, extra_args: &[&str]) -> (KillOnDrop, String) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_mps-serve"))
        .arg(dir)
        .args(["--tcp", "0"]) // port 0: the OS picks; announced on stdout
        .args(extra_args)
        .stdin(Stdio::piped()) // held open so the server keeps running
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn mps-serve");
    let mut stdout = BufReader::new(child.stdout.take().unwrap());
    let mut announce = String::new();
    stdout
        .read_line(&mut announce)
        .expect("server announces its address before serving");
    let value: Value = serde_json::parse(announce.trim()).expect("announce line is JSON");
    assert_eq!(value.get("ok").and_then(Value::as_bool), Some(true));
    assert_eq!(
        value.get("kind").and_then(Value::as_str),
        Some("listening"),
        "first stdout line must be the listening announce, got {announce}"
    );
    let addr = value
        .get("addr")
        .and_then(Value::as_str)
        .expect("announce carries the bound address")
        .to_owned();
    (KillOnDrop(child), addr)
}

#[test]
fn tcp_listener_serves_the_same_protocol() {
    let dir = artifact_dir("tcp");
    let mps = generate_artifact(&dir);
    let (child, addr) = spawn_tcp_server(&dir, &[]);

    let stream = TcpStream::connect(&*addr).expect("connect to mps-serve");
    let _ = stream.set_nodelay(true);
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut writer = stream;

    for dims in random_stream(50, 0x7C9) {
        writeln!(writer, "{}", query_line("circ01", &dims)).unwrap();
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        assert_eq!(
            response_id(line.trim_end()),
            mps.query(&dims).map(|id| id.0),
            "TCP answer diverges at {dims:?}"
        );
    }
    drop(child);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Pipelining over the wire: a whole burst of tagged requests is written
/// before any response is read; every response is matched back by its
/// `req` tag (arrival order is explicitly not part of the contract) and
/// diffed against the direct query path.
#[test]
fn tcp_pipelined_burst_answers_every_tagged_request() {
    let dir = artifact_dir("pipeline");
    let mps = generate_artifact(&dir);
    let (child, addr) = spawn_tcp_server(&dir, &[]);

    let stream = TcpStream::connect(&*addr).expect("connect to mps-serve");
    let _ = stream.set_nodelay(true);
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut writer = stream;

    let queries = random_stream(120, 0xF1F0);
    for (k, dims) in queries.iter().enumerate() {
        let pairs: Vec<String> = dims.iter().map(|&(w, h)| format!("[{w},{h}]")).collect();
        writeln!(
            writer,
            r#"{{"id":{k},"kind":"query","structure":"circ01","dims":[{}]}}"#,
            pairs.join(",")
        )
        .unwrap();
    }
    let mut answered = vec![false; queries.len()];
    for _ in 0..queries.len() {
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        let value: Value = serde_json::parse(line.trim_end()).expect("valid response JSON");
        assert_eq!(
            value.get("ok").and_then(Value::as_bool),
            Some(true),
            "unexpected refusal: {line}"
        );
        let req = value
            .get("req")
            .and_then(Value::as_u64)
            .expect("pipelined responses are tagged") as usize;
        assert!(!answered[req], "request {req} answered twice");
        answered[req] = true;
        assert_eq!(
            value.get("id").and_then(Value::as_u64),
            mps.query(&queries[req]).map(|id| u64::from(id.0)),
            "pipelined answer {req} diverges from the direct query"
        );
    }
    assert!(answered.iter().all(|&a| a), "every request answered");

    // The same burst again: now largely cache hits — still identical,
    // and the stats response reports them.
    for (k, dims) in queries.iter().enumerate() {
        let pairs: Vec<String> = dims.iter().map(|&(w, h)| format!("[{w},{h}]")).collect();
        writeln!(
            writer,
            r#"{{"id":{},"kind":"query","structure":"circ01","dims":[{}]}}"#,
            queries.len() + k,
            pairs.join(",")
        )
        .unwrap();
    }
    for _ in 0..queries.len() {
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        let value: Value = serde_json::parse(line.trim_end()).unwrap();
        let req =
            value.get("req").and_then(Value::as_u64).expect("tagged") as usize - queries.len();
        assert_eq!(
            value.get("id").and_then(Value::as_u64),
            mps.query(&queries[req]).map(|id| u64::from(id.0)),
            "cached answer {req} diverges from the direct query"
        );
    }
    writeln!(writer, r#"{{"id":{},"kind":"stats"}}"#, 2 * queries.len()).unwrap();
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    let stats: Value = serde_json::parse(line.trim_end()).unwrap();
    let cache = stats.get("cache").expect("stats carries cache counters");
    assert!(
        cache.get("hits").and_then(Value::as_u64).unwrap_or(0) >= queries.len() as u64,
        "second pass must hit the cache: {line}"
    );
    drop(child);
    let _ = std::fs::remove_dir_all(&dir);
}
