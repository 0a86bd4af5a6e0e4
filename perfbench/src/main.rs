//! Lifecycle benchmark of the multi-placement-structure reproduction:
//! generation, lookups and the real `mps-serve` binary over loopback TCP.
//!
//! ```sh
//! cargo run --release -q --manifest-path perfbench/Cargo.toml -- \
//!     --workload serve_uniform --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Run from the repository root. Workloads: `serve_uniform` and
//! `serve_hotspot` (`BENCHMARK.json` says why each exists). Their traced
//! runs also cover the layers no request reaches: the multi-start
//! generation split, a `Workspace` sizing loop, and load and lookup
//! sweeps that add one large synthetic structure to the served ones.
//! Every answer is checked against the structure's own
//! interpretive path; a divergence fails the run with a non-zero exit.
//! `--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer
//! metrics read from spans recorded around each call the benchmark makes
//! into a layer. The last stdout line is one JSON object; a record with
//! the machine fingerprint and every figure goes to
//! `perfbench/out/records/`, the latest traced run's spans to
//! `perfbench/out/traces/`.
//!
//! Generation runs under a fixed seed, so structures, counts and quality
//! repeat exactly; `--seed` drives the sizings and request streams. Each
//! run is cut into rounds of set-up and traffic, and timings report the
//! median round, because the host's speed drifts over seconds.

mod corpus;
mod inproc;
mod layers;
mod serve;
mod stats;
mod trace;

use corpus::{Generation, Item, Quality};
use serde_json::Value;
use stats::{median, tail_percentile, valid_metric_name};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;
use trace::{layer_totals, LayerTotals, Tracer};

/// End-to-end metrics, printed with `--trace 0` on every workload.
const END_TO_END: [(&str, &str); 10] = [
    ("setup_s", "s"),
    ("gen_s", "s"),
    ("coverage", "ratio"),
    ("placement_cost", "cost"),
    ("artifact_bytes", "bytes"),
    ("p50_us", "us"),
    ("ops_per_s", "1/s"),
    ("batch_p50_ms", "ms"),
    ("reload_p50_ms", "ms"),
    ("rss_mb", "MiB"),
];

/// Per-layer metrics, printed with `--trace 1` on every workload.
const PER_LAYER: [(&str, &str); 46] = [
    ("explorer.walk_s", "s"),
    ("resolve.merge_s", "s"),
    ("parallel.speedup", "x"),
    ("bdio.optimize_us", "us"),
    ("explorer.proposals", "count"),
    ("explorer.accepted", "count"),
    ("explorer.rejected_illegal", "count"),
    ("explorer.boxes_stored", "count"),
    ("explorer.stored_shrunk", "count"),
    ("explorer.stored_forked", "count"),
    ("explorer.stored_annihilated", "count"),
    ("explorer.store_yield", "ratio"),
    ("persist.load_ms", "ms"),
    ("persist.save_ms", "ms"),
    ("invariant.check_ms", "ms"),
    ("compiled.build_us", "us"),
    ("compiled_v2.build_us", "us"),
    ("registry.open_ms", "ms"),
    ("registry.open_residual_ms", "ms"),
    ("compiled.query_ns", "ns"),
    ("compiled_v2.query_ns", "ns"),
    ("structure.query_ns", "ns"),
    ("registry.plan_auto_over_best", "ratio"),
    ("compiled_v2.heap_bytes", "bytes"),
    ("structure.instantiate_us", "us"),
    ("structure.fallback_ratio", "ratio"),
    ("protocol.parse_us.query", "us"),
    ("protocol.parse_us.instantiate", "us"),
    ("protocol.parse_us.batch", "us"),
    ("server.handle_us.query", "us"),
    ("server.handle_us.instantiate", "us"),
    ("server.handle_us.batch", "us"),
    ("wire.residual_us", "us"),
    ("server.cpu_us_per_req", "us"),
    ("client.cpu_us_per_req", "us"),
    ("client.late_p99_us", "us"),
    ("telemetry.stage_ns.recv", "ns"),
    ("telemetry.stage_ns.parse", "ns"),
    ("telemetry.stage_ns.dispatch", "ns"),
    ("telemetry.stage_ns.index", "ns"),
    ("telemetry.stage_ns.cache", "ns"),
    ("telemetry.stage_ns.pool", "ns"),
    ("telemetry.stage_ns.render", "ns"),
    ("telemetry.stage_ns.write", "ns"),
    ("cache.hit_ratio", "ratio"),
    ("registry.reload_ms", "ms"),
];

/// Extra per-layer metrics: the index-plan ratio of each structure regime
/// (the Table-1 structures and the large synthetic one), cache counters,
/// the client's tail, the rate ladder and the tracing overhead. The tail
/// and the ladder's knee move by far more than any usable bound from run
/// to run on a shared two-core host, so they are traced diagnostics
/// rather than gated end-to-end metrics.
const PER_LAYER_EXTRA: [(&str, &str); 9] = [
    ("registry.plan_auto_over_best.small", "ratio"),
    ("registry.plan_auto_over_best.large", "ratio"),
    ("cache.invalidations", "count"),
    ("cache.evictions", "count"),
    ("client.p99_us", "us"),
    ("ladder.max_ok_rps", "1/s"),
    ("workspace.query_us", "us"),
    ("workspace.instantiate_us", "us"),
    ("trace.overhead_pct", "%"),
];

/// Rounds per run: set-up and generation of the Table-1 corpus are
/// repeated once per round, between stretches of traffic, and the
/// median is reported.
const ROUNDS: usize = 10;
/// p99 a rung of the rate ladder must meet.
const P99_LIMIT_US: f64 = 20_000.0;
/// Median latency of a rung's last tenth beyond which its backlog grew.
const BACKLOG_LIMIT_US: f64 = 2_000.0;
/// Median lateness of the open-loop generator beyond which it fell
/// behind its schedule: the run, or the rung, is invalid.
const LATE_LIMIT_US: f64 = 1_000.0;
/// Nominal open-loop rate of the serve workloads, requests per second
/// (an assumption): under a quarter of the lowest ladder knee measured on
/// a two-core host (16k/s), so `p50_us` times an unsaturated server.
const NOMINAL_RPS: f64 = 4_000.0;
/// `reload` requests per round on the hot-spot stream (an assumption):
/// several per round land while jobs' hot sets are live.
const RELOADS_PER_ROUND: f64 = 4.0;
/// The rate ladder, as multiples of the nominal rate.
const LADDER: [f64; 14] = [
    2.0, 3.0, 3.5, 4.0, 4.5, 5.0, 5.5, 6.0, 6.5, 7.0, 7.5, 8.0, 9.0, 10.0,
];
/// Share of `run_seconds` the full ladder would take.
const LADDER_SHARE: f64 = 0.6;
/// Requests per saturation burst, one burst per round.
const BURST_REQUESTS: usize = 6_000;
/// Reloads timed on the idle server after each round of the uniform
/// stream, which sends none.
const IDLE_RELOADS: usize = 5;
/// Protocol lines per alternating chunk behind `trace.overhead_pct`.
const OVERHEAD_CHUNK: usize = 256;
/// `Workspace` sizing-loop steps in a traced run.
const WORKSPACE_STEPS: u64 = 50_000;
/// Highest `cache.hit_ratio` a uniform stream may show.
const UNIFORM_MAX_HIT_RATIO: f64 = 0.01;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    ServeUniform,
    ServeHotspot,
}

impl Workload {
    fn parse(s: &str) -> Option<Self> {
        Some(match s {
            "serve_uniform" => Self::ServeUniform,
            "serve_hotspot" => Self::ServeHotspot,
            _ => return None,
        })
    }

    fn name(self) -> &'static str {
        match self {
            Self::ServeUniform => "serve_uniform",
            Self::ServeHotspot => "serve_hotspot",
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (1, 10, false);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::parse(&value).ok_or(format!("unknown workload {value}"))?);
            }
            "--seed" => seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => trace = value == "1",
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds: seconds.max(1),
        trace,
    })
}

/// Everything a run produced.
#[derive(Default)]
struct Outcome {
    attempted: u64,
    failed: u64,
    /// Why the run is not correct, if it is not.
    problems: Vec<String>,
    metrics: BTreeMap<&'static str, f64>,
    /// Diagnostics for the record file only.
    notes: BTreeMap<String, String>,
}

impl Outcome {
    fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    fn count(&mut self, attempted: u64, failed: u64, what: &str) {
        self.attempted += attempted;
        self.failed += failed;
        if failed > 0 {
            self.problems
                .push(format!("{failed} of {attempted} {what} failed"));
        }
    }

    fn problem(&mut self, what: impl Into<String>) {
        self.problems.push(what.into());
    }
}

/// Each round's value of every timing. On a shared host the speed drifts
/// by tens of percent over seconds, so a run reports the median round,
/// which one unusually fast or slow stretch does not move.
#[derive(Default)]
struct Rounds(BTreeMap<&'static str, Vec<f64>>);

impl Rounds {
    fn push(&mut self, name: &'static str, value: f64) {
        if value.is_finite() {
            self.0.entry(name).or_default().push(value);
        }
    }

    fn extend(&mut self, name: &'static str, values: &[f64]) {
        for &v in values {
            self.push(name, v);
        }
    }

    /// Sets every metric to its median round.
    fn report(&self, outcome: &mut Outcome) {
        for (&name, values) in &self.0 {
            outcome.set(name, median(values));
        }
    }

    /// Every round's values, for the record.
    fn describe(&self) -> String {
        let parts: Vec<String> = self
            .0
            .iter()
            .map(|(name, v)| {
                let v: Vec<String> = v.iter().map(|x| format!("{x:.6}")).collect();
                format!("{name}=[{}]", v.join(","))
            })
            .collect();
        parts.join(" ")
    }
}

/// Where a run reads and writes, all inside the checkout.
struct Paths {
    root: PathBuf,
    work: PathBuf,
    out: PathBuf,
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let root = std::env::current_dir().expect("current directory");
    if !root.join("perfbench/Cargo.toml").is_file() || !root.join("crates/serve").is_dir() {
        eprintln!("perfbench: run from the repository root");
        return ExitCode::from(2);
    }
    let out = root.join("perfbench/out");
    let paths = Paths {
        work: out.join(format!(
            "work-{}-{}-{}",
            args.workload.name(),
            args.seed,
            std::process::id()
        )),
        out,
        root,
    };
    corpus::clear_dir(&paths.work);
    if let Err(e) = std::fs::create_dir_all(&paths.work) {
        eprintln!("perfbench: cannot create {}: {e}", paths.work.display());
        return ExitCode::from(2);
    }
    let mut tracer = Tracer::new(args.trace);
    let result = serving(&args, &paths, &mut tracer);
    corpus::clear_dir(&paths.work);
    let mut outcome = match result {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    finish(&args, &paths, &mut tracer, &mut outcome)
}

/// The machine and build a record was measured on.
fn fingerprint(root: &Path) -> BTreeMap<String, String> {
    let run = |cmd: &str, args: &[&str]| {
        std::process::Command::new(cmd)
            .args(args)
            .current_dir(root)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
    };
    let mut f = BTreeMap::new();
    f.insert("nproc".to_owned(), nproc().to_string());
    f.insert(
        "rustc".to_owned(),
        run("rustc", &["--version"]).unwrap_or_else(|| "unknown".to_owned()),
    );
    f.insert(
        "commit".to_owned(),
        run("git", &["rev-parse", "HEAD"]).unwrap_or_else(|| "unknown".to_owned()),
    );
    f
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Median of nanosecond samples in milliseconds; NaN (reported as a
/// failed run) when there are none.
fn ms(ns: &[u64]) -> f64 {
    if ns.is_empty() {
        return f64::NAN;
    }
    median(&ns.iter().map(|&n| n as f64 / 1e6).collect::<Vec<_>>())
}

/// Fails the run when `samples` cannot have ten beyond their 99th
/// percentile.
fn require_p99(samples: usize, outcome: &mut Outcome) {
    if tail_percentile(samples).is_none_or(|q| q < 99.0) {
        outcome.problem(format!("{samples} samples in a round cannot support a p99"));
    }
}

/// The explorer, resolve and parallel layers of one generation.
fn report_generation_layers(outcome: &mut Outcome, gen: &Generation) {
    let c = &gen.counts;
    outcome.set("explorer.walk_s", gen.walk_s);
    outcome.set("resolve.merge_s", gen.serial_s - gen.walk_s);
    outcome.set("parallel.speedup", gen.serial_s / gen.wall_s);
    outcome.set("explorer.proposals", c.proposals as f64);
    outcome.set("explorer.accepted", c.accepted as f64);
    outcome.set("explorer.rejected_illegal", c.rejected_illegal as f64);
    outcome.set("explorer.boxes_stored", c.boxes_stored as f64);
    outcome.set("explorer.stored_shrunk", c.stored_shrunk as f64);
    outcome.set("explorer.stored_forked", c.stored_forked as f64);
    outcome.set("explorer.stored_annihilated", c.stored_annihilated as f64);
    outcome.set(
        "explorer.store_yield",
        c.placements as f64 / c.proposals.max(1) as f64,
    );
}

/// The exact generation counts, as a ledger line.
fn counts_line(c: &corpus::Counts) -> String {
    format!(
        "proposals={} accepted={} rejected_illegal={} boxes_stored={} shrunk={} forked={} \
         annihilated={} placements={}",
        c.proposals,
        c.accepted,
        c.rejected_illegal,
        c.boxes_stored,
        c.stored_shrunk,
        c.stored_forked,
        c.stored_annihilated,
        c.placements,
    )
}

fn report_corpus(
    outcome: &mut Outcome,
    gen: &Generation,
    quality: &Quality,
    bytes: u64,
    trace: bool,
) {
    outcome.set("coverage", quality.coverage);
    outcome.set("placement_cost", quality.placement_cost);
    outcome.set("artifact_bytes", bytes as f64);
    if trace {
        outcome.set("structure.fallback_ratio", quality.fallback_ratio);
    }
    // Counts a later change may cite: they must repeat exactly from run
    // to run (checked against the ledger in `exact_repeat`).
    outcome.notes.insert(
        "exact_counts.table1".to_owned(),
        format!(
            "{} coverage={:e} placement_cost={:e} artifact_bytes={} fallback_ratio={:e}",
            counts_line(&gen.counts),
            quality.coverage,
            quality.placement_cost,
            bytes,
            quality.fallback_ratio
        ),
    );
}

/// Builds, saves and scores the Table-1 corpus; returns it with the
/// generation wall-clock.
fn build_corpus(
    args: &Args,
    tracer: &mut Tracer,
    outcome: &mut Outcome,
    path_of: &dyn Fn(&str) -> PathBuf,
) -> Result<(Vec<Item>, f64), String> {
    let (items, gen) = corpus::table1_corpus(tracer);
    // Untimed: a traced run times saving in its layer sweeps.
    let bytes = corpus::save_all(&items, path_of, &mut Tracer::new(false))
        .map_err(|e| format!("save: {e}"))?;
    let bad = corpus::reload_check(&items, path_of);
    outcome.count(
        items.len() as u64,
        bad,
        "artifact reload and invariant checks",
    );
    // Scored twice: the quality metrics must repeat exactly.
    let quality = corpus::quality(&items);
    let again = corpus::quality(&items);
    outcome.count(1, u64::from(quality != again), "quality repeat checks");
    report_corpus(outcome, &gen, &quality, bytes, args.trace);
    Ok((items, gen.wall_s))
}

/// Load, lookup, BDIO, protocol and reload sweeps of a traced run;
/// returns the time of one pass of building each swept structure's
/// auto-chosen index plan, in milliseconds.
///
/// The save, load and lookup sweeps run on the served structures plus
/// one large synthetic structure, saved together in `sweep_dir`, so both
/// index-plan regimes are timed. The served set in `dir` leaves the large
/// structure out: it would multiply the cost of every reload that runs
/// beside live traffic.
fn layer_sweeps(
    args: &Args,
    items: &[Item],
    dir: &Path,
    sweep_dir: &Path,
    lines: &[String],
    tracer: &mut Tracer,
    outcome: &mut Outcome,
) -> Result<f64, String> {
    let grid = corpus::grid_item();
    let swept: Vec<&Item> = items.iter().chain([&grid]).collect();
    std::fs::create_dir_all(sweep_dir).map_err(|e| e.to_string())?;
    let path_of = |name: &str| sweep_dir.join(format!("{name}.mpsb"));
    corpus::save_all(swept.iter().copied(), path_of, tracer).map_err(|e| format!("save: {e}"))?;
    let file_paths: Vec<PathBuf> = swept.iter().map(|it| path_of(&it.name)).collect();
    let load = layers::load_time(&swept, &file_paths, sweep_dir, tracer);
    outcome.count(1, load.failed, "load-time layer checks");
    let lookup = layers::lookup(&swept, tracer);
    outcome.count(1, lookup.failed, "lookup layer answers");
    let [all, small, large] = lookup.auto_over_best;
    outcome.set("registry.plan_auto_over_best", all);
    outcome.set("registry.plan_auto_over_best.small", small);
    outcome.set("registry.plan_auto_over_best.large", large);
    outcome.set("compiled_v2.heap_bytes", lookup.v2_heap_bytes as f64);
    layers::bdio(items, args.seed, tracer);
    let server = layers::in_process_server(dir)?;
    let (_, bad) = layers::replay(lines, &server, tracer);
    outcome.count(lines.len() as u64, bad, "replayed protocol lines");
    let bad = layers::registry_reload(dir, tracer);
    outcome.count(1, bad, "registry reloads");
    Ok(load.auto_build_ms)
}

/// Reads the span-derived per-layer metrics.
fn merge_totals(
    tracer: &Tracer,
    mut totals: BTreeMap<&'static str, LayerTotals>,
    auto_build_ms: f64,
    outcome: &mut Outcome,
) {
    for (name, t) in layer_totals(tracer.spans()) {
        let e = totals.entry(name).or_default();
        e.spans += t.spans;
        e.count += t.count;
        e.total_ns += t.total_ns;
        e.self_ns += t.self_ns;
    }
    let per_unit = |name: &str| {
        totals
            .get(name)
            .map_or(f64::NAN, |t| t.self_ns as f64 / t.count.max(1) as f64)
    };
    let per_span = |name: &str| {
        totals
            .get(name)
            .map_or(f64::NAN, |t| t.total_ns as f64 / t.spans.max(1) as f64)
    };
    let passes = |name: &str| totals.get(name).map_or(1, |t| t.spans.max(1)) as f64;
    let items_per_pass = totals
        .get("persist.load")
        .map_or(1.0, |t| t.spans as f64 / passes("registry.open"));
    outcome.set("bdio.optimize_us", per_unit("bdio.optimize") / 1e3);
    // Whole-set figures: one pass over every artifact.
    let per_pass_ms = |name: &str| per_span(name) * items_per_pass / 1e6;
    let load_ms = per_pass_ms("persist.load");
    outcome.set("persist.load_ms", load_ms);
    outcome.set("persist.save_ms", per_pass_ms("persist.save"));
    outcome.set("invariant.check_ms", per_pass_ms("invariant.check"));
    outcome.set("compiled.build_us", per_span("compiled.build") / 1e3);
    outcome.set("compiled_v2.build_us", per_span("compiled_v2.build") / 1e3);
    let open_ms = per_span("registry.open") / 1e6;
    outcome.set("registry.open_ms", open_ms);
    // Open minus load (which runs the invariant battery) and the plan
    // builds; what remains is mostly the compiled-index verification.
    outcome.set(
        "registry.open_residual_ms",
        open_ms - load_ms - auto_build_ms,
    );
    outcome.set("compiled.query_ns", per_unit("compiled.query"));
    outcome.set("compiled_v2.query_ns", per_unit("compiled_v2.query"));
    outcome.set("structure.query_ns", per_unit("structure.query"));
    outcome.set(
        "structure.instantiate_us",
        per_unit("structure.instantiate") / 1e3,
    );
    outcome.set("registry.reload_ms", per_span("registry.reload") / 1e6);
    let spans = tracer.spans();
    for (metric, span) in [
        ("protocol.parse_us.query", "protocol.parse.query"),
        (
            "protocol.parse_us.instantiate",
            "protocol.parse.instantiate",
        ),
        ("protocol.parse_us.batch", "protocol.parse.batch"),
        ("server.handle_us.query", "server.handle.query"),
        ("server.handle_us.instantiate", "server.handle.instantiate"),
        ("server.handle_us.batch", "server.handle.batch"),
    ] {
        outcome.set(metric, layers::span_p50_ns(spans, span) / 1e3);
    }
    outcome.notes.insert(
        "spans".to_owned(),
        format!("{} stored, {} folded", spans.len(), tracer.dropped()),
    );
}

/// `serve_uniform` and `serve_hotspot`: the real binary over TCP.
fn serving(args: &Args, paths: &Paths, tracer: &mut Tracer) -> Result<Outcome, String> {
    let mut outcome = Outcome::default();
    let bin = build_server(&paths.root)?;
    let dir = paths.work.join("artifacts");
    std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
    let path_of = |name: &str| dir.join(format!("{name}.mpsb"));
    let (items, first_gen_s) = build_corpus(args, tracer, &mut outcome, &path_of)?;
    let mut gens = vec![first_gen_s];
    let stream = match args.workload {
        Workload::ServeUniform => serve::Stream::Uniform,
        _ => serve::Stream::Hotspot,
    };

    // Set-up: spawn until the first answer. This server carries the
    // traffic; each round below times one more spawn.
    let first = r#"{"kind":"list_structures"}"#;
    let (server, took) = tracer.span("server.spawn", 0, 1, |_| serve::spawn(&bin, &dir, first))?;
    let mut setups = vec![took.as_secs_f64()];
    let names = serve::one_shot_line(&server.addr, first)?;
    let served = names
        .get("names")
        .and_then(Value::as_array)
        .map_or(0, Vec::len);
    outcome.count(
        1,
        u64::from(served != items.len()),
        "served structure lists",
    );

    let conns = (nproc() / 2).max(1);
    let (mut phase_no, mut plan_state) = (0u64, serve::PlanState::default());
    let mut plan_phase = |requests: usize| {
        phase_no += 1;
        let per_conn = (requests / conns).max(1);
        (0..conns)
            .map(|c| {
                let seed = args.seed
                    ^ phase_no.wrapping_mul(0x51_7C_C1_B7_27_22_0A_95)
                    ^ (c as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                serve::plan(stream, &items, seed, per_conn, &mut plan_state)
            })
            .collect::<Vec<_>>()
    };
    let check = |req: &serve::Req, answer: &Value| check_answer(&items, req, answer);

    // The nominal rate, in rounds of [generate again, time one more
    // spawn, traffic]: end-to-end latency, batch and reload.
    let nominal_share = if args.trace { 1.0 - LADDER_SHARE } else { 1.0 };
    let segment_secs = args.seconds as f64 * nominal_share / ROUNDS as f64;
    let stats0 = serve::one_shot_line(&server.addr, r#"{"kind":"stats"}"#)?;
    let metrics0 = serve::one_shot_line(&server.addr, r#"{"kind":"metrics"}"#)?;
    let pid = server.pid().to_string();
    // Only the hot-spot stream reloads beside its reads; the uniform
    // stream's reloads are timed on the idle server afterwards.
    let writes = stream == serve::Stream::Hotspot;
    let reload_every = writes.then(|| Duration::from_secs_f64(segment_secs / RELOADS_PER_ROUND));
    let mut nominal = serve::PhaseOutcome::default();
    let mut rounds = Rounds::default();
    let mut replay_lines: Vec<String> = Vec::new();
    let (mut server_cpu, mut client_cpu) = (Duration::ZERO, Duration::ZERO);
    for round in 1..=ROUNDS {
        let (wall, bad) = corpus::regenerate_table1(&items, tracer);
        gens.push(wall);
        outcome.count(1, bad, "repeated generations");
        let (probe, took) = tracer.span("server.spawn", round as u64, 1, |_| {
            serve::spawn(&bin, &dir, first)
        })?;
        probe.stop();
        setups.push(took.as_secs_f64());

        let plans = plan_phase((NOMINAL_RPS * segment_secs) as usize);
        if args.trace {
            let lines = plans.iter().flatten().map(|r| r.line.trim_end().to_owned());
            replay_lines.extend(lines);
        }
        let (server_cpu0, client_cpu0) = (serve::cpu_time(&pid), serve::cpu_time("self"));
        let segment = serve::run_phase(&server.addr, NOMINAL_RPS, plans, reload_every, &check)?;
        if writes && segment.reloads_in_traffic < 2 {
            outcome.problem(format!(
                "round {round}: {} reloads landed during traffic, want at least 2",
                segment.reloads_in_traffic
            ));
        }
        server_cpu += serve::cpu_time(&pid) - server_cpu0;
        client_cpu += serve::cpu_time("self") - client_cpu0;
        if let Some(start) = segment.start {
            // One span per request, send to answer, tagged with its id.
            let base = tracer.at(start);
            for &(req, t) in &segment.requests {
                tracer.record("wire.request", base + t.sent, base + t.recv, req, 1);
            }
        }
        require_p99(segment.single_ns.len(), &mut outcome);
        rounds.push("p50_us", segment.p50_us());
        rounds.push("client.p99_us", segment.p99_us());
        nominal.absorb(segment);
        if !writes {
            let (times, failed) = serve::idle_reloads(&server.addr, IDLE_RELOADS)?;
            outcome.count(times.len() as u64, failed, "idle reloads");
            nominal.reload_ns.extend(times);
        }
        if !args.trace {
            // Saturation: everything due at once, so the connection's
            // backpressure paces the stream and the answer rate is the
            // most the server sustains for this client.
            let plans = plan_phase(BURST_REQUESTS);
            let burst = serve::run_phase(&server.addr, f64::INFINITY, plans, None, &check)?;
            outcome.count(burst.attempted, burst.failed, "saturation requests");
            rounds.push("ops_per_s", burst.sustained_rps());
        }
    }
    outcome.set("setup_s", median(&setups));
    rounds.extend("gen_s", &gens);
    rounds.report(&mut outcome);
    outcome.notes.insert("rounds".to_owned(), rounds.describe());
    let stats1 = serve::one_shot_line(&server.addr, r#"{"kind":"stats"}"#)?;
    let metrics1 = serve::one_shot_line(&server.addr, r#"{"kind":"metrics"}"#)?;
    outcome.count(nominal.attempted, nominal.failed, "nominal-rate requests");
    let late_p99 = serve::us_percentile(&nominal.late_ns, 99.0);
    let late_p50 = serve::us_percentile(&nominal.late_ns, 50.0);
    if late_p50 > LATE_LIMIT_US {
        outcome.problem(format!(
            "invalid: the generator fell behind its schedule ({late_p50:.0} us late at the \
             median) at the nominal rate"
        ));
    }
    // Too few per round for a median of rounds: pooled over the run.
    outcome.set("batch_p50_ms", ms(&nominal.batch_ns));
    outcome.set("reload_p50_ms", ms(&nominal.reload_ns));
    outcome.notes.insert(
        "reloads".to_owned(),
        format!(
            "{} timed, {} during traffic",
            nominal.reload_ns.len(),
            nominal.reloads_in_traffic
        ),
    );

    let cache = |stats: &Value, key: &str| {
        stats
            .get("cache")
            .and_then(|c| c.get(key))
            .and_then(Value::as_u64)
            .unwrap_or(0) as f64
    };
    let hits = cache(&stats1, "hits") - cache(&stats0, "hits");
    let misses = cache(&stats1, "misses") - cache(&stats0, "misses");
    let hit_ratio = hits / (hits + misses).max(1.0);

    // The ladder: the highest rate meeting the p99 limit with no growing
    // backlog. On a shared two-core host its knee moves by a third from
    // run to run, so it is a traced diagnostic, not a gated metric.
    if args.trace {
        let rung_secs = args.seconds as f64 * LADDER_SHARE / LADDER.len() as f64;
        let mut rungs = Vec::new();
        let mut max_ok = 0.0;
        for mult in LADDER {
            let rate = NOMINAL_RPS * mult;
            let plans = plan_phase((rate * rung_secs) as usize);
            let phase = serve::run_phase(&server.addr, rate, plans, None, &check)?;
            outcome.count(phase.attempted, phase.failed, "ladder requests");
            let late = serve::us_percentile(&phase.late_ns, 50.0);
            let p99 = phase.p99_us();
            let tail_us = phase.tail_median_ns as f64 / 1e3;
            let ok = p99 <= P99_LIMIT_US
                && tail_us <= BACKLOG_LIMIT_US
                && late <= LATE_LIMIT_US
                && phase.failed == 0;
            let sustained = phase.sustained_rps();
            rungs.push(format!(
                "{rate:.0}/s sustained={sustained:.0}/s p50={:.0}us p99={p99:.0}us \
                 tail_p50={tail_us:.0}us late_p50={late:.0}us ok={ok}",
                phase.p50_us(),
            ));
            if !ok {
                // Between the last rung that met the limit and this one,
                // credit what the server actually sustained here.
                max_ok = sustained.clamp(max_ok, rate);
                break;
            }
            max_ok = rate;
        }
        outcome.notes.insert("ladder".to_owned(), rungs.join("; "));
        outcome.set("ladder.max_ok_rps", max_ok);
    }
    // The uniform stream must bypass the cache over all of its traffic.
    let stats2 = serve::one_shot_line(&server.addr, r#"{"kind":"stats"}"#)?;
    let h = cache(&stats2, "hits") - cache(&stats0, "hits");
    let m = cache(&stats2, "misses") - cache(&stats0, "misses");
    let hit_ratio_all = h / (h + m).max(1.0);
    if stream == serve::Stream::Uniform && hit_ratio_all > UNIFORM_MAX_HIT_RATIO {
        outcome.problem(format!(
            "uniform stream hit the cache: hit ratio {hit_ratio_all:.4}"
        ));
    }
    outcome.set("rss_mb", serve::peak_rss_mb(&pid));
    server.stop();
    // In every record, so contention can be told apart from the server.
    let requests = (nominal.answered + nominal.batch_ns.len() as u64).max(1) as f64;
    outcome.set(
        "server.cpu_us_per_req",
        server_cpu.as_secs_f64() * 1e6 / requests,
    );
    outcome.set(
        "client.cpu_us_per_req",
        client_cpu.as_secs_f64() * 1e6 / requests,
    );
    outcome.set("client.late_p99_us", late_p99);

    if args.trace {
        outcome.set("cache.hit_ratio", hit_ratio);
        outcome.set(
            "cache.invalidations",
            cache(&stats1, "invalidations") - cache(&stats0, "invalidations"),
        );
        outcome.set(
            "cache.evictions",
            cache(&stats1, "evictions") - cache(&stats0, "evictions"),
        );
        for (name, _) in PER_LAYER
            .iter()
            .filter(|(n, _)| n.starts_with("telemetry.stage_ns."))
        {
            let stage = &name["telemetry.stage_ns.".len()..];
            let get = |m: &Value, key: &str| {
                m.get("stages")
                    .and_then(|s| s.get(stage))
                    .and_then(|s| s.get(key))
                    .and_then(Value::as_u64)
                    .unwrap_or(0) as f64
            };
            let count = get(&metrics1, "count") - get(&metrics0, "count");
            let sum = get(&metrics1, "sum_ns") - get(&metrics0, "sum_ns");
            outcome.set(name, if count > 0.0 { sum / count } else { 0.0 });
        }
        let mut totals = BTreeMap::new();
        tracer.compact(&mut totals);
        let auto_build_ms = layer_sweeps(
            args,
            &items,
            &dir,
            &paths.work.join("sweep"),
            &replay_lines,
            tracer,
            &mut outcome,
        )?;
        // Tracing overhead: the same lines replayed untraced and traced
        // on two servers that see the same sequence, in short chunks that
        // alternate which side goes first, so both sides run in the same
        // phases of the host's speed, which shifts over seconds.
        let servers = [
            layers::in_process_server(&dir)?,
            layers::in_process_server(&dir)?,
        ];
        let mut walls = [0.0; 2];
        for (k, chunk) in replay_lines.chunks(OVERHEAD_CHUNK).enumerate() {
            for traced in [k % 2 == 1, k % 2 == 0] {
                let side = usize::from(traced);
                let (wall, _) = layers::replay(chunk, &servers[side], &mut Tracer::new(traced));
                walls[side] += wall;
            }
        }
        outcome.set("trace.overhead_pct", (walls[1] / walls[0] - 1.0) * 100.0);
        merge_totals(tracer, totals, auto_build_ms, &mut outcome);
        let handle_p50: Vec<f64> = ["server.handle.query", "server.handle.instantiate"]
            .iter()
            .map(|n| layers::span_p50_ns(tracer.spans(), n))
            .collect();
        let handle_us = median(&handle_p50) / 1e3;
        outcome.set("wire.residual_us", nominal.p50_us() - handle_us);
        traced_extras(args, paths, &items, tracer, &mut outcome)?;
    }
    Ok(outcome)
}

/// The layers no request reaches, measured in a traced run: the
/// multi-start generation split of `circ02` and `benchmark24` (the
/// Table-1 corpus runs single starts, which have no merge and no
/// parallelism), and a `Workspace` sizing loop over the served
/// structures.
fn traced_extras(
    args: &Args,
    paths: &Paths,
    items: &[Item],
    tracer: &mut Tracer,
    outcome: &mut Outcome,
) -> Result<(), String> {
    let (_, gen) = corpus::generate_pair(nproc(), tracer);
    outcome.count(1, gen.divergent, "thread-count bit-identity checks");
    report_generation_layers(outcome, &gen);
    // The `explorer.*` counts this run reports: ledgered like the corpus's.
    outcome
        .notes
        .insert("exact_counts.generate".to_owned(), counts_line(&gen.counts));

    use analog_mps::api::Workspace;
    let mut ws = Workspace::open(paths.work.join("workspace")).map_err(|e| e.to_string())?;
    for item in items {
        item.mps
            .save_bin(ws.artifact_path(&item.name))
            .map_err(|e| e.to_string())?;
        ws.load(&item.name).map_err(|e| e.to_string())?;
    }
    let run = inproc::run(&mut ws, items, args.seed, WORKSPACE_STEPS, tracer);
    outcome.count(run.attempted, run.failed, "workspace calls");
    set_workspace_layers(tracer, outcome);
    Ok(())
}

/// Per-call medians of the `Workspace` spans.
fn set_workspace_layers(tracer: &Tracer, outcome: &mut Outcome) {
    for (metric, span) in [
        ("workspace.query_us", "workspace.query"),
        ("workspace.instantiate_us", "workspace.instantiate"),
    ] {
        outcome.set(metric, layers::span_p50_ns(tracer.spans(), span) / 1e3);
    }
}

/// Diffs one answer against the in-process reference.
fn check_answer(items: &[Item], req: &serve::Req, answer: &Value) -> bool {
    let mps = &items[req.item].mps;
    let id_of = |id: Option<mps_core::PlacementId>| id.map(|id| u64::from(id.0));
    match req.kind {
        serve::Kind::Query => {
            answer.get("id").and_then(Value::as_u64) == id_of(mps.query(&req.dims[0]))
        }
        serve::Kind::Batch => answer
            .get("ids")
            .and_then(Value::as_array)
            .is_some_and(|ids| {
                ids.len() == req.dims.len()
                    && ids
                        .iter()
                        .zip(&req.dims)
                        .all(|(got, d)| got.as_u64() == id_of(mps.query(d)))
            }),
        serve::Kind::Instantiate => {
            let dims = &req.dims[0];
            let id = mps.query(dims);
            let placement = match id.and_then(|id| mps.entry(id)) {
                Some(entry) => entry.placement.clone(),
                None => mps.instantiate_or_fallback(dims),
            };
            answer.get("id").and_then(Value::as_u64) == id_of(id)
                && answer
                    .get("coords")
                    .and_then(Value::as_array)
                    .is_some_and(|got| {
                        got.len() == placement.coords().len()
                            && got.iter().zip(placement.coords()).all(|(p, c)| {
                                p.as_array().is_some_and(|xy| {
                                    xy.len() == 2
                                        && xy[0].as_i64() == Some(c.x)
                                        && xy[1].as_i64() == Some(c.y)
                                })
                            })
                    })
        }
    }
}

/// Builds the `mps-serve` binary from the checkout and returns its path.
fn build_server(root: &Path) -> Result<PathBuf, String> {
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".to_owned());
    let status = std::process::Command::new(cargo)
        .args([
            "build",
            "--release",
            "-q",
            "-p",
            "mps-serve",
            "--bin",
            "mps-serve",
        ])
        .current_dir(root)
        .stdout(std::process::Stdio::null())
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !status.success() {
        return Err("building mps-serve failed".to_owned());
    }
    let target =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| root.join("target"), |d| root.join(d));
    let bin = target.join("release/mps-serve");
    bin.is_file()
        .then_some(bin)
        .ok_or_else(|| "mps-serve binary not found after build".to_owned())
}

/// Checks each `exact_counts.*` note against the one an earlier run of
/// the same build recorded, whatever its workload: generation runs under
/// a fixed seed, so the counts must match whatever the traffic seed.
fn exact_repeat(paths: &Paths, outcome: &mut Outcome) {
    let build = std::env::current_exe()
        .and_then(std::fs::metadata)
        .map(|m| format!("{}:{:?}", m.len(), m.modified().ok()))
        .unwrap_or_default();
    let dir = paths.out.join("counts");
    let ledgered: Vec<(String, String)> = outcome
        .notes
        .iter()
        .filter(|(key, _)| key.starts_with("exact_counts."))
        .map(|(key, counts)| (key.clone(), counts.clone()))
        .collect();
    for (key, counts) in ledgered {
        let file = dir.join(format!("{key}.txt"));
        let expected = format!("{build}\n{counts}\n");
        match std::fs::read_to_string(&file) {
            Ok(prev) if prev.lines().next() == Some(build.as_str()) => {
                outcome.count(1, u64::from(prev != expected), "exact-repeat count checks");
            }
            _ => {
                let _ = std::fs::create_dir_all(&dir);
                let _ = std::fs::write(&file, expected);
            }
        }
    }
}

fn finish(args: &Args, paths: &Paths, tracer: &mut Tracer, outcome: &mut Outcome) -> ExitCode {
    exact_repeat(paths, outcome);
    let table: Vec<(&str, &str)> = if args.trace {
        PER_LAYER.iter().chain(&PER_LAYER_EXTRA).copied().collect()
    } else {
        END_TO_END.to_vec()
    };
    let mut fields = Vec::new();
    for (name, unit) in &table {
        let value = outcome.metrics.get(name).copied().unwrap_or(f64::NAN);
        if !valid_metric_name(name) {
            outcome.problem(format!("invalid metric name {name}"));
        }
        if !value.is_finite() {
            outcome.problem(format!("metric {name} has no finite value"));
        }
        let value = if value.is_finite() { value } else { 0.0 };
        fields.push(format!(r#""{name}":{{"value":{value},"unit":"{unit}"}}"#));
    }
    let correct = outcome.problems.is_empty();
    for p in &outcome.problems {
        eprintln!("perfbench: {p}");
    }

    // The record: fingerprint, every figure, diagnostics.
    let mut record = fingerprint(&paths.root);
    record.insert("workload".to_owned(), args.workload.name().to_owned());
    record.insert("seed".to_owned(), args.seed.to_string());
    record.insert("trace".to_owned(), u8::from(args.trace).to_string());
    for (k, v) in &outcome.metrics {
        record.insert(format!("metric.{k}"), format!("{v}"));
    }
    for (k, v) in &outcome.notes {
        record.insert(format!("note.{k}"), v.clone());
    }
    record.insert("problems".to_owned(), outcome.problems.join("; "));
    let records = paths.out.join("records");
    let stem = format!(
        "{}-{}-t{}",
        args.workload.name(),
        args.seed,
        u8::from(args.trace)
    );
    let _ = std::fs::create_dir_all(&records);
    let body: Vec<String> = record
        .iter()
        .map(|(k, v)| format!("  {}: {}", json_string(k), json_string(v)))
        .collect();
    let _ = std::fs::write(
        records.join(format!("{stem}.json")),
        format!("{{\n{}\n}}\n", body.join(",\n")),
    );
    eprintln!(
        "perfbench: nproc={} rustc={:?} commit={}",
        record["nproc"], record["rustc"], record["commit"]
    );
    if args.trace {
        // One span file per workload, the latest traced run's.
        let traces = paths.out.join("traces");
        let _ = std::fs::create_dir_all(&traces);
        if let Err(e) = tracer.write(&traces.join(format!("{}.jsonl", args.workload.name()))) {
            eprintln!("perfbench: cannot write spans: {e}");
        }
    }
    println!(
        r#"{{"correct":{correct},"attempted":{},"failed":{},"metrics":{{{}}}}}"#,
        outcome.attempted.max(1),
        outcome.failed,
        fields.join(",")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn json_string(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}
