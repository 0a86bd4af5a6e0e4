//! Serving-throughput baseline: the compiled query plan versus the
//! structure's own query path, measured on uniform and hot-spot query
//! streams over a circ02-sized structure. Writes `out/BENCH_serve.json`
//! — the perf-trajectory artifact CI records from every run.
//!
//! ```sh
//! cargo run --release -p mps-bench --bin serve_bench -- \
//!     [--effort F] [--queries N] [--hot FRAC] [--min-speedup S] \
//!     [--circuit NAME] [--save DIR | --load DIR] [--starts K] [--threads T] \
//!     [--index-scaling] [--min-flat-scaling R] [--scaling-budget-secs T]
//! ```
//!
//! Engines measured on each stream:
//!
//! * `baseline` — `MultiPlacementStructure::query` (allocates a candidate
//!   vector per call);
//! * `scratch`  — `query_with_scratch` (same interval-row walk, reused
//!   candidate buffer);
//! * `compiled` — `CompiledIndex::query_with_scratch` on the v1 plan
//!   (one binary search per row + full-width bitset AND, zero allocation
//!   per query);
//! * `compiled_v2` — the same index on the v2 plan (per-row pivot tree
//!   with center entries + sparse live-word intersection).
//!
//! With `--min-speedup S` the run fails (exit 1) unless the compiled
//! engine beats `baseline` by at least `S`× QPS on the uniform stream —
//! CI passes 2 per the serving subsystem's acceptance bar.
//!
//! With `--index-scaling` the run additionally measures how each compiled
//! plan's throughput degrades with region count: synthetic grid structures
//! over a fixed ladder circuit at 1x/3x/10x the base region count, both
//! plans verified bit-identical and measured on the same uniform stream.
//! The section lands under `"index_scaling"` in `out/BENCH_serve.json`.
//! `--min-flat-scaling R` gates the run (exit 1) unless the v2 plan keeps
//! at least `R`× its 1x QPS at 10x regions — CI passes 0.7. If corpus
//! construction exceeds `--scaling-budget-secs` (default 120) the section
//! self-skips with a warning instead of failing the run.

use mps_bench::cli::{arg_value, obtain_structure, BenchArgs, StructureSource};
use mps_bench::{fmt_duration, markdown_table, random_dims, write_artifact};
use mps_core::{grid_structure, MultiPlacementStructure, PlacementId};
use mps_geom::Dims;
use mps_netlist::{benchmarks, modgen};
use mps_serve::{CompiledIndex, IndexPlan, QueryScratch};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Map, Serialize, Value};
use std::time::{Duration, Instant};

/// Queries sampled for per-query latency percentiles (QPS is measured
/// over the whole stream without per-query clocking).
const LATENCY_SAMPLES: usize = 20_000;

struct EngineResult {
    name: &'static str,
    qps: f64,
    p50: Duration,
    p99: Duration,
}

fn percentile(sorted: &[Duration], p: f64) -> Duration {
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx]
}

/// Measures one engine over a stream: a warm-up + full-stream QPS pass
/// (no per-query clocking), then an instrumented pass over a sample for
/// p50/p99.
fn measure<F>(name: &'static str, stream: &[Dims], mut engine: F) -> EngineResult
where
    F: FnMut(&Dims) -> Option<PlacementId>,
{
    let mut sink = 0usize;
    for dims in stream.iter().take(stream.len() / 10) {
        sink = sink.wrapping_add(usize::from(engine(dims).is_some()));
    }
    let start = Instant::now();
    for dims in stream {
        sink = sink.wrapping_add(usize::from(engine(dims).is_some()));
    }
    let elapsed = start.elapsed();
    let qps = stream.len() as f64 / elapsed.as_secs_f64();

    let mut latencies: Vec<Duration> = stream
        .iter()
        .take(LATENCY_SAMPLES)
        .map(|dims| {
            let t = Instant::now();
            sink = sink.wrapping_add(usize::from(engine(dims).is_some()));
            t.elapsed()
        })
        .collect();
    latencies.sort_unstable();
    assert!(sink < usize::MAX, "keep the sink observable");
    EngineResult {
        name,
        qps,
        p50: percentile(&latencies, 0.50),
        p99: percentile(&latencies, 0.99),
    }
}

/// A hot-spot stream: `hot_fraction` of the probes cycle through 16
/// fixed vectors (the synthesis-loop pattern: an optimizer hammering the
/// same sizing neighborhood), the rest stay uniform.
fn hotspot_stream(
    uniform: &[Dims],
    mps: &MultiPlacementStructure,
    hot_fraction: f64,
    seed: u64,
) -> Vec<Dims> {
    let mut rng = StdRng::seed_from_u64(seed);
    // Prefer covered vectors as hot spots so the hot path exercises full
    // intersections, not early misses.
    let mut hot: Vec<&Dims> = uniform
        .iter()
        .filter(|d| mps.query(d).is_some())
        .take(16)
        .collect();
    if hot.is_empty() {
        hot = uniform.iter().take(16).collect();
    }
    (0..uniform.len())
        .map(|k| {
            if rng.random_range(0.0..1.0) < hot_fraction {
                hot[k % hot.len()].clone()
            } else {
                uniform[k].clone()
            }
        })
        .collect()
}

/// Whether a bare `--name` flag is present on the command line.
fn flag_present(name: &str) -> bool {
    let flag = format!("--{name}");
    std::env::args().any(|a| a == flag)
}

/// Region-count multipliers for the scaling sweep. The base level targets
/// [`SCALING_BASE_REGIONS`] (the serving benchmarks sit around a few
/// hundred regions today); later levels target exact multiples of the
/// base level's *actual* count, so the 10x label means 10x.
const SCALING_MULTIPLIERS: [(&str, usize); 3] = [("1x", 1), ("3x", 3), ("10x", 10)];

/// Region target of the scaling sweep's base level.
const SCALING_BASE_REGIONS: usize = 400;

struct ScalingOutcome {
    section: Value,
    /// v2 QPS at the top level over v2 QPS at the base level (`None` when
    /// the sweep self-skipped).
    v2_ratio: Option<f64>,
}

/// Measures both compiled plans over synthetic grid structures whose only
/// difference is region count, answering: how flat does lookup cost stay
/// as the corpus grows 10x?
fn index_scaling(queries: usize, budget: Duration) -> ScalingOutcome {
    // A fixed small circuit: scaling must come from region count alone,
    // not arity, so every level shares these 6 blocks / 12 axes.
    let (circuit, _model) = modgen::ladder_circuit(3, 1.0);
    let mut rng = StdRng::seed_from_u64(0x5CA1E);
    let stream: Vec<Dims> = (0..queries.max(1))
        .map(|_| random_dims(&circuit, &mut rng))
        .collect();

    let started = Instant::now();
    let base_regions = grid_structure(&circuit, SCALING_BASE_REGIONS, 0x77).placement_count();
    let mut levels = Vec::new();
    let mut rows = Vec::new();
    let mut qps_by_plan: Vec<(f64, f64)> = Vec::new();
    let mut skipped = false;
    for (label, multiplier) in SCALING_MULTIPLIERS {
        let target = base_regions * multiplier;
        if started.elapsed() > budget {
            eprintln!(
                "warning: index-scaling corpus exceeded the {}s budget at level {label}; \
                 skipping the rest of the sweep (gate not enforced)",
                budget.as_secs()
            );
            skipped = true;
            break;
        }
        let mps = grid_structure(&circuit, target, 0x77 ^ target as u64);
        let v1 = CompiledIndex::build(&mps, IndexPlan::V1);
        let v2 = CompiledIndex::build(&mps, IndexPlan::V2);
        for (plan, idx) in [("v1", &v1), ("v2", &v2)] {
            idx.verify_against(&mps, 2_000, 0xF1A7 ^ target as u64)
                .unwrap_or_else(|e| panic!("{plan} plan diverged at {label}: {e}"));
        }
        let mut scratch = QueryScratch::new();
        let r1 = measure("v1", &stream, |d| v1.query_with_scratch(d, &mut scratch));
        let r2 = measure("v2", &stream, |d| v2.query_with_scratch(d, &mut scratch));
        qps_by_plan.push((r1.qps, r2.qps));

        let mut level = Map::new();
        level.insert("label", Value::String(label.to_owned()));
        level.insert("target_regions", target.to_value());
        level.insert("regions", mps.placement_count().to_value());
        level.insert("segments", v1.segment_count().to_value());
        for (plan, idx, r) in [("v1", &v1, &r1), ("v2", &v2, &r2)] {
            let mut p = engine_value(r);
            if let Value::Object(m) = &mut p {
                m.insert("heap_bytes", idx.heap_bytes().to_value());
            }
            level.insert(plan, p);
        }
        levels.push(Value::Object(level));
        for r in [&r1, &r2] {
            rows.push(vec![
                label.to_owned(),
                mps.placement_count().to_string(),
                r.name.to_owned(),
                format!("{:.0}", r.qps),
                format!("{:?}", r.p50),
                format!("{:?}", r.p99),
            ]);
        }
    }

    println!("\nIndex scaling (ladder circuit, {queries} uniform queries per level)");
    println!(
        "{}",
        markdown_table(&["Level", "Regions", "Plan", "QPS", "p50", "p99"], &rows)
    );

    let ratio = |pick: fn(&(f64, f64)) -> f64| -> Option<f64> {
        match (qps_by_plan.first(), qps_by_plan.last()) {
            (Some(first), Some(last)) if qps_by_plan.len() == SCALING_MULTIPLIERS.len() => {
                Some(pick(last) / pick(first))
            }
            _ => None,
        }
    };
    let v1_ratio = ratio(|q| q.0);
    let v2_ratio = ratio(|q| q.1);
    if let (Some(r1), Some(r2)) = (v1_ratio, v2_ratio) {
        println!(
            "QPS retained at 10x regions: v1 {:.2}x, v2 {:.2}x\n",
            r1, r2
        );
    }

    let mut section = Map::new();
    section.insert("circuit", Value::String("ladder(rungs=3)".to_owned()));
    section.insert("queries_per_level", queries.to_value());
    section.insert("levels", Value::Array(levels));
    section.insert(
        "v1_qps_ratio_10x_vs_1x",
        v1_ratio.map_or(Value::Null, |r| ((r * 1000.0).round() / 1000.0).to_value()),
    );
    section.insert(
        "v2_qps_ratio_10x_vs_1x",
        v2_ratio.map_or(Value::Null, |r| ((r * 1000.0).round() / 1000.0).to_value()),
    );
    section.insert("skipped", Value::Bool(skipped));
    ScalingOutcome {
        section: Value::Object(section),
        v2_ratio,
    }
}

fn engine_value(r: &EngineResult) -> Value {
    let mut m = Map::new();
    m.insert("qps", r.qps.round().to_value());
    m.insert(
        "p50_ns",
        u64::try_from(r.p50.as_nanos())
            .unwrap_or(u64::MAX)
            .to_value(),
    );
    m.insert(
        "p99_ns",
        u64::try_from(r.p99.as_nanos())
            .unwrap_or(u64::MAX)
            .to_value(),
    );
    m.insert(
        "allocations_per_query",
        match r.name {
            "baseline" => Value::String("per-call candidate vector".to_owned()),
            _ => Value::String("zero (reused scratch)".to_owned()),
        },
    );
    Value::Object(m)
}

fn main() {
    let args = BenchArgs::parse();
    let effort = args.effort;
    let queries: usize = arg_value("queries").unwrap_or(100_000);
    let hot_fraction: f64 = arg_value("hot").unwrap_or(0.9);
    let min_speedup: f64 = arg_value("min-speedup").unwrap_or(0.0);
    let circuit_name: String = arg_value("circuit").unwrap_or_else(|| "circ02".to_owned());
    let scaling = flag_present("index-scaling");
    let min_flat_scaling: f64 = arg_value("min-flat-scaling").unwrap_or(0.0);
    let scaling_budget = Duration::from_secs(arg_value("scaling-budget-secs").unwrap_or(120));

    let Some(bm) = benchmarks::by_name(&circuit_name) else {
        eprintln!("error: unknown benchmark circuit `{circuit_name}`");
        std::process::exit(2);
    };
    eprintln!("generating {circuit_name} structure (effort {effort}) ...");
    let config = args.config_for(&bm.circuit, 20050307);
    let (mps, source) = obtain_structure(bm.name, &bm.circuit, config, &args.persist);
    eprintln!(
        "  {} placements, {:.1}% coverage{}",
        mps.placement_count(),
        100.0 * mps.coverage(),
        match &source {
            StructureSource::Generated(r) => format!(", generated in {}", fmt_duration(r.duration)),
            StructureSource::Loaded(p) => format!(", loaded from {}", p.display()),
        }
    );

    eprintln!("compiling query index ...");
    let index = CompiledIndex::build(&mps, IndexPlan::V1);
    eprintln!(
        "  v1: {} segments, {} bitset word(s), {} bytes",
        index.segment_count(),
        index.bitset_words(),
        index.heap_bytes()
    );
    let index_v2 = CompiledIndex::build(&mps, IndexPlan::V2);
    eprintln!(
        "  v2: {} bytes ({} would be chosen at load time)",
        index_v2.heap_bytes(),
        IndexPlan::choose(&mps)
    );
    // The differential contract, re-proven for both plans on this exact
    // structure before anything is timed: 10,000 probes each,
    // bit-identical answers.
    index
        .verify_against(&mps, 10_000, 0xBE9C)
        .expect("compiled index must answer bit-identically to query");
    index_v2
        .verify_against(&mps, 10_000, 0xBE9C)
        .expect("v2 index must answer bit-identically to query");

    let mut rng = StdRng::seed_from_u64(0x5EED ^ 20050307);
    let uniform: Vec<Dims> = (0..queries.max(1))
        .map(|_| random_dims(&bm.circuit, &mut rng))
        .collect();
    let hotspot = hotspot_stream(&uniform, &mps, hot_fraction, 0x1407);

    let mut streams = Map::new();
    let mut rows = Vec::new();
    let mut uniform_speedup = 0.0;
    for (stream_name, stream) in [("uniform", &uniform), ("hotspot", &hotspot)] {
        let mut scratch_u32 = Vec::new();
        let mut scratch_bits = QueryScratch::new();
        let results = [
            measure("baseline", stream, |d| mps.query(d)),
            measure("scratch", stream, |d| {
                mps.query_with_scratch(d, &mut scratch_u32)
            }),
            measure("compiled", stream, |d| {
                index.query_with_scratch(d, &mut scratch_bits)
            }),
            measure("compiled_v2", stream, |d| {
                index_v2.query_with_scratch(d, &mut scratch_bits)
            }),
        ];
        let speedup = results[2].qps / results[0].qps;
        if stream_name == "uniform" {
            uniform_speedup = speedup;
        }
        let mut engines = Map::new();
        for r in &results {
            engines.insert(r.name, engine_value(r));
        }
        let mut s = Map::new();
        s.insert("engines", Value::Object(engines));
        s.insert(
            "speedup_compiled_vs_baseline",
            ((speedup * 100.0).round() / 100.0).to_value(),
        );
        streams.insert(stream_name, Value::Object(s));
        for r in &results {
            rows.push(vec![
                stream_name.to_owned(),
                r.name.to_owned(),
                format!("{:.0}", r.qps),
                format!("{:?}", r.p50),
                format!("{:?}", r.p99),
                format!("{:.2}x", r.qps / results[0].qps),
            ]);
        }
    }

    println!("\nServing throughput ({circuit_name}, {queries} queries per stream)");
    println!(
        "{}",
        markdown_table(
            &["Stream", "Engine", "QPS", "p50", "p99", "vs baseline"],
            &rows
        )
    );

    let mut top = Map::new();
    top.insert("bench", Value::String("serve".to_owned()));
    top.insert("circuit", Value::String(circuit_name.clone()));
    top.insert("effort", effort.to_value());
    top.insert("queries_per_stream", queries.to_value());
    top.insert("hot_fraction", hot_fraction.to_value());
    top.insert("placements", mps.placement_count().to_value());
    top.insert("coverage", mps.coverage().to_value());
    top.insert("compiled_segments", index.segment_count().to_value());
    top.insert("compiled_heap_bytes", index.heap_bytes().to_value());
    top.insert("equivalence_probes", 10_000usize.to_value());
    top.insert(
        "index_plan_auto",
        Value::String(IndexPlan::choose(&mps).as_str().to_owned()),
    );
    top.insert("streams", Value::Object(streams));
    let scaling_outcome = scaling.then(|| index_scaling(queries, scaling_budget));
    if let Some(outcome) = &scaling_outcome {
        top.insert("index_scaling", outcome.section.clone());
    }
    let path = write_artifact(
        "BENCH_serve.json",
        &serde_json::to_string_pretty(&Value::Object(top)).expect("value trees serialize"),
    );
    eprintln!("wrote {}", path.display());

    if min_speedup > 0.0 && uniform_speedup < min_speedup {
        eprintln!(
            "error: compiled index QPS speedup {uniform_speedup:.2}x on the uniform stream \
             is below the required {min_speedup}x"
        );
        std::process::exit(1);
    }
    if min_flat_scaling > 0.0 {
        match scaling_outcome.as_ref().and_then(|o| o.v2_ratio) {
            Some(ratio) if ratio < min_flat_scaling => {
                eprintln!(
                    "error: v2 plan retains only {ratio:.2}x of its 1x QPS at 10x regions, \
                     below the required {min_flat_scaling}x"
                );
                std::process::exit(1);
            }
            Some(_) => {}
            None => eprintln!(
                "warning: --min-flat-scaling given but no complete scaling sweep ran \
                 (pass --index-scaling; the sweep may also have self-skipped on budget)"
            ),
        }
    }
}
