//! Traced sweeps through single layers, run only with `--trace 1`. Each
//! call into a layer's public function sits in its own span; the
//! per-layer metrics are read back from the spans.

use crate::corpus::{probes, Item};
use crate::trace::{Span, Tracer};
use mps_core::MultiPlacementStructure;
use mps_placer::{expand_placement, CostCalculator, ExpansionConfig, Template};
use mps_serve::{
    parse_request, CompiledIndex, IndexPlan, QueryScratch, Request, Server, StructureRegistry,
};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// Passes over the artifact set when timing load-time layers.
const LOAD_PASSES: u64 = 3;
/// Passes over each probe set when timing lookups.
const QUERY_PASSES: u64 = 5;
/// BDIO calls per circuit.
const BDIO_CALLS: u64 = 4;

/// Median duration of the spans named `name`, in nanoseconds.
#[must_use]
pub fn span_p50_ns(spans: &[Span], name: &str) -> f64 {
    let mut d: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| (s.end - s.start) as f64 / s.count as f64)
        .collect();
    if d.is_empty() {
        return f64::NAN;
    }
    d.sort_by(f64::total_cmp);
    crate::stats::percentile(&d, 50.0)
}

/// What the load-time sweep measured beyond its spans.
#[derive(Debug, Default)]
pub struct LoadTime {
    /// Mean time of one pass of building every structure's auto-chosen
    /// plan, in milliseconds.
    pub auto_build_ms: f64,
    /// Structures that failed to load or check.
    pub failed: u64,
}

/// Times loading, checking, compiling and opening the artifact set.
pub fn load_time(items: &[&Item], paths: &[PathBuf], dir: &Path, tracer: &mut Tracer) -> LoadTime {
    let mut failed = 0;
    let mut auto_build_ns = 0u64;
    for pass in 0..LOAD_PASSES {
        for (i, path) in paths.iter().enumerate() {
            let req = pass * 1000 + i as u64;
            let loaded = tracer.span("persist.load", req, 1, |_| {
                MultiPlacementStructure::load_auto(path)
            });
            let Ok(mps) = loaded else {
                failed += 1;
                continue;
            };
            let checked = tracer.span("invariant.check", req, 1, |_| mps.check_invariants());
            failed += u64::from(checked.is_err());
            let auto = IndexPlan::choose(&mps);
            for (plan, name) in [
                (IndexPlan::V1, "compiled.build"),
                (IndexPlan::V2, "compiled_v2.build"),
            ] {
                let t = Instant::now();
                let index = tracer.span(name, req, 1, |_| CompiledIndex::build(&mps, plan));
                if plan == auto {
                    auto_build_ns += t.elapsed().as_nanos() as u64;
                }
                std::hint::black_box(index);
            }
        }
        let opened = tracer.span("registry.open", pass, 1, |_| StructureRegistry::open(dir));
        failed += match opened {
            Ok(registry) => u64::from(registry.len() != items.len()),
            Err(_) => 1,
        };
    }
    LoadTime {
        auto_build_ms: auto_build_ns as f64 / LOAD_PASSES as f64 / 1e6,
        failed,
    }
}

/// What the lookup sweep measured beyond its spans.
#[derive(Debug, Default)]
pub struct Lookup {
    /// Σ auto-plan time / Σ best-plan time over the same probes: over
    /// every structure, the generated (small) ones, and the synthetic
    /// (large) ones.
    pub auto_over_best: [f64; 3],
    pub v2_heap_bytes: u64,
    /// Answers where a plan disagreed with the interpretive path.
    pub failed: u64,
}

/// Times both compiled plans, the interpretive path and materialization
/// on each item's probe set.
pub fn lookup(items: &[&Item], tracer: &mut Tracer) -> Lookup {
    let mut out = Lookup::default();
    // [all, generated, synthetic] × (auto, best).
    let mut ns = [(0u64, 0u64); 3];
    let mut scratch = QueryScratch::new();
    let mut interp_scratch = Vec::new();
    for (i, item) in items.iter().enumerate() {
        let probes = probes(i, item);
        let v1 = CompiledIndex::build(&item.mps, IndexPlan::V1);
        let v2 = CompiledIndex::build(&item.mps, IndexPlan::V2);
        out.v2_heap_bytes += v2.heap_bytes() as u64;
        let want: Vec<_> = probes.iter().map(|d| item.mps.query(d)).collect();
        let n = probes.len() as u64;
        let mut plan_ns = [0u64; 2];
        for pass in 0..QUERY_PASSES {
            for (p, (name, index)) in [("compiled.query", &v1), ("compiled_v2.query", &v2)]
                .into_iter()
                .enumerate()
            {
                let t = Instant::now();
                let got: Vec<_> = tracer.span(name, pass, n, |_| {
                    probes
                        .iter()
                        .map(|d| index.query_with_scratch(d, &mut scratch))
                        .collect()
                });
                plan_ns[p] += t.elapsed().as_nanos() as u64;
                out.failed += got.iter().zip(&want).filter(|(a, b)| a != b).count() as u64;
            }
            let got: Vec<_> = tracer.span("structure.query", pass, n, |_| {
                probes
                    .iter()
                    .map(|d| item.mps.query_with_scratch(d, &mut interp_scratch))
                    .collect()
            });
            out.failed += got.iter().zip(&want).filter(|(a, b)| a != b).count() as u64;
        }
        let sink = tracer.span("structure.instantiate", i as u64, n, |_| {
            probes
                .iter()
                .map(|d| item.mps.instantiate_or_fallback(d).block_count())
                .sum::<usize>()
        });
        std::hint::black_box(sink);
        let auto = match IndexPlan::choose(&item.mps) {
            IndexPlan::V1 => plan_ns[0],
            IndexPlan::V2 => plan_ns[1],
        };
        let group = if item.generated { 1 } else { 2 };
        for g in [0, group] {
            ns[g].0 += auto;
            ns[g].1 += plan_ns[0].min(plan_ns[1]);
        }
    }
    out.auto_over_best = ns.map(|(auto, best)| auto as f64 / best.max(1) as f64);
    out
}

/// Times `Bdio::optimize` on each generated item's expert placement.
pub fn bdio(items: &[Item], seed: u64, tracer: &mut Tracer) {
    for item in items.iter().filter(|it| it.generated) {
        let circuit = &item.circuit;
        let floorplan = circuit.suggested_floorplan(1.5);
        let placement = Template::expert_default(circuit, 2).instantiate(&circuit.min_dims());
        let Ok(dbox) =
            expand_placement(circuit, &placement, &floorplan, &ExpansionConfig::default())
        else {
            continue;
        };
        let calc = CostCalculator::new(circuit).with_floorplan(floorplan);
        let config = mps_bench::scaled_config(circuit, 1.0, seed).bdio;
        let bdio = mps_core::Bdio::new(&calc, config);
        for k in 0..BDIO_CALLS {
            let r = tracer.span("bdio.optimize", k, 1, |_| {
                bdio.optimize(&placement, &dbox, seed ^ k)
            });
            std::hint::black_box(r);
        }
    }
}

/// The request kind of a line this benchmark rendered.
fn kind_of(line: &str) -> &'static str {
    if line.contains(r#""kind":"batch_query""#) {
        "batch"
    } else if line.contains(r#""kind":"instantiate""#) {
        "instantiate"
    } else {
        "query"
    }
}

/// Replays protocol lines in-process: `parse_request`, then
/// `Server::handle_line` on a server over the same artifacts. Returns
/// the wall time of the handle pass and the lines that failed.
pub fn replay(lines: &[String], server: &Server, tracer: &mut Tracer) -> (f64, u64) {
    let mut failed = 0;
    for (k, line) in lines.iter().enumerate() {
        let kind = kind_of(line);
        let name = match kind {
            "batch" => "protocol.parse.batch",
            "instantiate" => "protocol.parse.instantiate",
            _ => "protocol.parse.query",
        };
        let parsed = tracer.span(name, k as u64, 1, |_| parse_request(line));
        let ok = matches!(
            (kind, parsed),
            ("query", Ok(Request::Query { .. }))
                | ("instantiate", Ok(Request::Instantiate { .. }))
                | ("batch", Ok(Request::BatchQuery { .. }))
        );
        failed += u64::from(!ok);
    }
    let t = Instant::now();
    for (k, line) in lines.iter().enumerate() {
        let name = match kind_of(line) {
            "batch" => "server.handle.batch",
            "instantiate" => "server.handle.instantiate",
            _ => "server.handle.query",
        };
        let answer = tracer.span(name, k as u64, 1, |_| server.handle_line(line));
        let ok = answer
            .and_then(|a| serde_json::parse(&a).ok())
            .is_some_and(|v| v.get("ok").and_then(serde_json::Value::as_bool) == Some(true));
        failed += u64::from(!ok);
    }
    (t.elapsed().as_secs_f64(), failed)
}

/// An in-process server over `dir` with the binary's default settings.
pub fn in_process_server(dir: &Path) -> Result<Server, String> {
    let registry = StructureRegistry::open(dir).map_err(|e| e.to_string())?;
    Ok(Server::with_config(
        Arc::new(registry),
        mps_serve::ServerConfig::default(),
    ))
}

/// Times `StructureRegistry::reload` on `dir`.
pub fn registry_reload(dir: &Path, tracer: &mut Tracer) -> u64 {
    let Ok(registry) = StructureRegistry::open(dir) else {
        return 1;
    };
    (0..LOAD_PASSES)
        .filter(|&pass| {
            tracer
                .span("registry.reload", pass, 1, |_| registry.reload())
                .is_err()
        })
        .count() as u64
}
