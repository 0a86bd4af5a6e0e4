//! Serving a persisted structure: generate once, `--save`-style persist,
//! load it through the hot-swappable registry, and answer a query stream
//! through the compiled query plan and the line protocol — the full
//! `mps-serve` pipeline, in-process.
//!
//! Run with:
//! ```sh
//! cargo run --release --example serve_queries
//! ```

use analog_mps::mps::{GeneratorConfig, MpsGenerator};
use analog_mps::netlist::benchmarks;
use analog_mps::serve::{CompiledIndex, QueryScratch, Server, StructureRegistry};
use std::sync::Arc;
use std::time::Instant;
#[path = "shared/effort.rs"]
mod shared;
use shared::effort;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // --- 1. Generate once, persist (the offline side) -----------------
    let circuit = benchmarks::circ02();
    let config = GeneratorConfig::builder()
        .outer_iterations(((300.0 * effort()) as usize).max(10))
        .inner_iterations(((120.0 * effort()) as usize).max(10))
        .seed(2005)
        .build();
    let mps = MpsGenerator::new(&circuit, config).generate()?;
    println!(
        "generated circ02 structure: {} placements, {:.1}% coverage",
        mps.placement_count(),
        100.0 * mps.coverage()
    );
    let dir = std::env::temp_dir().join(format!("mps_serve_example_{}", std::process::id()));
    std::fs::create_dir_all(&dir)?;
    mps.save_json(dir.join("circ02.mps.json"))?;

    // --- 2. Load through the registry (the serving side) --------------
    // Every artifact is re-validated on load, its query index compiled
    // and cross-checked against the structure's own query path.
    let registry = Arc::new(StructureRegistry::open(&dir)?);
    println!("registry serves: {:?}", registry.names());

    // --- 3. The compiled query plan: identical answers, faster --------
    let served = registry.get("circ02").expect("just loaded");
    let index: &CompiledIndex = served.index();
    println!(
        "compiled plan: {} ({} segments, {} bitset words)",
        index.plan(),
        index.segment_count(),
        index.bitset_words()
    );
    let queries: Vec<analog_mps::Dims> = {
        use analog_mps::geom::Coord;
        let bounds = circuit.dim_bounds();
        let n = 20_000usize;
        (0..n)
            .map(|k| {
                bounds
                    .iter()
                    .enumerate()
                    .map(|(i, b)| {
                        let w = b.w.lo() + ((k * 7919 + i * 104729) as Coord % b.w.len() as Coord);
                        let h = b.h.lo() + ((k * 6007 + i * 31337) as Coord % b.h.len() as Coord);
                        (w, h)
                    })
                    .collect()
            })
            .collect()
    };
    let t = Instant::now();
    let baseline: usize = queries
        .iter()
        .filter(|d| served.structure().query(d).is_some())
        .count();
    let t_baseline = t.elapsed();
    let mut scratch = QueryScratch::new();
    let t = Instant::now();
    let compiled: usize = queries
        .iter()
        .filter(|d| index.query_with_scratch(d, &mut scratch).is_some())
        .count();
    let t_compiled = t.elapsed();
    assert_eq!(baseline, compiled, "compiled plan must answer identically");
    println!(
        "{} queries: interpretive {:?}, compiled {:?} ({:.1}x), {} hit covered space",
        queries.len(),
        t_baseline,
        t_compiled,
        t_baseline.as_secs_f64() / t_compiled.as_secs_f64().max(1e-12),
        compiled
    );

    // --- 4. The wire protocol (what `mps-serve` speaks) ---------------
    let server = Server::new(Arc::clone(&registry));
    let dims = circuit.min_dims();
    let pairs: Vec<String> = dims.iter().map(|(w, h)| format!("[{w},{h}]")).collect();
    for line in [
        "{\"kind\":\"list_structures\"}".to_owned(),
        // Tagged requests carry a strictly increasing `id` and get it
        // echoed back as `req` — that is what lets a client pipeline
        // many requests per connection and match responses out of order
        // (full contract: crates/serve/PROTOCOL.md).
        format!(
            "{{\"id\":1,\"kind\":\"query\",\"structure\":\"circ02\",\"dims\":[{}]}}",
            pairs.join(",")
        ),
        format!(
            "{{\"id\":2,\"kind\":\"instantiate\",\"structure\":\"circ02\",\"dims\":[{}]}}",
            pairs.join(",")
        ),
        // The same instantiate again: answered from the sharded LRU
        // answer cache — byte-identical, no recompute, no re-render.
        format!(
            "{{\"id\":3,\"kind\":\"instantiate\",\"structure\":\"circ02\",\"dims\":[{}]}}",
            pairs.join(",")
        ),
        // Hot-swap the registry from the artifact directory; the cache
        // is invalidated all-or-nothing.
        "{\"id\":4,\"kind\":\"reload\"}".to_owned(),
        // Malformed input is answered with a typed error, never fatal.
        "{\"kind\":\"query\",\"structure\":\"circ02\",\"dims\":[[1,2,3]]}".to_owned(),
        "{\"id\":5,\"kind\":\"stats\"}".to_owned(),
    ] {
        let response = server.handle_line(&line).expect("non-blank line");
        println!("→ {line}");
        println!("← {response}");
    }
    let cache = server.cache().stats();
    println!(
        "answer cache: {} hit(s), {} miss(es), {} invalidation(s)",
        cache.hits, cache.misses, cache.invalidations
    );
    assert_eq!(cache.hits, 1, "the repeated instantiate must hit");
    assert_eq!(cache.invalidations, 1, "the reload must invalidate");

    std::fs::remove_dir_all(&dir)?;
    Ok(())
}
