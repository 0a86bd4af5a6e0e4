//! The structures a workload serves: generated under a fixed seed, saved
//! as mps-v2 artifacts, and scored on a fixed probe set. Generation is
//! the same work in every run, so its counts and quality repeat exactly;
//! `--seed` varies only the traffic sent to the structures.

use crate::trace::Tracer;
use mps_bench::{random_dims, scaled_config};
use mps_core::{
    grid_structure, parallel::start_seed, ExplorerStats, GeneratorConfig, MpsGenerator,
    MultiPlacementStructure,
};
use mps_geom::Dims;
use mps_netlist::{benchmarks, modgen, Circuit};
use mps_placer::CostCalculator;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Master seed of every generation run.
const GEN_SEED: u64 = 2005;

/// Seed of the fixed probe set behind the quality metrics.
const PROBE_SEED: u64 = 0x9B0B_E5E7;

/// Explorer starts per circuit in the multi-start generation split.
pub const GENERATE_STARTS: usize = 4;

/// Budget multiplier of the Table-1 corpus: one start per circuit.
const CORPUS_EFFORT: f64 = 0.5;

/// Region target of the synthetic grid structure.
const GRID_REGIONS: usize = 4_800;

/// Probes per structure behind the quality metrics.
pub const PROBES: usize = 2_000;

/// One served structure and the circuit it places.
pub struct Item {
    /// Wire name and artifact file stem.
    pub name: String,
    pub circuit: Circuit,
    pub mps: MultiPlacementStructure,
    /// Built by the annealing generator (not synthetic).
    pub generated: bool,
}

/// Exact generation counts summed over a corpus.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct Counts {
    pub proposals: u64,
    pub accepted: u64,
    pub rejected_illegal: u64,
    pub boxes_stored: u64,
    pub stored_shrunk: u64,
    pub stored_forked: u64,
    pub stored_annihilated: u64,
    pub placements: u64,
}

impl Counts {
    fn add(&mut self, e: &ExplorerStats, placements: usize) {
        self.proposals += e.proposals as u64;
        self.accepted += e.accepted as u64;
        self.rejected_illegal += e.rejected_illegal as u64;
        self.boxes_stored += e.boxes_stored as u64;
        self.stored_shrunk += e.stored_shrunk as u64;
        self.stored_forked += e.stored_forked as u64;
        self.stored_annihilated += e.stored_annihilated as u64;
        self.placements += placements as u64;
    }
}

/// What building a corpus measured.
#[derive(Debug, Default)]
pub struct Generation {
    /// Wall-clock of the measured generation.
    pub wall_s: f64,
    /// The same starts on one thread.
    pub serial_s: f64,
    /// Sum of single-start runs walking the same trajectories.
    pub walk_s: f64,
    pub counts: Counts,
    /// Repeated or re-threaded generations that did not reproduce the
    /// measured structures bit for bit.
    pub divergent: u64,
}

/// Wire-safe name: lower case, runs of other characters become `-`.
#[must_use]
pub fn slug(name: &str) -> String {
    let mut out = String::new();
    for c in name.chars() {
        if c.is_ascii_alphanumeric() {
            out.push(c.to_ascii_lowercase());
        } else if !out.ends_with('-') {
            out.push('-');
        }
    }
    out.trim_matches('-').to_owned()
}

fn generate(
    circuit: &Circuit,
    config: GeneratorConfig,
    tracer: &mut Tracer,
    name: &'static str,
) -> (MultiPlacementStructure, mps_core::GenerationReport, f64) {
    let start = Instant::now();
    let (mps, report) = tracer.span(name, 0, 1, |_| {
        MpsGenerator::new(circuit, config)
            .generate_with_report()
            .expect("benchmark circuits are valid")
    });
    (mps, report, start.elapsed().as_secs_f64())
}

/// `circ02` and `benchmark24` at the size-scaled budget with
/// [`GENERATE_STARTS`] starts on `nproc` threads — the measured run —
/// then the same starts on one thread, which must produce bit-identical
/// structures. Traced runs add the single-start walks.
pub fn generate_pair(nproc: usize, tracer: &mut Tracer) -> (Vec<Item>, Generation) {
    let mut gen = Generation::default();
    let mut items = Vec::new();
    for circuit in [benchmarks::circ02(), benchmarks::benchmark24()] {
        let base = GeneratorConfig {
            num_starts: GENERATE_STARTS,
            ..scaled_config(&circuit, 1.0, GEN_SEED)
        };
        let with_threads = |threads| GeneratorConfig {
            threads,
            ..base.clone()
        };
        let (mps, report, wall) =
            generate(&circuit, with_threads(nproc), tracer, "generate.parallel");
        let (serial_mps, serial_report, serial) =
            generate(&circuit, with_threads(1), tracer, "generate.serial");
        gen.wall_s += wall;
        gen.serial_s += serial;
        if serial_mps.to_bin() != mps.to_bin() || serial_report.per_start != report.per_start {
            gen.divergent += 1;
        }
        if tracer.on() {
            for k in 0..GENERATE_STARTS {
                let config = GeneratorConfig {
                    num_starts: 1,
                    threads: 1,
                    seed: start_seed(base.seed, k),
                    ..base.clone()
                };
                let (_, single, walk) = generate(&circuit, config, tracer, "explorer.walk");
                gen.walk_s += walk;
                if single.per_start.first() != report.per_start.get(k) {
                    gen.divergent += 1;
                }
            }
        }
        gen.counts.add(&report.explorer, report.placements);
        items.push(Item {
            name: slug(circuit.name()),
            circuit,
            mps,
            generated: true,
        });
    }
    (items, gen)
}

/// The nine Table-1 circuits, one start each at [`CORPUS_EFFORT`].
pub fn table1_corpus(tracer: &mut Tracer) -> (Vec<Item>, Generation) {
    let mut gen = Generation::default();
    let mut items: Vec<Item> = Vec::new();
    for bm in benchmarks::all() {
        let config = scaled_config(&bm.circuit, CORPUS_EFFORT, GEN_SEED);
        let (mps, report, took) = generate(&bm.circuit, config, tracer, "generate.serial");
        gen.wall_s += took;
        gen.counts.add(&report.explorer, report.placements);
        items.push(Item {
            name: slug(bm.name),
            circuit: bm.circuit,
            mps,
            generated: true,
        });
    }
    (items, gen)
}

/// One synthetic grid structure of about [`GRID_REGIONS`] regions (built,
/// not generated): the large-structure regime, where the v2 index plan
/// beats v1; on the Table-1 structures v1 is the faster plan.
#[must_use]
pub fn grid_item() -> Item {
    let (circuit, _) = modgen::ladder_circuit(3, 1.0);
    let mps = grid_structure(&circuit, GRID_REGIONS, GEN_SEED);
    Item {
        name: "grid-ladder3".to_owned(),
        circuit,
        mps,
        generated: false,
    }
}

/// Generates the Table-1 items of `items` again; returns the wall-clock
/// and how many came out different from the first time.
pub fn regenerate_table1(items: &[Item], tracer: &mut Tracer) -> (f64, u64) {
    let (mut wall, mut divergent) = (0.0, 0);
    for (item, bm) in items.iter().zip(benchmarks::all()) {
        let config = scaled_config(&bm.circuit, CORPUS_EFFORT, GEN_SEED);
        let (mps, _, took) = generate(&bm.circuit, config, tracer, "generate.serial");
        wall += took;
        divergent += u64::from(mps.to_bin() != item.mps.to_bin());
    }
    (wall, divergent)
}

/// Saves every item as an mps-v2 artifact at `path_of(name)`; returns
/// total bytes written.
pub fn save_all<'a>(
    items: impl IntoIterator<Item = &'a Item>,
    path_of: impl Fn(&str) -> PathBuf,
    tracer: &mut Tracer,
) -> std::io::Result<u64> {
    let mut bytes = 0;
    for (i, item) in items.into_iter().enumerate() {
        let path = path_of(&item.name);
        tracer
            .span("persist.save", i as u64, 1, |_| item.mps.save_bin(&path))
            .map_err(std::io::Error::other)?;
        bytes += std::fs::metadata(&path)?.len();
    }
    Ok(bytes)
}

/// Loads every artifact back and checks the invariant battery; returns
/// how many structures failed or differ from what was saved.
pub fn reload_check(items: &[Item], path_of: impl Fn(&str) -> PathBuf) -> u64 {
    items
        .iter()
        .filter(
            |item| match MultiPlacementStructure::load_auto(path_of(&item.name)) {
                Ok(back) => back.check_invariants().is_err() || back.to_bin() != item.mps.to_bin(),
                Err(_) => true,
            },
        )
        .count() as u64
}

/// The fixed probe set of one item.
#[must_use]
pub fn probes(item_index: usize, item: &Item) -> Vec<Dims> {
    let mut rng = StdRng::seed_from_u64(PROBE_SEED ^ ((item_index as u64) << 32));
    (0..PROBES)
        .map(|_| random_dims(&item.circuit, &mut rng))
        .collect()
}

/// Quality over the generated items' probe sets.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Quality {
    pub coverage: f64,
    pub placement_cost: f64,
    pub fallback_ratio: f64,
}

/// Mean coverage, mean cost of `instantiate_or_fallback` and the share
/// of probes answered by the fallback, over the generated items.
#[must_use]
pub fn quality(items: &[Item]) -> Quality {
    let (mut coverage, mut cost, mut fallbacks, mut n, mut structures) = (0.0, 0.0, 0u64, 0u64, 0);
    for (i, item) in items.iter().enumerate().filter(|(_, it)| it.generated) {
        coverage += item.mps.coverage();
        structures += 1;
        let calc = CostCalculator::new(&item.circuit).with_floorplan(item.mps.floorplan());
        for dims in probes(i, item) {
            if item.mps.query(&dims).is_none() {
                fallbacks += 1;
            }
            cost += calc.cost(&item.mps.instantiate_or_fallback(&dims), &dims);
            n += 1;
        }
    }
    Quality {
        coverage: coverage / f64::from(structures),
        placement_cost: cost / n as f64,
        fallback_ratio: fallbacks as f64 / n as f64,
    }
}

/// Removes a directory tree, ignoring a missing one.
pub fn clear_dir(dir: &Path) {
    let _ = std::fs::remove_dir_all(dir);
}
