//! Building a multi-placement structure for your own circuit: define
//! blocks from module generators, wire them up, add analog symmetry
//! constraints, generate, persist to JSON, reload and query.
//!
//! Run with:
//! ```sh
//! cargo run --release --example custom_circuit
//! ```

use analog_mps::mps::{GeneratorConfig, MpsGenerator, MultiPlacementStructure};
use analog_mps::netlist::modgen::{
    CapacitorGenerator, DiffPairGenerator, Generator, MosfetGenerator,
};
use analog_mps::netlist::{Circuit, Net, Pad, PadSide};
use analog_mps::placer::{CostWeights, SymmetryConstraints, SymmetryGroup};
#[path = "shared/effort.rs"]
mod shared;
use shared::effort;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // --- 1. Blocks from module generators -----------------------------
    // A folded-cascode comparator core: input pair, two mirror branches,
    // a latch pair, and a load capacitor.
    let generators = [
        Generator::DiffPair(DiffPairGenerator::default()), // 0: input pair
        Generator::Mosfet(MosfetGenerator::default()),     // 1: mirror A
        Generator::Mosfet(MosfetGenerator::default()),     // 2: mirror B
        Generator::DiffPair(DiffPairGenerator::default()), // 3: latch
        Generator::Capacitor(CapacitorGenerator::default()), // 4: load
    ];
    let names = ["INP", "MIRA", "MIRB", "LATCH", "CL"];
    let mut builder = Circuit::builder("comparator");
    for (name, g) in names.iter().zip(&generators) {
        builder = builder.block(g.derive_block(*name));
    }
    let circuit = builder
        .net_connecting("outp", &[0, 1, 3])
        .net_connecting("outn", &[0, 2, 3])
        .net_connecting("load", &[3, 4])
        .net(
            Net::connecting("clk", &[3.into()])
                .with_pad(Pad::new(PadSide::Top, 0.5))
                .with_weight(0.5),
        )
        .build()?;
    println!("built {circuit}");

    // --- 2. Analog symmetry: the mirror branches flank the input pair --
    let symmetry = SymmetryConstraints::new(vec![SymmetryGroup {
        pairs: vec![(1.into(), 2.into())],
        self_symmetric: vec![0.into(), 3.into()],
    }]);

    // --- 3. One-time generation with symmetry in the cost -------------
    let weights = CostWeights {
        symmetry: 5.0,
        ..CostWeights::default()
    };
    let config = GeneratorConfig::builder()
        .outer_iterations(((400.0 * effort()) as usize).max(10))
        .inner_iterations(((120.0 * effort()) as usize).max(10))
        .weights(weights)
        .seed(3)
        .build();
    let (mps, report) = MpsGenerator::new(&circuit, config)
        .with_symmetry(&symmetry)
        .generate_with_report()?;
    println!(
        "generated {} placements in {:?}",
        report.placements, report.duration
    );

    // --- 4. Persist and reload (generate once, use everywhere) --------
    // The structure is written as a versioned `mps-v1` JSON envelope and
    // read back through the validating loader: `load_json` re-checks the
    // format tag and every Eq.-5 invariant, so a corrupt or stale file
    // surfaces as an error here instead of garbage floorplans later.
    let reloaded: MultiPlacementStructure = {
        // Process-unique name: concurrent runs (smoke test + developer)
        // must not race on a shared file.
        let path =
            std::env::temp_dir().join(format!("custom_circuit_{}.mps.json", std::process::id()));
        mps.save_json(&path)?;
        println!(
            "persisted structure: {} bytes at {}",
            std::fs::metadata(&path)?.len(),
            path.display()
        );
        let reloaded = MultiPlacementStructure::load_json(&path)?;
        std::fs::remove_file(&path)?;
        reloaded
    };
    reloaded.check_invariants().map_err(std::io::Error::other)?;

    // --- 5. Query the reloaded structure -------------------------------
    let dims = circuit.clamp_dims(
        &generators
            .iter()
            .map(|g| {
                let (lo, hi) = g.param_range();
                g.dims_for((lo + hi) / 2.0)
            })
            .collect::<Vec<_>>(),
    );
    let placement = reloaded.instantiate_or_fallback(&dims);
    assert!(placement.is_legal(&dims, None));
    println!(
        "mid-range sizing -> floorplan with bounding box {} and symmetry deviation {:.1}",
        placement.bounding_box(&dims).expect("non-empty"),
        symmetry.deviation(&placement, &dims)
    );
    Ok(())
}
