//! Generate-once / use-everywhere: a structure serialized to JSON and
//! reloaded must answer every query identically — the property the whole
//! multi-placement workflow (Fig. 1) depends on.
//!
//! Served offline by the vendored serde/serde_json subsets; persistence
//! is always compiled in, so this suite runs in a plain `cargo test`.

use analog_mps::mps::{GeneratorConfig, MpsGenerator, MultiPlacementStructure};
use analog_mps::netlist::benchmarks;
use analog_mps::placer::SequencePair;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn generated_structure() -> (&'static str, MultiPlacementStructure) {
    let bm = benchmarks::by_name("circ02").unwrap();
    let config = GeneratorConfig::builder()
        .outer_iterations(80)
        .inner_iterations(60)
        .seed(5)
        .build();
    let mps = MpsGenerator::new(&bm.circuit, config).generate().unwrap();
    ("circ02", mps)
}

fn random_probe(circuit: &analog_mps::netlist::Circuit, rng: &mut StdRng) -> analog_mps::Dims {
    circuit
        .dim_bounds()
        .iter()
        .map(|b| {
            (
                rng.random_range(b.w.lo()..=b.w.hi()),
                rng.random_range(b.h.lo()..=b.h.hi()),
            )
        })
        .collect()
}

#[test]
fn structure_roundtrips_through_json_with_identical_answers() {
    let bm = benchmarks::by_name("circ02").unwrap();
    let (_, mps) = generated_structure();

    // Raw (envelope-less) serde path, as a library consumer would use it.
    let json = serde_json::to_string(&mps).expect("structure serializes");
    let reloaded: MultiPlacementStructure =
        serde_json::from_str(&json).expect("structure deserializes");

    reloaded.check_invariants().expect("invariants survive");
    assert_eq!(reloaded.placement_count(), mps.placement_count());
    assert_eq!(reloaded.floorplan(), mps.floorplan());
    assert!((reloaded.coverage() - mps.coverage()).abs() < 1e-12);

    // Differential battery: 1,000 seeded probe vectors must get identical
    // query and instantiation answers from original and reload.
    let mut rng = StdRng::seed_from_u64(77);
    for _ in 0..1_000 {
        let dims = random_probe(&bm.circuit, &mut rng);
        assert_eq!(reloaded.query(&dims), mps.query(&dims));
        assert_eq!(reloaded.instantiate(&dims), mps.instantiate(&dims));
        assert_eq!(
            reloaded.instantiate_or_fallback(&dims),
            mps.instantiate_or_fallback(&dims)
        );
    }
}

#[test]
fn envelope_roundtrip_matches_raw_roundtrip() {
    let bm = benchmarks::by_name("circ02").unwrap();
    let (_, mps) = generated_structure();
    let reloaded = MultiPlacementStructure::from_json(&mps.to_json()).expect("envelope loads back");
    assert_eq!(
        reloaded.to_json(),
        mps.to_json(),
        "save → load → save is a fixpoint"
    );
    let mut rng = StdRng::seed_from_u64(1234);
    for _ in 0..200 {
        let dims = random_probe(&bm.circuit, &mut rng);
        assert_eq!(reloaded.query(&dims), mps.query(&dims));
    }
}

/// The documented None-fallback contract: a structure without an installed
/// backup template serves uncovered space with the canonical single-row
/// packing — deterministically, and identically before and after a
/// save/load cycle. (The generator installs a template, so the bare case
/// is built by re-inserting the generated entries into a fresh structure —
/// the path external structure builders take.)
#[test]
fn none_fallback_is_deterministic_across_reload() {
    let bm = benchmarks::by_name("circ02").unwrap();
    let (_, generated) = generated_structure();
    let mut mps = MultiPlacementStructure::new(&bm.circuit, generated.floorplan());
    for (_, entry) in generated.iter() {
        mps.insert_unchecked(entry.clone());
    }
    assert!(mps.fallback().is_none());

    let reloaded = MultiPlacementStructure::from_json(&mps.to_json()).unwrap();
    assert!(
        reloaded.fallback().is_none(),
        "reload preserves the absence"
    );

    let n = bm.circuit.block_count();
    let mut rng = StdRng::seed_from_u64(991);
    let mut uncovered_seen = 0usize;
    // Bounded scan: if generation ever reaches full coverage there is no
    // uncovered space to probe and the contract holds vacuously.
    for _ in 0..200_000 {
        if uncovered_seen == 25 {
            break;
        }
        let dims = random_probe(&bm.circuit, &mut rng);
        if mps.query(&dims).is_some() {
            continue;
        }
        uncovered_seen += 1;
        let expected = SequencePair::row(n).pack(&dims);
        assert_eq!(mps.instantiate_or_fallback(&dims), expected);
        assert_eq!(reloaded.instantiate_or_fallback(&dims), expected);
    }
}

#[test]
fn circuits_roundtrip_through_json() {
    for bm in benchmarks::all() {
        let json = serde_json::to_string(&bm.circuit).expect("serialize");
        let back: analog_mps::netlist::Circuit = serde_json::from_str(&json).expect("deserialize");
        assert_eq!(back, bm.circuit, "{}", bm.name);
        assert_eq!(back.terminal_count(), bm.circuit.terminal_count());
    }
}

#[test]
fn sizing_models_roundtrip_through_json() {
    // The vendored serde_json prints floats with shortest-round-trip
    // precision, so the models come back bit-exactly — the functional
    // comparison doubles as a regression guard on that property.
    for bm in benchmarks::all() {
        let json = serde_json::to_string(&bm.model).expect("serialize");
        let back: analog_mps::netlist::modgen::SizingModel =
            serde_json::from_str(&json).expect("deserialize");
        assert_eq!(back, bm.model, "{}", bm.name);
        let ranges = bm.model.param_ranges();
        for t in [0.0, 0.3, 0.7, 1.0] {
            let params: Vec<f64> = ranges.iter().map(|&(lo, hi)| lo + (hi - lo) * t).collect();
            assert_eq!(
                back.dims(&params),
                bm.model.dims(&params),
                "{} at t={t}",
                bm.name
            );
        }
    }
}
