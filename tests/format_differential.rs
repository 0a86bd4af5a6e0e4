//! Differential battery across the two persistence formats: every
//! structure — the committed golden fixture plus a generated corpus —
//! must round-trip `mps-v1` JSON → `mps-v2` binary → JSON with
//! byte-identical re-serialization, and the structure loaded from
//! either format must answer identically under a large random probe
//! battery (≥ 1000 probes per circuit via
//! [`CompiledIndex::verify_against`]).

use analog_mps::mps::{GeneratorConfig, MpsGenerator, MultiPlacementStructure};
use analog_mps::netlist::benchmarks;
use analog_mps::serve::{CompiledIndex, IndexPlan};

const FIXTURE: &str = include_str!("fixtures/circ02_mps.json");

/// Random probes per circuit. The registry's load-time check uses a few
/// dozen; the differential battery goes much deeper.
const PROBES: usize = 1000;

const PROBE_SEED: u64 = 0xD1FF_0001;

/// The full differential check for one structure: both conversion
/// directions re-serialize byte-identically, and the binary-loaded copy
/// answers every probe exactly like the JSON-loaded one.
fn assert_formats_equivalent(mps: &MultiPlacementStructure, label: &str) {
    let json = mps.to_json();
    let bin = mps.to_bin();

    // JSON → binary → JSON: byte-identical re-serialization.
    let from_json = MultiPlacementStructure::from_json(&json)
        .unwrap_or_else(|e| panic!("{label}: JSON round-trip load failed: {e}"));
    let from_bin = MultiPlacementStructure::from_bin(&bin)
        .unwrap_or_else(|e| panic!("{label}: binary round-trip load failed: {e}"));
    assert_eq!(
        from_bin.to_json(),
        json,
        "{label}: binary-loaded structure must re-serialize to identical JSON"
    );
    // Binary → JSON → binary: the reverse direction is bit-stable too.
    assert_eq!(
        from_json.to_bin(),
        bin,
        "{label}: JSON-loaded structure must re-serialize to identical binary"
    );

    // Identical answers: compile each load into the flat query index and
    // cross-verify against the *other* load over a deep probe battery.
    CompiledIndex::build(&from_bin, IndexPlan::V1)
        .verify_against(&from_json, PROBES, PROBE_SEED)
        .unwrap_or_else(|e| panic!("{label}: binary load diverges from JSON load: {e}"));
    CompiledIndex::build(&from_json, IndexPlan::V1)
        .verify_against(&from_bin, PROBES, PROBE_SEED.rotate_left(17))
        .unwrap_or_else(|e| panic!("{label}: JSON load diverges from binary load: {e}"));
}

#[test]
fn golden_fixture_survives_both_formats() {
    let mps = MultiPlacementStructure::from_json(FIXTURE).expect("fixture loads");
    assert_formats_equivalent(&mps, "golden fixture circ02");
    // The fixture pin itself: through the binary format and back, the
    // pretty serialization still reproduces the committed bytes.
    let back = MultiPlacementStructure::from_bin(&mps.to_bin()).unwrap();
    assert_eq!(
        back.to_json_pretty(),
        FIXTURE,
        "fixture → binary → JSON must reproduce the committed fixture byte-for-byte"
    );
}

#[test]
fn generated_corpus_survives_both_formats() {
    // Every committed benchmark circuit, generated at test-friendly
    // iteration counts — small enough to stay fast, large enough that
    // the structures carry non-trivial rows/annihilation history.
    for bm in benchmarks::all() {
        let config = GeneratorConfig::builder()
            .outer_iterations(40)
            .inner_iterations(30)
            .seed(0xBEEF ^ bm.circuit.block_count() as u64)
            .build();
        let mps = MpsGenerator::new(&bm.circuit, config)
            .generate()
            .unwrap_or_else(|e| panic!("{}: generation failed: {e}", bm.name));
        assert_formats_equivalent(&mps, bm.name);
    }
}
