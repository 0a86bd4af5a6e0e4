//! Format-stability and rejection tests for the `mps-v1` persistence
//! envelope.
//!
//! The committed golden fixture (`tests/fixtures/circ02_mps.json`) pins
//! the on-disk format: if a change to the serializers alters what the
//! bytes mean, these tests fail in CI instead of silently orphaning every
//! structure users have saved. The malformed-input battery asserts the
//! validate-don't-trust contract of the loader: bad input of any kind is
//! a typed `Err`, never a panic and never a quietly corrupt structure.

use analog_mps::mps::{
    GeneratorConfig, MpsGenerator, MultiPlacementStructure, PersistError, PlacementId,
};
use analog_mps::netlist::benchmarks;

const FIXTURE: &str = include_str!("fixtures/circ02_mps.json");

/// The generation recipe behind the committed fixture. Kept callable so
/// `regenerate_golden_fixture` (ignored) can rewrite the file after an
/// *intentional* format bump.
fn fixture_structure() -> MultiPlacementStructure {
    let bm = benchmarks::by_name("circ02").unwrap();
    let config = GeneratorConfig::builder()
        .outer_iterations(60)
        .inner_iterations(40)
        .seed(20050307)
        .build();
    MpsGenerator::new(&bm.circuit, config).generate().unwrap()
}

/// One fixed probe and its hard-coded expected answer.
type Probe = (analog_mps::Dims, Option<PlacementId>);

/// A fixed probe battery over the fixture's dimension space. The expected
/// answers are hard-coded: they may only change together with a format
/// version bump and a regenerated fixture.
fn fixed_probes() -> Vec<Probe> {
    let bm = benchmarks::by_name("circ02").unwrap();
    let min = bm.circuit.min_dims();
    let max = bm.circuit.max_dims();
    let mid: analog_mps::Dims = bm
        .circuit
        .dim_bounds()
        .iter()
        .map(|b| (b.w.midpoint(), b.h.midpoint()))
        .collect();
    vec![
        (min, EXPECTED_AT_MIN.map(PlacementId)),
        (mid, EXPECTED_AT_MID.map(PlacementId)),
        (max, EXPECTED_AT_MAX.map(PlacementId)),
    ]
}

// Hard-coded expected answers for the committed fixture (see
// `regenerate_golden_fixture` for how to refresh them intentionally).
const EXPECTED_AT_MIN: Option<u32> = None;
const EXPECTED_AT_MID: Option<u32> = Some(13);
const EXPECTED_AT_MAX: Option<u32> = None;
const EXPECTED_PLACEMENTS: usize = 23;

#[test]
fn golden_fixture_loads_and_answers_fixed_queries() {
    let mps = MultiPlacementStructure::from_json(FIXTURE).expect("fixture loads");
    assert_eq!(mps.placement_count(), EXPECTED_PLACEMENTS);
    for (dims, expected) in fixed_probes() {
        assert_eq!(mps.query(&dims), expected, "probe {dims:?}");
    }
}

#[test]
fn golden_fixture_reserializes_byte_identically() {
    let mps = MultiPlacementStructure::from_json(FIXTURE).expect("fixture loads");
    assert_eq!(
        mps.to_json_pretty(),
        FIXTURE,
        "load → save must reproduce the committed fixture byte-for-byte; \
         if this change is an intentional format bump, bump `FORMAT` and \
         regenerate via `cargo test -- --ignored regenerate_golden_fixture`"
    );
}

#[test]
fn generation_recipe_still_matches_fixture() {
    // The fixture is not hand-written: the committed bytes must be what
    // the current generator produces for the recorded recipe. This pins
    // serializer *and* generator determinism at once.
    assert_eq!(fixture_structure().to_json_pretty(), FIXTURE);
}

/// Rewrites the committed fixture. Run explicitly after an intentional
/// format change: `cargo test -- --ignored regenerate_golden_fixture`,
/// then update the hard-coded expectations above.
#[test]
#[ignore = "writes tests/fixtures/circ02_mps.json; run only for an intentional format bump"]
fn regenerate_golden_fixture() {
    let mps = fixture_structure();
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/fixtures/circ02_mps.json"
    );
    std::fs::write(path, mps.to_json_pretty()).expect("write fixture");
    println!("placements: {}", mps.placement_count());
    for (dims, _) in fixed_probes() {
        println!("query {dims:?} -> {:?}", mps.query(&dims));
    }
}

// ---------------------------------------------------------------------
// Malformed-input battery
// ---------------------------------------------------------------------

#[test]
fn truncated_json_errors_cleanly() {
    for cut in [
        0,
        1,
        10,
        FIXTURE.len() / 3,
        FIXTURE.len() / 2,
        FIXTURE.len() - 2,
    ] {
        let truncated = &FIXTURE[..cut];
        assert!(
            matches!(
                MultiPlacementStructure::from_json(truncated),
                Err(PersistError::Decode(_) | PersistError::Envelope(_))
            ),
            "truncation at byte {cut} must yield a decode error"
        );
    }
}

#[test]
fn wrong_format_version_is_rejected() {
    let bumped = FIXTURE.replace("\"mps-v1\"", "\"mps-v2\"");
    match MultiPlacementStructure::from_json(&bumped) {
        Err(PersistError::WrongFormat { found }) => assert_eq!(found, "mps-v2"),
        other => panic!("expected WrongFormat, got {other:?}"),
    }
    assert!(matches!(
        MultiPlacementStructure::from_json("{\"structure\": {}}"),
        Err(PersistError::Envelope(_))
    ));
}

#[test]
fn structural_corruption_is_rejected_not_panicked() {
    // Field-level surgery on the (valid) fixture text. Every mutant must
    // come back as Err — none may panic, none may load.
    type Mutation = (&'static str, Box<dyn Fn(&str) -> String>);
    let mutations: Vec<Mutation> = vec![
        (
            "inverted interval",
            Box::new(|s: &str| s.replacen("\"lo\": 18", "\"lo\": 999999", 1)),
        ),
        (
            "negative floorplan extent",
            Box::new(|s: &str| s.replacen("\"w\": 231", "\"w\": -231", 1)),
        ),
        (
            "missing member",
            Box::new(|s: &str| s.replacen("\"w_rows\"", "\"w_rows_gone\"", 1)),
        ),
        (
            "bad member type",
            Box::new(|s: &str| s.replacen("\"entries\": [", "\"entries\": 3, \"x\": [", 1)),
        ),
    ];
    for (label, mutate) in mutations {
        let mutant = mutate(FIXTURE);
        assert_ne!(mutant, FIXTURE, "mutation `{label}` must change the text");
        assert!(
            MultiPlacementStructure::from_json(&mutant).is_err(),
            "mutation `{label}` must be rejected"
        );
    }
}

#[test]
fn eq5_violating_input_is_rejected() {
    // Duplicate an existing live entry inside the envelope's entry list:
    // its validity box then overlaps its twin's, violating Eq. 5
    // (|M(V)| = 1). The loader must refuse even though every individual
    // field is well-formed.
    let value = serde_json::parse(FIXTURE).unwrap();
    let structure = value.get("structure").unwrap();
    let entries = structure.get("entries").unwrap().as_array().unwrap();
    let first_live = entries
        .iter()
        .find(|e| !matches!(e, serde_json::Value::Null))
        .expect("fixture has live entries");

    let mut new_entries = entries.clone();
    new_entries.push(first_live.clone());

    let mut new_structure = serde_json::Map::new();
    for (k, v) in structure.as_object().unwrap().iter() {
        if k == "entries" {
            new_structure.insert(k, serde_json::Value::Array(new_entries.clone()));
        } else {
            new_structure.insert(k, v.clone());
        }
    }
    let mut envelope = serde_json::Map::new();
    envelope.insert("format", serde_json::Value::String("mps-v1".to_owned()));
    envelope.insert("structure", serde_json::Value::Object(new_structure));
    let json = serde_json::to_string(&serde_json::Value::Object(envelope)).unwrap();

    match MultiPlacementStructure::from_json(&json) {
        // The duplicated entry is not registered in the rows, so either
        // the row-consistency or the box-disjointness invariant fires —
        // both are Invariant-class rejections.
        Err(PersistError::Invariant(_)) => {}
        other => panic!("expected Invariant error, got {other:?}"),
    }
}

#[test]
fn wrong_arity_entries_are_rejected() {
    // Probing a loaded structure with the wrong dimension arity must not
    // be constructible from disk: shrink the bounds list by one block so
    // it disagrees with every entry's box.
    let value = serde_json::parse(FIXTURE).unwrap();
    let structure = value.get("structure").unwrap();
    let bounds = structure.get("bounds").unwrap().as_array().unwrap();
    let mut short_bounds = bounds.clone();
    short_bounds.pop();

    let mut new_structure = serde_json::Map::new();
    for (k, v) in structure.as_object().unwrap().iter() {
        if k == "bounds" {
            new_structure.insert(k, serde_json::Value::Array(short_bounds.clone()));
        } else {
            new_structure.insert(k, v.clone());
        }
    }
    let mut envelope = serde_json::Map::new();
    envelope.insert("format", serde_json::Value::String("mps-v1".to_owned()));
    envelope.insert("structure", serde_json::Value::Object(new_structure));
    let json = serde_json::to_string(&serde_json::Value::Object(envelope)).unwrap();
    assert!(MultiPlacementStructure::from_json(&json).is_err());
}
