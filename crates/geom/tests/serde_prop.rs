//! Property-based round-trip coverage of every serializable geometry
//! type: arbitrary value → JSON text → back → `Eq`, plus malformed-input
//! rejection (the loader must error, never panic, never construct a value
//! violating the type's invariants).

use mps_geom::{BlockRanges, DimIndex, Dims, DimsBox, Interval, IntervalMap, Point, Rect};
use proptest::prelude::*;

fn interval() -> impl Strategy<Value = Interval> {
    (-100i64..100, 0i64..80).prop_map(|(lo, len)| Interval::new(lo, lo + len))
}

fn rect() -> impl Strategy<Value = Rect> {
    (-50i64..50, -50i64..50, 1i64..40, 1i64..40)
        .prop_map(|(x, y, w, h)| Rect::from_xywh(x, y, w, h))
}

fn block_ranges() -> impl Strategy<Value = BlockRanges> {
    (interval(), interval()).prop_map(|(w, h)| BlockRanges::new(w, h))
}

fn dims_box() -> impl Strategy<Value = DimsBox> {
    prop::collection::vec(block_ranges(), 1..6).prop_map(DimsBox::new)
}

fn dims() -> impl Strategy<Value = Dims> {
    prop::collection::vec((1i64..5_000, 1i64..5_000), 1..9)
        .prop_map(|pairs| Dims::new(pairs).expect("strategy yields valid pairs"))
}

fn interval_map() -> impl Strategy<Value = IntervalMap<u32>> {
    prop::collection::vec((interval(), 0u32..5), 0..12)
        .prop_map(|inserts| inserts.into_iter().collect())
}

fn roundtrip<T: serde::Serialize + serde::Deserialize>(value: &T) -> T {
    let json = serde_json::to_string(value).expect("serialize");
    serde_json::from_str(&json).expect("deserialize")
}

proptest! {
    #[test]
    fn interval_roundtrips(a in interval()) {
        prop_assert_eq!(roundtrip(&a), a);
    }

    #[test]
    fn point_roundtrips(x in -1000i64..1000, y in -1000i64..1000) {
        let p = Point::new(x, y);
        prop_assert_eq!(roundtrip(&p), p);
    }

    #[test]
    fn rect_roundtrips(r in rect()) {
        prop_assert_eq!(roundtrip(&r), r);
    }

    /// `Dims` is wire-transparent: it round-trips through JSON and its
    /// serialized form is byte-identical to the raw `[[w, h], ...]`
    /// vector it replaced (the mps-v1 envelope and the serve protocol
    /// never see the difference).
    #[test]
    fn dims_roundtrips_on_the_raw_wire_format(d in dims()) {
        prop_assert_eq!(&roundtrip(&d), &d);
        let raw: Vec<(i64, i64)> = d.as_pairs().to_vec();
        prop_assert_eq!(
            serde_json::to_string(&d).expect("serialize"),
            serde_json::to_string(&raw).expect("serialize")
        );
    }

    #[test]
    fn block_ranges_and_dim_index_roundtrip(br in block_ranges(), block in 0usize..32) {
        prop_assert_eq!(roundtrip(&br), br);
        for axis in mps_geom::Axis::ALL {
            let di = DimIndex { block, axis };
            prop_assert_eq!(roundtrip(&di), di);
        }
    }

    #[test]
    fn dims_box_roundtrips(b in dims_box()) {
        prop_assert_eq!(roundtrip(&b), b);
    }

    #[test]
    fn interval_map_roundtrips_with_identical_queries(m in interval_map(), probe in -150i64..150) {
        let back = roundtrip(&m);
        prop_assert_eq!(back.clone(), m.clone());
        prop_assert_eq!(back.query(probe), m.query(probe));
        prop_assert_eq!(back.covered_len(), m.covered_len());
    }

    #[test]
    fn truncated_json_never_panics(b in dims_box(), cut_permille in 0usize..1000) {
        let json = serde_json::to_string(&b).expect("serialize");
        let cut = json.len() * cut_permille / 1000;
        // Truncation either fails to parse or (never) parses to the full
        // value; both are fine — the property is "no panic, no partial
        // value accepted".
        if cut < json.len() {
            prop_assert!(serde_json::from_str::<DimsBox>(&json[..cut]).is_err());
        }
    }
}

#[test]
fn invariant_violations_are_rejected() {
    // Inverted interval.
    assert!(serde_json::from_str::<Interval>("{\"lo\": 7, \"hi\": 2}").is_err());
    // Non-positive rectangle extent.
    assert!(
        serde_json::from_str::<Rect>("{\"origin\": {\"x\": 0, \"y\": 0}, \"w\": 0, \"h\": 5}")
            .is_err()
    );
    // Overlapping interval-map segments.
    assert!(serde_json::from_str::<IntervalMap<u32>>(
        "{\"segments\": [[{\"lo\": 0, \"hi\": 9}, [1]], [{\"lo\": 5, \"hi\": 14}, [2]]]}"
    )
    .is_err());
    // Unsorted ids inside a segment.
    assert!(serde_json::from_str::<IntervalMap<u32>>(
        "{\"segments\": [[{\"lo\": 0, \"hi\": 9}, [2, 1]]]}"
    )
    .is_err());
    // Wrong JSON type entirely.
    assert!(serde_json::from_str::<DimsBox>("42").is_err());
    assert!(serde_json::from_str::<Point>("[1, 2]").is_err());
}
