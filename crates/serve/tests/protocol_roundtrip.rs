//! Property-based wire round-trip of typed dimension vectors through
//! the serve protocol: a valid `Dims` serialized into a request line
//! decodes back to the identical `Dims`, while any vector with a
//! non-positive width/height is refused at the trust boundary with the
//! typed `out_of_bounds` error (regression: these used to flow through
//! `Dims::from_vec_unchecked` unvalidated).

use mps_geom::Dims;
use mps_serve::{parse_request, ErrorKind, Request};
use proptest::prelude::*;
use serde::{Map, Serialize, Value};

fn valid_pairs() -> impl Strategy<Value = Vec<(i64, i64)>> {
    prop::collection::vec((1i64..10_000, 1i64..10_000), 1..9)
}

fn name() -> impl Strategy<Value = String> {
    (0u32..10_000).prop_map(|i| format!("structure_{i}"))
}

fn query_line(kind: &str, name: &str, member: &str, value: Value) -> String {
    let mut map = Map::new();
    map.insert("kind", Value::String(kind.into()));
    map.insert("structure", Value::String(name.into()));
    map.insert(member, value);
    serde_json::to_string(&Value::Object(map)).unwrap()
}

proptest! {
    /// query: a valid `dims` member round-trips bit-for-bit.
    #[test]
    fn query_dims_roundtrip_through_the_wire(pairs in valid_pairs(), name in name()) {
        let dims = Dims::from_vec_unchecked(pairs);
        let line = query_line("query", &name, "dims", dims.to_value());
        let request = parse_request(&line).expect("well-formed line parses");
        prop_assert_eq!(request, Request::Query { structure: name, dims });
    }

    /// batch_query: every element of `dims_list` round-trips in order.
    #[test]
    fn batch_dims_roundtrip_through_the_wire(
        lists in prop::collection::vec(valid_pairs(), 1..5),
        name in name(),
    ) {
        let dims_list: Vec<Dims> = lists.into_iter().map(Dims::from_vec_unchecked).collect();
        let line = query_line("batch_query", &name, "dims_list", dims_list.to_value());
        let request = parse_request(&line).expect("well-formed line parses");
        prop_assert_eq!(
            request,
            Request::BatchQuery { structure: name, dims_list, binary: false }
        );
    }

    /// Poisoning any one pair of an otherwise valid vector with a
    /// non-positive width or height yields a typed `out_of_bounds`
    /// refusal — never a panic, never an accepted request.
    #[test]
    fn non_positive_dims_are_refused_typed(
        pairs in valid_pairs(),
        poison_at in 0usize..64,
        poison in -10_000i64..1,
        poison_width in 0u8..2,
        name in name(),
    ) {
        let mut pairs = pairs;
        let at = poison_at % pairs.len();
        if poison_width == 0 {
            pairs[at].0 = poison;
        } else {
            pairs[at].1 = poison;
        }
        let dims = Dims::from_vec_unchecked(pairs);
        let line = query_line("query", &name, "dims", dims.to_value());
        let err = parse_request(&line).expect_err("non-positive dims must be refused");
        prop_assert_eq!(err.kind, ErrorKind::OutOfBounds);
    }
}
