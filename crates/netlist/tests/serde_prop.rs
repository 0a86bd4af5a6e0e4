//! Property-based round-trip coverage of the serializable netlist types:
//! arbitrary circuits and sizing models → JSON → back → `Eq`, plus
//! malformed-input rejection.

use mps_netlist::modgen::{
    CapacitorGenerator, DiffPairGenerator, Generator, MosfetGenerator, ResistorGenerator,
};
use mps_netlist::{Block, Circuit, Net, Pad, PadSide, Pin};
use proptest::prelude::*;

fn block() -> impl Strategy<Value = Block> {
    (1i64..40, 0i64..40, 1i64..40, 0i64..40, 0u32..1000).prop_map(
        |(w_min, w_extra, h_min, h_extra, tag)| {
            Block::new(
                format!("B{tag}"),
                w_min,
                w_min + w_extra,
                h_min,
                h_min + h_extra,
            )
        },
    )
}

/// Raw net material; pin indices are reduced modulo the block count when
/// the circuit is assembled (the vendored proptest has no flat_map, so
/// dependent generation happens inside the final `prop_map`).
fn net_material() -> impl Strategy<Value = Vec<(usize, usize, u8, u8)>> {
    prop::collection::vec((0usize..64, 0usize..64, 0u8..40, 0u8..12), 0..5)
}

fn circuit() -> impl Strategy<Value = Circuit> {
    (prop::collection::vec(block(), 1..6), net_material()).prop_map(|(blocks, raw_nets)| {
        let n = blocks.len();
        let nets = raw_nets
            .into_iter()
            .enumerate()
            .map(|(i, (a, b, weight, pad))| {
                let mut net = Net::new(
                    format!("n{i}"),
                    vec![
                        Pin::center_of((a % n).into()),
                        Pin::at((b % n).into(), 0.25, 1.0),
                    ],
                )
                .with_weight(f64::from(weight) / 8.0);
                if pad % 3 == 0 {
                    let side = [PadSide::Left, PadSide::Right, PadSide::Bottom, PadSide::Top]
                        [usize::from(pad) % 4];
                    net = net.with_pad(Pad::new(side, f32::from(pad % 11) / 10.0));
                }
                net
            })
            .collect();
        Circuit::new("prop", blocks, nets).expect("pins reduced into range")
    })
}

fn generator() -> impl Strategy<Value = Generator> {
    (0u8..4, 1i64..6, 1i64..8, 1.0f64..50.0, 1.0f64..40.0).prop_map(
        |(kind, pitch, guard, lo, extra)| match kind {
            0 => Generator::Mosfet(MosfetGenerator {
                finger_pitch: pitch,
                guard,
                min_total_width: lo,
                max_total_width: lo + extra,
            }),
            1 => Generator::DiffPair(DiffPairGenerator {
                mosfet: MosfetGenerator {
                    finger_pitch: pitch,
                    guard,
                    min_total_width: lo,
                    max_total_width: lo + extra,
                },
                matching_margin: guard,
            }),
            2 => Generator::Capacitor(CapacitorGenerator {
                density: 0.1 + lo / 100.0,
                ring: guard,
                min_cap: lo,
                max_cap: lo + extra,
                aspect: 0.5 + extra / 40.0,
            }),
            _ => Generator::Resistor(ResistorGenerator {
                strip_width: pitch,
                strip_gap: guard,
                max_strip_len: 10 + pitch,
                min_squares: lo,
                max_squares: lo + extra,
            }),
        },
    )
}

fn roundtrip<T: serde::Serialize + serde::Deserialize>(value: &T) -> T {
    let json = serde_json::to_string(value).expect("serialize");
    serde_json::from_str(&json).expect("deserialize")
}

proptest! {
    #[test]
    fn blocks_roundtrip(b in block()) {
        prop_assert_eq!(roundtrip(&b), b);
    }

    #[test]
    fn circuits_roundtrip(c in circuit()) {
        let back = roundtrip(&c);
        prop_assert_eq!(back.terminal_count(), c.terminal_count());
        prop_assert_eq!(back, c);
    }

    #[test]
    fn generators_roundtrip(g in generator()) {
        prop_assert_eq!(roundtrip(&g), g);
    }

    #[test]
    fn truncated_circuit_json_never_panics(c in circuit(), cut_permille in 0usize..1000) {
        let json = serde_json::to_string(&c).expect("serialize");
        let cut = json.len() * cut_permille / 1000;
        if cut < json.len() {
            prop_assert!(serde_json::from_str::<Circuit>(&json[..cut]).is_err());
        }
    }
}

#[test]
fn invariant_violations_are_rejected() {
    // Empty circuit.
    assert!(
        serde_json::from_str::<Circuit>("{\"name\": \"x\", \"blocks\": [], \"nets\": []}").is_err()
    );
    // Dangling pin reference.
    let dangling = "{\"name\": \"x\", \"blocks\": [{\"name\": \"A\", \"w_min\": 1, \
                    \"w_max\": 2, \"h_min\": 1, \"h_max\": 2}], \"nets\": [{\"name\": \"n\", \
                    \"pins\": [{\"block\": 5, \"offset\": {\"fx\": 0.5, \"fy\": 0.5}}], \
                    \"pad\": null, \"weight\": 1}]}";
    assert!(serde_json::from_str::<Circuit>(dangling).is_err());
    // Inverted block bounds.
    assert!(serde_json::from_str::<Block>(
        "{\"name\": \"A\", \"w_min\": 9, \"w_max\": 2, \"h_min\": 1, \"h_max\": 2}"
    )
    .is_err());
    // Pin fraction outside [0, 1].
    assert!(
        serde_json::from_str::<Pin>("{\"block\": 0, \"offset\": {\"fx\": 1.5, \"fy\": 0.5}}")
            .is_err()
    );
    // Negative net weight.
    let bad_weight = "{\"name\": \"n\", \"pins\": [{\"block\": 0, \"offset\": \
                      {\"fx\": 0.5, \"fy\": 0.5}}], \"pad\": null, \"weight\": -1}";
    assert!(serde_json::from_str::<Net>(bad_weight).is_err());
    // Unknown generator variant.
    assert!(serde_json::from_str::<Generator>("{\"Inductor\": {}}").is_err());
}
