//! Property-based tests of the placement substrate.

use mps_geom::{Coord, Rect};
use mps_netlist::benchmarks::random_circuit;
use mps_placer::{
    expand_placement, CostCalculator, ExpansionConfig, Placement, SequencePair, Template,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    // ------------------------------------------------------------------
    // Sequence-pair packing always produces a legal, compacted floorplan
    // — for any pair shape and any dimensions.
    // ------------------------------------------------------------------

    #[test]
    fn seqpair_packings_are_legal(
        seed in 0u64..10_000,
        n in 1usize..22,
        dims in prop::collection::vec((1i64..60, 1i64..60), 22),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let dims = &dims[..n];

        let sp = SequencePair::random(n, &mut rng);
        let ps = sp.pack(dims);
        prop_assert!(ps.is_legal(dims, None));

        // The packer anchors at the origin.
        prop_assert_eq!(ps.bounding_box(dims).unwrap().origin(), mps_geom::Point::origin());
    }

    // ------------------------------------------------------------------
    // Expansion: the box's upper corner is always simultaneously legal —
    // the anchoring guarantee everything else relies on.
    // ------------------------------------------------------------------

    #[test]
    fn expansion_upper_corner_is_legal(
        seed in 0u64..5_000,
        blocks in 2usize..8,
    ) {
        let circuit = random_circuit(blocks, blocks + 2, seed);
        let fp = circuit.suggested_floorplan(1.6);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xBEEF);
        let min_dims = circuit.min_dims();
        // Start from a packed (hence legal) placement spread by 2x.
        let packed = SequencePair::random(blocks, &mut rng).pack(&min_dims);
        let spread = Placement::new(
            packed
                .coords()
                .iter()
                .map(|p| mps_geom::Point::new(p.x * 2, p.y * 2))
                .collect(),
        );
        if !spread.is_legal(&min_dims, Some(&fp)) {
            // Spreading can escape small floorplans; skip those cases.
            return Ok(());
        }
        let dbox = expand_placement(&circuit, &spread, &fp, &ExpansionConfig::default())
            .expect("legal at minima");
        let top: Vec<(Coord, Coord)> = dbox
            .ranges()
            .iter()
            .map(|r| (r.w.hi(), r.h.hi()))
            .collect();
        prop_assert!(spread.is_legal(&top, Some(&fp)));
        dbox.check_within_bounds(&circuit.dim_bounds())
            .map_err(TestCaseError::fail)?;
        // Maximality along each axis: growing any single ended dimension by
        // one grid unit must violate legality or the block bound.
        for (i, r) in dbox.ranges().iter().enumerate() {
            let block = &circuit.blocks()[i];
            for (axis_is_w, hi, max) in [
                (true, r.w.hi(), block.max_width()),
                (false, r.h.hi(), block.max_height()),
            ] {
                if hi >= max {
                    continue; // capped by the designer bound
                }
                let mut grown = top.clone();
                if axis_is_w {
                    grown[i].0 += 1;
                } else {
                    grown[i].1 += 1;
                }
                prop_assert!(
                    !spread.is_legal(&grown, Some(&fp)),
                    "block {i} axis {} not expanded to the limit",
                    if axis_is_w { "w" } else { "h" }
                );
            }
        }
    }

    // ------------------------------------------------------------------
    // Cost function sanity over random circuits.
    // ------------------------------------------------------------------

    #[test]
    fn cost_is_finite_nonnegative_and_translation_invariant(
        seed in 0u64..5_000,
        blocks in 2usize..8,
        dx in -40i64..40,
        dy in -40i64..40,
    ) {
        let circuit = random_circuit(blocks, blocks + 3, seed);
        let mut rng = StdRng::seed_from_u64(seed);
        let dims = circuit.min_dims();
        let p = SequencePair::random(blocks, &mut rng).pack(&dims);
        let calc = CostCalculator::new(&circuit);
        let cost = calc.cost(&p, &dims);
        prop_assert!(cost.is_finite() && cost >= 0.0);
        // Without a floorplan bound the cost is translation invariant
        // (wirelength and bbox half-perimeter are relative measures).
        let shifted = Placement::new(
            p.coords()
                .iter()
                .map(|c| mps_geom::Point::new(c.x + dx, c.y + dy))
                .collect(),
        );
        let shifted_cost = calc.cost(&shifted, &dims);
        prop_assert!((cost - shifted_cost).abs() < 1e-6,
            "cost {cost} vs shifted {shifted_cost}");
    }

    // ------------------------------------------------------------------
    // Templates freeze an arrangement but always stay legal.
    // ------------------------------------------------------------------

    #[test]
    fn template_from_any_legal_placement_instantiates_legally(
        seed in 0u64..5_000,
        blocks in 2usize..10,
        scale in 1i64..4,
    ) {
        let circuit = random_circuit(blocks, blocks + 1, seed);
        let mut rng = StdRng::seed_from_u64(!seed);
        let base_dims = circuit.min_dims();
        let source = SequencePair::random(blocks, &mut rng).pack(&base_dims);
        let template = Template::from_placement(&source, &base_dims);
        let big_dims: Vec<(Coord, Coord)> = circuit
            .blocks()
            .iter()
            .map(|b| {
                (
                    (b.min_width() * scale).min(b.max_width()),
                    (b.min_height() * scale).min(b.max_height()),
                )
            })
            .collect();
        prop_assert!(template.instantiate(&big_dims).is_legal(&big_dims, None));
    }
}

#[test]
fn expansion_inside_tight_floorplan_stays_inside() {
    // Deterministic guard: floorplan exactly one block's max size.
    let circuit = random_circuit(1, 1, 3);
    let b = &circuit.blocks()[0];
    let fp = Rect::from_xywh(0, 0, b.max_width() + 1, b.max_height() + 1);
    let p = Placement::new(vec![mps_geom::Point::new(0, 0)]);
    let dbox = expand_placement(&circuit, &p, &fp, &ExpansionConfig::default()).unwrap();
    assert!(dbox.ranges()[0].w.hi() <= b.max_width());
    assert!(dbox.ranges()[0].h.hi() <= b.max_height());
}
