//! The placement cost calculator (§3.2.2).
//!
//! "The cost calculator has a fixed placement along with fixed widths and
//! heights of the blocks present in the circuit as its input. It calculates
//! a cost for the proposed circuit based on the wire-lengths and area of
//! that proposed design. This cost function is customizable."

use crate::{Placement, SymmetryConstraints};
use mps_geom::{Coord, Point, Rect};
use mps_netlist::Circuit;

/// Weights of the customizable cost function.
///
/// The two paper terms are `wirelength` (weighted half-perimeter wirelength
/// over all nets) and `area` (half-perimeter of the floorplan bounding box,
/// so both terms share length units). `overlap` and `out_of_bounds` are
/// penalty terms used only by optimization-based placers whose intermediate
/// states may be illegal; `symmetry` activates the analog symmetry
/// extension.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostWeights {
    /// Weight of the total half-perimeter wirelength.
    pub wirelength: f64,
    /// Weight of the bounding-box half-perimeter.
    pub area: f64,
    /// Weight of the pairwise overlap area (penalty; 0 for legal states).
    pub overlap: f64,
    /// Weight of the area escaping the floorplan (penalty).
    pub out_of_bounds: f64,
    /// Weight of the symmetry-group deviation (extension).
    pub symmetry: f64,
}

impl Default for CostWeights {
    fn default() -> Self {
        Self {
            wirelength: 1.0,
            area: 1.0,
            overlap: 50.0,
            out_of_bounds: 50.0,
            symmetry: 0.0,
        }
    }
}

/// The individual cost terms before weighting; useful for reporting and for
/// the Fig.-6 experiment, which plots raw costs per stored placement.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct CostBreakdown {
    /// Σ over nets of `weight · HPWL(net)`.
    pub wirelength: f64,
    /// `w + h` of the bounding box.
    pub area_half_perimeter: f64,
    /// Σ pairwise overlap areas.
    pub overlap_area: f64,
    /// Σ block area outside the floorplan.
    pub out_of_bounds_area: f64,
    /// Symmetry-group deviation (0 when no constraints installed).
    pub symmetry: f64,
}

impl CostBreakdown {
    /// The weighted total.
    #[must_use]
    pub fn total(&self, w: &CostWeights) -> f64 {
        w.wirelength * self.wirelength
            + w.area * self.area_half_perimeter
            + w.overlap * self.overlap_area
            + w.out_of_bounds * self.out_of_bounds_area
            + w.symmetry * self.symmetry
    }

    /// Whether the state is legal (no overlap, no boundary escape).
    #[must_use]
    pub fn is_legal(&self) -> bool {
        self.overlap_area == 0.0 && self.out_of_bounds_area == 0.0
    }
}

/// Computes placement costs for one circuit.
///
/// # Example
///
/// ```
/// use mps_geom::Point;
/// use mps_netlist::benchmarks;
/// use mps_placer::{CostCalculator, Placement};
///
/// let circuit = benchmarks::circ01();
/// let dims = circuit.min_dims();
/// let n = circuit.block_count();
/// // A crude row placement.
/// let mut x = 0;
/// let coords: Vec<Point> = dims.iter().map(|&(w, _)| {
///     let p = Point::new(x, 0);
///     x += w;
///     p
/// }).collect();
/// let cost = CostCalculator::new(&circuit).cost(&Placement::new(coords), &dims);
/// assert!(cost > 0.0);
/// # let _ = n;
/// ```
#[derive(Debug, Clone)]
pub struct CostCalculator<'a> {
    circuit: &'a Circuit,
    weights: CostWeights,
    floorplan: Option<Rect>,
    symmetry: Option<&'a SymmetryConstraints>,
}

impl<'a> CostCalculator<'a> {
    /// A calculator with default weights, no floorplan bound and no
    /// symmetry constraints.
    #[must_use]
    pub fn new(circuit: &'a Circuit) -> Self {
        Self {
            circuit,
            weights: CostWeights::default(),
            floorplan: None,
            symmetry: None,
        }
    }

    /// Replaces the weights (builder style).
    #[must_use]
    pub fn with_weights(mut self, weights: CostWeights) -> Self {
        self.weights = weights;
        self
    }

    /// Installs a floorplan bound; states escaping it pay the
    /// `out_of_bounds` penalty.
    #[must_use]
    pub fn with_floorplan(mut self, floorplan: Rect) -> Self {
        self.floorplan = Some(floorplan);
        self
    }

    /// Installs analog symmetry constraints (remember to give
    /// [`CostWeights::symmetry`] a positive weight).
    #[must_use]
    pub fn with_symmetry(mut self, symmetry: &'a SymmetryConstraints) -> Self {
        self.symmetry = Some(symmetry);
        self
    }

    /// The circuit this calculator serves.
    #[must_use]
    pub fn circuit(&self) -> &Circuit {
        self.circuit
    }

    /// The active weights.
    #[must_use]
    pub fn weights(&self) -> &CostWeights {
        &self.weights
    }

    /// Total weighted half-perimeter wirelength.
    ///
    /// Pin locations scale with block dimensions; nets with an external pad
    /// include the pad located on the current bounding box.
    ///
    /// # Panics
    ///
    /// Panics if `dims.len()` differs from the circuit's block count.
    #[must_use]
    pub fn wirelength(&self, placement: &Placement, dims: &[(Coord, Coord)]) -> f64 {
        let rects = placement.rects(dims);
        let bb = Rect::bounding_box_of(&rects);
        let mut total = 0.0;
        for net in self.circuit.nets() {
            let mut min_x = Coord::MAX;
            let mut max_x = Coord::MIN;
            let mut min_y = Coord::MAX;
            let mut max_y = Coord::MIN;
            let mut visit = |p: Point| {
                min_x = min_x.min(p.x);
                max_x = max_x.max(p.x);
                min_y = min_y.min(p.y);
                max_y = max_y.max(p.y);
            };
            for pin in net.pins() {
                visit(pin.offset.locate(&rects[pin.block.index()]));
            }
            if let (Some(pad), Some(bb)) = (net.pad(), bb.as_ref()) {
                visit(pad.locate(bb));
            }
            if max_x >= min_x {
                let hpwl = (max_x - min_x) + (max_y - min_y);
                total += net.weight() * hpwl as f64;
            }
        }
        total
    }

    /// Computes all raw cost terms.
    ///
    /// # Panics
    ///
    /// Panics if `dims.len()` differs from the circuit's block count.
    #[must_use]
    pub fn breakdown(&self, placement: &Placement, dims: &[(Coord, Coord)]) -> CostBreakdown {
        let bb = placement.bounding_box(dims);
        let area_half_perimeter = bb.map_or(0.0, |b| (b.width() + b.height()) as f64);
        CostBreakdown {
            wirelength: self.wirelength(placement, dims),
            area_half_perimeter,
            overlap_area: placement.total_overlap_area(dims) as f64,
            out_of_bounds_area: self
                .floorplan
                .map_or(0.0, |fp| placement.out_of_bounds_area(dims, &fp) as f64),
            symmetry: self.symmetry.map_or(0.0, |s| s.deviation(placement, dims)),
        }
    }

    /// The weighted total cost — what both annealing levels minimize.
    ///
    /// # Panics
    ///
    /// Panics if `dims.len()` differs from the circuit's block count.
    #[must_use]
    pub fn cost(&self, placement: &Placement, dims: &[(Coord, Coord)]) -> f64 {
        self.breakdown(placement, dims).total(&self.weights)
    }
}

serde::impl_serde_struct!(CostWeights {
    wirelength,
    area,
    overlap,
    out_of_bounds,
    symmetry,
});

#[cfg(test)]
mod tests {
    use super::*;
    use mps_netlist::{benchmarks, Block, Circuit, Net, Pad, PadSide, Pin};

    fn pair_circuit() -> Circuit {
        Circuit::builder("pair")
            .block(Block::new("A", 10, 10, 10, 10))
            .block(Block::new("B", 10, 10, 10, 10))
            .net_connecting("n", &[0, 1])
            .build()
            .unwrap()
    }

    #[test]
    fn wirelength_is_center_to_center_hpwl() {
        let c = pair_circuit();
        let dims = vec![(10, 10), (10, 10)];
        let p = Placement::new(vec![Point::new(0, 0), Point::new(20, 0)]);
        // Centers at (5,5) and (25,5): HPWL = 20 + 0.
        let wl = CostCalculator::new(&c).wirelength(&p, &dims);
        assert_eq!(wl, 20.0);
    }

    #[test]
    fn closer_blocks_cost_less() {
        let c = pair_circuit();
        let dims = vec![(10, 10), (10, 10)];
        let calc = CostCalculator::new(&c);
        let near = Placement::new(vec![Point::new(0, 0), Point::new(10, 0)]);
        let far = Placement::new(vec![Point::new(0, 0), Point::new(60, 0)]);
        assert!(calc.cost(&near, &dims) < calc.cost(&far, &dims));
    }

    #[test]
    fn weights_scale_terms() {
        let c = pair_circuit();
        let dims = vec![(10, 10), (10, 10)];
        let p = Placement::new(vec![Point::new(0, 0), Point::new(10, 0)]);
        let wl_only = CostCalculator::new(&c).with_weights(CostWeights {
            wirelength: 1.0,
            area: 0.0,
            overlap: 0.0,
            out_of_bounds: 0.0,
            symmetry: 0.0,
        });
        assert_eq!(wl_only.cost(&p, &dims), wl_only.wirelength(&p, &dims));
    }

    #[test]
    fn overlap_penalty_applies() {
        let c = pair_circuit();
        let dims = vec![(10, 10), (10, 10)];
        let overlapping = Placement::new(vec![Point::new(0, 0), Point::new(5, 0)]);
        let bd = CostCalculator::new(&c).breakdown(&overlapping, &dims);
        assert_eq!(bd.overlap_area, 50.0);
        assert!(!bd.is_legal());
    }

    #[test]
    fn out_of_bounds_penalty_requires_floorplan() {
        let c = pair_circuit();
        let dims = vec![(10, 10), (10, 10)];
        let p = Placement::new(vec![Point::new(-5, 0), Point::new(20, 0)]);
        let without = CostCalculator::new(&c).breakdown(&p, &dims);
        assert_eq!(without.out_of_bounds_area, 0.0);
        let with = CostCalculator::new(&c)
            .with_floorplan(Rect::from_xywh(0, 0, 100, 100))
            .breakdown(&p, &dims);
        assert_eq!(with.out_of_bounds_area, 50.0);
    }

    #[test]
    fn pad_nets_pull_toward_boundary() {
        let c = Circuit::builder("pad")
            .block(Block::new("A", 10, 10, 10, 10))
            .block(Block::new("B", 10, 10, 10, 10))
            .net(
                Net::new("io", vec![Pin::center_of(0.into())])
                    .with_pad(Pad::new(PadSide::Right, 0.5)),
            )
            .net_connecting("n", &[0, 1])
            .build()
            .unwrap();
        let dims = vec![(10, 10), (10, 10)];
        let calc = CostCalculator::new(&c);
        // Block A on the left: the pad net spans the whole bounding box.
        let a_left = Placement::new(vec![Point::new(0, 0), Point::new(40, 0)]);
        // Block A on the right: pad net short.
        let a_right = Placement::new(vec![Point::new(40, 0), Point::new(0, 0)]);
        assert!(calc.wirelength(&a_right, &dims) < calc.wirelength(&a_left, &dims));
    }

    #[test]
    fn net_weight_multiplies() {
        let c = Circuit::builder("w")
            .block(Block::new("A", 10, 10, 10, 10))
            .block(Block::new("B", 10, 10, 10, 10))
            .net(Net::connecting("n", &[0.into(), 1.into()]).with_weight(3.0))
            .build()
            .unwrap();
        let dims = vec![(10, 10), (10, 10)];
        let p = Placement::new(vec![Point::new(0, 0), Point::new(20, 0)]);
        assert_eq!(CostCalculator::new(&c).wirelength(&p, &dims), 60.0);
    }

    #[test]
    fn breakdown_total_matches_cost() {
        let c = benchmarks::circ01();
        let dims = c.min_dims();
        let mut x = 0;
        let coords: Vec<Point> = dims
            .iter()
            .map(|&(w, _)| {
                let p = Point::new(x, 0);
                x += w + 1;
                p
            })
            .collect();
        let p = Placement::new(coords);
        let calc = CostCalculator::new(&c);
        let bd = calc.breakdown(&p, &dims);
        assert!((bd.total(calc.weights()) - calc.cost(&p, &dims)).abs() < 1e-9);
        assert!(bd.is_legal());
    }
}
