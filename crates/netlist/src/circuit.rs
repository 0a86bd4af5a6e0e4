//! Circuits: blocks plus the nets connecting them.

use crate::{Block, BlockId, Net};
use mps_geom::{BlockRanges, Coord, Dims, DimsBox, Rect};
use std::fmt;

/// Errors detected by [`Circuit::validate`] / [`CircuitBuilder::build`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ValidateCircuitError {
    /// The circuit has no blocks; nothing to place.
    NoBlocks,
    /// A net references a block index outside the block list.
    PinBlockOutOfRange {
        /// Name of the offending net.
        net: String,
        /// The out-of-range block id.
        block: BlockId,
        /// Number of blocks actually present.
        block_count: usize,
    },
}

impl fmt::Display for ValidateCircuitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ValidateCircuitError::NoBlocks => write!(f, "circuit has no blocks"),
            ValidateCircuitError::PinBlockOutOfRange {
                net,
                block,
                block_count,
            } => write!(
                f,
                "net `{net}` references {block} but the circuit has only {block_count} blocks"
            ),
        }
    }
}

impl std::error::Error for ValidateCircuitError {}

/// A circuit topology: "a set of N blocks" (§2.1) plus its nets.
///
/// This is the input of the one-time multi-placement structure generation
/// (Fig. 1a). The blocks' dimension bounds span the coverage space; the
/// nets feed the wirelength part of the cost calculator.
///
/// # Example
///
/// ```
/// use mps_netlist::{Block, Circuit, Net};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let circuit = Circuit::builder("inverter")
///     .block(Block::new("Mp", 20, 60, 10, 30))
///     .block(Block::new("Mn", 15, 45, 10, 30))
///     .net_connecting("out", &[0, 1])
///     .build()?;
/// assert_eq!(circuit.block_count(), 2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Circuit {
    name: String,
    blocks: Vec<Block>,
    nets: Vec<Net>,
}

impl Circuit {
    /// Creates a circuit after validating it.
    ///
    /// # Errors
    ///
    /// Returns [`ValidateCircuitError`] if the circuit is empty or a net
    /// references a missing block.
    pub fn new(
        name: impl Into<String>,
        blocks: Vec<Block>,
        nets: Vec<Net>,
    ) -> Result<Self, ValidateCircuitError> {
        let c = Self {
            name: name.into(),
            blocks,
            nets,
        };
        c.validate()?;
        Ok(c)
    }

    /// Starts building a circuit.
    #[must_use]
    pub fn builder(name: impl Into<String>) -> CircuitBuilder {
        CircuitBuilder {
            name: name.into(),
            blocks: Vec::new(),
            nets: Vec::new(),
        }
    }

    /// Re-checks the structural invariants.
    ///
    /// # Errors
    ///
    /// Returns [`ValidateCircuitError`] for an empty block list or a
    /// dangling pin reference.
    pub fn validate(&self) -> Result<(), ValidateCircuitError> {
        if self.blocks.is_empty() {
            return Err(ValidateCircuitError::NoBlocks);
        }
        for net in &self.nets {
            for pin in net.pins() {
                if pin.block.index() >= self.blocks.len() {
                    return Err(ValidateCircuitError::PinBlockOutOfRange {
                        net: net.name().to_owned(),
                        block: pin.block,
                        block_count: self.blocks.len(),
                    });
                }
            }
        }
        Ok(())
    }

    /// Circuit name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The blocks, indexable by [`BlockId::index`].
    #[must_use]
    pub fn blocks(&self) -> &[Block] {
        &self.blocks
    }

    /// The nets.
    #[must_use]
    pub fn nets(&self) -> &[Net] {
        &self.nets
    }

    /// Block lookup.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range (validated circuits never produce
    /// out-of-range ids).
    #[must_use]
    pub fn block(&self, id: BlockId) -> &Block {
        &self.blocks[id.index()]
    }

    /// Number of blocks `N`.
    #[must_use]
    pub fn block_count(&self) -> usize {
        self.blocks.len()
    }

    /// Number of nets.
    #[must_use]
    pub fn net_count(&self) -> usize {
        self.nets.len()
    }

    /// Total number of block terminals over all nets (Table 1 column).
    #[must_use]
    pub fn terminal_count(&self) -> usize {
        self.nets.iter().map(Net::terminal_count).sum()
    }

    /// Per-block dimension bounds, in block order.
    #[must_use]
    pub fn dim_bounds(&self) -> Vec<BlockRanges> {
        self.blocks.iter().map(Block::dim_ranges).collect()
    }

    /// The full 2N-dimensional coverage space as a [`DimsBox`].
    #[must_use]
    pub fn full_space(&self) -> DimsBox {
        DimsBox::new(self.dim_bounds())
    }

    /// Every block at its minimum dimensions — the Placement Selector's
    /// starting point (§3.1.1).
    ///
    /// Block bounds are validated positive at construction, so the result
    /// is always a valid [`Dims`].
    #[must_use]
    pub fn min_dims(&self) -> Dims {
        Dims::from_vec_unchecked(
            self.blocks
                .iter()
                .map(|b| (b.min_width(), b.min_height()))
                .collect(),
        )
    }

    /// Every block at its maximum dimensions.
    #[must_use]
    pub fn max_dims(&self) -> Dims {
        Dims::from_vec_unchecked(
            self.blocks
                .iter()
                .map(|b| (b.max_width(), b.max_height()))
                .collect(),
        )
    }

    /// Clamps a dimension vector into every block's bounds. The result
    /// always satisfies [`Circuit::admits_dims`].
    ///
    /// # Panics
    ///
    /// Panics if `dims.len() != self.block_count()`.
    #[must_use]
    pub fn clamp_dims(&self, dims: &[(Coord, Coord)]) -> Dims {
        assert_eq!(
            dims.len(),
            self.blocks.len(),
            "dimension vector length mismatch"
        );
        Dims::from_vec_unchecked(
            self.blocks
                .iter()
                .zip(dims)
                .map(|(b, &(w, h))| b.clamp_dims(w, h))
                .collect(),
        )
    }

    /// Whether the dimension vector lies within every block's bounds.
    ///
    /// # Panics
    ///
    /// Panics if `dims.len() != self.block_count()`.
    #[must_use]
    pub fn admits_dims(&self, dims: &[(Coord, Coord)]) -> bool {
        assert_eq!(
            dims.len(),
            self.blocks.len(),
            "dimension vector length mismatch"
        );
        self.blocks
            .iter()
            .zip(dims)
            .all(|(b, &(w, h))| b.admits(w, h))
    }

    /// A square floorplan region guaranteed to admit any legal dimension
    /// vector: side `ceil(sqrt(Σ w_M · h_M) · slack)`, at least as large as
    /// the largest single block dimension.
    ///
    /// The Placement Explorer uses this as its out-of-bounds constraint
    /// (§3.1.2/§3.1.4); `slack` ≥ 1 leaves whitespace for expansion
    /// (1.3–1.6 works well for the benchmark suite).
    ///
    /// # Panics
    ///
    /// Panics if `slack < 1.0`.
    #[must_use]
    pub fn suggested_floorplan(&self, slack: f64) -> Rect {
        assert!(
            slack >= 1.0,
            "floorplan slack must be at least 1.0, got {slack}"
        );
        let total_area: f64 = self
            .blocks
            .iter()
            .map(|b| (b.max_width() as f64) * (b.max_height() as f64))
            .sum();
        let mut side = (total_area.sqrt() * slack).ceil() as Coord;
        for b in &self.blocks {
            side = side.max(b.max_width()).max(b.max_height());
        }
        Rect::from_xywh(0, 0, side.max(1), side.max(1))
    }

    /// The nets touching block `id` (by index into [`Circuit::nets`]).
    #[must_use]
    pub fn nets_of_block(&self, id: BlockId) -> Vec<usize> {
        self.nets
            .iter()
            .enumerate()
            .filter(|(_, n)| n.pins().iter().any(|p| p.block == id))
            .map(|(i, _)| i)
            .collect()
    }
}

impl fmt::Display for Circuit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} ({} blocks, {} nets, {} terminals)",
            self.name,
            self.block_count(),
            self.net_count(),
            self.terminal_count()
        )
    }
}

/// Circuit-aware operations on typed dimension vectors.
///
/// [`Dims`] lives in `mps-geom`, which knows nothing about circuits;
/// this extension puts the circuit-facing conveniences on the vector
/// itself so facade code reads in the data-flow direction:
///
/// ```
/// use mps_netlist::{benchmarks, DimsCircuitExt};
/// let circuit = benchmarks::circ01();
/// let sizing = circuit.max_dims().clamp_to(&circuit);
/// assert!(sizing.admitted_by(&circuit));
/// ```
pub trait DimsCircuitExt {
    /// Clamps every pair into the circuit's per-block designer bounds —
    /// the typed spelling of [`Circuit::clamp_dims`].
    ///
    /// # Panics
    ///
    /// Panics if the vector's arity differs from the circuit's block
    /// count.
    #[must_use]
    fn clamp_to(&self, circuit: &Circuit) -> Dims;

    /// Whether the circuit admits this vector: matching arity and every
    /// pair inside its block's designer bounds.
    #[must_use]
    fn admitted_by(&self, circuit: &Circuit) -> bool;
}

impl DimsCircuitExt for Dims {
    fn clamp_to(&self, circuit: &Circuit) -> Dims {
        circuit.clamp_dims(self)
    }

    fn admitted_by(&self, circuit: &Circuit) -> bool {
        self.within_bounds(&circuit.dim_bounds())
    }
}

/// Incremental [`Circuit`] construction.
#[derive(Debug, Clone)]
pub struct CircuitBuilder {
    name: String,
    blocks: Vec<Block>,
    nets: Vec<Net>,
}

impl CircuitBuilder {
    /// Appends a block; its [`BlockId`] is its insertion order.
    #[must_use]
    pub fn block(mut self, block: Block) -> Self {
        self.blocks.push(block);
        self
    }

    /// Appends a net.
    #[must_use]
    pub fn net(mut self, net: Net) -> Self {
        self.nets.push(net);
        self
    }

    /// Appends a center-pin net over blocks given by raw indices.
    #[must_use]
    pub fn net_connecting(self, name: impl Into<String>, blocks: &[usize]) -> Self {
        let ids: Vec<BlockId> = blocks.iter().map(|&i| BlockId(i)).collect();
        self.net(Net::connecting(name, &ids))
    }

    /// Number of blocks added so far (the next block gets this id).
    #[must_use]
    pub fn block_count(&self) -> usize {
        self.blocks.len()
    }

    /// Validates and finalizes.
    ///
    /// # Errors
    ///
    /// Returns [`ValidateCircuitError`] on an empty block list or dangling
    /// pin reference.
    pub fn build(self) -> Result<Circuit, ValidateCircuitError> {
        Circuit::new(self.name, self.blocks, self.nets)
    }
}

mod serde_impls {
    use super::*;
    use serde::{Deserialize, Error, Map, Serialize, Value};

    impl Serialize for Circuit {
        fn to_value(&self) -> Value {
            let mut map = Map::new();
            map.insert("name", self.name.to_value());
            map.insert("blocks", self.blocks.to_value());
            map.insert("nets", self.nets.to_value());
            Value::Object(map)
        }
    }

    // Hand-written so a loaded circuit goes through the same validation
    // as a constructed one (non-empty, no dangling pin references).
    impl Deserialize for Circuit {
        fn from_value(value: &Value) -> Result<Self, Error> {
            let field = |name: &str| {
                value
                    .get(name)
                    .ok_or_else(|| Error::custom(format!("missing field `{name}` in Circuit")))
            };
            let name = String::from_value(field("name")?)?;
            let blocks = Vec::<Block>::from_value(field("blocks")?)?;
            let nets = Vec::<Net>::from_value(field("nets")?)?;
            Circuit::new(name, blocks, nets).map_err(Error::custom)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Pad, PadSide, Pin};

    fn two_block_circuit() -> Circuit {
        Circuit::builder("test")
            .block(Block::new("A", 10, 20, 10, 20))
            .block(Block::new("B", 5, 50, 5, 50))
            .net_connecting("n1", &[0, 1])
            .build()
            .unwrap()
    }

    #[test]
    fn builder_produces_valid_circuit() {
        let c = two_block_circuit();
        assert_eq!(c.block_count(), 2);
        assert_eq!(c.net_count(), 1);
        assert_eq!(c.terminal_count(), 2);
        assert_eq!(c.block(BlockId(0)).name(), "A");
    }

    #[test]
    fn empty_circuit_rejected() {
        let err = Circuit::builder("empty").build().unwrap_err();
        assert_eq!(err, ValidateCircuitError::NoBlocks);
    }

    #[test]
    fn dangling_pin_rejected() {
        let err = Circuit::builder("bad")
            .block(Block::new("A", 1, 2, 1, 2))
            .net(Net::new("n", vec![Pin::center_of(BlockId(5))]))
            .build()
            .unwrap_err();
        match err {
            ValidateCircuitError::PinBlockOutOfRange {
                net,
                block,
                block_count,
            } => {
                assert_eq!(net, "n");
                assert_eq!(block, BlockId(5));
                assert_eq!(block_count, 1);
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn dims_helpers() {
        let c = two_block_circuit();
        assert_eq!(c.min_dims(), vec![(10, 10), (5, 5)]);
        assert_eq!(c.max_dims(), vec![(20, 20), (50, 50)]);
        assert_eq!(c.clamp_dims(&[(100, 1), (7, 7)]), vec![(20, 10), (7, 7)]);
        assert!(c.admits_dims(&[(15, 15), (5, 50)]));
        assert!(!c.admits_dims(&[(15, 15), (4, 50)]));
    }

    #[test]
    fn full_space_contains_extremes() {
        let c = two_block_circuit();
        let space = c.full_space();
        assert!(space.contains(&c.min_dims()));
        assert!(space.contains(&c.max_dims()));
    }

    #[test]
    fn suggested_floorplan_admits_total_area() {
        let c = two_block_circuit();
        let fp = c.suggested_floorplan(1.3);
        let total_max_area: u64 = c
            .blocks()
            .iter()
            .map(|b| (b.max_width() * b.max_height()) as u64)
            .sum();
        assert!(fp.area() >= total_max_area);
        assert!(fp.width() >= 50); // largest block dimension
    }

    #[test]
    #[should_panic(expected = "slack must be at least")]
    fn floorplan_slack_below_one_rejected() {
        let _ = two_block_circuit().suggested_floorplan(0.5);
    }

    #[test]
    fn nets_of_block_filters() {
        let c = Circuit::builder("t")
            .block(Block::new("A", 1, 2, 1, 2))
            .block(Block::new("B", 1, 2, 1, 2))
            .block(Block::new("C", 1, 2, 1, 2))
            .net_connecting("n0", &[0, 1])
            .net_connecting("n1", &[1, 2])
            .net_connecting("n2", &[0, 2])
            .build()
            .unwrap();
        assert_eq!(c.nets_of_block(BlockId(1)), vec![0, 1]);
        assert_eq!(c.nets_of_block(BlockId(0)), vec![0, 2]);
    }

    #[test]
    fn display_summarizes() {
        let c = two_block_circuit();
        assert_eq!(format!("{c}"), "test (2 blocks, 1 nets, 2 terminals)");
    }

    #[test]
    fn terminal_count_ignores_pads() {
        let c = Circuit::builder("t")
            .block(Block::new("A", 1, 2, 1, 2))
            .net(
                Net::new("io", vec![Pin::center_of(BlockId(0))])
                    .with_pad(Pad::new(PadSide::Left, 0.5)),
            )
            .build()
            .unwrap();
        assert_eq!(c.terminal_count(), 1);
    }

    #[test]
    fn serde_roundtrip() {
        let c = two_block_circuit();
        let json = serde_json::to_string(&c).unwrap();
        let back: Circuit = serde_json::from_str(&json).unwrap();
        assert_eq!(c, back);
    }
}
