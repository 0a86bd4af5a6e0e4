//! The compiled query plan: a frozen [`MultiPlacementStructure`] flattened
//! into contiguous sorted arrays plus fixed-width candidate bitsets.
//!
//! The structure's own `query` walks one [`mps_geom::IntervalMap`] per
//! block per axis and intersects candidate index *arrays* — correct, but
//! each refinement is a `retain` + binary search over a heap-allocated
//! vector. A serving process answers millions of queries against a
//! structure that never changes, so it pays to compile the rows once:
//!
//! * every row's segments are flattened into two contiguous sorted arrays
//!   (`seg_lo`, `seg_hi`) shared across rows, located per row through an
//!   offset table — one cache-friendly binary search per row, no pointer
//!   chasing;
//! * each segment's candidate array becomes a fixed-width bitset
//!   (`ceil(id_capacity / 64)` words), so intersecting a row into the
//!   running candidate set is a handful of `AND`s instead of a
//!   `retain`/`binary_search` loop;
//! * the per-query candidate state lives in a caller-provided scratch
//!   buffer, so a query stream performs **zero heap allocation per
//!   query**.
//!
//! [`CompiledQueryIndex::verify_against`] proves the compiled plan
//! answers bit-identically to the interpretive path; the registry runs it
//! on every load and the test suite runs it with ≥ 10,000 probes.

use mps_core::{MultiPlacementStructure, PlacementId};
use mps_geom::{Coord, Dims};

/// Reusable per-query candidate state for [`CompiledQueryIndex`] and the
/// v2 plan ([`crate::CompiledQueryIndexV2`]).
///
/// Holding one `QueryScratch` across a stream of queries keeps the hot
/// path allocation-free: the buffers are sized on first use and only ever
/// cleared afterwards. One scratch serves both index plans — the v1 plan
/// uses the dense accumulator, the v2 plan its own sparse accumulator
/// plus the live-word list — so a connection can interleave queries
/// against structures compiled to different plans.
#[derive(Debug, Default, Clone)]
pub struct QueryScratch {
    /// v1 dense accumulator (filled with all-ones, ANDed per row).
    words: Vec<u64>,
    /// v2 sparse accumulator. Invariant: all-zero between queries (the
    /// v2 query path zeroes exactly the words it touched on every exit),
    /// so a query only ever writes the handful of words that can still
    /// hold candidates.
    pub(crate) v2_acc: Vec<u64>,
    /// v2 list of accumulator word indices that are currently nonzero.
    pub(crate) v2_live: Vec<u32>,
}

impl QueryScratch {
    /// Creates an empty scratch buffer (sized lazily by the first query).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }
}

/// A [`MultiPlacementStructure`]'s interval rows compiled into flat
/// arrays and bitsets for high-throughput serving.
///
/// Build once with [`CompiledQueryIndex::build`]; the index answers
/// [`CompiledQueryIndex::query`] bit-identically to
/// [`MultiPlacementStructure::query`] (enforced by
/// [`CompiledQueryIndex::verify_against`]) while doing only binary
/// searches and bitset `AND`s — no heap allocation per query.
///
/// # Example
///
/// ```
/// use mps_core::{GeneratorConfig, MpsGenerator};
/// use mps_serve::{CompiledQueryIndex, QueryScratch};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let circuit = mps_netlist::benchmarks::circ01();
/// let config = GeneratorConfig::builder().outer_iterations(30).seed(3).build();
/// let mps = MpsGenerator::new(&circuit, config).generate()?;
/// let index = CompiledQueryIndex::build(&mps);
/// let mut scratch = QueryScratch::new();
/// for dims in [circuit.min_dims(), circuit.max_dims()] {
///     assert_eq!(index.query_with_scratch(&dims, &mut scratch), mps.query(&dims));
/// }
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct CompiledQueryIndex {
    /// Number of blocks `N`; queries must carry exactly `N` pairs.
    blocks: usize,
    /// Bitset width in 64-bit words: `ceil(id_capacity / 64)`.
    words: usize,
    /// Row `r` (block `r / 2`, width axis when `r` is even, height axis
    /// when odd) owns segments `row_offsets[r]..row_offsets[r + 1]`.
    row_offsets: Vec<u32>,
    /// Per segment: interval lower bound. Sorted ascending within a row.
    seg_lo: Vec<Coord>,
    /// Per segment: interval upper bound (closed).
    seg_hi: Vec<Coord>,
    /// Per segment: `words` bitset words of candidate placement ids.
    bits: Vec<u64>,
}

impl CompiledQueryIndex {
    /// Compiles the structure's interval rows into the flat layout.
    ///
    /// Pure read: the structure is left untouched and can keep serving
    /// its interpretive path side by side (that is how
    /// [`CompiledQueryIndex::verify_against`] cross-checks answers).
    #[must_use]
    pub fn build(mps: &MultiPlacementStructure) -> Self {
        let blocks = mps.block_count();
        // The rows store raw u32 ids (entry slot indices, including slots
        // later annihilated — those never appear in rows). Bitset width
        // covers the highest live id.
        let mut id_capacity = 0usize;
        for b in 0..blocks {
            for row in [mps.w_row(b), mps.h_row(b)] {
                for (_, ids) in row.as_segments() {
                    if let Some(&max) = ids.last() {
                        id_capacity = id_capacity.max(max as usize + 1);
                    }
                }
            }
        }
        let words = id_capacity.div_ceil(64);
        let mut row_offsets = Vec::with_capacity(2 * blocks + 1);
        let mut seg_lo = Vec::new();
        let mut seg_hi = Vec::new();
        let mut bits = Vec::new();
        row_offsets.push(0);
        for b in 0..blocks {
            for row in [mps.w_row(b), mps.h_row(b)] {
                for (iv, ids) in row.as_segments() {
                    seg_lo.push(iv.lo());
                    seg_hi.push(iv.hi());
                    let base = bits.len();
                    bits.resize(base + words, 0);
                    for &id in ids {
                        bits[base + (id as usize >> 6)] |= 1u64 << (id & 63);
                    }
                }
                row_offsets.push(u32::try_from(seg_lo.len()).expect("segment count fits u32"));
            }
        }
        Self {
            blocks,
            words,
            row_offsets,
            seg_lo,
            seg_hi,
            bits,
        }
    }

    /// Number of blocks `N` the index was compiled for.
    #[must_use]
    pub fn block_count(&self) -> usize {
        self.blocks
    }

    /// Total number of compiled segments across all `2N` rows.
    #[must_use]
    pub fn segment_count(&self) -> usize {
        self.seg_lo.len()
    }

    /// Bitset width in 64-bit words (0 for an empty structure).
    #[must_use]
    pub fn bitset_words(&self) -> usize {
        self.words
    }

    /// Approximate heap footprint of the compiled arrays, in bytes.
    #[must_use]
    pub fn heap_bytes(&self) -> usize {
        self.row_offsets.len() * size_of::<u32>()
            + (self.seg_lo.len() + self.seg_hi.len()) * size_of::<Coord>()
            + self.bits.len() * size_of::<u64>()
    }

    /// The segment of row `r` containing value `v`, if any.
    #[inline]
    fn locate(&self, r: usize, v: Coord) -> Option<usize> {
        let lo = self.row_offsets[r] as usize;
        let hi = self.row_offsets[r + 1] as usize;
        // Last segment starting at or before v; segments are disjoint and
        // ascending, so it is the only one that can contain v.
        let idx = self.seg_lo[lo..hi].partition_point(|&l| l <= v);
        if idx == 0 {
            return None;
        }
        let seg = lo + idx - 1;
        (self.seg_hi[seg] >= v).then_some(seg)
    }

    /// The compiled equivalent of [`MultiPlacementStructure::query`]:
    /// binary search per row, bitset `AND` per refinement, zero heap
    /// allocation (the candidate state lives in `scratch`).
    ///
    /// Returns `None` for wrong-arity vectors, out-of-bounds values and
    /// uncovered space — exactly like the interpretive path.
    #[must_use]
    pub fn query_with_scratch(
        &self,
        dims: &Dims,
        scratch: &mut QueryScratch,
    ) -> Option<PlacementId> {
        self.query_slice(dims, scratch)
    }

    /// The walk behind every typed entry point — one implementation,
    /// bit-identical by construction.
    fn query_slice(
        &self,
        dims: &[(Coord, Coord)],
        scratch: &mut QueryScratch,
    ) -> Option<PlacementId> {
        if dims.len() != self.blocks || self.words == 0 {
            return None;
        }
        let acc = &mut scratch.words;
        acc.clear();
        acc.resize(self.words, !0u64);
        // High garbage bits beyond the id capacity vanish on the first
        // AND: segment bitsets only carry real candidate bits.
        for (r, v) in dims
            .iter()
            .flat_map(|&(w, h)| [w, h])
            .enumerate()
            .take(2 * self.blocks)
        {
            let seg = self.locate(r, v)?;
            let seg_bits = &self.bits[seg * self.words..(seg + 1) * self.words];
            let mut any = 0u64;
            for (a, &b) in acc.iter_mut().zip(seg_bits) {
                *a &= b;
                any |= *a;
            }
            if any == 0 {
                return None;
            }
        }
        let mut hit: Option<u32> = None;
        for (w, &word) in acc.iter().enumerate() {
            if word == 0 {
                continue;
            }
            debug_assert!(
                hit.is_none() && word.count_ones() == 1,
                "Eq. 5 violated: more than one candidate survived the compiled intersection"
            );
            hit = Some(u32::try_from(w * 64).expect("id fits u32") + word.trailing_zeros());
            if cfg!(not(debug_assertions)) {
                break;
            }
        }
        hit.map(PlacementId)
    }

    /// [`Self::query_with_scratch`] with a throwaway scratch buffer (one
    /// heap allocation per call). Query loops should hold a
    /// [`QueryScratch`] or use [`Self::query_batch`] instead.
    #[must_use]
    pub fn query(&self, dims: &Dims) -> Option<PlacementId> {
        self.query_slice(dims, &mut QueryScratch::new())
    }

    /// Answers a stream of dimension vectors through one scratch buffer:
    /// element `k` of the result equals `self.query(&queries[k])`.
    #[must_use]
    pub fn query_batch(&self, queries: &[Dims]) -> Vec<Option<PlacementId>> {
        let mut scratch = QueryScratch::new();
        queries
            .iter()
            .map(|dims| self.query_slice(dims, &mut scratch))
            .collect()
    }

    /// Differential check against the interpretive path: `probes`
    /// deterministic pseudo-random dimension vectors (seeded by `seed`,
    /// mostly in-bounds with a salting of out-of-bounds and wrong-arity
    /// probes) must produce bit-identical answers from
    /// [`MultiPlacementStructure::query`] and [`Self::query_with_scratch`].
    ///
    /// The registry runs this on every artifact load (cheap, a few dozen
    /// probes); the test suite runs it with ≥ 10,000 probes.
    ///
    /// # Errors
    ///
    /// Returns a description of the first diverging probe.
    pub fn verify_against(
        &self,
        mps: &MultiPlacementStructure,
        probes: usize,
        seed: u64,
    ) -> Result<(), String> {
        let mut scratch = QueryScratch::new();
        differential_probes(mps, self.blocks, probes, seed, |probe| {
            self.query_slice(probe, &mut scratch)
        })
    }
}

/// The differential probe battery shared by every compiled plan's
/// `verify_against`: `probes` deterministic pseudo-random dimension
/// vectors (seeded by `seed`, mostly in-bounds with a salting of
/// out-of-bounds and wrong-arity mutants) must produce bit-identical
/// answers from [`MultiPlacementStructure::query`] and the compiled
/// closure.
pub(crate) fn differential_probes(
    mps: &MultiPlacementStructure,
    blocks: usize,
    probes: usize,
    seed: u64,
    mut compiled: impl FnMut(&Dims) -> Option<PlacementId>,
) -> Result<(), String> {
    if blocks != mps.block_count() {
        return Err(format!(
            "index compiled for {} blocks, structure has {}",
            blocks,
            mps.block_count()
        ));
    }
    let bounds = mps.bounds();
    // xorshift64*: deterministic, no rand dependency in the library.
    let mut state = seed | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state.wrapping_mul(0x2545_F491_4F6C_DD1D)
    };
    let mut dims: Vec<(Coord, Coord)> = vec![(0, 0); bounds.len()];
    for k in 0..probes {
        for (d, b) in dims.iter_mut().zip(bounds) {
            *d = (
                b.w.lo() + (next() % b.w.len()) as Coord,
                b.h.lo() + (next() % b.h.len()) as Coord,
            );
        }
        // Every eighth probe escapes the coverage bounds on one axis;
        // both paths must answer None for it.
        if k % 8 == 5 {
            let i = k % bounds.len();
            dims[i].0 = bounds[i].w.hi() + 1 + (next() % 64) as Coord;
        }
        let arity_mutant = k % 64 == 21;
        if arity_mutant {
            dims.pop();
        }
        // Unchecked wrap: the probe stream deliberately carries
        // out-of-bounds and wrong-arity mutants.
        let probe = Dims::from_vec_unchecked(dims.clone());
        let reference = mps.query(&probe);
        let answer = compiled(&probe);
        if reference != answer {
            return Err(format!(
                "probe {k} ({probe:?}): structure answers {reference:?}, \
                 compiled index answers {answer:?}"
            ));
        }
        if arity_mutant {
            dims.push((0, 0));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use mps_core::StoredPlacement;
    use mps_geom::{BlockRanges, DimsBox, Interval, Point, Rect};
    use mps_netlist::{Block, Circuit};
    use mps_placer::Placement;

    fn two_entry_structure() -> MultiPlacementStructure {
        let c = Circuit::builder("s")
            .block(Block::new("A", 10, 100, 10, 100))
            .block(Block::new("B", 10, 100, 10, 100))
            .net_connecting("n", &[0, 1])
            .build()
            .unwrap();
        let mut mps = MultiPlacementStructure::new(&c, Rect::from_xywh(0, 0, 400, 400));
        let entry =
            |coords: &[(Coord, Coord)], ranges: &[(Coord, Coord, Coord, Coord)]| StoredPlacement {
                placement: Placement::new(coords.iter().map(|&(x, y)| Point::new(x, y)).collect()),
                dims_box: DimsBox::new(
                    ranges
                        .iter()
                        .map(|&(wl, wh, hl, hh)| {
                            BlockRanges::new(Interval::new(wl, wh), Interval::new(hl, hh))
                        })
                        .collect(),
                ),
                avg_cost: 1.0,
                best_cost: 1.0,
                best_dims: ranges.iter().map(|&(wl, _, hl, _)| (wl, hl)).collect(),
            };
        mps.insert_unchecked(entry(
            &[(0, 0), (60, 0)],
            &[(10, 50, 10, 50), (10, 50, 10, 50)],
        ));
        mps.insert_unchecked(entry(
            &[(0, 0), (0, 120)],
            &[(51, 100, 10, 100), (10, 100, 10, 100)],
        ));
        mps
    }

    #[test]
    fn compiled_index_matches_handmade_structure() {
        let mps = two_entry_structure();
        let index = CompiledQueryIndex::build(&mps);
        assert_eq!(index.block_count(), 2);
        assert_eq!(index.bitset_words(), 1);
        assert!(index.segment_count() > 0);
        assert!(index.heap_bytes() > 0);
        let mut scratch = QueryScratch::new();
        for dims in [
            vec![(20, 20), (20, 20)],
            vec![(80, 50), (50, 50)],
            vec![(50, 80), (20, 20)],
            vec![(500, 20), (20, 20)],
            vec![(20, 20)],
        ] {
            let dims = Dims::from_vec_unchecked(dims);
            assert_eq!(
                index.query_with_scratch(&dims, &mut scratch),
                mps.query(&dims),
                "divergence at {dims:?}"
            );
        }
        index.verify_against(&mps, 2_000, 7).unwrap();
    }

    #[test]
    fn empty_structure_compiles_and_answers_nothing() {
        let c = Circuit::builder("e")
            .block(Block::new("A", 10, 100, 10, 100))
            .block(Block::new("B", 10, 100, 10, 100))
            .net_connecting("n", &[0, 1])
            .build()
            .unwrap();
        let mps = MultiPlacementStructure::new(&c, Rect::from_xywh(0, 0, 400, 400));
        let index = CompiledQueryIndex::build(&mps);
        assert_eq!(index.bitset_words(), 0);
        assert_eq!(index.query(&mps_geom::dims![(20, 20), (20, 20)]), None);
        index.verify_against(&mps, 500, 1).unwrap();
    }

    #[test]
    fn batch_matches_single_queries() {
        let mps = two_entry_structure();
        let index = CompiledQueryIndex::build(&mps);
        let queries = vec![
            mps_geom::dims![(20, 20), (20, 20)],
            mps_geom::dims![(80, 50), (50, 50)],
            mps_geom::dims![(50, 80), (20, 20)],
        ];
        assert_eq!(index.query_batch(&queries), mps.query_batch(&queries));
    }

    #[test]
    fn verify_against_detects_block_count_mismatch() {
        let mps = two_entry_structure();
        let c1 = Circuit::builder("one")
            .block(Block::new("A", 10, 100, 10, 100))
            .build()
            .unwrap();
        let other = MultiPlacementStructure::new(&c1, Rect::from_xywh(0, 0, 100, 100));
        let index = CompiledQueryIndex::build(&mps);
        assert!(index.verify_against(&other, 10, 1).is_err());
    }
}
