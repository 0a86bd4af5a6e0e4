//! The compiled query index: a frozen [`MultiPlacementStructure`]
//! flattened into contiguous sorted arrays plus per-segment candidate
//! bitsets.
//!
//! The structure's own `query` walks one [`mps_geom::IntervalMap`] per
//! block per axis and intersects candidate index *arrays* — correct, but
//! each refinement is a `retain` + binary search over a heap-allocated
//! vector. A serving process answers millions of queries against a
//! structure that never changes, so it pays to compile the rows once:
//!
//! * every row's segments are flattened into two contiguous sorted arrays
//!   (`seg_lo`, `seg_hi`) shared across rows, so locating a value is a
//!   binary search with no pointer chasing;
//! * each segment's candidate array becomes a fixed-width bitset
//!   (`ceil(id_capacity / 64)` words), addressed directly by segment
//!   index, plus the list of that bitset's nonzero words;
//! * the per-query candidate state lives in a caller-provided
//!   [`QueryScratch`], so a query stream performs **zero heap allocation
//!   per query**.
//!
//! The [`IndexPlan`] changes only two things on top of that layout:
//!
//! * **Pivots.** [`IndexPlan::V1`] builds none: a row is one
//!   binary-searched range. [`IndexPlan::V2`] adds an eyros-style pivot
//!   tree per row: pivots at quantile boundaries
//!   ([`mps_geom::quantile_pivots`]) stored as an implicit binary tree in
//!   Eytzinger (breadth-first) order. A segment that straddles a pivot is
//!   that pivot's **center** entry, checked on the way down (disjointness
//!   means a pivot has at most one straddling segment); the descent then
//!   narrows the binary search to the one leaf bucket between two
//!   pivots.
//! * **Intersection.** V1 `AND`s the full bitset width per row. V2 seeds
//!   a sparse accumulator with the first row's nonzero words and `AND`s
//!   only the words still live; Eq.-5 selectivity collapses the live set
//!   to ~1 word almost immediately, so word traffic stays near-flat as
//!   the region count grows.
//!
//! [`CompiledIndex::verify_against`] proves the compiled index answers
//! bit-identically to the interpretive path; the registry runs it on
//! every load and the test suite runs it with ≥ 10,000 probes per plan.

use mps_core::{MultiPlacementStructure, PlacementId};
use mps_geom::{eytzinger_order, quantile_pivots, Coord, Dims, Interval};

/// Sentinel for "this pivot has no center entry".
const NO_CENTER: u32 = u32::MAX;

/// V2 rows with at most this many segments get no pivots (one bucket
/// binary-searched directly beats a tree for tiny rows).
const BUCKET_TARGET: usize = 8;

/// Reusable per-query candidate state for [`CompiledIndex`].
///
/// Holding one `QueryScratch` across a stream of queries keeps the hot
/// path allocation-free: the buffers are sized on first use and only ever
/// cleared afterwards. One scratch serves both plans — V1 uses the dense
/// accumulator, V2 the sparse one plus the live-word list — so a
/// connection can interleave queries against structures compiled to
/// different plans and bitset widths.
#[derive(Debug, Default, Clone)]
pub struct QueryScratch {
    /// V1 dense accumulator (filled with all-ones, ANDed per row).
    dense: Vec<u64>,
    /// V2 sparse accumulator. Invariant: all-zero between queries (the
    /// V2 path zeroes exactly the words it touched on every exit), so a
    /// query only ever writes the handful of words that can still hold
    /// candidates.
    sparse: Vec<u64>,
    /// V2 list of sparse-accumulator word indices that are nonzero.
    live: Vec<u32>,
}

impl QueryScratch {
    /// Creates an empty scratch buffer (sized lazily by the first query).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }
}

/// Which row layout and intersection a [`CompiledIndex`] uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IndexPlan {
    /// One binary search per row + full-width bitset `AND`.
    V1,
    /// Eyros-style pivot tree with center entries per row + sparse
    /// live-word `AND`.
    V2,
}

impl IndexPlan {
    /// Segment count at which the build switches to the v2 layout.
    /// Below it the v1 plan's simple binary search is already
    /// cache-resident and the pivot tree buys nothing.
    pub const V2_MIN_SEGMENTS: usize = 32;

    /// The wire/stats name of the plan (`"v1"` / `"v2"`).
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            IndexPlan::V1 => "v1",
            IndexPlan::V2 => "v2",
        }
    }

    /// The plan [`CompiledIndex::build_auto`] picks for a structure:
    /// v2 once the row population crosses
    /// [`IndexPlan::V2_MIN_SEGMENTS`], v1 for tiny structures.
    #[must_use]
    pub fn choose(mps: &MultiPlacementStructure) -> Self {
        let mut segments = 0usize;
        for b in 0..mps.block_count() {
            segments += mps.w_row(b).as_segments().len() + mps.h_row(b).as_segments().len();
            if segments >= Self::V2_MIN_SEGMENTS {
                return IndexPlan::V2;
            }
        }
        IndexPlan::V1
    }
}

impl std::fmt::Display for IndexPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A [`MultiPlacementStructure`]'s interval rows compiled into flat
/// arrays and bitsets for high-throughput serving — what
/// [`crate::ServedStructure`] holds and the serving stack queries.
///
/// Build once with [`CompiledIndex::build`] (or
/// [`CompiledIndex::build_auto`]); the index answers
/// [`CompiledIndex::query`] bit-identically to
/// [`MultiPlacementStructure::query`] (enforced by
/// [`CompiledIndex::verify_against`]) under either plan, with no heap
/// allocation per query.
///
/// # Example
///
/// ```
/// use mps_core::{GeneratorConfig, MpsGenerator};
/// use mps_serve::{CompiledIndex, IndexPlan, QueryScratch};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let circuit = mps_netlist::benchmarks::circ01();
/// let config = GeneratorConfig::builder().outer_iterations(30).seed(3).build();
/// let mps = MpsGenerator::new(&circuit, config).generate()?;
/// let mut scratch = QueryScratch::new();
/// for plan in [IndexPlan::V1, IndexPlan::V2] {
///     let index = CompiledIndex::build(&mps, plan);
///     for dims in [circuit.min_dims(), circuit.max_dims()] {
///         assert_eq!(index.query_with_scratch(&dims, &mut scratch), mps.query(&dims));
///     }
/// }
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct CompiledIndex {
    /// Which pivots and intersection this index was compiled with.
    plan: IndexPlan,
    /// Number of blocks `N`; queries must carry exactly `N` pairs.
    blocks: usize,
    /// Bitset width in 64-bit words: `ceil(id_capacity / 64)`.
    words: usize,
    /// Row `r` (block `r / 2`, width axis when `r` is even, height axis
    /// when odd) owns pivot nodes `piv_offsets[r]..piv_offsets[r + 1]`
    /// in Eytzinger order (none under V1), and the `pivots + 1` buckets
    /// starting at global bucket `piv_offsets[r] + r`.
    piv_offsets: Vec<u32>,
    /// Per pivot node: the pivot value.
    piv: Vec<Coord>,
    /// Per pivot node: the segment straddling the pivot that the descent
    /// checks there, or [`NO_CENTER`].
    center: Vec<u32>,
    /// Bucket `g` covers segments `bucket_offsets[g]..bucket_offsets[g +
    /// 1]`: those whose lower bound lies between the bucket's two
    /// enclosing pivots. With no pivots a row is one bucket, so under V1
    /// this is the row offset table.
    bucket_offsets: Vec<u32>,
    /// Per segment: interval lower bound. Sorted ascending within a row.
    seg_lo: Vec<Coord>,
    /// Per segment: interval upper bound (closed).
    seg_hi: Vec<Coord>,
    /// Per segment: `words` bitset words of candidate placement ids.
    bits: Vec<u64>,
    /// Segment `s` has nonzero words at `nz[nz_offsets[s]..nz_offsets[s
    /// + 1]]`.
    nz_offsets: Vec<u32>,
    /// Nonzero word indices, concatenated per segment.
    nz: Vec<u32>,
}

fn to_u32(n: usize) -> u32 {
    u32::try_from(n).expect("compiled index size fits u32")
}

impl CompiledIndex {
    /// Compiles the structure with the plan
    /// [`IndexPlan::choose`] picks for its size.
    #[must_use]
    pub fn build_auto(mps: &MultiPlacementStructure) -> Self {
        Self::build(mps, IndexPlan::choose(mps))
    }

    /// Compiles the structure's interval rows with an explicit plan.
    ///
    /// Pure read: the structure is left untouched and can keep serving
    /// its interpretive path side by side (that is how
    /// [`CompiledIndex::verify_against`] cross-checks answers).
    #[must_use]
    pub fn build(mps: &MultiPlacementStructure, plan: IndexPlan) -> Self {
        let blocks = mps.block_count();
        let rows: Vec<&[(Interval, Vec<u32>)]> = (0..blocks)
            .flat_map(|b| [mps.w_row(b).as_segments(), mps.h_row(b).as_segments()])
            .collect();
        // The rows store raw u32 ids (entry slot indices, including slots
        // later annihilated — those never appear in rows). Bitset width
        // covers the highest live id.
        let id_capacity = rows
            .iter()
            .flat_map(|row| row.iter().filter_map(|(_, ids)| ids.last()))
            .map(|&max| max as usize + 1)
            .max()
            .unwrap_or(0);
        let mut out = Self {
            plan,
            blocks,
            words: id_capacity.div_ceil(64),
            piv_offsets: vec![0],
            piv: Vec::new(),
            center: Vec::new(),
            bucket_offsets: Vec::new(),
            seg_lo: Vec::new(),
            seg_hi: Vec::new(),
            bits: Vec::new(),
            nz_offsets: vec![0],
            nz: Vec::new(),
        };
        for row in rows {
            out.push_row(row);
        }
        out.bucket_offsets.push(to_u32(out.seg_lo.len()));
        out
    }

    /// Appends one row's sorted disjoint segments, then (under V2) its
    /// pivot tree with center entries, then its bucket starts.
    fn push_row(&mut self, row: &[(Interval, Vec<u32>)]) {
        let start = self.seg_lo.len();
        for (iv, ids) in row {
            self.seg_lo.push(iv.lo());
            self.seg_hi.push(iv.hi());
            let base = self.bits.len();
            self.bits.resize(base + self.words, 0);
            let set = &mut self.bits[base..];
            for &id in ids {
                set[id as usize >> 6] |= 1u64 << (id & 63);
            }
            self.nz
                .extend((0..self.words).filter(|&w| set[w] != 0).map(to_u32));
            self.nz_offsets.push(to_u32(self.nz.len()));
        }
        let lo = &self.seg_lo[start..];
        let sorted_pivots = match self.plan {
            IndexPlan::V1 => Vec::new(),
            IndexPlan::V2 => {
                let intervals: Vec<Interval> = row.iter().map(|(iv, _)| *iv).collect();
                quantile_pivots(&intervals, BUCKET_TARGET)
            }
        };
        // Eyros assignment rule: a segment straddling pivots becomes the
        // center of the *first* such pivot in tree (breadth-first)
        // order. That node is the shallowest tree node whose pivot the
        // segment contains, which every query value inside the segment
        // is guaranteed to pass on its descent.
        let mut taken = vec![false; lo.len()];
        for rank in eytzinger_order(sorted_pivots.len()) {
            let p = sorted_pivots[rank as usize];
            let k = lo.partition_point(|&l| l <= p);
            let mut center = NO_CENTER;
            if k > 0 && !taken[k - 1] && self.seg_hi[start + k - 1] >= p {
                taken[k - 1] = true;
                center = to_u32(start + k - 1);
            }
            self.piv.push(p);
            self.center.push(center);
        }
        self.piv_offsets.push(to_u32(self.piv.len()));
        self.bucket_offsets.push(to_u32(start));
        for &p in &sorted_pivots {
            self.bucket_offsets
                .push(to_u32(start + lo.partition_point(|&l| l <= p)));
        }
    }

    /// Which plan this index compiled to.
    #[must_use]
    pub fn plan(&self) -> IndexPlan {
        self.plan
    }

    /// Number of blocks `N` the index was compiled for.
    #[must_use]
    pub fn block_count(&self) -> usize {
        self.blocks
    }

    /// Total number of compiled segments across all `2N` rows (the same
    /// under either plan).
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
        (self.piv_offsets.len()
            + self.center.len()
            + self.bucket_offsets.len()
            + self.nz_offsets.len()
            + self.nz.len())
            * size_of::<u32>()
            + (self.piv.len() + self.seg_lo.len() + self.seg_hi.len()) * size_of::<Coord>()
            + self.bits.len() * size_of::<u64>()
    }

    /// The segment of row `r` containing value `v`, if any: descend the
    /// pivot tree checking centers, then binary-search one bucket.
    ///
    /// Forced inline: left to a hint, this call stayed out of line and
    /// V1 lookups measured 10-15% slower.
    #[inline(always)]
    fn locate(&self, r: usize, v: Coord) -> Option<usize> {
        // Without pivots anywhere (always under V1) row r is bucket r.
        let mut g = r;
        if !self.piv.is_empty() {
            let pbase = self.piv_offsets[r] as usize;
            let pcount = self.piv_offsets[r + 1] as usize - pbase;
            let mut node = 0usize;
            while node < pcount {
                let i = pbase + node;
                let c = self.center[i];
                if c != NO_CENTER && self.seg_lo[c as usize] <= v && v <= self.seg_hi[c as usize] {
                    return Some(c as usize);
                }
                match v.cmp(&self.piv[i]) {
                    std::cmp::Ordering::Less => node = 2 * node + 1,
                    std::cmp::Ordering::Greater => node = 2 * node + 2,
                    // v sits exactly on the pivot: its segment (if any)
                    // would straddle this pivot, so it lives in a center
                    // on the descent path — all already checked.
                    std::cmp::Ordering::Equal => return None,
                }
            }
            // Fell off the tree into leaf gap `node - pcount`. A segment
            // holding v that starts before the gap straddles its left
            // pivot and was a center on the path, so the gap's bucket
            // suffices.
            g = pbase + r + (node - pcount);
        }
        let lo = self.bucket_offsets[g] as usize;
        let hi = self.bucket_offsets[g + 1] as usize;
        // Last segment starting at or before v; segments are disjoint and
        // ascending, so it is the only one that can contain v.
        let idx = self.seg_lo[lo..hi].partition_point(|&l| l <= v);
        if idx == 0 {
            return None;
        }
        let seg = lo + idx - 1;
        (self.seg_hi[seg] >= v).then_some(seg)
    }

    /// Segment `seg`'s candidate bitset.
    #[inline]
    fn seg_bits(&self, seg: usize) -> &[u64] {
        &self.bits[seg * self.words..(seg + 1) * self.words]
    }

    /// The compiled equivalent of [`MultiPlacementStructure::query`]:
    /// one row lookup and one bitset `AND` per refinement, zero heap
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
        if dims.len() != self.blocks || self.words == 0 {
            return None;
        }
        match self.plan {
            IndexPlan::V1 => self.intersect_dense(dims, &mut scratch.dense),
            IndexPlan::V2 => self.intersect_sparse(dims, scratch),
        }
        .map(PlacementId)
    }

    /// V1: full-width `AND` of every row's bitset into a dense
    /// accumulator.
    fn intersect_dense(&self, dims: &[(Coord, Coord)], acc: &mut Vec<u64>) -> Option<u32> {
        acc.clear();
        acc.resize(self.words, !0u64);
        // High garbage bits beyond the id capacity vanish on the first
        // AND: segment bitsets only carry real candidate bits.
        for (r, v) in dims.iter().flat_map(|&(w, h)| [w, h]).enumerate() {
            let mut any = 0u64;
            for (a, &b) in acc.iter_mut().zip(self.seg_bits(self.locate(r, v)?)) {
                *a &= b;
                any |= *a;
            }
            if any == 0 {
                return None;
            }
        }
        let mut hit = None;
        for (w, &word) in acc.iter().enumerate().filter(|&(_, &word)| word != 0) {
            debug_assert!(
                hit.is_none() && word.count_ones() == 1,
                "Eq. 5 violated: more than one candidate survived the compiled intersection"
            );
            hit = Some(to_u32(w * 64) + word.trailing_zeros());
            if cfg!(not(debug_assertions)) {
                break;
            }
        }
        hit
    }

    /// V2: the first row seeds the sparse accumulator with its nonzero
    /// words; later rows `AND` only the words still live. Leaves the
    /// accumulator all-zero on every exit.
    fn intersect_sparse(&self, dims: &[(Coord, Coord)], scratch: &mut QueryScratch) -> Option<u32> {
        let QueryScratch {
            sparse: acc, live, ..
        } = scratch;
        if acc.len() != self.words {
            // Sized for a different bitset width: re-zero at this one.
            acc.clear();
            acc.resize(self.words, 0);
        }
        live.clear();
        for (r, v) in dims.iter().flat_map(|&(w, h)| [w, h]).enumerate() {
            let Some(seg) = self.locate(r, v) else {
                for &i in live.iter() {
                    acc[i as usize] = 0;
                }
                return None;
            };
            let bits = self.seg_bits(seg);
            if r == 0 {
                let nz = &self.nz[self.nz_offsets[seg] as usize..self.nz_offsets[seg + 1] as usize];
                for &i in nz {
                    acc[i as usize] = bits[i as usize];
                    live.push(i);
                }
            } else {
                live.retain(|&i| {
                    let w = acc[i as usize] & bits[i as usize];
                    acc[i as usize] = w;
                    w != 0
                });
            }
            if live.is_empty() {
                // Every touched word was just zeroed by the AND.
                return None;
            }
        }
        let mut hit = None;
        for &i in live.iter() {
            let word = std::mem::take(&mut acc[i as usize]);
            debug_assert!(
                hit.is_none() && word.count_ones() == 1,
                "Eq. 5 violated: more than one candidate survived the compiled intersection"
            );
            hit = hit.or(Some(to_u32(i as usize * 64) + word.trailing_zeros()));
        }
        hit
    }

    /// [`Self::query_with_scratch`] with a throwaway scratch buffer (one
    /// heap allocation per call). Query loops should hold a
    /// [`QueryScratch`] or use [`Self::query_batch`] instead.
    #[must_use]
    pub fn query(&self, dims: &Dims) -> Option<PlacementId> {
        self.query_with_scratch(dims, &mut QueryScratch::new())
    }

    /// Answers a stream of dimension vectors through one scratch buffer:
    /// element `k` of the result equals `self.query(&queries[k])`.
    #[must_use]
    pub fn query_batch(&self, queries: &[Dims]) -> Vec<Option<PlacementId>> {
        let mut scratch = QueryScratch::new();
        queries
            .iter()
            .map(|dims| self.query_with_scratch(dims, &mut scratch))
            .collect()
    }

    /// Differential check against the interpretive path: `probes`
    /// deterministic pseudo-random dimension vectors (seeded by `seed`,
    /// mostly in-bounds with a salting of out-of-bounds and wrong-arity
    /// probes) must produce bit-identical answers from
    /// [`MultiPlacementStructure::query`] and [`Self::query_with_scratch`].
    ///
    /// The registry runs this on every artifact load (a scale-aware few
    /// dozen to a thousand probes); the test suite runs it with ≥ 10,000
    /// probes.
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
        if self.blocks != mps.block_count() {
            return Err(format!(
                "index compiled for {} blocks, structure has {}",
                self.blocks,
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
        let mut scratch = QueryScratch::new();
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
            let answer = self.query_with_scratch(&probe, &mut scratch);
            if reference != answer {
                return Err(format!(
                    "probe {k} ({probe:?}): structure answers {reference:?}, \
                     compiled index ({}) answers {answer:?}",
                    self.plan
                ));
            }
            if arity_mutant {
                dims.push((0, 0));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mps_core::StoredPlacement;
    use mps_geom::{BlockRanges, DimsBox, Interval, Point, Rect};
    use mps_netlist::{Block, Circuit};
    use mps_placer::Placement;

    const PLANS: [IndexPlan; 2] = [IndexPlan::V1, IndexPlan::V2];

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

    fn assert_matches_handmade_structure(plan: IndexPlan) {
        let mps = two_entry_structure();
        let index = CompiledIndex::build(&mps, plan);
        assert_eq!(index.plan(), plan);
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
                "{plan} divergence at {dims:?}"
            );
        }
        index.verify_against(&mps, 2_000, 7).unwrap();
    }

    #[test]
    fn compiled_index_matches_handmade_structure() {
        assert_matches_handmade_structure(IndexPlan::V1);
    }

    #[test]
    fn v2_matches_handmade_structure() {
        assert_matches_handmade_structure(IndexPlan::V2);
    }

    #[test]
    fn v2_segment_count_matches_v1() {
        let mps = two_entry_structure();
        let v1 = CompiledIndex::build(&mps, IndexPlan::V1);
        let v2 = CompiledIndex::build(&mps, IndexPlan::V2);
        assert_eq!(v2.segment_count(), v1.segment_count());
        assert_eq!(v2.bitset_words(), v1.bitset_words());
    }

    fn assert_empty_structure_answers_nothing(plan: IndexPlan) {
        let c = Circuit::builder("e")
            .block(Block::new("A", 10, 100, 10, 100))
            .block(Block::new("B", 10, 100, 10, 100))
            .net_connecting("n", &[0, 1])
            .build()
            .unwrap();
        let mps = MultiPlacementStructure::new(&c, Rect::from_xywh(0, 0, 400, 400));
        let index = CompiledIndex::build(&mps, plan);
        assert_eq!(index.bitset_words(), 0);
        assert_eq!(index.query(&mps_geom::dims![(20, 20), (20, 20)]), None);
        index.verify_against(&mps, 500, 1).unwrap();
    }

    #[test]
    fn empty_structure_compiles_and_answers_nothing() {
        assert_empty_structure_answers_nothing(IndexPlan::V1);
    }

    #[test]
    fn v2_empty_structure_compiles_and_answers_nothing() {
        assert_empty_structure_answers_nothing(IndexPlan::V2);
    }

    #[test]
    fn one_scratch_serves_both_plans_interleaved() {
        // The dense v1 state must never contaminate the sparse v2
        // accumulator (and vice versa) when a connection alternates
        // between structures compiled to different plans.
        let mps = two_entry_structure();
        let v1 = CompiledIndex::build(&mps, IndexPlan::V1);
        let v2 = CompiledIndex::build(&mps, IndexPlan::V2);
        let mut scratch = QueryScratch::new();
        let probes = [
            mps_geom::dims![(20, 20), (20, 20)],
            mps_geom::dims![(80, 50), (50, 50)],
            mps_geom::dims![(50, 80), (20, 20)],
            mps_geom::dims![(500, 20), (20, 20)],
        ];
        for _ in 0..4 {
            for dims in &probes {
                let a = v1.query_with_scratch(dims, &mut scratch);
                let b = v2.query_with_scratch(dims, &mut scratch);
                assert_eq!(a, b, "plans diverged at {dims:?}");
                assert_eq!(a, mps.query(dims));
            }
        }
    }

    #[test]
    fn one_scratch_serves_structures_of_different_widths() {
        // Alternating between a 1-word and a many-word bitset resizes
        // both accumulators every query; no answer may depend on what
        // the previous structure left behind.
        let narrow = two_entry_structure();
        let (ladder, _) = mps_netlist::modgen::ladder_circuit(3, 1.0);
        let wide = mps_core::grid_structure(&ladder, 500, 0x5C);
        let narrow_probes = [
            mps_geom::dims![(20, 20), (20, 20)],
            mps_geom::dims![(80, 50), (50, 50)],
            mps_geom::dims![(500, 20), (20, 20)],
        ];
        let wide_probes: Vec<Dims> = (0..8)
            .map(|k: Coord| {
                Dims::from_vec_unchecked(
                    ladder
                        .dim_bounds()
                        .iter()
                        .map(|b| {
                            let at = |iv: Interval| iv.lo() + (iv.hi() - iv.lo()) * k / 7;
                            (at(b.w), at(b.h))
                        })
                        .collect(),
                )
            })
            .collect();
        for plan in PLANS {
            let n = CompiledIndex::build(&narrow, plan);
            let w = CompiledIndex::build(&wide, plan);
            assert_eq!(n.bitset_words(), 1);
            assert!(w.bitset_words() > 1);
            let mut scratch = QueryScratch::new();
            let mut answered = 0usize;
            for _ in 0..4 {
                for (dn, dw) in narrow_probes.iter().cycle().zip(&wide_probes) {
                    assert_eq!(n.query_with_scratch(dn, &mut scratch), narrow.query(dn));
                    let got = w.query_with_scratch(dw, &mut scratch);
                    assert_eq!(got, wide.query(dw), "{plan} diverged at {dw:?}");
                    answered += usize::from(got.is_some());
                }
            }
            assert!(answered > 0, "wide probes never hit covered space");
        }
    }

    fn assert_batch_matches_single_queries(plan: IndexPlan) {
        let mps = two_entry_structure();
        let queries = vec![
            mps_geom::dims![(20, 20), (20, 20)],
            mps_geom::dims![(80, 50), (50, 50)],
            mps_geom::dims![(50, 80), (20, 20)],
        ];
        let index = CompiledIndex::build(&mps, plan);
        assert_eq!(index.query_batch(&queries), mps.query_batch(&queries));
    }

    #[test]
    fn batch_matches_single_queries() {
        assert_batch_matches_single_queries(IndexPlan::V1);
    }

    #[test]
    fn v2_batch_matches_single_queries() {
        assert_batch_matches_single_queries(IndexPlan::V2);
    }

    #[test]
    fn plan_chooser_scales_with_segment_population() {
        let mps = two_entry_structure();
        assert_eq!(IndexPlan::choose(&mps), IndexPlan::V1);
        let auto = CompiledIndex::build_auto(&mps);
        assert_eq!(auto.plan(), IndexPlan::V1);
        assert_eq!(
            auto.segment_count(),
            CompiledIndex::build(&mps, IndexPlan::V2).segment_count()
        );
        assert_eq!(IndexPlan::V1.as_str(), "v1");
        assert_eq!(IndexPlan::V2.to_string(), "v2");
    }

    fn assert_verify_against_detects_block_count_mismatch(plan: IndexPlan) {
        let mps = two_entry_structure();
        let c1 = Circuit::builder("one")
            .block(Block::new("A", 10, 100, 10, 100))
            .build()
            .unwrap();
        let other = MultiPlacementStructure::new(&c1, Rect::from_xywh(0, 0, 100, 100));
        let index = CompiledIndex::build(&mps, plan);
        assert!(index.verify_against(&other, 10, 1).is_err());
    }

    #[test]
    fn verify_against_detects_block_count_mismatch() {
        assert_verify_against_detects_block_count_mismatch(IndexPlan::V1);
    }

    #[test]
    fn v2_verify_against_detects_block_count_mismatch() {
        assert_verify_against_detects_block_count_mismatch(IndexPlan::V2);
    }
}
