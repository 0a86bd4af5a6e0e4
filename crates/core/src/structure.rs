//! The multi-placement structure itself (§2).

use crate::{InvariantError, PlacementId, StoredPlacement};
use mps_geom::{BlockRanges, Coord, Dims, DimsBox, IntervalMap, Rect};
use mps_netlist::Circuit;
use mps_placer::{Placement, SequencePair, Template};

/// The generate-once, query-many placement structure: the computational
/// implementation of the function *M* (Eqs. 1 and 4).
///
/// Per block and axis the structure keeps one interval row (Fig. 3): a
/// sorted, non-overlapping list of integer intervals, each carrying the
/// indices of the placements valid there. A query feeds every `(w_i, h_i)`
/// pair to its two rows and intersects the returned index arrays; the
/// generation algorithm guarantees the intersection holds at most one
/// index (Eq. 5: `|M(V)| = 1` inside covered space).
///
/// Dimension space not covered by any stored placement is served by a
/// fallback [`Template`] (§3.1.4: "the remaining uncovered percentage of
/// the space would then be mapped to a template-like placement for backup
/// purposes").
///
/// # Example
///
/// ```
/// use mps_core::{GeneratorConfig, MpsGenerator};
/// use mps_netlist::benchmarks;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let circuit = benchmarks::circ01();
/// let config = GeneratorConfig::builder().outer_iterations(30).seed(3).build();
/// let mps = MpsGenerator::new(&circuit, config).generate()?;
/// let dims = circuit.min_dims();
/// if let Some(id) = mps.query(&dims) {
///     let entry = mps.entry(id).expect("query returns live ids");
///     assert!(entry.covers(&dims));
/// }
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct MultiPlacementStructure {
    /// Per-block designer dimension bounds (the coverage space).
    bounds: Vec<BlockRanges>,
    /// The floorplan region every instantiation must fit.
    floorplan: Rect,
    /// Stored placements; `None` marks entries annihilated during overlap
    /// resolution. Indices are stable — they are the numbers in the rows.
    entries: Vec<Option<StoredPlacement>>,
    live_count: usize,
    /// One width row per block (the `W_i` functions of Eq. 3).
    w_rows: Vec<IntervalMap<u32>>,
    /// One height row per block (the `H_i` functions).
    h_rows: Vec<IntervalMap<u32>>,
    /// Backup template for uncovered space.
    fallback: Option<Template>,
}

impl MultiPlacementStructure {
    /// Creates an empty structure for a circuit and floorplan region.
    #[must_use]
    pub fn new(circuit: &Circuit, floorplan: Rect) -> Self {
        let n = circuit.block_count();
        Self {
            bounds: circuit.dim_bounds(),
            floorplan,
            entries: Vec::new(),
            live_count: 0,
            w_rows: vec![IntervalMap::new(); n],
            h_rows: vec![IntervalMap::new(); n],
            fallback: None,
        }
    }

    /// Reassembles a structure from decoded parts, re-validating the
    /// structural frame the decoders cannot express field-by-field:
    /// non-empty bounds, one row pair per block, per-entry arity
    /// agreement, and no row index pointing at a dead or missing entry.
    /// Both deserializers (JSON and mps-v2 binary) funnel through here,
    /// so the two load paths accept exactly the same structures. The
    /// full Eq.-5 / legality battery is `check_invariants()`, which the
    /// envelope loaders run on top of this.
    pub(crate) fn from_parts(
        bounds: Vec<BlockRanges>,
        floorplan: Rect,
        entries: Vec<Option<StoredPlacement>>,
        w_rows: Vec<IntervalMap<u32>>,
        h_rows: Vec<IntervalMap<u32>>,
        fallback: Option<Template>,
    ) -> Result<Self, String> {
        let n = bounds.len();
        if n == 0 {
            return Err("structure must cover at least one block".to_owned());
        }
        if w_rows.len() != n || h_rows.len() != n {
            return Err(format!(
                "row count mismatch: {n} blocks but {} width rows and {} height rows",
                w_rows.len(),
                h_rows.len()
            ));
        }
        for (i, entry) in entries.iter().enumerate() {
            if let Some(e) = entry {
                if e.dims_box.block_count() != n {
                    return Err(format!(
                        "entry {i} spans {} blocks, structure has {n}",
                        e.dims_box.block_count()
                    ));
                }
            }
        }
        let is_live = |id: u32| entries.get(id as usize).is_some_and(|e| e.is_some());
        for (rows, label) in [(&w_rows, "w"), (&h_rows, "h")] {
            for (i, row) in rows.iter().enumerate() {
                for (_, ids) in row.iter() {
                    if let Some(&dead) = ids.iter().find(|&&id| !is_live(id)) {
                        return Err(format!(
                            "{label}-row {i} references non-live placement {dead}"
                        ));
                    }
                }
            }
        }
        if let Some(t) = &fallback {
            if t.block_count() != n {
                return Err(format!(
                    "fallback template spans {} blocks, structure has {n}",
                    t.block_count()
                ));
            }
        }
        let live_count = entries.iter().flatten().count();
        Ok(MultiPlacementStructure {
            bounds,
            floorplan,
            entries,
            live_count,
            w_rows,
            h_rows,
            fallback,
        })
    }

    /// Number of blocks `N`.
    #[must_use]
    pub fn block_count(&self) -> usize {
        self.bounds.len()
    }

    /// The floorplan region instantiations are guaranteed to fit.
    #[must_use]
    pub fn floorplan(&self) -> Rect {
        self.floorplan
    }

    /// Per-block dimension bounds (the coverage space).
    #[must_use]
    pub fn bounds(&self) -> &[BlockRanges] {
        &self.bounds
    }

    /// Number of live stored placements — the `Placements` column of
    /// Table 2.
    #[must_use]
    pub fn placement_count(&self) -> usize {
        self.live_count
    }

    /// The stored placement behind `id`, or `None` if it was annihilated.
    #[must_use]
    pub fn entry(&self, id: PlacementId) -> Option<&StoredPlacement> {
        self.entries.get(id.index()).and_then(Option::as_ref)
    }

    /// Iterates over live `(id, placement)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (PlacementId, &StoredPlacement)> {
        self.entries
            .iter()
            .enumerate()
            .filter_map(|(i, e)| e.as_ref().map(|sp| (PlacementId(i as u32), sp)))
    }

    /// The backup template, if installed.
    #[must_use]
    pub fn fallback(&self) -> Option<&Template> {
        self.fallback.as_ref()
    }

    /// Installs the backup template for uncovered dimension space.
    pub fn set_fallback(&mut self, template: Template) {
        self.fallback = Some(template);
    }

    /// The function *M* of Eq. 4: feeds every `(w_i, h_i)` to its rows and
    /// intersects the returned index arrays.
    ///
    /// Returns `None` when the vector has the wrong arity, escapes the
    /// coverage bounds, or falls in uncovered space. By construction the
    /// intersection never holds more than one live index.
    ///
    /// This is a thin wrapper over [`Self::query_with_scratch`] that pays
    /// one candidate-buffer allocation per call; query loops should hold a
    /// scratch buffer (or use [`Self::query_batch`]) instead.
    #[must_use]
    pub fn query(&self, dims: &Dims) -> Option<PlacementId> {
        let mut scratch = Vec::new();
        self.query_slice(dims, &mut scratch)
    }

    /// [`Self::query`] without the per-call allocation: the candidate set
    /// is intersected in place inside `scratch`, which is cleared and
    /// refilled on every call. Reusing one buffer across a query stream
    /// makes the hot path allocation-free after the first call (the buffer
    /// only ever needs to hold block 0's width-row candidate array).
    ///
    /// `scratch` holds the surviving candidate (if any) on return; its
    /// contents are otherwise unspecified.
    #[must_use]
    pub fn query_with_scratch(&self, dims: &Dims, scratch: &mut Vec<u32>) -> Option<PlacementId> {
        self.query_slice(dims, scratch)
    }

    /// The query walk behind every typed entry point — one
    /// implementation, so they are bit-identical by construction.
    fn query_slice(&self, dims: &[(Coord, Coord)], scratch: &mut Vec<u32>) -> Option<PlacementId> {
        scratch.clear();
        if dims.len() != self.bounds.len() {
            return None;
        }
        // Candidate set from block 0's width row, then refined.
        scratch.extend_from_slice(self.w_rows[0].query(dims[0].0));
        if scratch.is_empty() {
            return None;
        }
        let refine = |row: &IntervalMap<u32>, v: Coord, candidates: &mut Vec<u32>| {
            let ids = row.query(v);
            candidates.retain(|c| ids.binary_search(c).is_ok());
        };
        refine(&self.h_rows[0], dims[0].1, scratch);
        for (i, &(w, h)) in dims.iter().enumerate().skip(1) {
            if scratch.is_empty() {
                return None;
            }
            refine(&self.w_rows[i], w, scratch);
            refine(&self.h_rows[i], h, scratch);
        }
        debug_assert!(
            scratch.len() <= 1,
            "Eq. 5 violated: {} placements returned for one dimension vector",
            scratch.len()
        );
        scratch.first().map(|&c| PlacementId(c))
    }

    /// Answers a whole stream of dimension vectors through one reused
    /// scratch buffer: element `k` of the result is exactly
    /// `self.query(&queries[k])`, with a single candidate-buffer
    /// allocation for the entire batch.
    #[must_use]
    pub fn query_batch(&self, queries: &[Dims]) -> Vec<Option<PlacementId>> {
        let mut scratch = Vec::new();
        queries
            .iter()
            .map(|dims| self.query_slice(dims, &mut scratch))
            .collect()
    }

    /// Instantiates the placement for `dims`, or `None` in uncovered space.
    ///
    /// This is the synthesis-loop hot path the paper times in Table 2's
    /// `Instantiation` column: a handful of binary searches plus a clone of
    /// the coordinate vector.
    #[must_use]
    pub fn instantiate(&self, dims: &Dims) -> Option<Placement> {
        self.query(dims)
            .and_then(|id| self.entry(id))
            .map(|e| e.placement.clone())
    }

    /// Instantiates for `dims`, falling back to the backup template in
    /// uncovered space. Always returns a legal placement for in-bounds
    /// dimension vectors.
    ///
    /// When **no** fallback template is installed (a freshly generated or
    /// freshly loaded structure that never saw
    /// [`MultiPlacementStructure::set_fallback`]), uncovered space is
    /// served by the canonical single-row packing
    /// `SequencePair::row(n).pack(dims)`. That choice is a pure function
    /// of `dims`, so the answer is deterministic across processes and
    /// across save/load cycles — a reloaded structure without a template
    /// answers every probe exactly like the structure that was saved.
    ///
    /// # Panics
    ///
    /// Panics if the vector's arity differs from the block count.
    #[must_use]
    pub fn instantiate_or_fallback(&self, dims: &Dims) -> Placement {
        assert_eq!(dims.len(), self.bounds.len(), "dimension arity mismatch");
        if let Some(p) = self.instantiate(dims) {
            return p;
        }
        self.fallback_slice(dims)
    }

    /// The uncovered-space dispatch shared by both `*_or_fallback`
    /// entry points: the installed template, or the canonical single-row
    /// packing when none is installed.
    fn fallback_slice(&self, dims: &[(Coord, Coord)]) -> Placement {
        match &self.fallback {
            Some(t) => t.instantiate(dims),
            None => SequencePair::row(self.bounds.len()).pack(dims),
        }
    }

    /// Instantiates for `dims` with per-query compaction (extension over
    /// the paper): the selected placement's *relative arrangement* is
    /// repacked at the requested dimensions instead of returning its fixed
    /// coordinates, eliminating the whitespace a fixed-coordinate region
    /// placement carries away from its box's upper corner. Each stored
    /// placement thereby acts as a mini-template over its validity region.
    ///
    /// Still O(N²) per query (sequence-pair packing) — microseconds for
    /// the ≤25-module circuits the method targets. Returns `None` in
    /// uncovered space.
    #[must_use]
    pub fn instantiate_compacted(&self, dims: &Dims) -> Option<Placement> {
        self.query(dims)
            .and_then(|id| self.entry(id))
            .map(|e| SequencePair::from_placement(&e.placement, &e.best_dims).pack(dims))
    }

    /// [`Self::instantiate_compacted`] with template fallback in uncovered
    /// space. Always legal for in-bounds vectors.
    ///
    /// # Panics
    ///
    /// Panics if the vector's arity differs from the block count.
    #[must_use]
    pub fn instantiate_compacted_or_fallback(&self, dims: &Dims) -> Placement {
        assert_eq!(dims.len(), self.bounds.len(), "dimension arity mismatch");
        if let Some(p) = self.instantiate_compacted(dims) {
            return p;
        }
        self.fallback_slice(dims)
    }

    /// Fraction of the dimension-space volume covered by stored validity
    /// boxes — the explorer's stopping criterion (§3.1.4).
    #[must_use]
    pub fn coverage(&self) -> f64 {
        crate::coverage::volume_coverage(self)
    }

    /// Average per-row covered fraction (diagnostic; see
    /// [`crate::row_coverage`]).
    #[must_use]
    pub fn row_coverage(&self) -> f64 {
        crate::coverage::row_coverage(self)
    }

    // -----------------------------------------------------------------
    // Mutation API used by the generation algorithm (crate-public so the
    // explorer/resolver can drive it; exposed for integration tests via
    // `insert_unchecked`).
    // -----------------------------------------------------------------

    /// Stores a placement without checking disjointness against existing
    /// entries — the *Store Placement* routine of §3.1.3, which assumes
    /// Resolve Overlaps already ran. Exposed for tests and for building
    /// structures from externally computed regions; misuse breaks the
    /// Eq.-5 invariant (detected by [`Self::check_invariants`]).
    pub fn insert_unchecked(&mut self, entry: StoredPlacement) -> PlacementId {
        assert_eq!(
            entry.dims_box.block_count(),
            self.bounds.len(),
            "entry block-count mismatch"
        );
        let id = PlacementId(self.entries.len() as u32);
        for (i, r) in entry.dims_box.ranges().iter().enumerate() {
            self.w_rows[i].insert(r.w, id.0);
            self.h_rows[i].insert(r.h, id.0);
        }
        self.entries.push(Some(entry));
        self.live_count += 1;
        id
    }

    /// Removes a stored placement entirely (annihilation during overlap
    /// resolution).
    pub(crate) fn remove(&mut self, id: PlacementId) {
        if let Some(entry) = self.entries.get_mut(id.index()).and_then(Option::take) {
            for (i, r) in entry.dims_box.ranges().iter().enumerate() {
                self.w_rows[i].remove(r.w, id.0);
                self.h_rows[i].remove(r.h, id.0);
            }
            self.live_count -= 1;
        }
    }

    /// Replaces a stored placement's validity box with a (smaller) one,
    /// updating the rows. The new box must be contained in the old box.
    pub(crate) fn shrink(&mut self, id: PlacementId, new_box: DimsBox) {
        let Some(entry) = self.entries.get_mut(id.index()).and_then(Option::as_mut) else {
            return;
        };
        debug_assert!(
            entry
                .dims_box
                .ranges()
                .iter()
                .zip(new_box.ranges())
                .all(
                    |(old, new)| old.w.contains_interval(&new.w) && old.h.contains_interval(&new.h)
                ),
            "shrink must not grow the box"
        );
        let old_box = std::mem::replace(&mut entry.dims_box, new_box.clone());
        // Keep the recorded best dimensions inside the surviving region.
        entry.best_dims = Dims::from_vec_unchecked(
            new_box
                .ranges()
                .iter()
                .zip(&entry.best_dims)
                .map(|(r, &(w, h))| (r.w.clamp_value(w), r.h.clamp_value(h)))
                .collect(),
        );
        // Update only the axes that changed.
        for (i, (old, new)) in old_box.ranges().iter().zip(new_box.ranges()).enumerate() {
            if old.w != new.w {
                self.w_rows[i].remove(old.w, id.0);
                self.w_rows[i].insert(new.w, id.0);
            }
            if old.h != new.h {
                self.h_rows[i].remove(old.h, id.0);
                self.h_rows[i].insert(new.h, id.0);
            }
        }
    }

    /// All live placements whose validity box overlaps `probe` — the
    /// retrieval step of Resolve Overlaps, computed through the rows as in
    /// the paper's pseudo-code (intersection over blocks of the ids whose
    /// intervals overlap the probe's intervals).
    #[must_use]
    pub(crate) fn overlapping_ids(&self, probe: &DimsBox) -> Vec<PlacementId> {
        debug_assert_eq!(probe.block_count(), self.bounds.len());
        let mut candidates: Option<Vec<u32>> = None;
        for (i, r) in probe.ranges().iter().enumerate() {
            for (row, iv) in [(&self.w_rows[i], r.w), (&self.h_rows[i], r.h)] {
                let ids = row.ids_overlapping(iv);
                candidates = Some(match candidates {
                    None => ids,
                    Some(mut prev) => {
                        prev.retain(|c| ids.binary_search(c).is_ok());
                        prev
                    }
                });
                if candidates.as_ref().is_some_and(Vec::is_empty) {
                    return Vec::new();
                }
            }
        }
        // Per-row interval overlap in every dimension is exactly box
        // overlap, but verify defensively against the entry's box.
        candidates
            .unwrap_or_default()
            .into_iter()
            .map(PlacementId)
            .filter(|&id| self.entry(id).is_some_and(|e| e.dims_box.overlaps(probe)))
            .collect()
    }

    /// Read access to one block's width row (the `W_i` function of Eq. 3):
    /// the sorted disjoint intervals of width values, each carrying the
    /// raw indices of the placements valid there.
    ///
    /// Public so downstream consumers can *compile* the rows into
    /// alternative physical layouts (mps-serve's `CompiledIndex`
    /// flattens them into contiguous arrays plus bitsets). The raw `u32`
    /// indices in a row are exactly the [`PlacementId`] values
    /// [`Self::query`] returns.
    ///
    /// # Panics
    ///
    /// Panics if `block >= self.block_count()`.
    #[must_use]
    pub fn w_row(&self, block: usize) -> &IntervalMap<u32> {
        &self.w_rows[block]
    }

    /// Read access to one block's height row (the `H_i` function); see
    /// [`Self::w_row`].
    ///
    /// # Panics
    ///
    /// Panics if `block >= self.block_count()`.
    #[must_use]
    pub fn h_row(&self, block: usize) -> &IntervalMap<u32> {
        &self.h_rows[block]
    }

    /// Verifies every structural invariant; intended for tests and
    /// post-generation sanity checks (cost: O(P² · N + rows)).
    ///
    /// 1. every interval row is sorted, non-overlapping and ascending;
    /// 2. each live entry's row registrations equal its box exactly;
    /// 3. live validity boxes are pairwise disjoint (Eq. 5);
    /// 4. every live entry is legal (no block overlap, inside the
    ///    floorplan) with all blocks at the box's upper corner;
    /// 5. every box lies within the coverage bounds.
    ///
    /// # Errors
    ///
    /// Returns a typed [`InvariantError`] naming the first violated
    /// invariant (its `Display` form is the old prose description).
    pub fn check_invariants(&self) -> Result<(), InvariantError> {
        use mps_geom::Axis;
        for (i, (wr, hr)) in self.w_rows.iter().zip(&self.h_rows).enumerate() {
            for (row, axis) in [(wr, Axis::Width), (hr, Axis::Height)] {
                row.check_invariants().map_err(|e| InvariantError::Row {
                    block: i,
                    axis,
                    detail: e,
                })?;
            }
        }
        let live: Vec<(PlacementId, &StoredPlacement)> = self.iter().collect();
        for &(id, entry) in &live {
            for (i, r) in entry.dims_box.ranges().iter().enumerate() {
                for (row, iv, axis) in [
                    (&self.w_rows[i], r.w, Axis::Width),
                    (&self.h_rows[i], r.h, Axis::Height),
                ] {
                    let ranges = row.ranges_of(id.0);
                    if ranges != vec![iv] {
                        return Err(InvariantError::Registration {
                            id,
                            block: i,
                            axis,
                            registered: ranges,
                            expected: iv,
                        });
                    }
                }
            }
            entry
                .dims_box
                .check_within_bounds(&self.bounds)
                .map_err(|e| InvariantError::OutOfBounds { id, detail: e })?;
            let top: Vec<(Coord, Coord)> = entry
                .dims_box
                .ranges()
                .iter()
                .map(|r| (r.w.hi(), r.h.hi()))
                .collect();
            if !entry.placement.is_legal(&top, Some(&self.floorplan)) {
                return Err(InvariantError::IllegalPlacement { id });
            }
        }
        for (a_idx, &(a_id, a)) in live.iter().enumerate() {
            for &(b_id, b) in &live[a_idx + 1..] {
                if a.dims_box.overlaps(&b.dims_box) {
                    return Err(InvariantError::BoxOverlap { a: a_id, b: b_id });
                }
            }
        }
        Ok(())
    }
}

mod serde_impls {
    use super::*;
    use serde::{Deserialize, Error, Map, Serialize, Value};

    impl Serialize for MultiPlacementStructure {
        fn to_value(&self) -> Value {
            let mut map = Map::new();
            map.insert("bounds", self.bounds.to_value());
            map.insert("floorplan", self.floorplan.to_value());
            // live_count is derived from `entries` and recomputed on load.
            map.insert("entries", self.entries.to_value());
            map.insert("w_rows", self.w_rows.to_value());
            map.insert("h_rows", self.h_rows.to_value());
            map.insert("fallback", self.fallback.to_value());
            Value::Object(map)
        }
    }

    // Hand-written: beyond field decoding, the structural frame must be
    // coherent before any method can safely run — the shared
    // `from_parts` constructor re-validates it (non-empty bounds, one
    // row pair per block, per-entry arity agreement, no row index
    // pointing at a dead or missing entry). The full Eq.-5 / legality
    // check is `check_invariants()`, which the `mps-v1` envelope loader
    // (`MultiPlacementStructure::from_json`) runs on top of this.
    impl Deserialize for MultiPlacementStructure {
        fn from_value(value: &Value) -> Result<Self, Error> {
            let field = |name: &str| {
                value.get(name).ok_or_else(|| {
                    Error::custom(format!("missing field `{name}` in MultiPlacementStructure"))
                })
            };
            let bounds: Vec<BlockRanges> = Deserialize::from_value(field("bounds")?)?;
            let floorplan = Rect::from_value(field("floorplan")?)?;
            let entries: Vec<Option<StoredPlacement>> = Deserialize::from_value(field("entries")?)?;
            let w_rows: Vec<IntervalMap<u32>> = Deserialize::from_value(field("w_rows")?)?;
            let h_rows: Vec<IntervalMap<u32>> = Deserialize::from_value(field("h_rows")?)?;
            let fallback: Option<Template> = Deserialize::from_value(field("fallback")?)?;
            MultiPlacementStructure::from_parts(
                bounds, floorplan, entries, w_rows, h_rows, fallback,
            )
            .map_err(Error::custom)
        }
    }
}

mod binfmt_impls {
    use super::*;
    use binfmt::{malformed, Decode, Decoder, Encode, Encoder, Error};
    use std::io::{Read, Write};

    /// Allocation caps for decoded top-level sections. Sanity bounds,
    /// not tight limits: real structures have tens of blocks and at
    /// most a few thousand stored placements.
    const MAX_BLOCKS: usize = 1 << 20;
    const MAX_ENTRIES: usize = 1 << 24;

    // Field order mirrors the JSON key order; `live_count` is derived
    // from `entries` and recomputed on decode, exactly like the JSON
    // path.
    impl Encode for MultiPlacementStructure {
        fn encode<W: Write>(&self, enc: &mut Encoder<W>) -> std::io::Result<()> {
            enc.seq(&self.bounds)?;
            self.floorplan.encode(enc)?;
            enc.varint(self.entries.len() as u64)?;
            for entry in &self.entries {
                enc.option(entry.as_ref())?;
            }
            enc.seq(&self.w_rows)?;
            enc.seq(&self.h_rows)?;
            enc.option(self.fallback.as_ref())
        }
    }

    // Validate-don't-trust: every per-type decoder re-runs its own
    // invariants, and the shared `from_parts` constructor re-validates
    // the structural frame — the same funnel the JSON deserializer goes
    // through, so both formats accept exactly the same structures.
    impl Decode for MultiPlacementStructure {
        fn decode<R: Read>(dec: &mut Decoder<R>) -> Result<Self, Error> {
            let bounds: Vec<BlockRanges> = dec.seq(MAX_BLOCKS, "structure bounds")?;
            let floorplan = Rect::decode(dec)?;
            let n_entries = dec.len(MAX_ENTRIES, "structure entries")?;
            let mut entries = Vec::with_capacity(n_entries);
            for _ in 0..n_entries {
                entries.push(dec.option::<StoredPlacement>()?);
            }
            let w_rows: Vec<IntervalMap<u32>> = dec.seq(MAX_BLOCKS, "structure w_rows")?;
            let h_rows: Vec<IntervalMap<u32>> = dec.seq(MAX_BLOCKS, "structure h_rows")?;
            let fallback: Option<Template> = dec.option()?;
            MultiPlacementStructure::from_parts(
                bounds, floorplan, entries, w_rows, h_rows, fallback,
            )
            .map_err(malformed)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mps_geom::{dims, Interval, Point};
    use mps_netlist::{benchmarks, Block, Circuit};

    fn small_circuit() -> Circuit {
        Circuit::builder("s")
            .block(Block::new("A", 10, 100, 10, 100))
            .block(Block::new("B", 10, 100, 10, 100))
            .net_connecting("n", &[0, 1])
            .build()
            .unwrap()
    }

    fn entry(
        coords: &[(Coord, Coord)],
        box_ranges: &[(Coord, Coord, Coord, Coord)],
        avg: f64,
    ) -> StoredPlacement {
        StoredPlacement {
            placement: Placement::new(coords.iter().map(|&(x, y)| Point::new(x, y)).collect()),
            dims_box: DimsBox::new(
                box_ranges
                    .iter()
                    .map(|&(wl, wh, hl, hh)| {
                        BlockRanges::new(Interval::new(wl, wh), Interval::new(hl, hh))
                    })
                    .collect(),
            ),
            avg_cost: avg,
            best_cost: avg * 0.8,
            best_dims: box_ranges.iter().map(|&(wl, _, hl, _)| (wl, hl)).collect(),
        }
    }

    fn two_entry_structure() -> (Circuit, MultiPlacementStructure) {
        let c = small_circuit();
        let fp = Rect::from_xywh(0, 0, 400, 400);
        let mut mps = MultiPlacementStructure::new(&c, fp);
        // Entry 0: both blocks small, side by side.
        mps.insert_unchecked(entry(
            &[(0, 0), (60, 0)],
            &[(10, 50, 10, 50), (10, 50, 10, 50)],
            10.0,
        ));
        // Entry 1: both blocks large, stacked (disjoint box: w of block 0
        // in [51, 100]).
        mps.insert_unchecked(entry(
            &[(0, 0), (0, 120)],
            &[(51, 100, 10, 100), (10, 100, 10, 100)],
            20.0,
        ));
        (c, mps)
    }

    #[test]
    fn empty_structure_answers_nothing() {
        let c = small_circuit();
        let mps = MultiPlacementStructure::new(&c, Rect::from_xywh(0, 0, 100, 100));
        assert_eq!(mps.placement_count(), 0);
        assert!(mps.query(&dims![(10, 10), (10, 10)]).is_none());
        assert!(mps.instantiate(&dims![(10, 10), (10, 10)]).is_none());
        mps.check_invariants().unwrap();
    }

    #[test]
    fn query_selects_the_covering_entry() {
        let (_, mps) = two_entry_structure();
        assert_eq!(mps.query(&dims![(20, 20), (20, 20)]), Some(PlacementId(0)));
        assert_eq!(mps.query(&dims![(80, 50), (50, 50)]), Some(PlacementId(1)));
        // w0=50 belongs to entry 0's box; h0 beyond 50 is uncovered.
        assert_eq!(mps.query(&dims![(50, 80), (20, 20)]), None);
    }

    #[test]
    fn query_rejects_bad_arity_and_out_of_bounds() {
        let (_, mps) = two_entry_structure();
        assert!(mps.query(&dims![(20, 20)]).is_none());
        assert!(mps.query(&dims![(500, 20), (20, 20)]).is_none());
    }

    #[test]
    fn instantiate_clones_coordinates() {
        let (_, mps) = two_entry_structure();
        let p = mps.instantiate(&dims![(20, 20), (20, 20)]).unwrap();
        assert_eq!(p.coords()[1], Point::new(60, 0));
    }

    #[test]
    fn compacted_instantiation_is_legal_and_compact() {
        let (_, mps) = two_entry_structure();
        let dims = dims![(20, 20), (20, 20)];
        let fixed = mps.instantiate(&dims).unwrap();
        let packed = mps.instantiate_compacted(&dims).unwrap();
        assert!(packed.is_legal(&dims, None));
        let bb_fixed = fixed.bounding_box(&dims).unwrap();
        let bb_packed = packed.bounding_box(&dims).unwrap();
        assert!(
            bb_packed.area() <= bb_fixed.area(),
            "packing must not grow the bounding box ({bb_packed:?} vs {bb_fixed:?})"
        );
        // Uncovered space: falls back.
        assert!(mps
            .instantiate_compacted(&dims![(50, 80), (20, 20)])
            .is_none());
        let fb = mps.instantiate_compacted_or_fallback(&dims![(50, 80), (20, 20)]);
        assert!(fb.is_legal(&[(50, 80), (20, 20)], None));
    }

    #[test]
    fn fallback_serves_uncovered_space() {
        let (c, mut mps) = two_entry_structure();
        let dims = dims![(50, 80), (20, 20)];
        assert!(mps.instantiate(&dims).is_none());
        let p = mps.instantiate_or_fallback(&dims);
        assert!(p.is_legal(&dims, None));
        // With an explicit template installed, that template is used.
        mps.set_fallback(Template::expert_default(&c, 2));
        let p2 = mps.instantiate_or_fallback(&dims);
        assert!(p2.is_legal(&dims, None));
        assert!(mps.fallback().is_some());
    }

    #[test]
    fn invariants_pass_on_disjoint_entries() {
        let (_, mps) = two_entry_structure();
        mps.check_invariants().unwrap();
        assert_eq!(mps.placement_count(), 2);
    }

    #[test]
    fn invariants_catch_overlapping_boxes() {
        let c = small_circuit();
        let fp = Rect::from_xywh(0, 0, 400, 400);
        let mut mps = MultiPlacementStructure::new(&c, fp);
        mps.insert_unchecked(entry(
            &[(0, 0), (120, 0)],
            &[(10, 50, 10, 50), (10, 50, 10, 50)],
            1.0,
        ));
        mps.insert_unchecked(entry(
            &[(0, 0), (0, 120)],
            &[(40, 80, 10, 50), (10, 50, 10, 50)],
            2.0,
        ));
        assert!(mps.check_invariants().is_err());
    }

    #[test]
    fn invariants_catch_illegal_upper_corner() {
        let c = small_circuit();
        let fp = Rect::from_xywh(0, 0, 400, 400);
        let mut mps = MultiPlacementStructure::new(&c, fp);
        // Blocks at distance 30 but width range up to 50: they overlap at
        // the corner.
        mps.insert_unchecked(entry(
            &[(0, 0), (30, 0)],
            &[(10, 50, 10, 50), (10, 50, 10, 50)],
            1.0,
        ));
        let err = mps.check_invariants().unwrap_err();
        assert!(
            matches!(err, InvariantError::IllegalPlacement { .. }),
            "{err}"
        );
    }

    #[test]
    fn remove_annihilates_entry() {
        let (_, mut mps) = two_entry_structure();
        mps.remove(PlacementId(0));
        assert_eq!(mps.placement_count(), 1);
        assert!(mps.entry(PlacementId(0)).is_none());
        assert!(mps.query(&dims![(20, 20), (20, 20)]).is_none());
        assert_eq!(mps.query(&dims![(80, 50), (50, 50)]), Some(PlacementId(1)));
        mps.check_invariants().unwrap();
        // Removing twice is a no-op.
        mps.remove(PlacementId(0));
        assert_eq!(mps.placement_count(), 1);
    }

    #[test]
    fn shrink_updates_rows() {
        let (_, mut mps) = two_entry_structure();
        let new_box = DimsBox::new(vec![
            BlockRanges::new(Interval::new(10, 30), Interval::new(10, 50)),
            BlockRanges::new(Interval::new(10, 50), Interval::new(10, 50)),
        ]);
        mps.shrink(PlacementId(0), new_box);
        assert_eq!(mps.query(&dims![(20, 20), (20, 20)]), Some(PlacementId(0)));
        assert!(mps.query(&dims![(40, 20), (20, 20)]).is_none());
        mps.check_invariants().unwrap();
    }

    #[test]
    fn overlapping_ids_finds_box_overlaps() {
        let (_, mps) = two_entry_structure();
        let probe = DimsBox::new(vec![
            BlockRanges::new(Interval::new(40, 60), Interval::new(10, 20)),
            BlockRanges::new(Interval::new(10, 20), Interval::new(10, 20)),
        ]);
        let ids = mps.overlapping_ids(&probe);
        assert_eq!(ids, vec![PlacementId(0), PlacementId(1)]);
        let far = DimsBox::new(vec![
            BlockRanges::new(Interval::new(10, 50), Interval::new(60, 100)),
            BlockRanges::new(Interval::new(10, 20), Interval::new(10, 20)),
        ]);
        // Entry 0 h0 caps at 50, entry 1 w0 starts at 51: only entry 1
        // overlaps a probe with w0 up to 50? No — probe w0 [10,50] misses
        // entry 1's [51,100]. Neither overlaps.
        assert!(mps.overlapping_ids(&far).is_empty());
    }

    #[test]
    fn coverage_grows_with_entries() {
        let c = small_circuit();
        let fp = Rect::from_xywh(0, 0, 400, 400);
        let mut mps = MultiPlacementStructure::new(&c, fp);
        assert_eq!(mps.coverage(), 0.0);
        mps.insert_unchecked(entry(
            &[(0, 0), (120, 0)],
            &[(10, 100, 10, 100), (10, 100, 10, 100)],
            1.0,
        ));
        // Full per-row coverage of all four rows.
        assert!((mps.coverage() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn works_for_benchmark_circuits() {
        let c = benchmarks::two_stage_opamp();
        let fp = c.suggested_floorplan(1.5);
        let mps = MultiPlacementStructure::new(&c, fp);
        assert_eq!(mps.block_count(), 5);
        mps.check_invariants().unwrap();
    }

    #[test]
    fn serde_roundtrip_preserves_queries() {
        let (_, mps) = two_entry_structure();
        let json = serde_json::to_string(&mps).unwrap();
        let back: MultiPlacementStructure = serde_json::from_str(&json).unwrap();
        assert_eq!(back.placement_count(), 2);
        assert_eq!(back.query(&dims![(20, 20), (20, 20)]), Some(PlacementId(0)));
        back.check_invariants().unwrap();
    }
}
