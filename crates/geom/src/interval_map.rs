//! The per-block interval row of the multi-placement structure (Fig. 3).

use crate::{Coord, Interval};
use std::fmt;

/// A sorted, non-overlapping sequence of integer intervals, each carrying the
/// array of placement indices valid over that interval.
///
/// This is the computational realization of one *row* of the multi-placement
/// structure in Fig. 3 of the paper: the `W_i` (or `H_i`) function of Eq. 3
/// for one block. Feeding a dimension value to the row returns the array of
/// indices of all placements whose validity interval for this block/axis
/// contains that value.
///
/// The paper's *Store Placement* routine "adds interval objects and splits
/// others into two in order to keep the non-overlapping and ascending
/// characteristics of the linked list of interval objects" — that is exactly
/// what [`IntervalMap::insert`] does. [`IntervalMap::remove`] is the inverse
/// used when Resolve Overlaps shrinks or forks an already-stored placement.
///
/// Adjacent intervals holding identical index sets are coalesced, so the row
/// stays minimal.
///
/// # Example
///
/// ```
/// use mps_geom::{Interval, IntervalMap};
/// let mut row: IntervalMap<u32> = IntervalMap::new();
/// row.insert(Interval::new(0, 9), 7);
/// row.insert(Interval::new(5, 14), 8);
/// assert_eq!(row.query(3), &[7]);
/// assert_eq!(row.query(7), &[7, 8]);
/// assert_eq!(row.query(12), &[8]);
/// row.remove(Interval::new(0, 9), 7);
/// assert!(row.query(3).is_empty());
/// ```
#[derive(Clone, PartialEq, Eq)]
pub struct IntervalMap<T = u32> {
    /// Sorted by interval lower bound; intervals pairwise disjoint; each id
    /// vector sorted ascending and non-empty.
    segments: Vec<(Interval, Vec<T>)>,
}

impl<T> Default for IntervalMap<T> {
    fn default() -> Self {
        Self {
            segments: Vec::new(),
        }
    }
}

impl<T: Copy + Ord> IntervalMap<T> {
    /// Creates an empty row.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of interval objects currently in the row.
    #[must_use]
    pub fn segment_count(&self) -> usize {
        self.segments.len()
    }

    /// Whether the row holds no intervals at all.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.segments.is_empty()
    }

    /// The array of placement indices valid at dimension value `v`
    /// (empty slice when `v` falls in uncovered space).
    ///
    /// This is the hot path of placement instantiation: a binary search over
    /// the sorted interval list, O(log segments).
    #[must_use]
    pub fn query(&self, v: Coord) -> &[T] {
        match self.segments.binary_search_by(|(iv, _)| iv.lo().cmp(&v)) {
            Ok(idx) => &self.segments[idx].1,
            Err(0) => &[],
            Err(idx) => {
                let (iv, ids) = &self.segments[idx - 1];
                if iv.contains(v) {
                    ids
                } else {
                    &[]
                }
            }
        }
    }

    /// All distinct indices whose interval overlaps `range`
    /// (sorted ascending, deduplicated).
    ///
    /// Resolve Overlaps uses this to retrieve the candidate set of stored
    /// placements whose validity region may intersect a new placement's.
    #[must_use]
    pub fn ids_overlapping(&self, range: Interval) -> Vec<T> {
        let mut out: Vec<T> = Vec::new();
        for (iv, ids) in self.overlapping_segments(range) {
            debug_assert!(iv.overlaps(&range));
            out.extend_from_slice(ids);
        }
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Iterates over `(interval, indices)` segments intersecting `range`.
    pub fn overlapping_segments(&self, range: Interval) -> impl Iterator<Item = (&Interval, &[T])> {
        // First segment that could overlap: the one containing range.lo or
        // the first starting after it.
        let start = match self
            .segments
            .binary_search_by(|(iv, _)| iv.lo().cmp(&range.lo()))
        {
            Ok(i) => i,
            Err(0) => 0,
            Err(i) => {
                if self.segments[i - 1].0.contains(range.lo()) {
                    i - 1
                } else {
                    i
                }
            }
        };
        self.segments[start..]
            .iter()
            .take_while(move |(iv, _)| iv.lo() <= range.hi())
            .map(|(iv, ids)| (iv, ids.as_slice()))
    }

    /// Iterates over all `(interval, indices)` segments in ascending order
    /// (a borrowing view over [`IntervalMap::as_segments`]).
    pub fn iter(&self) -> impl Iterator<Item = (&Interval, &[T])> {
        self.as_segments()
            .iter()
            .map(|(iv, ids)| (iv, ids.as_slice()))
    }

    /// Direct read access to the underlying segment storage: the sorted,
    /// pairwise-disjoint `(interval, sorted indices)` pairs.
    ///
    /// This exists for consumers that *compile* a row into a different
    /// physical layout (e.g. the flattened arrays + bitsets of
    /// `mps-serve`'s `CompiledIndex`) and need the invariant-bearing
    /// representation without per-segment iterator indirection. The slice
    /// upholds every invariant of [`IntervalMap::check_invariants`].
    #[must_use]
    pub fn as_segments(&self) -> &[(Interval, Vec<T>)] {
        &self.segments
    }

    /// Registers `id` as valid over every value in `range`, splitting
    /// existing interval objects at the boundaries as required (the paper's
    /// Store Placement row update).
    pub fn insert(&mut self, range: Interval, id: T) {
        self.split_boundary(range.lo());
        self.split_boundary(range.hi() + 1);

        // Walk segments inside `range`, adding `id`; fill gaps with new
        // segments carrying only `id`.
        let mut cursor = range.lo();
        let mut idx = self.first_segment_at_or_after(range.lo());
        while cursor <= range.hi() {
            if idx < self.segments.len() && self.segments[idx].0.lo() <= range.hi() {
                let seg_lo = self.segments[idx].0.lo();
                if seg_lo > cursor {
                    // Gap before this segment.
                    self.segments
                        .insert(idx, (Interval::new(cursor, seg_lo - 1), vec![id]));
                    idx += 1;
                    cursor = seg_lo;
                } else {
                    debug_assert_eq!(seg_lo, cursor);
                    let (iv, ids) = &mut self.segments[idx];
                    debug_assert!(iv.hi() <= range.hi(), "boundary split failed");
                    if let Err(pos) = ids.binary_search(&id) {
                        ids.insert(pos, id);
                    }
                    cursor = iv.hi() + 1;
                    idx += 1;
                }
            } else {
                // Trailing gap.
                self.segments
                    .insert(idx, (Interval::new(cursor, range.hi()), vec![id]));
                cursor = range.hi() + 1;
                idx += 1;
            }
        }
        self.coalesce();
        debug_assert!(self.check_invariants().is_ok());
    }

    /// Removes `id` from every value in `range`; interval objects left with
    /// no indices are dropped. Inverse of [`IntervalMap::insert`], used when
    /// Resolve Overlaps shrinks a stored placement's validity interval.
    pub fn remove(&mut self, range: Interval, id: T) {
        self.split_boundary(range.lo());
        self.split_boundary(range.hi() + 1);
        let mut idx = self.first_segment_at_or_after(range.lo());
        while idx < self.segments.len() && self.segments[idx].0.lo() <= range.hi() {
            let (iv, ids) = &mut self.segments[idx];
            debug_assert!(iv.hi() <= range.hi(), "boundary split failed");
            if let Ok(pos) = ids.binary_search(&id) {
                ids.remove(pos);
            }
            if ids.is_empty() {
                self.segments.remove(idx);
            } else {
                idx += 1;
            }
        }
        self.coalesce();
        debug_assert!(self.check_invariants().is_ok());
    }

    /// Removes `id` everywhere it appears.
    pub fn remove_everywhere(&mut self, id: T) {
        for (_, ids) in &mut self.segments {
            if let Ok(pos) = ids.binary_search(&id) {
                ids.remove(pos);
            }
        }
        self.segments.retain(|(_, ids)| !ids.is_empty());
        self.coalesce();
    }

    /// The full interval set over which `id` is registered, as a sorted
    /// vector of maximal disjoint intervals.
    #[must_use]
    pub fn ranges_of(&self, id: T) -> Vec<Interval> {
        let mut out: Vec<Interval> = Vec::new();
        for (iv, ids) in &self.segments {
            if ids.binary_search(&id).is_ok() {
                match out.last_mut() {
                    Some(last) if last.adjacent(iv) || last.overlaps(iv) => {
                        *last = last.hull(iv);
                    }
                    _ => out.push(*iv),
                }
            }
        }
        out
    }

    /// Total number of integer points covered by at least one interval.
    #[must_use]
    pub fn covered_len(&self) -> u64 {
        self.segments.iter().map(|(iv, _)| iv.len()).sum()
    }

    /// Verifies the structural invariants: ascending, non-overlapping,
    /// non-empty index arrays, sorted index arrays.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first violated invariant.
    pub fn check_invariants(&self) -> Result<(), String> {
        for (n, (iv, ids)) in self.segments.iter().enumerate() {
            if ids.is_empty() {
                return Err(format!("segment {n} ({iv:?}) has no indices"));
            }
            if !ids.windows(2).all(|w| w[0] < w[1]) {
                return Err(format!("segment {n} ({iv:?}) indices not sorted/unique"));
            }
            if n > 0 {
                let prev = &self.segments[n - 1].0;
                if prev.hi() >= iv.lo() {
                    return Err(format!(
                        "segments {} ({prev:?}) and {n} ({iv:?}) overlap or are out of order",
                        n - 1
                    ));
                }
            }
        }
        Ok(())
    }

    /// Index of the first segment whose interval starts at or after `v`,
    /// assuming boundaries have been split so no segment straddles `v`.
    fn first_segment_at_or_after(&self, v: Coord) -> usize {
        self.segments.partition_point(|(iv, _)| iv.lo() < v)
    }

    /// Ensures no segment spans the boundary between `v - 1` and `v`: any
    /// segment containing both is split into `[lo, v-1]` and `[v, hi]`.
    fn split_boundary(&mut self, v: Coord) {
        let idx = match self.segments.binary_search_by(|(iv, _)| iv.lo().cmp(&v)) {
            Ok(_) => return, // already starts exactly at v
            Err(0) => return,
            Err(i) => i - 1,
        };
        let (iv, _) = &self.segments[idx];
        if iv.contains(v) && iv.lo() < v {
            let (left, right) = iv.split_at(v - 1).expect("checked containment");
            let ids = self.segments[idx].1.clone();
            self.segments[idx].0 = left;
            self.segments.insert(idx + 1, (right, ids));
        }
    }

    /// Merges adjacent segments carrying identical index arrays.
    fn coalesce(&mut self) {
        let mut i = 1;
        while i < self.segments.len() {
            let (a, b) = self.segments.split_at_mut(i);
            let (iv_a, ids_a) = &mut a[i - 1];
            let (iv_b, ids_b) = &b[0];
            if iv_a.adjacent(iv_b) && ids_a == ids_b {
                *iv_a = iv_a.hull(iv_b);
                self.segments.remove(i);
            } else {
                i += 1;
            }
        }
    }
}

impl<T: fmt::Debug> fmt::Debug for IntervalMap<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map()
            .entries(self.segments.iter().map(|(iv, ids)| (iv, ids)))
            .finish()
    }
}

impl<T: Copy + Ord> FromIterator<(Interval, T)> for IntervalMap<T> {
    fn from_iter<I: IntoIterator<Item = (Interval, T)>>(iter: I) -> Self {
        let mut map = IntervalMap::new();
        for (iv, id) in iter {
            map.insert(iv, id);
        }
        map
    }
}

impl<T: Copy + Ord> Extend<(Interval, T)> for IntervalMap<T> {
    fn extend<I: IntoIterator<Item = (Interval, T)>>(&mut self, iter: I) {
        for (iv, id) in iter {
            self.insert(iv, id);
        }
    }
}

#[cfg(feature = "serde")]
mod serde_impls {
    use super::*;
    use serde::{Deserialize, Error, Map, Serialize, Value};

    impl<T: Serialize> Serialize for IntervalMap<T> {
        fn to_value(&self) -> Value {
            let mut map = Map::new();
            map.insert("segments", self.segments.to_value());
            Value::Object(map)
        }
    }

    // Hand-written so the row invariants (ascending, non-overlapping,
    // sorted non-empty index arrays) are re-validated on load instead of
    // trusting the input.
    impl<T: Deserialize + Copy + Ord> Deserialize for IntervalMap<T> {
        fn from_value(value: &Value) -> Result<Self, Error> {
            let segments = value
                .get("segments")
                .ok_or_else(|| Error::custom("missing field `segments` in IntervalMap"))
                .and_then(Vec::<(Interval, Vec<T>)>::from_value)?;
            let map = IntervalMap { segments };
            map.check_invariants()
                .map_err(|e| Error::custom(format!("invalid IntervalMap: {e}")))?;
            Ok(map)
        }
    }
}

mod binfmt_impls {
    use super::*;
    use binfmt::{malformed, Decode, Decoder, Encode, Encoder, Error};
    use std::io::{Read, Write};

    /// Allocation caps for decoded rows. A row over a coordinate range
    /// of millions of grid units cannot exceed a few thousand segments
    /// in practice; these are sanity bounds, not tight limits.
    const MAX_SEGMENTS: usize = 1 << 24;
    const MAX_IDS_PER_SEGMENT: usize = 1 << 24;

    impl Encode for IntervalMap<u32> {
        fn encode<W: Write>(&self, enc: &mut Encoder<W>) -> std::io::Result<()> {
            enc.varint(self.segments.len() as u64)?;
            for (iv, ids) in &self.segments {
                iv.encode(enc)?;
                enc.varint(ids.len() as u64)?;
                for &id in ids {
                    enc.varint(u64::from(id))?;
                }
            }
            Ok(())
        }
    }

    // The row invariants (ascending, non-overlapping, sorted non-empty
    // index arrays) are re-validated on decode, exactly like the JSON
    // path.
    impl Decode for IntervalMap<u32> {
        fn decode<R: Read>(dec: &mut Decoder<R>) -> Result<Self, Error> {
            let n = dec.len(MAX_SEGMENTS, "IntervalMap segments")?;
            let mut segments = Vec::with_capacity(n);
            for _ in 0..n {
                let iv = Interval::decode(dec)?;
                let k = dec.len(MAX_IDS_PER_SEGMENT, "IntervalMap segment ids")?;
                let mut ids = Vec::with_capacity(k);
                for _ in 0..k {
                    let raw = dec.varint()?;
                    let id = u32::try_from(raw)
                        .map_err(|_| malformed(format!("placement index {raw} exceeds u32")))?;
                    ids.push(id);
                }
                segments.push((iv, ids));
            }
            let map = IntervalMap { segments };
            map.check_invariants()
                .map_err(|e| malformed(format!("invalid IntervalMap: {e}")))?;
            Ok(map)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn iv(lo: Coord, hi: Coord) -> Interval {
        Interval::new(lo, hi)
    }

    #[test]
    fn empty_row_answers_nothing() {
        let row: IntervalMap<u32> = IntervalMap::new();
        assert!(row.query(0).is_empty());
        assert!(row.is_empty());
        assert_eq!(row.segment_count(), 0);
        assert_eq!(row.covered_len(), 0);
    }

    #[test]
    fn single_insert_query() {
        let mut row = IntervalMap::new();
        row.insert(iv(10, 20), 1u32);
        assert_eq!(row.query(10), &[1]);
        assert_eq!(row.query(20), &[1]);
        assert_eq!(row.query(15), &[1]);
        assert!(row.query(9).is_empty());
        assert!(row.query(21).is_empty());
        assert_eq!(row.segment_count(), 1);
        assert_eq!(row.covered_len(), 11);
    }

    #[test]
    fn overlapping_inserts_split_segments() {
        let mut row = IntervalMap::new();
        row.insert(iv(0, 9), 1u32);
        row.insert(iv(5, 14), 2);
        assert_eq!(row.query(2), &[1]);
        assert_eq!(row.query(7), &[1, 2]);
        assert_eq!(row.query(12), &[2]);
        assert_eq!(row.segment_count(), 3);
        row.check_invariants().unwrap();
    }

    #[test]
    fn contained_insert_splits_into_three() {
        let mut row = IntervalMap::new();
        row.insert(iv(0, 20), 1u32);
        row.insert(iv(5, 10), 2);
        assert_eq!(row.segment_count(), 3);
        assert_eq!(row.query(0), &[1]);
        assert_eq!(row.query(5), &[1, 2]);
        assert_eq!(row.query(10), &[1, 2]);
        assert_eq!(row.query(11), &[1]);
        row.check_invariants().unwrap();
    }

    #[test]
    fn insert_with_gap_creates_disjoint_segments() {
        let mut row = IntervalMap::new();
        row.insert(iv(0, 4), 1u32);
        row.insert(iv(10, 14), 1);
        assert_eq!(row.segment_count(), 2);
        assert!(row.query(7).is_empty());
        assert_eq!(row.ranges_of(1), vec![iv(0, 4), iv(10, 14)]);
    }

    #[test]
    fn insert_spanning_gap_fills_it() {
        let mut row = IntervalMap::new();
        row.insert(iv(0, 4), 1u32);
        row.insert(iv(10, 14), 2);
        row.insert(iv(2, 12), 3);
        assert_eq!(row.query(3), &[1, 3]);
        assert_eq!(row.query(6), &[3]);
        assert_eq!(row.query(11), &[2, 3]);
        row.check_invariants().unwrap();
        assert_eq!(row.ranges_of(3), vec![iv(2, 12)]);
    }

    #[test]
    fn duplicate_insert_is_idempotent() {
        let mut row = IntervalMap::new();
        row.insert(iv(0, 9), 1u32);
        row.insert(iv(0, 9), 1);
        assert_eq!(row.query(5), &[1]);
        assert_eq!(row.segment_count(), 1);
    }

    #[test]
    fn adjacent_equal_segments_coalesce() {
        let mut row = IntervalMap::new();
        row.insert(iv(0, 4), 1u32);
        row.insert(iv(5, 9), 1);
        assert_eq!(row.segment_count(), 1);
        assert_eq!(row.ranges_of(1), vec![iv(0, 9)]);
    }

    #[test]
    fn remove_entire_range_drops_segment() {
        let mut row = IntervalMap::new();
        row.insert(iv(0, 9), 1u32);
        row.remove(iv(0, 9), 1);
        assert!(row.is_empty());
    }

    #[test]
    fn partial_remove_shrinks() {
        let mut row = IntervalMap::new();
        row.insert(iv(0, 9), 1u32);
        row.remove(iv(0, 4), 1);
        assert!(row.query(3).is_empty());
        assert_eq!(row.query(6), &[1]);
        assert_eq!(row.ranges_of(1), vec![iv(5, 9)]);
    }

    #[test]
    fn middle_remove_forks_range() {
        let mut row = IntervalMap::new();
        row.insert(iv(0, 20), 1u32);
        row.remove(iv(8, 12), 1);
        assert_eq!(row.ranges_of(1), vec![iv(0, 7), iv(13, 20)]);
        row.check_invariants().unwrap();
    }

    #[test]
    fn remove_keeps_other_ids() {
        let mut row = IntervalMap::new();
        row.insert(iv(0, 9), 1u32);
        row.insert(iv(0, 9), 2);
        row.remove(iv(0, 9), 1);
        assert_eq!(row.query(5), &[2]);
    }

    #[test]
    fn remove_nonexistent_is_noop() {
        let mut row = IntervalMap::new();
        row.insert(iv(0, 9), 1u32);
        let before = row.clone();
        row.remove(iv(0, 9), 99);
        row.remove(iv(100, 200), 1);
        assert_eq!(row, before);
    }

    #[test]
    fn remove_everywhere_clears_id() {
        let mut row = IntervalMap::new();
        row.insert(iv(0, 4), 1u32);
        row.insert(iv(10, 14), 1);
        row.insert(iv(2, 12), 2);
        row.remove_everywhere(1);
        assert!(row.ranges_of(1).is_empty());
        assert_eq!(row.ranges_of(2), vec![iv(2, 12)]);
        row.check_invariants().unwrap();
    }

    #[test]
    fn ids_overlapping_collects_union() {
        let mut row = IntervalMap::new();
        row.insert(iv(0, 4), 1u32);
        row.insert(iv(3, 8), 2);
        row.insert(iv(10, 12), 3);
        assert_eq!(row.ids_overlapping(iv(4, 10)), vec![1, 2, 3]);
        assert_eq!(row.ids_overlapping(iv(5, 9)), vec![2]);
        assert!(row.ids_overlapping(iv(13, 20)).is_empty());
        assert_eq!(row.ids_overlapping(iv(0, 0)), vec![1]);
    }

    #[test]
    fn from_iterator_and_extend() {
        let mut row: IntervalMap<u32> = [(iv(0, 5), 1), (iv(3, 8), 2)].into_iter().collect();
        row.extend([(iv(10, 11), 3)]);
        assert_eq!(row.query(4), &[1, 2]);
        assert_eq!(row.query(10), &[3]);
    }

    #[test]
    fn stress_random_inserts_removals_preserve_invariants() {
        // Deterministic pseudo-random sequence without pulling in `rand`.
        let mut state: u64 = 0x9E3779B97F4A7C15;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut row: IntervalMap<u32> = IntervalMap::new();
        let mut reference: Vec<(Interval, u32, bool)> = Vec::new();
        for step in 0..500 {
            let lo = (next() % 100) as Coord;
            let hi = lo + (next() % 30) as Coord;
            let id = (next() % 10) as u32;
            let range = iv(lo, hi);
            if next() % 3 == 0 {
                row.remove(range, id);
                reference.push((range, id, false));
            } else {
                row.insert(range, id);
                reference.push((range, id, true));
            }
            row.check_invariants()
                .unwrap_or_else(|e| panic!("invariant broken at step {step}: {e}"));
        }
        // Cross-check membership point-by-point against a naive model.
        for v in 0..140 {
            let mut expect: Vec<u32> = Vec::new();
            for &(range, id, add) in &reference {
                if range.contains(v) {
                    if add {
                        if !expect.contains(&id) {
                            expect.push(id);
                        }
                    } else {
                        expect.retain(|&e| e != id);
                    }
                }
            }
            expect.sort_unstable();
            assert_eq!(row.query(v), expect.as_slice(), "mismatch at value {v}");
        }
    }
}
