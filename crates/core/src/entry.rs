//! Stored placements: the elements of the set Π.

use mps_geom::{Coord, Dims, DimsBox};
use mps_placer::Placement;
use std::fmt;

/// Index of a placement inside a [`crate::MultiPlacementStructure`] — the
/// numbers stored in the `Arr(i, n)` arrays of Fig. 3.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PlacementId(pub u32);

impl PlacementId {
    /// The raw index.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for PlacementId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "P{}", self.0)
    }
}

impl fmt::Display for PlacementId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "P{}", self.0)
    }
}

/// One placement `p_j` of Eq. 2: fixed block coordinates plus the
/// `(w_start, w_end, h_start, h_end)` validity box, annotated with the
/// costs the BDIO measured.
///
/// The validity box is the region of dimension space over which *this* is
/// the placement the structure returns. The generation algorithm maintains
/// two invariants: boxes of live entries are pairwise disjoint (Eq. 5), and
/// the placement is overlap-free inside the floorplan with every block at
/// its box's upper corner — hence everywhere in the box.
#[derive(Debug, Clone, PartialEq)]
pub struct StoredPlacement {
    /// Block coordinates on the floorplan.
    pub placement: Placement,
    /// Validity region in dimension space.
    pub dims_box: DimsBox,
    /// Average cost the BDIO observed while searching the box — the
    /// explorer's cost signal and the Resolve-Overlaps tiebreaker.
    pub avg_cost: f64,
    /// Best cost the BDIO attained.
    pub best_cost: f64,
    /// The dimension vector achieving [`StoredPlacement::best_cost`].
    pub best_dims: Dims,
}

impl StoredPlacement {
    /// Whether `dims` lies inside the validity box.
    ///
    /// # Panics
    ///
    /// Panics if `dims.len()` differs from the box's block count.
    #[must_use]
    pub fn covers(&self, dims: &[(Coord, Coord)]) -> bool {
        self.dims_box.contains(dims)
    }
}

mod serde_impls {
    use super::*;
    use serde::{Deserialize, Error, Map, Serialize, Value};

    impl Serialize for PlacementId {
        fn to_value(&self) -> Value {
            self.0.to_value()
        }
    }

    impl Deserialize for PlacementId {
        fn from_value(value: &Value) -> Result<Self, Error> {
            u32::from_value(value).map(PlacementId)
        }
    }

    impl Serialize for StoredPlacement {
        fn to_value(&self) -> Value {
            let mut map = Map::new();
            map.insert("placement", self.placement.to_value());
            map.insert("dims_box", self.dims_box.to_value());
            map.insert("avg_cost", self.avg_cost.to_value());
            map.insert("best_cost", self.best_cost.to_value());
            map.insert("best_dims", self.best_dims.to_value());
            Value::Object(map)
        }
    }

    // Hand-written so the cross-field arity invariants hold on load: the
    // coordinate vector, validity box and best-dims vector must all agree
    // on the block count, and the recorded costs must be finite.
    impl Deserialize for StoredPlacement {
        fn from_value(value: &Value) -> Result<Self, Error> {
            let field = |name: &str| {
                value.get(name).ok_or_else(|| {
                    Error::custom(format!("missing field `{name}` in StoredPlacement"))
                })
            };
            let entry = StoredPlacement {
                placement: Deserialize::from_value(field("placement")?)?,
                dims_box: Deserialize::from_value(field("dims_box")?)?,
                avg_cost: f64::from_value(field("avg_cost")?)?,
                best_cost: f64::from_value(field("best_cost")?)?,
                best_dims: Deserialize::from_value(field("best_dims")?)?,
            };
            let n = entry.placement.block_count();
            if entry.dims_box.block_count() != n || entry.best_dims.len() != n {
                return Err(Error::custom(format!(
                    "StoredPlacement arity mismatch: {} coords, {}-block box, {} best dims",
                    n,
                    entry.dims_box.block_count(),
                    entry.best_dims.len()
                )));
            }
            if !entry.avg_cost.is_finite() || !entry.best_cost.is_finite() {
                return Err(Error::custom("StoredPlacement costs must be finite"));
            }
            Ok(entry)
        }
    }
}

mod binfmt_impls {
    use super::*;
    use binfmt::{malformed, Decode, Decoder, Encode, Encoder, Error};
    use std::io::{Read, Write};

    impl Encode for PlacementId {
        fn encode<W: Write>(&self, enc: &mut Encoder<W>) -> std::io::Result<()> {
            enc.varint(u64::from(self.0))
        }
    }

    impl Decode for PlacementId {
        fn decode<R: Read>(dec: &mut Decoder<R>) -> Result<Self, Error> {
            let raw = dec.varint()?;
            u32::try_from(raw)
                .map(PlacementId)
                .map_err(|_| malformed(format!("placement index {raw} exceeds u32")))
        }
    }

    impl Encode for StoredPlacement {
        fn encode<W: Write>(&self, enc: &mut Encoder<W>) -> std::io::Result<()> {
            self.placement.encode(enc)?;
            self.dims_box.encode(enc)?;
            enc.f64(self.avg_cost)?;
            enc.f64(self.best_cost)?;
            self.best_dims.encode(enc)
        }
    }

    // The cross-field arity invariants are re-validated on decode,
    // exactly like the JSON path: coordinate vector, validity box and
    // best-dims vector must agree on the block count, and the recorded
    // costs must be finite.
    impl Decode for StoredPlacement {
        fn decode<R: Read>(dec: &mut Decoder<R>) -> Result<Self, Error> {
            let entry = StoredPlacement {
                placement: Placement::decode(dec)?,
                dims_box: DimsBox::decode(dec)?,
                avg_cost: dec.f64()?,
                best_cost: dec.f64()?,
                best_dims: Dims::decode(dec)?,
            };
            let n = entry.placement.block_count();
            if entry.dims_box.block_count() != n || entry.best_dims.len() != n {
                return Err(malformed(format!(
                    "StoredPlacement arity mismatch: {} coords, {}-block box, {} best dims",
                    n,
                    entry.dims_box.block_count(),
                    entry.best_dims.len()
                )));
            }
            if !entry.avg_cost.is_finite() || !entry.best_cost.is_finite() {
                return Err(malformed("StoredPlacement costs must be finite"));
            }
            Ok(entry)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mps_geom::{BlockRanges, Interval, Point};

    fn sample() -> StoredPlacement {
        StoredPlacement {
            placement: Placement::new(vec![Point::new(0, 0)]),
            dims_box: DimsBox::new(vec![BlockRanges::new(
                Interval::new(10, 20),
                Interval::new(5, 15),
            )]),
            avg_cost: 12.0,
            best_cost: 9.5,
            best_dims: mps_geom::dims![(15, 10)],
        }
    }

    #[test]
    fn covers_respects_box() {
        let sp = sample();
        assert!(sp.covers(&[(15, 10)]));
        assert!(sp.covers(&[(10, 5)]));
        assert!(!sp.covers(&[(21, 10)]));
        assert!(!sp.covers(&[(15, 4)]));
    }

    #[test]
    fn id_formatting() {
        let id = PlacementId(7);
        assert_eq!(format!("{id}"), "P7");
        assert_eq!(format!("{id:?}"), "P7");
        assert_eq!(id.index(), 7);
    }

    #[test]
    fn serde_roundtrip() {
        let sp = sample();
        let json = serde_json::to_string(&sp).unwrap();
        let back: StoredPlacement = serde_json::from_str(&json).unwrap();
        assert_eq!(sp, back);
    }
}
