//! Nets, pins and external pads.

use crate::BlockId;
use mps_geom::{Coord, Point, Rect};
use std::fmt;

/// A pin location expressed as fractions of the owning block's dimensions.
///
/// Because the multi-placement structure serves *many* block sizes from one
/// stored placement, pin locations cannot be absolute: they scale with the
/// block. `PinOffset { fx: 0.5, fy: 1.0 }` is the middle of the block's top
/// edge for any `(w, h)` the module generator produces.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PinOffset {
    /// Horizontal fraction in `[0, 1]` of the block width.
    pub fx: f32,
    /// Vertical fraction in `[0, 1]` of the block height.
    pub fy: f32,
}

impl PinOffset {
    /// Creates a pin offset.
    ///
    /// # Panics
    ///
    /// Panics if either fraction is outside `[0, 1]` or not finite.
    #[must_use]
    pub fn new(fx: f32, fy: f32) -> Self {
        assert!(
            fx.is_finite() && (0.0..=1.0).contains(&fx),
            "fx out of [0,1]: {fx}"
        );
        assert!(
            fy.is_finite() && (0.0..=1.0).contains(&fy),
            "fy out of [0,1]: {fy}"
        );
        Self { fx, fy }
    }

    /// The block center — the default connection point for abstract
    /// module-level netlists.
    #[must_use]
    pub fn center() -> Self {
        Self { fx: 0.5, fy: 0.5 }
    }

    /// Absolute location of the pin for a block placed as `rect`.
    #[must_use]
    pub fn locate(&self, rect: &Rect) -> Point {
        let x = rect.left() + ((rect.width() as f64) * f64::from(self.fx)).round() as Coord;
        let y = rect.bottom() + ((rect.height() as f64) * f64::from(self.fy)).round() as Coord;
        Point::new(x, y)
    }
}

impl Default for PinOffset {
    fn default() -> Self {
        Self::center()
    }
}

/// A connection point on a block.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pin {
    /// The block carrying the pin.
    pub block: BlockId,
    /// Where on the block the pin sits.
    pub offset: PinOffset,
}

impl Pin {
    /// A pin at the center of block `block`.
    #[must_use]
    pub fn center_of(block: BlockId) -> Self {
        Self {
            block,
            offset: PinOffset::center(),
        }
    }

    /// A pin at fractional position `(fx, fy)` of block `block`.
    ///
    /// # Panics
    ///
    /// Panics if either fraction is outside `[0, 1]`.
    #[must_use]
    pub fn at(block: BlockId, fx: f32, fy: f32) -> Self {
        Self {
            block,
            offset: PinOffset::new(fx, fy),
        }
    }
}

/// Which floorplan edge an external pad sits on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PadSide {
    /// Left edge of the floorplan bounding box.
    Left,
    /// Right edge.
    Right,
    /// Bottom edge.
    Bottom,
    /// Top edge.
    Top,
}

/// An external terminal on the floorplan boundary (I/O, supply or bias
/// connection leaving the placement region).
///
/// Pads let single-pin nets contribute meaningfully to wirelength: the pad
/// position scales with the current floorplan bounding box, pulling its
/// block toward the right edge. This models the Table-1 circuits whose net
/// count exceeds half their terminal count (see the crate-level discussion).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pad {
    /// Edge of the floorplan the pad sits on.
    pub side: PadSide,
    /// Position along that edge as a fraction in `[0, 1]`.
    pub frac: f32,
}

impl Pad {
    /// Creates a pad on `side` at fraction `frac` along the edge.
    ///
    /// # Panics
    ///
    /// Panics if `frac` is outside `[0, 1]` or not finite.
    #[must_use]
    pub fn new(side: PadSide, frac: f32) -> Self {
        assert!(
            frac.is_finite() && (0.0..=1.0).contains(&frac),
            "frac out of [0,1]: {frac}"
        );
        Self { side, frac }
    }

    /// Absolute pad location for the floorplan bounding box `bb`.
    #[must_use]
    pub fn locate(&self, bb: &Rect) -> Point {
        let along_x = bb.left() + ((bb.width() as f64) * f64::from(self.frac)).round() as Coord;
        let along_y = bb.bottom() + ((bb.height() as f64) * f64::from(self.frac)).round() as Coord;
        match self.side {
            PadSide::Left => Point::new(bb.left(), along_y),
            PadSide::Right => Point::new(bb.right(), along_y),
            PadSide::Bottom => Point::new(along_x, bb.bottom()),
            PadSide::Top => Point::new(along_x, bb.top()),
        }
    }
}

/// A net connecting block pins (and optionally one external pad).
///
/// The cost calculator measures each net with the half-perimeter wirelength
/// of its pin (and pad) locations, weighted by [`Net::weight`] — critical
/// analog nets (e.g. the differential input pair) typically carry weights
/// above 1.
#[derive(Debug, Clone, PartialEq)]
pub struct Net {
    name: String,
    pins: Vec<Pin>,
    pad: Option<Pad>,
    weight: f64,
}

impl Net {
    /// Creates a net over the given pins with weight 1.
    ///
    /// # Panics
    ///
    /// Panics if `pins` is empty — a net with no block terminal cannot
    /// influence placement.
    #[must_use]
    pub fn new(name: impl Into<String>, pins: Vec<Pin>) -> Self {
        assert!(
            !pins.is_empty(),
            "a net must connect at least one block pin"
        );
        Self {
            name: name.into(),
            pins,
            pad: None,
            weight: 1.0,
        }
    }

    /// Convenience: a net connecting the centers of the given blocks.
    ///
    /// # Panics
    ///
    /// Panics if `blocks` is empty.
    #[must_use]
    pub fn connecting(name: impl Into<String>, blocks: &[BlockId]) -> Self {
        Self::new(name, blocks.iter().map(|&b| Pin::center_of(b)).collect())
    }

    /// Adds an external pad to the net (builder style).
    #[must_use]
    pub fn with_pad(mut self, pad: Pad) -> Self {
        self.pad = Some(pad);
        self
    }

    /// Sets the criticality weight (builder style).
    ///
    /// # Panics
    ///
    /// Panics if `weight` is not finite or is negative.
    #[must_use]
    pub fn with_weight(mut self, weight: f64) -> Self {
        assert!(
            weight.is_finite() && weight >= 0.0,
            "invalid net weight {weight}"
        );
        self.weight = weight;
        self
    }

    /// Net name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The block pins on this net.
    #[must_use]
    pub fn pins(&self) -> &[Pin] {
        &self.pins
    }

    /// The external pad, if any.
    #[must_use]
    pub fn pad(&self) -> Option<&Pad> {
        self.pad.as_ref()
    }

    /// Criticality weight (default 1).
    #[must_use]
    pub fn weight(&self) -> f64 {
        self.weight
    }

    /// Number of block terminals on this net (the unit of Table 1's
    /// `Terminals` column).
    #[must_use]
    pub fn terminal_count(&self) -> usize {
        self.pins.len()
    }
}

impl fmt::Display for Net {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}({} pins", self.name, self.pins.len())?;
        if self.pad.is_some() {
            write!(f, " + pad")?;
        }
        write!(f, ")")
    }
}

mod serde_impls {
    use super::*;
    use serde::{Deserialize, Error, Map, Serialize, Value};

    // Hand-written so the [0, 1] fraction invariant is re-validated.
    impl Serialize for PinOffset {
        fn to_value(&self) -> Value {
            let mut map = Map::new();
            map.insert("fx", self.fx.to_value());
            map.insert("fy", self.fy.to_value());
            Value::Object(map)
        }
    }

    impl Deserialize for PinOffset {
        fn from_value(value: &Value) -> Result<Self, Error> {
            let field = |name: &str| {
                value
                    .get(name)
                    .ok_or_else(|| Error::custom(format!("missing field `{name}` in PinOffset")))
                    .and_then(f32::from_value)
            };
            let (fx, fy) = (field("fx")?, field("fy")?);
            for f in [fx, fy] {
                if !f.is_finite() || !(0.0..=1.0).contains(&f) {
                    return Err(Error::custom(format!("pin fraction out of [0,1]: {f}")));
                }
            }
            Ok(PinOffset { fx, fy })
        }
    }

    impl Serialize for Pad {
        fn to_value(&self) -> Value {
            let mut map = Map::new();
            map.insert("side", self.side.to_value());
            map.insert("frac", self.frac.to_value());
            Value::Object(map)
        }
    }

    impl Deserialize for Pad {
        fn from_value(value: &Value) -> Result<Self, Error> {
            let field = |name: &str| {
                value
                    .get(name)
                    .ok_or_else(|| Error::custom(format!("missing field `{name}` in Pad")))
            };
            let side = PadSide::from_value(field("side")?)?;
            let frac = f32::from_value(field("frac")?)?;
            if !frac.is_finite() || !(0.0..=1.0).contains(&frac) {
                return Err(Error::custom(format!("pad fraction out of [0,1]: {frac}")));
            }
            Ok(Pad { side, frac })
        }
    }

    impl Serialize for Net {
        fn to_value(&self) -> Value {
            let mut map = Map::new();
            map.insert("name", self.name.to_value());
            map.insert("pins", self.pins.to_value());
            map.insert("pad", self.pad.to_value());
            map.insert("weight", self.weight.to_value());
            Value::Object(map)
        }
    }

    // Hand-written so the non-empty-pins and weight invariants are
    // re-validated on load.
    impl Deserialize for Net {
        fn from_value(value: &Value) -> Result<Self, Error> {
            let field = |name: &str| {
                value
                    .get(name)
                    .ok_or_else(|| Error::custom(format!("missing field `{name}` in Net")))
            };
            let name = String::from_value(field("name")?)?;
            let pins = Vec::<Pin>::from_value(field("pins")?)?;
            let pad = Option::<Pad>::from_value(field("pad")?)?;
            let weight = f64::from_value(field("weight")?)?;
            if pins.is_empty() {
                return Err(Error::custom(format!(
                    "net `{name}` must connect at least one block pin"
                )));
            }
            if !weight.is_finite() || weight < 0.0 {
                return Err(Error::custom(format!(
                    "net `{name}`: invalid weight {weight}"
                )));
            }
            Ok(Net {
                name,
                pins,
                pad,
                weight,
            })
        }
    }
}

serde::impl_serde_struct!(Pin { block, offset });

serde::impl_serde_unit_enum!(PadSide {
    Left,
    Right,
    Bottom,
    Top,
});

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pin_offset_locates_by_fraction() {
        let r = Rect::from_xywh(10, 20, 100, 50);
        assert_eq!(PinOffset::new(0.0, 0.0).locate(&r), Point::new(10, 20));
        assert_eq!(PinOffset::new(1.0, 1.0).locate(&r), Point::new(110, 70));
        assert_eq!(PinOffset::center().locate(&r), Point::new(60, 45));
    }

    #[test]
    #[should_panic(expected = "out of [0,1]")]
    fn pin_offset_rejects_out_of_range() {
        let _ = PinOffset::new(1.5, 0.0);
    }

    #[test]
    fn pad_locations_per_side() {
        let bb = Rect::from_xywh(0, 0, 100, 40);
        assert_eq!(Pad::new(PadSide::Left, 0.5).locate(&bb), Point::new(0, 20));
        assert_eq!(
            Pad::new(PadSide::Right, 0.0).locate(&bb),
            Point::new(100, 0)
        );
        assert_eq!(
            Pad::new(PadSide::Bottom, 1.0).locate(&bb),
            Point::new(100, 0)
        );
        assert_eq!(Pad::new(PadSide::Top, 0.25).locate(&bb), Point::new(25, 40));
    }

    #[test]
    fn net_builder_chain() {
        let net = Net::connecting("vin", &[BlockId(0), BlockId(1)])
            .with_weight(2.5)
            .with_pad(Pad::new(PadSide::Left, 0.5));
        assert_eq!(net.terminal_count(), 2);
        assert_eq!(net.weight(), 2.5);
        assert!(net.pad().is_some());
        assert_eq!(format!("{net}"), "vin(2 pins + pad)");
    }

    #[test]
    #[should_panic(expected = "at least one block pin")]
    fn empty_net_rejected() {
        let _ = Net::new("x", vec![]);
    }

    #[test]
    #[should_panic(expected = "invalid net weight")]
    fn negative_weight_rejected() {
        let _ = Net::connecting("x", &[BlockId(0)]).with_weight(-1.0);
    }

    #[test]
    fn default_pin_offset_is_center() {
        assert_eq!(PinOffset::default(), PinOffset::center());
    }
}
