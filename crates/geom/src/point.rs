//! Integer points on the floorplan surface.

use crate::Coord;
use std::fmt;
use std::ops::{Add, Sub};

/// A point on the integer floorplan grid.
///
/// Used for block origins (lower-left corners) and pin locations.
///
/// # Example
///
/// ```
/// use mps_geom::Point;
/// let a = Point::new(2, 3);
/// let b = Point::new(5, 7);
/// assert_eq!(a + b, Point::new(7, 10));
/// assert_eq!(b - a, Point::new(3, 4));
/// assert_eq!(a.manhattan_distance(&b), 7);
/// ```
#[derive(Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Point {
    /// Horizontal coordinate.
    pub x: Coord,
    /// Vertical coordinate.
    pub y: Coord,
}

impl Point {
    /// Creates a point at `(x, y)`.
    #[must_use]
    pub fn new(x: Coord, y: Coord) -> Self {
        Self { x, y }
    }

    /// The origin `(0, 0)`.
    #[must_use]
    pub fn origin() -> Self {
        Self { x: 0, y: 0 }
    }

    /// Manhattan (L1) distance to `other`; the metric underlying
    /// half-perimeter wirelength.
    #[must_use]
    pub fn manhattan_distance(&self, other: &Point) -> u64 {
        self.x.abs_diff(other.x) + self.y.abs_diff(other.y)
    }
}

impl Add for Point {
    type Output = Point;
    fn add(self, rhs: Point) -> Point {
        Point::new(self.x + rhs.x, self.y + rhs.y)
    }
}

impl Sub for Point {
    type Output = Point;
    fn sub(self, rhs: Point) -> Point {
        Point::new(self.x - rhs.x, self.y - rhs.y)
    }
}

impl fmt::Debug for Point {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}, {})", self.x, self.y)
    }
}

impl fmt::Display for Point {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}, {})", self.x, self.y)
    }
}

impl From<(Coord, Coord)> for Point {
    fn from((x, y): (Coord, Coord)) -> Self {
        Point::new(x, y)
    }
}

serde::impl_serde_struct!(Point { x, y });

mod binfmt_impls {
    use super::*;
    use binfmt::{Decode, Decoder, Encode, Encoder, Error};
    use std::io::{Read, Write};

    impl Encode for Point {
        fn encode<W: Write>(&self, enc: &mut Encoder<W>) -> std::io::Result<()> {
            enc.zigzag(self.x)?;
            enc.zigzag(self.y)
        }
    }

    impl Decode for Point {
        fn decode<R: Read>(dec: &mut Decoder<R>) -> Result<Self, Error> {
            Ok(Point::new(dec.zigzag()?, dec.zigzag()?))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic() {
        let a = Point::new(1, 2);
        let b = Point::new(10, 20);
        assert_eq!(a + b, Point::new(11, 22));
        assert_eq!(b - a, Point::new(9, 18));
    }

    #[test]
    fn manhattan_distance_is_symmetric() {
        let a = Point::new(-3, 4);
        let b = Point::new(2, -1);
        assert_eq!(a.manhattan_distance(&b), 10);
        assert_eq!(b.manhattan_distance(&a), 10);
        assert_eq!(a.manhattan_distance(&a), 0);
    }

    #[test]
    fn default_is_origin() {
        assert_eq!(Point::default(), Point::origin());
    }

    #[test]
    fn from_tuple() {
        let p: Point = (3, 4).into();
        assert_eq!(p, Point::new(3, 4));
    }
}
