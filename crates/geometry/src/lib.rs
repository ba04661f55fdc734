//! 3-D geometry for particle tracing through FinFET memory layouts.
//!
//! The array-level Monte Carlo of the paper (Section 5.1, step 1) generates
//! a random particle with a random direction and position, then finds the
//! struck fins "by a simple 3-D analysis considering the 3-D layout of
//! \[the\] SRAM array and the position of Fins/transistors inside the layout".
//! This crate provides that analysis:
//!
//! * [`Vec3`] / [`Ray`] — minimal 3-D vector algebra (lengths in metres).
//! * [`Aabb`] — axis-aligned boxes with the slab-method ray intersection;
//!   fins, cells and the array bounding volume are all AABBs.
//! * [`sampling`] — isotropic and cosine-law random directions, random
//!   points on boxes and rectangles.
//! * [`trace`] — chord extraction: given a ray and a collection of boxes,
//!   the ordered list of (box index, entry, exit, chord length) crossings,
//!   by linear scan or through a bucketed [`trace::BoxIndex`].
//!
//! # Examples
//!
//! ```
//! use finrad_geometry::{Aabb, Ray, Vec3};
//!
//! let fin = Aabb::new(Vec3::new(0.0, 0.0, 0.0), Vec3::new(8e-9, 20e-9, 30e-9));
//! let ray = Ray::new(Vec3::new(-1e-8, 1e-8, 1.5e-8), Vec3::new(1.0, 0.0, 0.0));
//! let hit = fin.intersect(&ray).expect("ray crosses the fin");
//! assert!((hit.chord_length() - 8e-9).abs() < 1e-15);
//! ```

#![forbid(unsafe_code)]
#![deny(rust_2018_idioms)]
#![warn(missing_docs)]

pub mod sampling;
pub mod trace;

use std::fmt;
use std::ops::{Add, Div, Mul, Neg, Sub};

/// A 3-D vector. Coordinates are metres when used as a position.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct Vec3 {
    /// X component.
    pub x: f64,
    /// Y component.
    pub y: f64,
    /// Z component.
    pub z: f64,
}

impl Vec3 {
    /// The zero vector.
    pub const ZERO: Self = Self {
        x: 0.0,
        y: 0.0,
        z: 0.0,
    };

    /// Creates a vector from components.
    #[inline]
    pub const fn new(x: f64, y: f64, z: f64) -> Self {
        Self { x, y, z }
    }

    /// Dot product.
    #[inline]
    pub fn dot(self, rhs: Self) -> f64 {
        self.x * rhs.x + self.y * rhs.y + self.z * rhs.z
    }

    /// Cross product.
    #[inline]
    pub fn cross(self, rhs: Self) -> Self {
        Self::new(
            self.y * rhs.z - self.z * rhs.y,
            self.z * rhs.x - self.x * rhs.z,
            self.x * rhs.y - self.y * rhs.x,
        )
    }

    /// Euclidean norm.
    #[inline]
    pub fn norm(self) -> f64 {
        self.dot(self).sqrt()
    }

    /// Squared norm, avoiding the square root.
    #[inline]
    pub fn norm_squared(self) -> f64 {
        self.dot(self)
    }

    /// Unit vector in the same direction.
    ///
    /// # Panics
    ///
    /// Panics if the vector has (near-)zero length.
    #[inline]
    pub fn normalized(self) -> Self {
        let n = self.norm();
        assert!(n > 1.0e-300, "cannot normalize a zero-length vector");
        self / n
    }

    /// Component-wise minimum.
    #[inline]
    pub fn min(self, rhs: Self) -> Self {
        Self::new(self.x.min(rhs.x), self.y.min(rhs.y), self.z.min(rhs.z))
    }

    /// Component-wise maximum.
    #[inline]
    pub fn max(self, rhs: Self) -> Self {
        Self::new(self.x.max(rhs.x), self.y.max(rhs.y), self.z.max(rhs.z))
    }

    /// Whether all components are finite.
    #[inline]
    pub fn is_finite(self) -> bool {
        self.x.is_finite() && self.y.is_finite() && self.z.is_finite()
    }
}

impl Add for Vec3 {
    type Output = Self;
    #[inline]
    fn add(self, rhs: Self) -> Self {
        Self::new(self.x + rhs.x, self.y + rhs.y, self.z + rhs.z)
    }
}

impl Sub for Vec3 {
    type Output = Self;
    #[inline]
    fn sub(self, rhs: Self) -> Self {
        Self::new(self.x - rhs.x, self.y - rhs.y, self.z - rhs.z)
    }
}

impl Mul<f64> for Vec3 {
    type Output = Self;
    #[inline]
    fn mul(self, k: f64) -> Self {
        Self::new(self.x * k, self.y * k, self.z * k)
    }
}

impl Mul<Vec3> for f64 {
    type Output = Vec3;
    #[inline]
    fn mul(self, v: Vec3) -> Vec3 {
        v * self
    }
}

impl Div<f64> for Vec3 {
    type Output = Self;
    #[inline]
    fn div(self, k: f64) -> Self {
        Self::new(self.x / k, self.y / k, self.z / k)
    }
}

impl Neg for Vec3 {
    type Output = Self;
    #[inline]
    fn neg(self) -> Self {
        Self::new(-self.x, -self.y, -self.z)
    }
}

impl fmt::Display for Vec3 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}, {}, {})", self.x, self.y, self.z)
    }
}

/// A half-infinite ray: origin plus unit direction.
#[derive(Debug, Clone, Copy, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct Ray {
    origin: Vec3,
    direction: Vec3,
}

impl Ray {
    /// Creates a ray; the direction is normalized.
    ///
    /// # Panics
    ///
    /// Panics if `direction` has (near-)zero length or is non-finite.
    pub fn new(origin: Vec3, direction: Vec3) -> Self {
        assert!(
            origin.is_finite() && direction.is_finite(),
            "non-finite ray"
        );
        Self {
            origin,
            direction: direction.normalized(),
        }
    }

    /// Ray origin.
    #[inline]
    pub fn origin(&self) -> Vec3 {
        self.origin
    }

    /// Unit direction.
    #[inline]
    pub fn direction(&self) -> Vec3 {
        self.direction
    }

    /// Point at parameter `t` (metres along the ray).
    #[inline]
    pub fn at(&self, t: f64) -> Vec3 {
        self.origin + self.direction * t
    }
}

/// Parametric interval over which a ray is inside a box.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RayHit {
    /// Entry parameter (metres along the ray; clamped to ≥ 0).
    pub t_enter: f64,
    /// Exit parameter.
    pub t_exit: f64,
}

impl RayHit {
    /// Length of the chord the ray cuts through the box, in metres.
    #[inline]
    pub fn chord_length(&self) -> f64 {
        (self.t_exit - self.t_enter).max(0.0)
    }
}

/// An axis-aligned bounding box.
///
/// Fins, gates, cells and the array envelope are all axis-aligned in a
/// standard-cell SRAM layout, so AABBs are an exact representation, not an
/// approximation.
#[derive(Debug, Clone, Copy, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct Aabb {
    min: Vec3,
    max: Vec3,
}

impl Aabb {
    /// Creates a box from two opposite corners (in any order).
    ///
    /// # Panics
    ///
    /// Panics if any coordinate is non-finite.
    pub fn new(a: Vec3, b: Vec3) -> Self {
        assert!(a.is_finite() && b.is_finite(), "non-finite box corners");
        Self {
            min: a.min(b),
            max: a.max(b),
        }
    }

    /// Creates a box from a minimum corner and (non-negative) dimensions.
    pub fn from_min_size(min: Vec3, size: Vec3) -> Self {
        assert!(
            size.x >= 0.0 && size.y >= 0.0 && size.z >= 0.0,
            "box dimensions must be non-negative"
        );
        Self::new(min, min + size)
    }

    /// Minimum corner.
    #[inline]
    pub fn min_corner(&self) -> Vec3 {
        self.min
    }

    /// Maximum corner.
    #[inline]
    pub fn max_corner(&self) -> Vec3 {
        self.max
    }

    /// Box center.
    #[inline]
    pub fn center(&self) -> Vec3 {
        (self.min + self.max) * 0.5
    }

    /// Box dimensions.
    #[inline]
    pub fn size(&self) -> Vec3 {
        self.max - self.min
    }

    /// Volume in cubic metres.
    #[inline]
    pub fn volume(&self) -> f64 {
        let s = self.size();
        s.x * s.y * s.z
    }

    /// Whether `p` lies inside or on the boundary.
    #[inline]
    pub fn contains(&self, p: Vec3) -> bool {
        p.x >= self.min.x
            && p.x <= self.max.x
            && p.y >= self.min.y
            && p.y <= self.max.y
            && p.z >= self.min.z
            && p.z <= self.max.z
    }

    /// The smallest box containing both `self` and `other`.
    pub fn union(&self, other: &Aabb) -> Aabb {
        Aabb {
            min: self.min.min(other.min),
            max: self.max.max(other.max),
        }
    }

    /// Translates the box by `offset`.
    pub fn translated(&self, offset: Vec3) -> Aabb {
        Aabb {
            min: self.min + offset,
            max: self.max + offset,
        }
    }

    /// Slab-method ray/box intersection.
    ///
    /// Returns the parametric interval during which the ray is inside the
    /// box, or `None` if it misses. The entry parameter is clamped to zero
    /// so that rays starting inside the box report the chord from the origin
    /// to the exit face.
    pub fn intersect(&self, ray: &Ray) -> Option<RayHit> {
        let o = ray.origin();
        let d = ray.direction();
        let mut t_lo = 0.0f64;
        let mut t_hi = f64::INFINITY;

        for axis in 0..3 {
            let (omin, omax, oo, dd) = match axis {
                0 => (self.min.x, self.max.x, o.x, d.x),
                1 => (self.min.y, self.max.y, o.y, d.y),
                _ => (self.min.z, self.max.z, o.z, d.z),
            };
            if dd.abs() < 1.0e-300 {
                // Ray parallel to this slab: must already be inside it.
                if oo < omin || oo > omax {
                    return None;
                }
            } else {
                let inv = 1.0 / dd;
                let (mut t1, mut t2) = ((omin - oo) * inv, (omax - oo) * inv);
                if t1 > t2 {
                    std::mem::swap(&mut t1, &mut t2);
                }
                t_lo = t_lo.max(t1);
                t_hi = t_hi.min(t2);
                if t_lo > t_hi {
                    return None;
                }
            }
        }
        if t_hi <= 0.0 {
            return None; // Box entirely behind the origin.
        }
        Some(RayHit {
            t_enter: t_lo,
            t_exit: t_hi,
        })
    }
}

impl fmt::Display for Aabb {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{} .. {}]", self.min, self.max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unit_box() -> Aabb {
        Aabb::new(Vec3::ZERO, Vec3::new(1.0, 1.0, 1.0))
    }

    #[test]
    fn vec3_algebra() {
        let a = Vec3::new(1.0, 2.0, 3.0);
        let b = Vec3::new(-1.0, 0.5, 2.0);
        assert_eq!(a + b, Vec3::new(0.0, 2.5, 5.0));
        assert_eq!(a - b, Vec3::new(2.0, 1.5, 1.0));
        assert_eq!(a * 2.0, Vec3::new(2.0, 4.0, 6.0));
        assert_eq!(2.0 * a, a * 2.0);
        assert_eq!(-a, Vec3::new(-1.0, -2.0, -3.0));
        assert!((a.dot(b) - (-1.0f64 + 1.0 + 6.0)).abs() < 1e-12);
    }

    #[test]
    fn cross_product_orthogonality() {
        let a = Vec3::new(1.0, 2.0, 3.0);
        let b = Vec3::new(4.0, -1.0, 0.5);
        let c = a.cross(b);
        assert!(c.dot(a).abs() < 1e-12);
        assert!(c.dot(b).abs() < 1e-12);
        assert_eq!(
            Vec3::new(1.0, 0.0, 0.0).cross(Vec3::new(0.0, 1.0, 0.0)),
            Vec3::new(0.0, 0.0, 1.0)
        );
    }

    #[test]
    fn normalization() {
        let v = Vec3::new(3.0, 4.0, 0.0).normalized();
        assert!((v.norm() - 1.0).abs() < 1e-14);
        assert!((v.x - 0.6).abs() < 1e-14);
    }

    #[test]
    #[should_panic(expected = "zero-length")]
    fn normalize_zero_panics() {
        let _ = Vec3::ZERO.normalized();
    }

    #[test]
    fn axis_aligned_crossing_chord() {
        let hit = unit_box()
            .intersect(&Ray::new(
                Vec3::new(-1.0, 0.5, 0.5),
                Vec3::new(1.0, 0.0, 0.0),
            ))
            .unwrap();
        assert!((hit.t_enter - 1.0).abs() < 1e-14);
        assert!((hit.t_exit - 2.0).abs() < 1e-14);
        assert!((hit.chord_length() - 1.0).abs() < 1e-14);
    }

    #[test]
    fn diagonal_chord_length() {
        // Corner-to-corner diagonal of the unit cube has length sqrt(3).
        let dir = Vec3::new(1.0, 1.0, 1.0);
        let hit = unit_box()
            .intersect(&Ray::new(Vec3::new(-0.5, -0.5, -0.5), dir))
            .unwrap();
        assert!((hit.chord_length() - 3f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn miss_returns_none() {
        assert!(unit_box()
            .intersect(&Ray::new(
                Vec3::new(-1.0, 2.0, 0.5),
                Vec3::new(1.0, 0.0, 0.0)
            ))
            .is_none());
        // Pointing away.
        assert!(unit_box()
            .intersect(&Ray::new(
                Vec3::new(-1.0, 0.5, 0.5),
                Vec3::new(-1.0, 0.0, 0.0)
            ))
            .is_none());
    }

    #[test]
    fn ray_starting_inside_clamps_entry() {
        let hit = unit_box()
            .intersect(&Ray::new(
                Vec3::new(0.25, 0.5, 0.5),
                Vec3::new(1.0, 0.0, 0.0),
            ))
            .unwrap();
        assert_eq!(hit.t_enter, 0.0);
        assert!((hit.chord_length() - 0.75).abs() < 1e-14);
    }

    #[test]
    fn parallel_ray_inside_slab() {
        // Parallel to x slabs at y=0.5,z=0.5: crosses full cube in x.
        let hit = unit_box()
            .intersect(&Ray::new(
                Vec3::new(0.5, 0.5, -3.0),
                Vec3::new(0.0, 0.0, 1.0),
            ))
            .unwrap();
        assert!((hit.chord_length() - 1.0).abs() < 1e-14);
        // Parallel but outside the slab: miss.
        assert!(unit_box()
            .intersect(&Ray::new(
                Vec3::new(1.5, 0.5, -3.0),
                Vec3::new(0.0, 0.0, 1.0)
            ))
            .is_none());
    }

    #[test]
    fn grazing_corner() {
        // Ray along an edge of the box still reports a (degenerate) hit.
        let hit = unit_box().intersect(&Ray::new(
            Vec3::new(0.0, 0.0, -1.0),
            Vec3::new(0.0, 0.0, 1.0),
        ));
        assert!(hit.is_some());
    }

    #[test]
    fn box_constructors_and_queries() {
        let b = Aabb::new(Vec3::new(2.0, 3.0, 4.0), Vec3::new(-1.0, 1.0, 0.0));
        assert_eq!(b.min_corner(), Vec3::new(-1.0, 1.0, 0.0));
        assert_eq!(b.max_corner(), Vec3::new(2.0, 3.0, 4.0));
        assert_eq!(b.size(), Vec3::new(3.0, 2.0, 4.0));
        assert!((b.volume() - 24.0).abs() < 1e-12);
        assert!(b.contains(b.center()));
        assert!(!b.contains(Vec3::new(5.0, 0.0, 0.0)));

        let fs = Aabb::from_min_size(Vec3::ZERO, Vec3::new(1.0, 1.0, 1.0));
        assert_eq!(fs, unit_box());
    }

    #[test]
    fn union_and_translate() {
        let a = unit_box();
        let b = a.translated(Vec3::new(2.0, 0.0, 0.0));
        let u = a.union(&b);
        assert_eq!(u.min_corner(), Vec3::ZERO);
        assert_eq!(u.max_corner(), Vec3::new(3.0, 1.0, 1.0));
    }

    #[test]
    fn nanometer_scale_fin_intersection() {
        // The real use case: an 8 nm x 20 nm x 30 nm fin.
        let fin = Aabb::from_min_size(Vec3::ZERO, Vec3::new(8e-9, 20e-9, 30e-9));
        let ray = Ray::new(Vec3::new(4e-9, 10e-9, 1e-6), Vec3::new(0.0, 0.0, -1.0));
        let hit = fin.intersect(&ray).unwrap();
        assert!((hit.chord_length() - 30e-9).abs() < 1e-18);
    }
}

#[cfg(test)]
mod randomized_tests {
    use super::*;
    use finrad_numerics::rng::{Rng, Xoshiro256pp};

    fn rand_dir(rng: &mut Xoshiro256pp) -> Vec3 {
        loop {
            let v = Vec3::new(
                rng.gen_range(-1.0..=1.0),
                rng.gen_range(-1.0..=1.0),
                rng.gen_range(-1.0..=1.0),
            );
            if v.norm() > 1e-3 {
                return v;
            }
        }
    }

    #[test]
    fn chord_bounded_by_diagonal() {
        let mut rng = Xoshiro256pp::seed_from_u64(0xC0DE);
        let b = Aabb::new(Vec3::new(-1.0, -1.0, -1.0), Vec3::new(1.0, 1.0, 1.0));
        for _ in 0..500 {
            let o = Vec3::new(
                rng.gen_range(-5.0..5.0),
                rng.gen_range(-5.0..5.0),
                rng.gen_range(-5.0..5.0),
            );
            let ray = Ray::new(o, rand_dir(&mut rng));
            if let Some(hit) = b.intersect(&ray) {
                assert!(hit.t_exit >= hit.t_enter);
                assert!(hit.t_enter >= 0.0);
                assert!(hit.chord_length() <= b.size().norm() + 1e-9);
            }
        }
    }

    #[test]
    fn hit_points_lie_on_boundary_or_origin() {
        let mut rng = Xoshiro256pp::seed_from_u64(0xB0A);
        let b = Aabb::new(Vec3::new(-1.0, -1.0, -1.0), Vec3::new(1.0, 1.0, 1.0));
        for _ in 0..500 {
            let o = Vec3::new(
                rng.gen_range(-5.0..-1.5),
                rng.gen_range(-0.9..0.9),
                rng.gen_range(-0.9..0.9),
            );
            let ray = Ray::new(o, rand_dir(&mut rng));
            if let Some(hit) = b.intersect(&ray) {
                let eps = 1e-9;
                let big = Aabb::new(
                    b.min_corner() - Vec3::new(eps, eps, eps),
                    b.max_corner() + Vec3::new(eps, eps, eps),
                );
                assert!(big.contains(ray.at(hit.t_enter)));
                assert!(big.contains(ray.at(hit.t_exit)));
            }
        }
    }

    #[test]
    fn containment_implies_hit() {
        let mut rng = Xoshiro256pp::seed_from_u64(0x517E);
        let b = Aabb::new(Vec3::new(-1.0, -1.0, -1.0), Vec3::new(1.0, 1.0, 1.0));
        for _ in 0..500 {
            let p = Vec3::new(
                rng.gen_range(-0.99..0.99),
                rng.gen_range(-0.99..0.99),
                rng.gen_range(-0.99..0.99),
            );
            let ray = Ray::new(p, rand_dir(&mut rng));
            assert!(b.intersect(&ray).is_some());
        }
    }

    #[test]
    fn normalized_ray_direction() {
        let mut rng = Xoshiro256pp::seed_from_u64(0xD1);
        for _ in 0..500 {
            let ray = Ray::new(Vec3::ZERO, rand_dir(&mut rng));
            assert!((ray.direction().norm() - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn union_contains_operands() {
        let mut rng = Xoshiro256pp::seed_from_u64(0x0410);
        for _ in 0..500 {
            let (ax, ay, az) = (
                rng.gen_range(-3.0..3.0),
                rng.gen_range(-3.0..3.0),
                rng.gen_range(-3.0..3.0),
            );
            let (bx, by, bz) = (
                rng.gen_range(-3.0..3.0),
                rng.gen_range(-3.0..3.0),
                rng.gen_range(-3.0..3.0),
            );
            let a = Aabb::new(
                Vec3::ZERO,
                Vec3::new(ax.abs() + 0.1, ay.abs() + 0.1, az.abs() + 0.1),
            );
            let b = Aabb::new(
                Vec3::new(bx, by, bz),
                Vec3::new(bx + 1.0, by + 1.0, bz + 1.0),
            );
            let u = a.union(&b);
            assert!(u.contains(a.min_corner()) && u.contains(a.max_corner()));
            assert!(u.contains(b.min_corner()) && u.contains(b.max_corner()));
        }
    }
}
