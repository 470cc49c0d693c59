//! Axis-aligned bounding boxes.

use crate::vec3::Vec3;

/// An axis-aligned bounding box in 3-D.
///
/// The empty box is represented with `min > max` (see [`Aabb::empty`]) so
/// that growing an empty box by a point yields the degenerate box at that
/// point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Aabb {
    pub min: Vec3,
    pub max: Vec3,
}

impl Aabb {
    /// The canonical empty box: `min = +inf`, `max = -inf`.
    pub fn empty() -> Self {
        Aabb {
            min: Vec3::splat(f64::INFINITY),
            max: Vec3::splat(f64::NEG_INFINITY),
        }
    }

    pub fn new(min: Vec3, max: Vec3) -> Self {
        Aabb { min, max }
    }

    /// Box covering an iterator of points; empty if the iterator is.
    pub fn from_points<I: IntoIterator<Item = Vec3>>(pts: I) -> Self {
        let mut b = Aabb::empty();
        for p in pts {
            b.grow(p);
        }
        b
    }

    /// True when no point has been added.
    pub(crate) fn is_empty(&self) -> bool {
        self.min.x > self.max.x || self.min.y > self.max.y || self.min.z > self.max.z
    }

    /// Expand to include `p`.
    pub fn grow(&mut self, p: Vec3) {
        self.min = self.min.min(p);
        self.max = self.max.max(p);
    }

    /// Expand to include all of `o`.
    pub fn union(&mut self, o: &Aabb) {
        self.min = self.min.min(o.min);
        self.max = self.max.max(o.max);
    }

    /// `max - min`; zero vector for empty boxes.
    pub fn extent(&self) -> Vec3 {
        if self.is_empty() {
            Vec3::ZERO
        } else {
            self.max - self.min
        }
    }

    /// Geometric center; `ZERO` for empty boxes.
    pub fn center(&self) -> Vec3 {
        if self.is_empty() {
            Vec3::ZERO
        } else {
            (self.min + self.max) * 0.5
        }
    }

    /// Length of the space diagonal.
    pub fn diagonal(&self) -> f64 {
        self.extent().length()
    }

    /// True when `p` lies inside or on the boundary.
    pub fn contains(&self, p: Vec3) -> bool {
        p.x >= self.min.x
            && p.x <= self.max.x
            && p.y >= self.min.y
            && p.y <= self.max.y
            && p.z >= self.min.z
            && p.z <= self.max.z
    }

    /// Index (0, 1, 2) of the longest axis.
    pub fn longest_axis(&self) -> usize {
        let e = self.extent();
        if e.x >= e.y && e.x >= e.z {
            0
        } else if e.y >= e.z {
            1
        } else {
            2
        }
    }

    /// Slab test: returns `Some((t_near, t_far))` when the ray
    /// `origin + t * dir` hits the box with `t_far >= t_near.max(t_min)`.
    ///
    /// `inv_dir` must be the component-wise reciprocal of the direction;
    /// infinities from zero components are handled by IEEE semantics.
    ///
    /// One miss test after the three axes: `t0` only rises and `t1` only
    /// falls, so once `t0 > t1` it stays so, and a test per axis would
    /// return `None` for exactly the same rays.
    #[inline]
    pub fn intersect_ray(
        &self,
        origin: Vec3,
        inv_dir: Vec3,
        t_min: f64,
        t_max: f64,
    ) -> Option<(f64, f64)> {
        let mut t0 = t_min;
        let mut t1 = t_max;
        for axis in 0..3 {
            let inv = inv_dir[axis];
            let mut near = (self.min[axis] - origin[axis]) * inv;
            let mut far = (self.max[axis] - origin[axis]) * inv;
            if near > far {
                std::mem::swap(&mut near, &mut far);
            }
            // NaNs (0 * inf) fall out of the comparisons conservatively.
            if near > t0 {
                t0 = near;
            }
            if far < t1 {
                t1 = far;
            }
        }
        if t0 > t1 {
            return None;
        }
        Some((t0, t1))
    }
}

impl Default for Aabb {
    fn default() -> Self {
        Aabb::empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_box_properties() {
        let b = Aabb::empty();
        assert!(b.is_empty());
        assert_eq!(b.extent(), Vec3::ZERO);
        assert_eq!(b.center(), Vec3::ZERO);
    }

    #[test]
    fn grow_from_empty() {
        let mut b = Aabb::empty();
        b.grow(Vec3::new(1.0, 2.0, 3.0));
        assert!(!b.is_empty());
        assert_eq!(b.min, b.max);
        b.grow(Vec3::new(-1.0, 4.0, 0.0));
        assert_eq!(b.min, Vec3::new(-1.0, 2.0, 0.0));
        assert_eq!(b.max, Vec3::new(1.0, 4.0, 3.0));
    }

    #[test]
    fn union_covers_both() {
        let mut u = Aabb::new(Vec3::ZERO, Vec3::ONE);
        u.union(&Aabb::new(Vec3::splat(2.0), Vec3::splat(3.0)));
        assert!(u.contains(Vec3::splat(0.5)));
        assert!(u.contains(Vec3::splat(2.5)));
    }

    #[test]
    fn contains_boundary() {
        let b = Aabb::new(Vec3::ZERO, Vec3::ONE);
        assert!(b.contains(Vec3::ZERO));
        assert!(b.contains(Vec3::ONE));
        assert!(b.contains(Vec3::splat(0.5)));
        assert!(!b.contains(Vec3::new(1.0001, 0.5, 0.5)));
    }

    #[test]
    fn longest_axis_selection() {
        assert_eq!(
            Aabb::new(Vec3::ZERO, Vec3::new(3.0, 1.0, 2.0)).longest_axis(),
            0
        );
        assert_eq!(
            Aabb::new(Vec3::ZERO, Vec3::new(1.0, 3.0, 2.0)).longest_axis(),
            1
        );
        assert_eq!(
            Aabb::new(Vec3::ZERO, Vec3::new(1.0, 2.0, 3.0)).longest_axis(),
            2
        );
    }

    #[test]
    fn ray_hits_box_straight_on() {
        let b = Aabb::new(Vec3::ZERO, Vec3::ONE);
        let origin = Vec3::new(-1.0, 0.5, 0.5);
        let dir = Vec3::X;
        let inv = Vec3::new(1.0 / dir.x, f64::INFINITY, f64::INFINITY);
        let (t0, t1) = b.intersect_ray(origin, inv, 0.0, f64::INFINITY).unwrap();
        assert!((t0 - 1.0).abs() < 1e-12);
        assert!((t1 - 2.0).abs() < 1e-12);
    }

    #[test]
    fn ray_misses_box() {
        let b = Aabb::new(Vec3::ZERO, Vec3::ONE);
        let origin = Vec3::new(-1.0, 2.0, 0.5);
        let inv = Vec3::new(1.0, f64::INFINITY, f64::INFINITY);
        assert!(b.intersect_ray(origin, inv, 0.0, f64::INFINITY).is_none());
    }

    #[test]
    fn ray_starting_inside() {
        let b = Aabb::new(Vec3::ZERO, Vec3::ONE);
        let origin = Vec3::splat(0.5);
        let inv = Vec3::new(1.0, f64::INFINITY, f64::INFINITY);
        let (t0, t1) = b.intersect_ray(origin, inv, 0.0, f64::INFINITY).unwrap();
        assert_eq!(t0, 0.0);
        assert!((t1 - 0.5).abs() < 1e-12);
    }
}
