//! Pinhole camera with orbit generation for image databases.
//!
//! The paper renders an image database of 50 images per visualization
//! cycle "generated from different camera positions around the data set";
//! [`Camera::orbit`] produces exactly that set of positions.

use crate::bounds::Aabb;
use crate::vec3::Vec3;

/// A ray `origin + t * direction` with `direction` normalized.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Ray {
    pub origin: Vec3,
    pub direction: Vec3,
}

impl Ray {
    pub fn new(origin: Vec3, direction: Vec3) -> Self {
        Ray {
            origin,
            direction: direction.normalized(),
        }
    }

    /// Point at parameter `t`.
    #[inline]
    pub fn at(&self, t: f64) -> Vec3 {
        self.origin + self.direction * t
    }

    /// Component-wise reciprocal of the direction for slab tests.
    #[inline]
    pub fn inv_direction(&self) -> Vec3 {
        Vec3::new(
            1.0 / self.direction.x,
            1.0 / self.direction.y,
            1.0 / self.direction.z,
        )
    }
}

/// A [`Camera`] aimed at an image of a given size: its basis and the
/// half extents of the image plane, which every pixel's ray shares.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct View {
    position: Vec3,
    right: Vec3,
    up: Vec3,
    forward: Vec3,
    half_w: f64,
    half_h: f64,
    width: f64,
    height: f64,
}

impl View {
    /// The primary ray through the center of pixel `(x, y)`, y up.
    #[inline]
    pub fn ray(&self, x: usize, y: usize) -> Ray {
        let u = ((x as f64 + 0.5) / self.width) * 2.0 - 1.0;
        let v = ((y as f64 + 0.5) / self.height) * 2.0 - 1.0;
        Ray::new(
            self.position,
            self.forward + self.right * (u * self.half_w) + self.up * (v * self.half_h),
        )
    }
}

/// Pinhole camera.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Camera {
    pub position: Vec3,
    pub(crate) look_at: Vec3,
    pub(crate) up: Vec3,
    /// Vertical field of view in degrees.
    pub(crate) fov_y_degrees: f64,
}

impl Camera {
    pub fn new(position: Vec3, look_at: Vec3, up: Vec3, fov_y_degrees: f64) -> Self {
        assert!(
            fov_y_degrees > 0.0 && fov_y_degrees < 180.0,
            "fov must be in (0, 180), got {fov_y_degrees}"
        );
        Camera {
            position,
            look_at,
            up,
            fov_y_degrees,
        }
    }

    /// A camera looking at the center of `bounds` from a distance that
    /// frames the whole box (the default view used by the renderers).
    pub fn framing(bounds: &Aabb) -> Self {
        let center = bounds.center();
        let dist = bounds.diagonal().max(1e-9) * 1.4;
        Camera::new(
            center + Vec3::new(0.4, 0.3, 1.0).normalized() * dist,
            center,
            Vec3::Y,
            45.0,
        )
    }

    /// Orthonormal camera basis `(right, true_up, forward)`.
    pub(crate) fn basis(&self) -> (Vec3, Vec3, Vec3) {
        let forward = (self.look_at - self.position).normalized();
        let mut right = forward.cross(self.up).normalized();
        if right == Vec3::ZERO {
            // `up` was parallel to the view direction; pick any right.
            right = forward.cross(Vec3::X).normalized();
            if right == Vec3::ZERO {
                right = forward.cross(Vec3::Y).normalized();
            }
        }
        let true_up = right.cross(forward);
        (right, true_up, forward)
    }

    /// Everything about a `width × height` image that does not depend
    /// on the pixel, resolved once.
    pub fn view(&self, width: usize, height: usize) -> View {
        let (right, up, forward) = self.basis();
        let aspect = width as f64 / height as f64;
        let half_h = (self.fov_y_degrees.to_radians() * 0.5).tan();
        View {
            position: self.position,
            right,
            up,
            forward,
            half_w: half_h * aspect,
            half_h,
            width: width as f64,
            height: height as f64,
        }
    }

    /// `count` cameras orbiting the center of `bounds` in the equatorial
    /// plane, all framing the box — the paper's 50-position image
    /// database.
    pub fn orbit(bounds: &Aabb, count: usize) -> Vec<Camera> {
        assert!(count > 0, "orbit needs at least one camera");
        let center = bounds.center();
        let dist = bounds.diagonal().max(1e-9) * 1.4;
        (0..count)
            .map(|i| {
                let theta = i as f64 / count as f64 * std::f64::consts::TAU;
                // Slight elevation so the top of the volume is visible.
                let dir = Vec3::new(theta.cos(), 0.35, theta.sin()).normalized();
                Camera::new(center + dir * dist, center, Vec3::Y, 45.0)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ray_direction_normalized() {
        let r = Ray::new(Vec3::ZERO, Vec3::new(3.0, 4.0, 0.0));
        assert!((r.direction.length() - 1.0).abs() < 1e-12);
        assert!((r.at(5.0) - Vec3::new(3.0, 4.0, 0.0)).length() < 1e-12);
    }

    #[test]
    fn basis_is_orthonormal() {
        let c = Camera::new(Vec3::new(3.0, 2.0, 5.0), Vec3::ZERO, Vec3::Y, 45.0);
        let (r, u, f) = c.basis();
        for v in [r, u, f] {
            assert!((v.length() - 1.0).abs() < 1e-12);
        }
        assert!(r.dot(u).abs() < 1e-12);
        assert!(u.dot(f).abs() < 1e-12);
        assert!(f.dot(r).abs() < 1e-12);
    }

    #[test]
    fn degenerate_up_recovers() {
        let c = Camera::new(Vec3::new(0.0, 5.0, 0.0), Vec3::ZERO, Vec3::Y, 45.0);
        let (r, u, f) = c.basis();
        assert!((r.length() - 1.0).abs() < 1e-9);
        assert!((u.length() - 1.0).abs() < 1e-9);
        assert!((f - Vec3::new(0.0, -1.0, 0.0)).length() < 1e-12);
    }

    #[test]
    fn center_view_ray_points_forward() {
        let c = Camera::new(Vec3::new(0.0, 0.0, 5.0), Vec3::ZERO, Vec3::Y, 60.0);
        // With an even number of pixels there is no exact center pixel, so
        // check the mean of the two middle pixels is forward.
        let r1 = c.view(8, 8).ray(3, 3).direction;
        let r2 = c.view(8, 8).ray(4, 4).direction;
        let mean = (r1 + r2).normalized();
        assert!((mean - Vec3::new(0.0, 0.0, -1.0)).length() < 1e-6);
    }

    #[test]
    fn corner_rays_diverge_symmetrically() {
        let c = Camera::new(Vec3::new(0.0, 0.0, 5.0), Vec3::ZERO, Vec3::Y, 60.0);
        let bl = c.view(64, 64).ray(0, 0).direction;
        let tr = c.view(64, 64).ray(63, 63).direction;
        assert!((bl.x + tr.x).abs() < 1e-12);
        assert!((bl.y + tr.y).abs() < 1e-12);
    }

    #[test]
    fn orbit_count_and_framing() {
        let b = Aabb::new(Vec3::ZERO, Vec3::ONE);
        let cams = Camera::orbit(&b, 50);
        assert_eq!(cams.len(), 50);
        let center = b.center();
        let d0 = cams[0].position.distance(center);
        for c in &cams {
            assert!((c.position.distance(center) - d0).abs() < 1e-9);
            assert_eq!(c.look_at, center);
        }
        // All positions distinct.
        for i in 1..cams.len() {
            assert!(cams[i].position.distance(cams[i - 1].position) > 1e-6);
        }
    }

    #[test]
    fn framing_camera_sees_bounds() {
        let b = Aabb::new(Vec3::ZERO, Vec3::ONE);
        let c = Camera::framing(&b);
        let (_, _, f) = c.basis();
        // Forward must point toward the box center.
        let to_center = (b.center() - c.position).normalized();
        assert!(f.dot(to_center) > 0.999);
    }
}
