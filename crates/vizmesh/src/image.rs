//! RGBA render targets with depth, and PPM/PGM export.

use std::io::{self, Write};
use std::path::Path;

/// An RGBA32F image with a depth channel.
///
/// Pixel `(0, 0)` is the **bottom-left** corner (camera convention);
/// the PPM writer flips rows so files display upright.
#[derive(Debug, Clone, PartialEq)]
pub struct Image {
    width: usize,
    height: usize,
    /// RGBA, row-major from bottom row.
    pixels: Vec<[f32; 4]>,
    /// Camera-space depth per pixel; `f32::INFINITY` where nothing was hit.
    depth: Vec<f32>,
}

impl Image {
    /// Create a transparent-black image.
    pub fn new(width: usize, height: usize) -> Self {
        assert!(width > 0 && height > 0, "image dimensions must be positive");
        Image {
            width,
            height,
            pixels: vec![[0.0; 4]; width * height],
            depth: vec![f32::INFINITY; width * height],
        }
    }

    #[inline]
    pub fn width(&self) -> usize {
        self.width
    }

    #[inline]
    pub fn height(&self) -> usize {
        self.height
    }

    #[inline]
    pub fn num_pixels(&self) -> usize {
        self.width * self.height
    }

    #[inline]
    fn idx(&self, x: usize, y: usize) -> usize {
        debug_assert!(x < self.width && y < self.height);
        y * self.width + x
    }

    #[inline]
    pub fn get(&self, x: usize, y: usize) -> [f32; 4] {
        self.pixels[self.idx(x, y)]
    }

    #[inline]
    pub fn depth_at(&self, x: usize, y: usize) -> f32 {
        self.depth[self.idx(x, y)]
    }

    /// Write `rgba` only when `depth` is closer than the stored depth.
    /// Returns true when the pixel was updated.
    #[inline]
    pub fn set_if_closer(&mut self, x: usize, y: usize, depth: f32, rgba: [f32; 4]) -> bool {
        let i = self.idx(x, y);
        if depth < self.depth[i] {
            self.depth[i] = depth;
            self.pixels[i] = rgba;
            true
        } else {
            false
        }
    }

    /// Fraction of pixels with any opacity — a cheap "did we draw
    /// anything" check used by tests.
    pub fn coverage(&self) -> f64 {
        let hit = self.pixels.iter().filter(|p| p[3] > 0.0).count();
        hit as f64 / self.num_pixels() as f64
    }

    /// Encode as binary PPM (P6). Alpha is composited over `background`.
    pub(crate) fn write_ppm<W: Write>(&self, w: &mut W, background: [f32; 3]) -> io::Result<()> {
        writeln!(w, "P6\n{} {}\n255", self.width, self.height)?;
        let mut buf = Vec::with_capacity(self.num_pixels() * 3);
        for y in (0..self.height).rev() {
            for x in 0..self.width {
                let p = self.get(x, y);
                let a = p[3].clamp(0.0, 1.0);
                for c in 0..3 {
                    let v = p[c] * a + background[c] * (1.0 - a);
                    buf.push((v.clamp(0.0, 1.0) * 255.0).round() as u8);
                }
            }
        }
        w.write_all(&buf)
    }

    /// Write a PPM file (convenience wrapper over `Self::write_ppm`).
    pub fn save_ppm<P: AsRef<Path>>(&self, path: P, background: [f32; 3]) -> io::Result<()> {
        let mut f = io::BufWriter::new(std::fs::File::create(path)?);
        self.write_ppm(&mut f, background)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_image_is_transparent() {
        let img = Image::new(4, 3);
        assert_eq!(img.width(), 4);
        assert_eq!(img.height(), 3);
        assert_eq!(img.coverage(), 0.0);
        assert_eq!(img.depth_at(0, 0), f32::INFINITY);
    }

    #[test]
    #[should_panic]
    fn zero_size_panics() {
        let _ = Image::new(0, 4);
    }

    #[test]
    fn set_get_round_trip() {
        let mut img = Image::new(2, 2);
        img.set_if_closer(1, 0, 0.0, [0.1, 0.2, 0.3, 1.0]);
        assert_eq!(img.get(1, 0), [0.1, 0.2, 0.3, 1.0]);
        assert_eq!(img.get(0, 0), [0.0; 4]);
    }

    #[test]
    fn depth_test_keeps_nearest() {
        let mut img = Image::new(1, 1);
        assert!(img.set_if_closer(0, 0, 5.0, [1.0, 0.0, 0.0, 1.0]));
        assert!(!img.set_if_closer(0, 0, 7.0, [0.0, 1.0, 0.0, 1.0]));
        assert!(img.set_if_closer(0, 0, 2.0, [0.0, 0.0, 1.0, 1.0]));
        assert_eq!(img.get(0, 0), [0.0, 0.0, 1.0, 1.0]);
        assert_eq!(img.depth_at(0, 0), 2.0);
    }

    #[test]
    fn coverage_counts_opaque_pixels() {
        let mut img = Image::new(2, 2);
        img.set_if_closer(0, 0, 0.0, [1.0, 1.0, 1.0, 1.0]);
        img.set_if_closer(1, 1, 0.0, [1.0, 1.0, 1.0, 0.5]);
        assert!((img.coverage() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn ppm_header_and_size() {
        let mut img = Image::new(3, 2);
        img.set_if_closer(0, 1, 0.0, [1.0, 0.0, 0.0, 1.0]);
        let mut out = Vec::new();
        img.write_ppm(&mut out, [0.0, 0.0, 0.0]).unwrap();
        let header = b"P6\n3 2\n255\n";
        assert_eq!(&out[..header.len()], header);
        assert_eq!(out.len(), header.len() + 3 * 2 * 3);
        // Top-left in file = (0, height-1) in image = red.
        assert_eq!(&out[header.len()..header.len() + 3], &[255, 0, 0]);
    }

    #[test]
    fn ppm_background_composite() {
        let img = Image::new(1, 1); // fully transparent
        let mut out = Vec::new();
        img.write_ppm(&mut out, [1.0, 1.0, 1.0]).unwrap();
        let px = &out[out.len() - 3..];
        assert_eq!(px, &[255, 255, 255]);
    }
}
