//! The workspace's one seeded random source: xorshift64.
//!
//! Seed placement (particle advection, the conformance reference
//! integrator) and synthetic service traffic all draw from this
//! generator, so a seed names the same sequence in every build of the
//! workspace — no external RNG crate whose algorithm could differ.

/// Seeded xorshift64 generator (never zero-state).
#[derive(Debug, Clone)]
pub struct XorShift(u64);

impl XorShift {
    /// A generator whose state is `seed` itself (zero is remapped to a
    /// fixed odd constant so the state never sticks).
    pub fn new(seed: u64) -> XorShift {
        XorShift(if seed == 0 {
            0x9E37_79B9_7F4A_7C15
        } else {
            seed
        })
    }

    /// A generator for a small user-facing seed (0, 1, 42, ...): the
    /// seed is spread over all 64 state bits first, so neighbouring
    /// seeds give unrelated sequences.
    pub fn from_seed(seed: u64) -> XorShift {
        XorShift(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1)
    }

    /// Next raw 64-bit draw.
    pub(crate) fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }

    /// Uniform draw in `[0, n)` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n.max(1) as u64) as usize
    }

    /// Uniform draw in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform draw in `[a, b)`.
    pub fn range(&mut self, a: f64, b: f64) -> f64 {
        a + self.unit() * (b - a)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_sequence_is_pinned() {
        // Particle seeds depend on these bits: the sequence the stub
        // `rand` gave every build so far, now the only one.
        assert_eq!(XorShift::from_seed(42).next_u64(), 0xd343_7968_948e_9705);
        assert_eq!(XorShift::from_seed(42).range(-2.0, 6.0), 4.601986603029632);
    }

    #[test]
    fn zero_seed_never_sticks() {
        assert_ne!(XorShift::new(0).next_u64(), 0);
        assert_ne!(XorShift::from_seed(0).next_u64(), 0);
    }
}
