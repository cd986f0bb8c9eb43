//! The harness's only source of randomness: a splitmix64 stream.
//!
//! Every op stream, file image and program image is drawn from one of
//! these, seeded from `--seed`, so the same seed always produces the
//! same calls into the product.

/// A splitmix64 generator.
#[derive(Clone)]
pub struct Rng(u64);

impl Rng {
    /// A stream for `seed`; `lane` separates the independent streams of
    /// one run (per client, per image) without correlating them.
    pub fn new(seed: u64, lane: u64) -> Rng {
        let mut r = Rng(seed ^ lane.wrapping_mul(0xA076_1D64_78BD_642F));
        r.next();
        r
    }

    /// The next 64 random bits.
    #[inline]
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A value in `0..n` (multiply-shift; the bias is below 2^-32 for
    /// the small `n` used here).
    #[inline]
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next()) * u128::from(n)) >> 64) as u64
    }

    /// Fills `buf` with random bytes.
    pub fn fill(&mut self, buf: &mut [u8]) {
        for chunk in buf.chunks_mut(8) {
            let v = self.next().to_le_bytes();
            chunk.copy_from_slice(&v[..chunk.len()]);
        }
    }
}

/// Folds one value into a running stream fingerprint (`--check` proves
/// with it that two seeds generate different streams).
#[inline]
pub fn fold(fp: u64, v: u64) -> u64 {
    (fp.rotate_left(5) ^ v).wrapping_mul(0x0000_0100_0000_01B3)
}
