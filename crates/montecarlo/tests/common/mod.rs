//! The accumulator the integration tests fold raw RNG streams into.

use montecarlo::Accumulator;

/// An order-sensitive polynomial hash over every raw `u64` a trial kernel
/// draws: any lost, duplicated, or reordered trial changes the value, and
/// the (non-commutative) merge pins the chunk merge order too.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Checksum(pub u64);

impl Accumulator for Checksum {
    type Item = u64;

    fn record(&mut self, x: u64) {
        self.0 = self.0.wrapping_mul(0x100_0003).wrapping_add(x);
    }

    fn merge(&mut self, later: &Checksum) {
        self.0 = self.0.wrapping_mul(0x9E37_79B9).wrapping_add(later.0);
    }
}
