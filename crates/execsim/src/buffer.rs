//! Store buffers — the hardware mechanism behind TSO and PSO.

use progmodel::Location;
use rand::Rng;
use std::collections::VecDeque;

/// A core-private store buffer.
///
/// Stores enter at the tail and drain to memory later, letting younger loads
/// complete first — exactly the ST→LD relaxation of TSO. Draining policy
/// distinguishes the models:
///
/// * **FIFO** (TSO): the oldest store drains first, so remote cores observe
///   stores in program order.
/// * **Per-location FIFO** (PSO): any location's oldest store may drain, so
///   stores to distinct locations reorder (the extra ST→ST relaxation).
///
/// Loads must *forward*: a load to a buffered location sees the youngest
/// buffered value, preserving single-thread semantics.
///
/// # Example
///
/// ```
/// use execsim::StoreBuffer;
/// use progmodel::Location;
///
/// let mut buf = StoreBuffer::new();
/// buf.push(Location::SHARED, 1);
/// buf.push(Location::SHARED, 2);
/// assert_eq!(buf.forward(Location::SHARED), Some(2));
/// assert_eq!(buf.drain_fifo(), Some((Location::SHARED, 1)));
/// ```
#[derive(Debug, Clone, Default)]
pub struct StoreBuffer {
    entries: VecDeque<(Location, i64)>,
}

impl StoreBuffer {
    /// An empty buffer.
    #[must_use]
    pub fn new() -> StoreBuffer {
        StoreBuffer::default()
    }

    /// Enqueues a store.
    pub fn push(&mut self, loc: Location, value: i64) {
        self.entries.push_back((loc, value));
    }

    /// The youngest buffered value for `loc`, if any (store-to-load
    /// forwarding).
    #[must_use]
    pub fn forward(&self, loc: Location) -> Option<i64> {
        self.entries
            .iter()
            .rev()
            .find(|&&(l, _)| l == loc)
            .map(|&(_, v)| v)
    }

    /// Drains the oldest entry (TSO policy).
    pub fn drain_fifo(&mut self) -> Option<(Location, i64)> {
        self.entries.pop_front()
    }

    /// Drains the oldest entry of a uniformly random *location* (PSO
    /// policy): per-location order is preserved, cross-location order is
    /// not.
    pub fn drain_random_location<R: Rng + ?Sized>(
        &mut self,
        rng: &mut R,
    ) -> Option<(Location, i64)> {
        if self.entries.is_empty() {
            return None;
        }
        // Pick one of the distinct locations present, in order of their
        // oldest entries, and pop that oldest entry.
        let oldest = |&i: &usize| {
            let loc = self.entries[i].0;
            !self.entries.iter().take(i).any(|&(l, _)| l == loc)
        };
        let distinct = (0..self.entries.len()).filter(oldest).count();
        let chosen = rng.gen_range(0..distinct);
        let idx = (0..self.entries.len())
            .filter(oldest)
            .nth(chosen)
            .expect("chosen location present");
        self.entries.remove(idx)
    }

    /// Empties the buffer, keeping its allocation.
    pub(crate) fn clear(&mut self) {
        self.entries.clear();
    }

    /// Number of buffered stores.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the buffer is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn loc(i: usize) -> Location {
        Location::filler(i)
    }

    #[test]
    fn forwarding_returns_youngest() {
        let mut b = StoreBuffer::new();
        assert_eq!(b.forward(loc(0)), None);
        b.push(loc(0), 1);
        b.push(loc(1), 5);
        b.push(loc(0), 2);
        assert_eq!(b.forward(loc(0)), Some(2));
        assert_eq!(b.forward(loc(1)), Some(5));
        assert_eq!(b.forward(loc(2)), None);
    }

    #[test]
    fn fifo_drain_preserves_program_order() {
        let mut b = StoreBuffer::new();
        b.push(loc(0), 1);
        b.push(loc(1), 2);
        b.push(loc(0), 3);
        assert_eq!(b.drain_fifo(), Some((loc(0), 1)));
        assert_eq!(b.drain_fifo(), Some((loc(1), 2)));
        assert_eq!(b.drain_fifo(), Some((loc(0), 3)));
        assert_eq!(b.drain_fifo(), None);
    }

    #[test]
    fn pso_drain_preserves_per_location_order() {
        let mut rng = SmallRng::seed_from_u64(1);
        for _ in 0..200 {
            let mut b = StoreBuffer::new();
            b.push(loc(0), 1);
            b.push(loc(0), 2);
            b.push(loc(1), 10);
            let mut seen0 = Vec::new();
            while let Some((l, v)) = b.drain_random_location(&mut rng) {
                if l == loc(0) {
                    seen0.push(v);
                }
            }
            assert_eq!(seen0, [1, 2], "per-location order violated");
        }
    }

    #[test]
    fn pso_drain_reorders_across_locations_sometimes() {
        let mut rng = SmallRng::seed_from_u64(2);
        let mut reordered = false;
        for _ in 0..200 {
            let mut b = StoreBuffer::new();
            b.push(loc(0), 1);
            b.push(loc(1), 2);
            if b.drain_random_location(&mut rng) == Some((loc(1), 2)) {
                reordered = true;
                break;
            }
        }
        assert!(reordered, "PSO drain never reordered distinct locations");
    }

    #[test]
    fn len_tracks_entries() {
        let mut b = StoreBuffer::new();
        assert!(b.is_empty());
        b.push(loc(0), 1);
        assert_eq!(b.len(), 1);
        let _ = b.drain_fifo();
        assert!(b.is_empty());
        assert_eq!(b.drain_random_location(&mut SmallRng::seed_from_u64(0)), None);
    }
}
