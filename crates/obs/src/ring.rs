//! The bounded ring behind the flight recorder: drop-oldest, except that
//! pinned items are evicted only when nothing else is left.

use crate::DEFAULT_RING_CAP;
use std::collections::VecDeque;

/// A buffer that keeps the most recent [`DEFAULT_RING_CAP`] items. When
/// full it evicts the oldest item that is not pinned, or the oldest item
/// of all if every one is pinned, so a few rare pinned items outlive a
/// flood of ordinary ones. Retained items stay in push order.
#[derive(Debug)]
pub(crate) struct Ring<T> {
    buf: VecDeque<T>,
    pinned: fn(&T) -> bool,
}

impl<T: Clone> Ring<T> {
    /// An empty ring whose items are pinned where `pinned` says so
    /// (const, so it can back a `static Mutex`).
    pub(crate) const fn new(pinned: fn(&T) -> bool) -> Self {
        Ring {
            buf: VecDeque::new(),
            pinned,
        }
    }

    /// Pushes one item; returns whether an older item was evicted to make
    /// room.
    pub(crate) fn push(&mut self, item: T) -> bool {
        let full = self.buf.len() >= DEFAULT_RING_CAP;
        if full {
            let victim = self.buf.iter().position(|x| !(self.pinned)(x));
            self.buf.remove(victim.unwrap_or(0));
        }
        self.buf.push_back(item);
        full
    }

    /// The ring's contents in push order, oldest first.
    pub(crate) fn in_order(&self) -> Vec<T> {
        self.buf.iter().cloned().collect()
    }

    /// Drops every retained item (drop counters are the caller's concern;
    /// a clear is a reset, not an eviction).
    pub(crate) fn clear(&mut self) {
        self.buf.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unpinned(_: &usize) -> bool {
        false
    }

    fn pin_multiples_of_100(x: &usize) -> bool {
        x.is_multiple_of(100)
    }

    #[test]
    fn fills_then_overwrites_oldest() {
        let mut r: Ring<usize> = Ring::new(unpinned);
        for i in 0..=DEFAULT_RING_CAP {
            assert_eq!(r.push(i), i == DEFAULT_RING_CAP);
        }
        assert_eq!(r.in_order(), (1..=DEFAULT_RING_CAP).collect::<Vec<_>>());
    }

    #[test]
    fn pinned_items_outlive_a_flood_and_keep_their_order() {
        let mut r: Ring<usize> = Ring::new(pin_multiples_of_100);
        let total = 3 * DEFAULT_RING_CAP;
        for i in 0..total {
            r.push(i);
        }
        let kept = r.in_order();
        assert_eq!(kept.len(), DEFAULT_RING_CAP);
        assert!(kept.windows(2).all(|w| w[0] < w[1]));
        // Every pinned item survives; the rest of the ring is the newest
        // unpinned items.
        let pinned: Vec<usize> = (0..total).filter(pin_multiples_of_100).collect();
        let unpinned: Vec<usize> = (0..total).filter(|x| !pin_multiples_of_100(x)).collect();
        let newest = &unpinned[unpinned.len() - (DEFAULT_RING_CAP - pinned.len())..];
        let (kept_pinned, kept_unpinned): (Vec<usize>, Vec<usize>) =
            kept.into_iter().partition(pin_multiples_of_100);
        assert_eq!(kept_pinned, pinned);
        assert_eq!(kept_unpinned, newest);
    }

    #[test]
    fn an_all_pinned_ring_drops_its_oldest() {
        let mut r: Ring<usize> = Ring::new(|_| true);
        for i in 0..=DEFAULT_RING_CAP {
            assert_eq!(r.push(i), i == DEFAULT_RING_CAP);
        }
        assert_eq!(r.in_order(), (1..=DEFAULT_RING_CAP).collect::<Vec<_>>());
    }

    #[test]
    fn clear_resets() {
        let mut r: Ring<usize> = Ring::new(unpinned);
        for i in 0..DEFAULT_RING_CAP + 2 {
            r.push(i);
        }
        r.clear();
        assert!(r.in_order().is_empty());
        r.push(9);
        assert_eq!(r.in_order(), vec![9]);
    }
}
