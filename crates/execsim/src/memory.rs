//! Two-phase-commit shared memory.

use progmodel::Location;

/// Word-addressed shared memory with the paper's cycle semantics: loads
/// observe the state at the *beginning* of a cycle; stores staged during the
/// cycle commit at its *end* ("instructions instantaneously read the current
/// state of the system at the beginning of the time step, and
/// instantaneously commit their changes at the end", §3.2).
///
/// # Example
///
/// ```
/// use execsim::SharedMemory;
/// use progmodel::Location;
///
/// let mut mem = SharedMemory::new();
/// mem.stage_write(Location::SHARED, 7);
/// assert_eq!(mem.read(Location::SHARED), 0); // not yet committed
/// mem.commit_cycle();
/// assert_eq!(mem.read(Location::SHARED), 7);
/// ```
///
/// Words are stored densely, indexed by [`Location::raw`], so the store
/// grows to the largest location written: programs address the shared
/// location and their fillers, numbered from 1.
#[derive(Debug, Clone, Default)]
pub struct SharedMemory {
    /// `words[raw]` is the committed value of the location; locations past
    /// the end have never been written.
    words: Vec<i64>,
    staged: Vec<(Location, i64)>,
}

impl SharedMemory {
    /// Fresh memory; every location reads 0.
    #[must_use]
    pub fn new() -> SharedMemory {
        SharedMemory::default()
    }

    /// Reads the begin-of-cycle value of `loc` (0 if never written).
    #[must_use]
    pub fn read(&self, loc: Location) -> i64 {
        self.words.get(loc.raw() as usize).copied().unwrap_or(0)
    }

    /// Stages a write to commit at the end of the cycle. Staged writes from
    /// multiple cores in one cycle apply in staging order; the caller (the
    /// machine) randomises core service order, so ties break uniformly.
    pub fn stage_write(&mut self, loc: Location, value: i64) {
        self.staged.push((loc, value));
    }

    /// Commits all staged writes, ending the cycle. Returns how many writes
    /// were applied.
    pub fn commit_cycle(&mut self) -> usize {
        let n = self.staged.len();
        for (loc, value) in self.staged.drain(..) {
            let i = loc.raw() as usize;
            if i >= self.words.len() {
                self.words.resize(i + 1, 0);
            }
            self.words[i] = value;
        }
        n
    }

    /// Forgets every write, committed or staged, keeping the allocations.
    pub(crate) fn clear(&mut self) {
        self.words.clear();
        self.staged.clear();
    }

    /// Number of writes currently staged.
    #[must_use]
    pub fn staged_count(&self) -> usize {
        self.staged.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unwritten_locations_read_zero() {
        let mem = SharedMemory::new();
        assert_eq!(mem.read(Location::SHARED), 0);
        assert_eq!(mem.read(Location::filler(5)), 0);
    }

    #[test]
    fn same_cycle_writes_are_invisible_to_reads() {
        let mut mem = SharedMemory::new();
        mem.stage_write(Location::SHARED, 1);
        assert_eq!(mem.read(Location::SHARED), 0);
        assert_eq!(mem.staged_count(), 1);
        assert_eq!(mem.commit_cycle(), 1);
        assert_eq!(mem.read(Location::SHARED), 1);
        assert_eq!(mem.staged_count(), 0);
    }

    #[test]
    fn staging_order_breaks_ties() {
        let mut mem = SharedMemory::new();
        mem.stage_write(Location::SHARED, 1);
        mem.stage_write(Location::SHARED, 2);
        mem.commit_cycle();
        assert_eq!(mem.read(Location::SHARED), 2);
    }

    #[test]
    fn clear_forgets_writes_and_keeps_the_allocation() {
        let mut mem = SharedMemory::new();
        mem.stage_write(Location::filler(9), 3);
        mem.commit_cycle();
        mem.stage_write(Location::SHARED, 4);
        let capacity = mem.words.capacity();
        mem.clear();
        assert_eq!(mem.read(Location::filler(9)), 0);
        assert_eq!(mem.staged_count(), 0);
        assert_eq!(mem.words.capacity(), capacity);
    }

    #[test]
    fn distinct_locations_are_independent() {
        let mut mem = SharedMemory::new();
        mem.stage_write(Location::filler(0), 10);
        mem.stage_write(Location::filler(1), 20);
        mem.commit_cycle();
        assert_eq!(mem.read(Location::filler(0)), 10);
        assert_eq!(mem.read(Location::filler(1)), 20);
        assert_eq!(mem.read(Location::SHARED), 0);
    }
}
