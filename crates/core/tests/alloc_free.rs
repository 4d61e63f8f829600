//! Proof that the steady-state trial kernels allocate nothing.
//!
//! A counting global allocator wraps the system allocator; after a warm-up
//! pass has grown every scratch buffer to its steady-state size, a block of
//! kernel trials must leave the allocation counter untouched. The kernels
//! run single-threaded here so no other thread can perturb the counter.

use memmodel::MemoryModel;
use mmr_core::ReliabilityModel;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use shiftproc::{ShiftProcess, ShiftScratch};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: delegates directly to the system allocator; the counter is a
// side effect with no influence on the returned memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

/// Allocations charged to `block`, minimised over a few repeats: the
/// counter is process-global, so a stray allocation on the harness thread
/// can land inside one measurement, but a kernel that really allocates
/// does so on every repeat and the minimum stays positive.
fn measured_allocs(mut block: impl FnMut()) -> u64 {
    (0..3)
        .map(|_| {
            let before = allocations();
            block();
            allocations() - before
        })
        .min()
        .expect("non-empty repeats")
}

// One test, five kernels: the counter is process-global, so concurrently
// running sibling tests would perturb each other's measurements.
#[test]
fn trial_kernels_are_allocation_free_in_steady_state() {
    // Joined pipeline (regenerate → settle ×n → shift).
    let rm = ReliabilityModel::new(MemoryModel::Wo, 4).with_filler_len(32);
    let mut scratch = rm.scratch();
    let mut rng = SmallRng::seed_from_u64(1);
    // Warm-up: grows the window/settle/shift buffers to steady state.
    for _ in 0..100 {
        rm.simulate_survival_once_scratch(&mut scratch, &mut rng);
    }
    let allocs = measured_allocs(|| {
        for _ in 0..10_000 {
            rm.simulate_survival_once_scratch(&mut scratch, &mut rng);
        }
    });
    assert_eq!(allocs, 0, "joined kernel allocated in steady state");

    // The same pipeline with the §7 acquire fence in the program.
    let rm = ReliabilityModel::new(MemoryModel::Tso, 3).with_acquire_fence();
    let mut scratch = rm.scratch();
    let mut rng = SmallRng::seed_from_u64(2);
    for _ in 0..50 {
        rm.simulate_survival_once_scratch(&mut scratch, &mut rng);
    }
    let allocs = measured_allocs(|| {
        for _ in 0..5_000 {
            rm.simulate_survival_once_scratch(&mut scratch, &mut rng);
        }
    });
    assert_eq!(allocs, 0, "fenced kernel allocated");

    // The shared-draw RB grid trial: its per-n factors land in a fixed
    // array, never a fresh Vec.
    let rm = ReliabilityModel::new(MemoryModel::Wo, 16);
    let ns = [2usize, 3, 4, 6, 8, 12, 16];
    let mut scratch = rm.scratch();
    let mut rng = SmallRng::seed_from_u64(4);
    for _ in 0..100 {
        rm.rb_grid_factors(&ns, &mut scratch, &mut rng);
    }
    let allocs = measured_allocs(|| {
        for _ in 0..5_000 {
            rm.rb_grid_factors(&ns, &mut scratch, &mut rng);
        }
    });
    assert_eq!(allocs, 0, "RB grid trial allocated");

    // The exchangeability grid trial: its windows, reversal and columns
    // live in fixed arrays, and the exact route's subset table is reused.
    let rm = ReliabilityModel::new(MemoryModel::Tso, 4);
    let ns = [2usize, 3, 4];
    let mut scratch = rm.scratch();
    let mut rng = SmallRng::seed_from_u64(5);
    for _ in 0..100 {
        rm.exchangeability_grid_sample(&ns, &mut scratch, &mut rng);
    }
    let allocs = measured_allocs(|| {
        for _ in 0..5_000 {
            rm.exchangeability_grid_sample(&ns, &mut scratch, &mut rng);
        }
    });
    assert_eq!(allocs, 0, "exchangeability grid trial allocated");

    // The bare shift kernel.
    let proc = ShiftProcess::canonical();
    let mut scratch = ShiftScratch::new();
    let mut rng = SmallRng::seed_from_u64(3);
    let lengths = [4u64, 3, 2, 5, 2];
    for _ in 0..10 {
        proc.simulate_disjoint_into(&lengths, &mut scratch, &mut rng);
    }
    let allocs = measured_allocs(|| {
        for _ in 0..50_000 {
            proc.simulate_disjoint_into(&lengths, &mut scratch, &mut rng);
        }
    });
    assert_eq!(allocs, 0, "shift kernel allocated");
}
