//! A process-wide persistent worker pool with an index-scatter primitive.
//!
//! The pool exists so that the [`Runner`](crate::Runner) (and the sweep
//! layers built on top of it) can dispatch work without paying a
//! thread-spawn per call. It is deliberately tiny: a FIFO of boxed tickets,
//! a condvar, and demand-driven worker growth. Two properties matter more
//! than raw cleverness here:
//!
//! * **Determinism is the caller's job.** The pool schedules tickets in
//!   whatever order the OS allows; [`scatter`] restores determinism by
//!   keying every unit of work on its index and returning results in index
//!   order, so callers observe identical output no matter how many workers
//!   ran or how they interleaved.
//! * **The caller always participates.** [`scatter`] drains the shared
//!   cursor on the submitting thread too, so it completes even if every
//!   pool worker is busy (or thread spawning fails entirely). Pool tickets
//!   are pure accelerators — nested scatters can never deadlock waiting on
//!   each other.

use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::Instant;

/// A unit of queued work, stamped at submission so the pool can report
/// queue wait. The stamp is `None` whenever telemetry is off, keeping the
/// disabled path free of clock reads.
struct Ticket {
    enqueued: Option<Instant>,
    run: Box<dyn FnOnce() + Send + 'static>,
}

/// Pool state behind the queue mutex.
struct Queue {
    tickets: VecDeque<Ticket>,
    /// Workers currently parked on the condvar.
    idle: usize,
    /// Workers ever spawned (used only to name threads).
    spawned: usize,
}

struct Pool {
    queue: Mutex<Queue>,
    wake: Condvar,
}

/// Locks a mutex, ignoring poison: tickets run under `catch_unwind`, and
/// scatter re-raises panics on the submitting thread, so a poisoned lock
/// carries no extra information here.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

static POOL: OnceLock<Pool> = OnceLock::new();

fn pool() -> &'static Pool {
    POOL.get_or_init(|| Pool {
        queue: Mutex::new(Queue {
            tickets: VecDeque::new(),
            idle: 0,
            spawned: 0,
        }),
        wake: Condvar::new(),
    })
}

/// Enqueues a ticket, spawning a new detached worker when no idle worker
/// could pick it up. Workers are never torn down; across a whole process
/// the pool converges on the peak concurrency actually requested.
fn submit(run: Box<dyn FnOnce() + Send + 'static>) {
    let tele = crate::telemetry::pool();
    tele.tickets_submitted.inc();
    let ticket = Ticket {
        enqueued: obs::recording().then(Instant::now),
        run,
    };
    let p = pool();
    let mut q = lock(&p.queue);
    q.tickets.push_back(ticket);
    if q.tickets.len() > q.idle {
        q.spawned += 1;
        tele.workers_spawned.set(q.spawned as u64);
        let name = format!("mc-pool-{}", q.spawned);
        drop(q);
        // A failed spawn is fine: the ticket stays queued and the
        // scatter that submitted it drains the work itself.
        let _ = std::thread::Builder::new()
            .name(name)
            .spawn(move || worker_loop(p));
    } else {
        p.wake.notify_one();
    }
}

fn worker_loop(p: &'static Pool) {
    let mut q = lock(&p.queue);
    loop {
        if let Some(ticket) = q.tickets.pop_front() {
            drop(q);
            let tele = crate::telemetry::pool();
            if let Some(enqueued) = ticket.enqueued {
                tele.queue_wait_us
                    .record(enqueued.elapsed().as_micros() as u64);
            }
            tele.workers_busy.inc();
            let started = obs::recording().then(Instant::now);
            // Isolate the pool from panicking tickets; scatter tickets
            // record the panic payload and re-raise it at the join point.
            let _ = catch_unwind(AssertUnwindSafe(ticket.run));
            if let Some(started) = started {
                tele.ticket_busy_us
                    .record(started.elapsed().as_micros() as u64);
            }
            tele.workers_busy.dec();
            tele.tickets_run.inc();
            q = lock(&p.queue);
        } else {
            q.idle += 1;
            q = p.wake.wait(q).unwrap_or_else(PoisonError::into_inner);
            q.idle -= 1;
        }
    }
}

/// Shared state of one [`scatter`] call.
struct Scatter<T, F> {
    job: F,
    count: usize,
    /// Next unclaimed index; claiming is a single `fetch_add`, which is the
    /// whole "work-stealing" protocol — fast helpers simply claim more.
    cursor: AtomicUsize,
    board: Mutex<Board<T>>,
    done: Condvar,
}

struct Board<T> {
    slots: Vec<Option<std::thread::Result<T>>>,
    reported: usize,
}

/// Claims and runs indices until the cursor is exhausted.
fn drain<T, F: Fn(usize) -> T>(s: &Scatter<T, F>) {
    loop {
        let idx = s.cursor.fetch_add(1, Ordering::Relaxed);
        if idx >= s.count {
            return;
        }
        let outcome = catch_unwind(AssertUnwindSafe(|| (s.job)(idx)));
        let mut board = lock(&s.board);
        board.slots[idx] = Some(outcome);
        board.reported += 1;
        if board.reported == s.count {
            s.done.notify_all();
        }
    }
}

/// Runs `job(0..count)` with up to `threads` concurrent executors (the
/// calling thread plus pool workers) and returns the results **in index
/// order**.
///
/// Indices are claimed dynamically from a shared atomic cursor, so load
/// balances itself across uneven jobs; because each result is keyed by its
/// index and assembled in index order, the returned `Vec` is identical for
/// any `threads`, any worker interleaving, and any claim order — the
/// pool-level counterpart of the runner's chunk-tiling determinism.
///
/// The calling thread always participates, so the call completes even when
/// the pool cannot service a single ticket; this also makes nested
/// scatters (a scatter whose job runs another scatter) deadlock-free.
///
/// # Panics
///
/// If any `job(i)` panics, every claimed index still runs to completion
/// (or panics in turn), and then the payload of the panicked index with
/// the smallest `i` is re-raised on the calling thread — deterministic
/// panic propagation to match the deterministic results.
pub fn scatter<T, F>(count: usize, threads: usize, job: F) -> Vec<T>
where
    T: Send + 'static,
    F: Fn(usize) -> T + Send + Sync + 'static,
{
    if count == 0 {
        return Vec::new();
    }
    crate::telemetry::pool().scatter_calls.inc();
    let state = Arc::new(Scatter {
        job,
        count,
        cursor: AtomicUsize::new(0),
        board: Mutex::new(Board {
            slots: (0..count).map(|_| None).collect(),
            reported: 0,
        }),
        done: Condvar::new(),
    });
    let helpers = threads.clamp(1, count) - 1;
    for _ in 0..helpers {
        let s = Arc::clone(&state);
        submit(Box::new(move || drain(&*s)));
    }
    drain(&state);
    let mut board = lock(&state.board);
    while board.reported < state.count {
        board = state
            .done
            .wait(board)
            .unwrap_or_else(PoisonError::into_inner);
    }
    let slots = std::mem::take(&mut board.slots);
    drop(board);
    slots
        .into_iter()
        .map(
            |slot| match slot.expect("every index reports before the board completes") {
                Ok(value) => value,
                Err(payload) => resume_unwind(payload),
            },
        )
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scatter_returns_results_in_index_order() {
        for threads in [1usize, 2, 3, 8] {
            let out = scatter(25, threads, |i| i * i);
            assert_eq!(out, (0..25).map(|i| i * i).collect::<Vec<_>>());
        }
    }

    #[test]
    fn scatter_zero_count_is_empty() {
        let out: Vec<u64> = scatter(0, 4, |_| unreachable!());
        assert!(out.is_empty());
    }

    #[test]
    fn scatter_with_more_threads_than_items() {
        let out = scatter(3, 64, |i| i + 1);
        assert_eq!(out, vec![1, 2, 3]);
    }

    #[test]
    fn nested_scatter_does_not_deadlock() {
        // Inner scatters run from within outer jobs; caller participation
        // guarantees progress even if the pool is saturated.
        let out = scatter(4, 4, |i| scatter(4, 4, move |j| i * 4 + j));
        let flat: Vec<usize> = out.into_iter().flatten().collect();
        assert_eq!(flat, (0..16).collect::<Vec<_>>());
    }

    #[test]
    fn scatter_propagates_the_lowest_index_panic() {
        let result = catch_unwind(|| {
            scatter(10, 3, |i| {
                if i >= 7 {
                    panic!("boom at {i}");
                }
                i
            })
        });
        let payload = result.unwrap_err();
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default();
        assert_eq!(msg, "boom at 7");
    }
}
