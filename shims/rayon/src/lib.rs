//! Offline shim for `rayon`.
//!
//! Implements the slice of rayon's data-parallel API this workspace uses:
//! `par_iter` / `par_iter_mut` / `into_par_iter` on slices, vectors and
//! ranges, `par_chunks` / `par_chunks_mut`, and the `map` / `enumerate` /
//! `for_each` / `collect` adapters.
//!
//! Work distribution is dynamic (an atomic cursor over the item list), so
//! uneven tasks — e.g. federated clients with different local dataset sizes —
//! load-balance across cores just like under real rayon's work stealing.
//! Every result lands in the slot of its item's index, so output order and
//! bits never depend on which thread computed what.
//!
//! Parallelism is real: a call runs on helpers from one process-wide pool
//! of persistent OS threads while the calling thread waits. The pool starts
//! lazily on the first parallel call, grows to the largest thread count
//! ever requested, and keeps its threads warm across calls, so a parallel
//! call costs a condvar wake-up rather than a thread spawn, and per-thread
//! state (e.g. matmul packing scratch) persists from one call to the next.
//! Helpers are seated in a fixed order: a call at `n` threads runs on
//! helpers `0..n`, and each of them starts with one item, so a call lands on
//! helpers that calls of the same or a larger size have already warmed,
//! however many helpers other calls have added to the pool. Panics
//! propagate to the caller exactly as rayon's do.
//!
//! The caller waits rather than taking items itself so that everything a
//! call allocates lives on the helpers' allocator arenas, as it did when
//! every call spawned fresh threads; letting the caller work too mixes
//! long-lived worker buffers into the main thread's heap and raises peak
//! memory (docs/PERFORMANCE.md, "Persistent rayon pool").

use std::any::Any;
use std::cell::Cell;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, OnceLock, PoisonError};

/// Process-wide thread-count override (0 = unset). Set by
/// [`set_num_threads`]; checked before `RAYON_NUM_THREADS` and
/// `available_parallelism`.
static THREAD_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Overrides the worker-thread count for all subsequent parallel operations
/// (real rayon configures this through `ThreadPoolBuilder`; the shim exposes
/// a direct setter). Passing 0 clears the override.
///
/// The determinism sanitizer sweeps this across {1, 2, 4} to prove that
/// trajectories do not depend on the schedule. Changing it mid-run is safe
/// by construction: results land in index-addressed slots regardless of
/// which worker computes them.
pub fn set_num_threads(n: usize) {
    THREAD_OVERRIDE.store(n, Ordering::SeqCst);
}

/// Number of worker threads used by parallel operations: the
/// [`set_num_threads`] override if set, else `RAYON_NUM_THREADS` from the
/// environment (matching real rayon's default pool), else the machine's
/// available parallelism. The environment is read once, on first use.
pub fn current_num_threads() -> usize {
    static DEFAULT_THREADS: OnceLock<usize> = OnceLock::new();
    let forced = THREAD_OVERRIDE.load(Ordering::SeqCst);
    if forced > 0 {
        return forced;
    }
    *DEFAULT_THREADS.get_or_init(|| {
        std::env::var("RAYON_NUM_THREADS")
            .ok()
            .and_then(|value| value.trim().parse::<usize>().ok())
            .filter(|&n| n > 0)
            .unwrap_or_else(|| {
                std::thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(1)
            })
    })
}

std::thread_local! {
    /// Whether the current thread is a pool helper.
    ///
    /// A nested call from inside an item (e.g. a parallel matmul reached
    /// from the parallel per-client training loop) runs serially on its
    /// helper: the outer loop already saturates the cores, and the pool is
    /// held by the outer call anyway.
    static IN_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// A borrowed job closure with its lifetime erased; see [`Pool::run`]. Its
/// argument is the seat it runs in.
type Job = &'static (dyn Fn(usize) + Sync);

/// Pool bookkeeping, guarded by [`Pool::state`].
struct State {
    /// The job of the caller that holds the pool; `None` while it is free.
    job: Option<Job>,
    /// Counts the jobs run so far; tells a helper whether it has already
    /// served the current one.
    generation: u64,
    /// Seats of the current job: helpers `0..seats` each run it once.
    seats: usize,
    /// Seated helpers that have started the current job.
    joined: usize,
    /// Helpers currently running the job.
    running: usize,
    /// Helper threads spawned so far; the pool never shrinks.
    spawned: usize,
    /// The first panic a helper caught in the current job.
    panic: Option<Box<dyn Any + Send>>,
}

/// The process-wide pool of persistent helper threads.
struct Pool {
    state: Mutex<State>,
    /// Signalled when a job offers helper seats.
    offered: Condvar,
    /// Signalled when the last helper leaves a job.
    finished: Condvar,
}

static POOL: Pool = Pool {
    state: Mutex::new(State {
        job: None,
        generation: 0,
        seats: 0,
        joined: 0,
        running: 0,
        spawned: 0,
        panic: None,
    }),
    offered: Condvar::new(),
    finished: Condvar::new(),
};

impl Pool {
    /// Locks the state. Nothing panics while holding the lock, so poisoning
    /// cannot occur; recovering from it anyway keeps the pool usable.
    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Runs `job` once in every seat `0..threads` and returns when all of
    /// them are done. Seat `s` runs on helper `s` while the caller waits, so
    /// a call at a given thread count always lands on the same, already warm
    /// helpers, whatever larger counts earlier calls asked for. If another
    /// thread's job holds the pool, or helpers cannot be spawned, the caller
    /// runs every seat itself. The first panic of any helper is resumed here
    /// after all of them have finished; the pool stays usable.
    fn run(&'static self, threads: usize, job: &(dyn Fn(usize) + Sync)) {
        let mut state = self.lock();
        if state.job.is_none() {
            while state.spawned < threads && self.spawn_helper(state.spawned) {
                state.spawned += 1;
            }
        }
        if state.job.is_some() || state.spawned < threads {
            drop(state);
            return (0..threads).for_each(job);
        }
        // SAFETY: only the lifetime is erased. Helpers reach the job solely
        // through `State::job` after joining a seat, and this function does
        // not return until every seat has been joined, no helper is running
        // the job, and `State::job` is cleared again. Waiting on a condvar
        // cannot unwind, so no helper touches `job` after this borrow ends.
        let erased: Job = unsafe { std::mem::transmute::<&(dyn Fn(usize) + Sync), Job>(job) };
        state.job = Some(erased);
        state.generation += 1;
        state.seats = threads;
        state.joined = 0;
        self.offered.notify_all();
        while state.joined < state.seats || state.running > 0 {
            state = self
                .finished
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
        }
        state.job = None;
        let helper_panic = state.panic.take();
        drop(state);
        if let Some(payload) = helper_panic {
            panic::resume_unwind(payload);
        }
    }

    /// Starts helper `index`; false if the OS refuses. Helpers are detached
    /// on purpose: they serve the pool until the process exits, and every
    /// panic inside a job is caught and handed to its caller.
    fn spawn_helper(&'static self, index: usize) -> bool {
        std::thread::Builder::new()
            .name("rayon-worker".into())
            .spawn(move || self.helper_loop(index))
            .is_ok()
    }

    /// A helper's life: run seat `index` of every job that offers it.
    fn helper_loop(&self, index: usize) {
        IN_WORKER.with(|w| w.set(true));
        let mut served = 0;
        let mut state = self.lock();
        loop {
            let job = match state.job {
                Some(job) if index < state.seats && served != state.generation => job,
                _ => {
                    state = self
                        .offered
                        .wait(state)
                        .unwrap_or_else(PoisonError::into_inner);
                    continue;
                }
            };
            served = state.generation;
            state.joined += 1;
            state.running += 1;
            drop(state);
            let outcome = panic::catch_unwind(AssertUnwindSafe(|| job(index)));
            state = self.lock();
            if let Err(payload) = outcome {
                state.panic.get_or_insert(payload);
            }
            state.running -= 1;
            if state.running == 0 && state.joined == state.seats {
                self.finished.notify_one();
            }
        }
    }
}

/// The one dispatch path: maps every item in parallel, preserving order.
///
/// Seat `s` starts with item `s` and then takes items from an atomic cursor,
/// so every seated helper runs at least one item (and warms its per-thread
/// state) while uneven items still balance dynamically. Each result lands in
/// the slot of its item's index, so the output is the same for every thread
/// count and schedule.
fn drive<T: Send, U: Send, F: Fn(T) -> U + Sync>(items: Vec<T>, f: F) -> Vec<U> {
    let n = items.len();
    let threads = current_num_threads().min(n);
    if threads <= 1 || IN_WORKER.with(Cell::get) {
        return items.into_iter().map(f).collect();
    }
    let slots: Vec<Mutex<Option<T>>> = items.into_iter().map(|t| Mutex::new(Some(t))).collect();
    let out: Vec<Mutex<Option<U>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let cursor = AtomicUsize::new(threads);
    POOL.run(threads, &|seat| {
        let mut i = seat;
        while i < n {
            let item = slots[i]
                .lock()
                .expect("worker poisoned a job slot")
                .take()
                .expect("each job slot is taken exactly once");
            let result = f(item);
            *out[i].lock().expect("worker poisoned a result slot") = Some(result);
            i = cursor.fetch_add(1, Ordering::Relaxed);
        }
    });
    out.into_iter()
        .map(|m| {
            m.into_inner()
                .expect("result slot unpoisoned")
                .expect("every result slot is filled")
        })
        .collect()
}

/// A not-yet-consumed parallel iterator over an ordered list of items.
pub struct ParIter<T> {
    items: Vec<T>,
}

impl<T: Send> ParIter<T> {
    /// Pairs every item with its index.
    pub fn enumerate(self) -> ParIter<(usize, T)> {
        ParIter {
            items: self.items.into_iter().enumerate().collect(),
        }
    }

    /// Lazily maps every item (runs at `collect` / `for_each` time).
    pub fn map<U: Send, F: Fn(T) -> U + Sync>(self, f: F) -> ParMap<T, F> {
        ParMap {
            items: self.items,
            f,
        }
    }

    /// Runs `f` over every item on the worker pool.
    pub fn for_each<F: Fn(T) + Sync>(self, f: F) {
        drive(self.items, f);
    }

    /// Collects the items (after adapters) into a container.
    pub fn collect<C: FromParallel<T>>(self) -> C {
        C::from_ordered(self.items)
    }
}

/// The result of [`ParIter::map`]: items plus the pending transform.
pub struct ParMap<T, F> {
    items: Vec<T>,
    f: F,
}

impl<T: Send, U: Send, F: Fn(T) -> U + Sync> ParMap<T, F> {
    /// Applies the map in parallel and collects in input order.
    pub fn collect<C: FromParallel<U>>(self) -> C {
        C::from_ordered(drive(self.items, self.f))
    }

    /// Applies the map in parallel, discarding results.
    pub fn for_each<G: Fn(U) + Sync>(self, g: G) {
        let f = self.f;
        drive(self.items, move |t| g(f(t)));
    }
}

/// Containers constructible from an ordered parallel result.
pub trait FromParallel<T> {
    /// Builds the container from items already in order.
    fn from_ordered(items: Vec<T>) -> Self;
}

impl<T> FromParallel<T> for Vec<T> {
    fn from_ordered(items: Vec<T>) -> Self {
        items
    }
}

/// `into_par_iter()` for owned collections.
pub trait IntoParallelIterator {
    /// The element type.
    type Item: Send;
    /// Converts into a parallel iterator.
    fn into_par_iter(self) -> ParIter<Self::Item>;
}

impl<T: Send> IntoParallelIterator for Vec<T> {
    type Item = T;
    fn into_par_iter(self) -> ParIter<T> {
        ParIter { items: self }
    }
}

impl IntoParallelIterator for std::ops::Range<usize> {
    type Item = usize;
    fn into_par_iter(self) -> ParIter<usize> {
        ParIter {
            items: self.collect(),
        }
    }
}

/// Borrowing parallel iteration over slices.
pub trait ParallelSlice<T: Sync> {
    /// Parallel iterator over shared references.
    fn par_iter(&self) -> ParIter<&T>;
    /// Parallel iterator over non-overlapping chunks.
    fn par_chunks(&self, chunk_size: usize) -> ParIter<&[T]>;
}

impl<T: Sync + Send> ParallelSlice<T> for [T] {
    fn par_iter(&self) -> ParIter<&T> {
        ParIter {
            items: self.iter().collect(),
        }
    }

    fn par_chunks(&self, chunk_size: usize) -> ParIter<&[T]> {
        assert!(chunk_size > 0, "chunk size must be positive");
        ParIter {
            items: self.chunks(chunk_size).collect(),
        }
    }
}

/// Mutably borrowing parallel iteration over slices.
pub trait ParallelSliceMut<T: Send> {
    /// Parallel iterator over exclusive references.
    fn par_iter_mut(&mut self) -> ParIter<&mut T>;
    /// Parallel iterator over non-overlapping mutable chunks.
    fn par_chunks_mut(&mut self, chunk_size: usize) -> ParIter<&mut [T]>;
}

impl<T: Send> ParallelSliceMut<T> for [T] {
    fn par_iter_mut(&mut self) -> ParIter<&mut T> {
        ParIter {
            items: self.iter_mut().collect(),
        }
    }

    fn par_chunks_mut(&mut self, chunk_size: usize) -> ParIter<&mut [T]> {
        assert!(chunk_size > 0, "chunk size must be positive");
        ParIter {
            items: self.chunks_mut(chunk_size).collect(),
        }
    }
}

/// The glob import every rayon user reaches for.
pub mod prelude {
    pub use crate::{IntoParallelIterator, ParallelSlice, ParallelSliceMut};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use std::collections::HashSet;
    use std::sync::{Barrier, Mutex, PoisonError};
    use std::thread::ThreadId;
    use std::time::Duration;

    /// Serialises the tests that change the process-wide thread count.
    static THREAD_COUNT: Mutex<()> = Mutex::new(());

    /// Runs `body` with the thread-count override set to `n`.
    fn with_threads<R>(n: usize, body: impl FnOnce() -> R) -> R {
        let _lock = THREAD_COUNT.lock().unwrap_or_else(PoisonError::into_inner);
        crate::set_num_threads(n);
        let out = body();
        crate::set_num_threads(0);
        out
    }

    /// One parallel call over `items` short tasks; returns the threads that
    /// ran them after checking the ordered results.
    fn threads_of_call(items: usize) -> HashSet<ThreadId> {
        let ran: Vec<(usize, ThreadId)> = (0..items)
            .into_par_iter()
            .map(|i| {
                std::thread::sleep(Duration::from_micros(100));
                (i * 3, std::thread::current().id())
            })
            .collect();
        for (i, (x, _)) in ran.iter().enumerate() {
            assert_eq!(*x, i * 3);
        }
        ran.into_iter().map(|(_, id)| id).collect()
    }

    #[test]
    fn par_map_preserves_order() {
        let v: Vec<usize> = (0..1000).collect();
        let doubled: Vec<usize> = v.into_par_iter().map(|x| x * 2).collect();
        assert_eq!(doubled, (0..1000).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn par_chunks_mut_writes_every_chunk() {
        let mut v = vec![0usize; 103];
        v.par_chunks_mut(10).enumerate().for_each(|(i, chunk)| {
            for x in chunk {
                *x = i;
            }
        });
        assert_eq!(v[0], 0);
        assert_eq!(v[99], 9);
        assert_eq!(v[102], 10);
    }

    #[test]
    fn par_iter_mut_touches_every_item() {
        let mut v = vec![1i64; 64];
        v.par_iter_mut().for_each(|x| *x += 1);
        assert!(v.iter().all(|&x| x == 2));
    }

    #[test]
    fn range_par_iter_collects() {
        let squares: Vec<usize> = (0..50usize).into_par_iter().map(|i| i * i).collect();
        assert_eq!(squares[7], 49);
        assert_eq!(squares.len(), 50);
    }

    #[test]
    fn uneven_workloads_complete() {
        let work: Vec<usize> = (0..37).collect();
        let out: Vec<usize> = work
            .into_par_iter()
            .map(|i| {
                // Simulate uneven task cost.
                let mut acc = 0usize;
                for j in 0..(i * 1000) {
                    acc = acc.wrapping_add(j);
                }
                std::hint::black_box(acc);
                i
            })
            .collect();
        assert_eq!(out, (0..37).collect::<Vec<_>>());
    }

    #[test]
    fn nested_parallel_calls_run_serially_and_correctly() {
        // An inner parallel map inside a worker must not explode the thread
        // count — and must still produce correct, ordered results.
        let outer: Vec<usize> = (0..8).collect();
        let results: Vec<Vec<usize>> = outer
            .into_par_iter()
            .map(|i| {
                let inner: Vec<usize> = (0..16usize).collect();
                inner.into_par_iter().map(move |j| i * 100 + j).collect()
            })
            .collect();
        for (i, inner) in results.iter().enumerate() {
            assert_eq!(inner.len(), 16);
            assert_eq!(inner[0], i * 100);
            assert_eq!(inner[15], i * 100 + 15);
        }
    }

    #[test]
    fn thread_override_is_respected_and_results_stay_ordered() {
        let _lock = THREAD_COUNT.lock().unwrap_or_else(PoisonError::into_inner);
        for threads in [1, 2, 4] {
            crate::set_num_threads(threads);
            assert_eq!(crate::current_num_threads(), threads);
            let v: Vec<usize> = (0..101).collect();
            let out: Vec<usize> = v.into_par_iter().map(|x| x + 1).collect();
            assert_eq!(out, (1..102).collect::<Vec<_>>());
        }
        crate::set_num_threads(0);
        assert!(crate::current_num_threads() >= 1);
    }

    #[test]
    fn pool_threads_are_reused_across_calls() {
        // Every test here requests at most 4 threads or the default count,
        // so the pool never holds more helpers than that bound; the caller
        // runs a call itself only while another test's call holds the pool.
        let bound = with_threads(0, crate::current_num_threads).max(4) + 1;
        let seen: HashSet<ThreadId> =
            with_threads(2, || (0..200).flat_map(|_| threads_of_call(4)).collect());
        assert!(
            seen.len() <= bound,
            "200 calls ran on {} distinct threads; a persistent pool needs at most {bound}",
            seen.len()
        );
    }

    #[test]
    fn calls_of_one_size_reuse_the_same_helpers() {
        // After the pool has grown to 4 helpers, every 2-thread call must
        // run on the same two of them. A call that ran on its caller
        // (another test's call held the pool) is skipped.
        with_threads(4, || threads_of_call(16));
        let caller = std::thread::current().id();
        let seen: HashSet<ThreadId> = with_threads(2, || {
            (0..50)
                .flat_map(|_| threads_of_call(16))
                .filter(|&id| id != caller)
                .collect()
        });
        assert!(
            seen.len() <= 2,
            "50 two-thread calls ran on {} distinct helpers",
            seen.len()
        );
    }

    #[test]
    fn every_seated_helper_runs_an_item() {
        // Items this short are drained by whichever helper wakes first
        // unless each seat starts with its own item.
        with_threads(4, || {
            let caller = std::thread::current().id();
            for _ in 0..20 {
                let used: HashSet<ThreadId> = (0..4usize)
                    .into_par_iter()
                    .map(|_| std::thread::current().id())
                    .collect::<Vec<_>>()
                    .into_iter()
                    .collect();
                assert!(
                    used.len() == 4 || used == HashSet::from([caller]),
                    "4 items at 4 threads ran on {} threads",
                    used.len()
                );
            }
        });
    }

    #[test]
    fn pool_recovers_after_a_worker_panics() {
        with_threads(2, || {
            for _ in 0..3 {
                let outcome = std::panic::catch_unwind(|| {
                    (0..16usize).into_par_iter().for_each(|i| {
                        if i == 5 {
                            panic!("worker boom");
                        }
                    });
                });
                let payload = outcome.expect_err("the worker's panic must reach the caller");
                assert_eq!(payload.downcast_ref::<&str>(), Some(&"worker boom"));
                let after: Vec<usize> = (0..64usize).into_par_iter().map(|x| x * x).collect();
                assert_eq!(after, (0..64).map(|x| x * x).collect::<Vec<_>>());
            }
        });
    }

    #[test]
    fn concurrent_submitters_each_get_ordered_results() {
        with_threads(2, || {
            let start = Barrier::new(4);
            std::thread::scope(|scope| {
                for t in 0..4usize {
                    let start = &start;
                    scope.spawn(move || {
                        start.wait();
                        for call in 0..25usize {
                            let out: Vec<usize> = (0..300usize)
                                .into_par_iter()
                                .map(|x| x * 7 + t * 1000 + call)
                                .collect();
                            let want: Vec<usize> =
                                (0..300).map(|x| x * 7 + t * 1000 + call).collect();
                            assert_eq!(out, want);
                        }
                    });
                }
            });
        });
    }

    #[test]
    fn thread_count_changes_never_exceed_the_request() {
        let _lock = THREAD_COUNT.lock().unwrap_or_else(PoisonError::into_inner);
        for threads in [1, 4, 2] {
            crate::set_num_threads(threads);
            for _ in 0..20 {
                let used = threads_of_call(16);
                assert!(
                    used.len() <= threads,
                    "a call at {threads} thread(s) ran on {} threads",
                    used.len()
                );
                if threads == 1 {
                    assert!(used.contains(&std::thread::current().id()));
                }
            }
        }
        crate::set_num_threads(0);
    }

    #[test]
    #[should_panic]
    fn worker_panics_propagate() {
        let v: Vec<usize> = (0..16).collect();
        v.into_par_iter().for_each(|i| {
            if i == 7 {
                panic!("boom");
            }
        });
    }
}
