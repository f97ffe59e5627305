//! Deterministic scoped-thread parallelism for Monte-Carlo ensembles.
//!
//! The build environment is offline, so instead of depending on `rayon`
//! this module provides the one primitive the simulator needs: an
//! order-preserving parallel map over an index range, built on
//! [`std::thread::scope`] with an atomic work-stealing counter.
//!
//! **Determinism contract:** `par_map(n, threads, f)` returns
//! `vec![f(0), f(1), ..., f(n-1)]` with results slotted by index, so the
//! output is *identical for every thread count* (including 1) as long as
//! each `f(i)` is itself deterministic. Scheduling only changes *when* each
//! item runs, never where its result lands. The Euler–Maruyama engine
//! builds its bit-identical serial-vs-parallel guarantee on this.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Resolves a requested thread count: `0` means "use all available
/// hardware parallelism", anything else is taken literally.
pub fn effective_threads(requested: usize) -> usize {
    if requested == 0 {
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
    } else {
        requested
    }
}

/// Maps `f` over `0..n` using up to `threads` worker threads (0 = auto),
/// returning results in index order.
///
/// Work is distributed dynamically (an atomic counter hands out the next
/// index), so uneven item costs balance across workers. With `threads <= 1`
/// or `n <= 1` the map runs inline on the caller's thread with no spawning.
///
/// # Panics
/// Propagates a panic from any invocation of `f`.
///
/// # Example
/// ```
/// use nanosim_numeric::parallel::par_map;
/// let serial = par_map(8, 1, |i| i * i);
/// let parallel = par_map(8, 4, |i| i * i);
/// assert_eq!(serial, parallel);
/// ```
pub fn par_map<R, F>(n: usize, threads: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let threads = effective_threads(threads).min(n.max(1));
    if threads <= 1 || n <= 1 {
        return (0..n).map(f).collect();
    }
    let counter = AtomicUsize::new(0);
    let mut slots: Vec<Option<R>> = (0..n).map(|_| None).collect();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| {
                    let mut produced: Vec<(usize, R)> = Vec::new();
                    loop {
                        let i = counter.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        produced.push((i, f(i)));
                    }
                    produced
                })
            })
            .collect();
        for handle in handles {
            for (i, r) in handle.join().expect("parallel worker panicked") {
                slots[i] = Some(r);
            }
        }
    });
    slots
        .into_iter()
        .map(|s| s.expect("every index produced exactly once"))
        .collect()
}

/// Like [`par_map`] for fallible items: returns the first error by index
/// order, if any.
///
/// All items are still evaluated (workers don't observe other workers'
/// failures), which keeps the call deterministic; the *reported* error is
/// the one with the smallest index.
///
/// # Errors
/// Returns the error of the smallest failing index.
pub fn try_par_map<R, E, F>(n: usize, threads: usize, f: F) -> Result<Vec<R>, E>
where
    R: Send,
    E: Send,
    F: Fn(usize) -> Result<R, E> + Sync,
{
    par_map(n, threads, f).into_iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_are_index_ordered() {
        let out = par_map(100, 4, |i| i * 3);
        assert_eq!(out, (0..100).map(|i| i * 3).collect::<Vec<_>>());
    }

    #[test]
    fn serial_and_parallel_agree() {
        let serial = par_map(37, 1, |i| (i as f64).sqrt());
        let parallel = par_map(37, 8, |i| (i as f64).sqrt());
        assert_eq!(serial, parallel);
    }

    #[test]
    fn zero_and_one_item_edge_cases() {
        assert_eq!(par_map(0, 4, |i| i), Vec::<usize>::new());
        assert_eq!(par_map(1, 4, |i| i + 1), vec![1]);
    }

    #[test]
    fn auto_thread_count_resolves() {
        assert!(effective_threads(0) >= 1);
        assert_eq!(effective_threads(3), 3);
    }

    #[test]
    fn try_par_map_reports_first_error() {
        let r: Result<Vec<usize>, usize> =
            try_par_map(10, 4, |i| if i % 4 == 3 { Err(i) } else { Ok(i) });
        assert_eq!(r.unwrap_err(), 3);
        let ok: Result<Vec<usize>, usize> = try_par_map(5, 2, Ok);
        assert_eq!(ok.unwrap(), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn uneven_work_is_balanced() {
        // Just exercises the stealing path with skewed item costs.
        let out = par_map(32, 4, |i| {
            let mut acc = 0u64;
            for k in 0..(i * 1000) {
                acc = acc.wrapping_add(k as u64);
            }
            (i, acc)
        });
        for (i, (j, _)) in out.iter().enumerate() {
            assert_eq!(i, *j);
        }
    }
}
