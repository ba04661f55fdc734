//! Deterministic parallel map over an index range.
//!
//! Every Monte-Carlo engine in the workspace that uses more than one core
//! splits its work into indexed units (a strike chunk, a variation sample,
//! a LUT row) whose random streams derive from the unit's index, never from
//! the worker that runs it. [`map_indexed`] is the one loop that hands
//! those units to workers: each worker claims the next unclaimed index from
//! a shared counter, and the results come back in index order. Which worker
//! ran which unit, and how many workers there were, therefore cannot show
//! in the output.
//!
//! # Examples
//!
//! ```
//! use finrad_numerics::par::map_indexed;
//! use std::num::NonZeroUsize;
//!
//! let three = NonZeroUsize::new(3).expect("non-zero");
//! let squares = map_indexed(5, three, |i| i * i);
//! assert_eq!(squares, vec![0, 1, 4, 9, 16]);
//! ```

use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Evaluates `f(0), f(1), …, f(n - 1)` on up to `threads` scoped workers
/// and returns the results in index order.
///
/// Workers claim indices one at a time from a shared counter, so a slow
/// unit never leaves a worker idle while others remain. With one worker
/// (or `n ≤ 1`) the map runs on the calling thread. The output depends
/// only on `f` and `n`: `threads` changes the speed, not the result.
///
/// # Panics
///
/// If `f` panics on a worker, every other worker finishes its current
/// claims and the first joined worker's panic payload is re-raised on the
/// calling thread with [`std::panic::resume_unwind`].
pub fn map_indexed<T, F>(n: usize, threads: NonZeroUsize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let threads = threads.get().min(n);
    if threads <= 1 {
        return (0..n).map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let worker = || {
        let mut out = Vec::new();
        loop {
            let i = next.fetch_add(1, Ordering::SeqCst);
            if i >= n {
                break;
            }
            out.push((i, f(i)));
        }
        out
    };
    let mut tagged: Vec<(usize, T)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads).map(|_| scope.spawn(worker)).collect();
        handles
            .into_iter()
            .flat_map(|h| match h.join() {
                Ok(r) => r,
                // Forward the worker's own panic payload instead of
                // replacing it with a generic message.
                Err(payload) => std::panic::resume_unwind(payload),
            })
            .collect()
    });
    tagged.sort_unstable_by_key(|&(i, _)| i);
    tagged.into_iter().map(|(_, t)| t).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn threads(n: usize) -> NonZeroUsize {
        NonZeroUsize::new(n).unwrap()
    }

    #[test]
    fn one_and_three_workers_give_equal_ordered_results() {
        // Uneven per-index work, so the three workers finish out of order.
        let f = |i: usize| -> (usize, f64) {
            let mut x = i as f64;
            for _ in 0..(i % 7) * 2000 {
                x = (x * 1.000_001).sin() + 1.0;
            }
            (i, x)
        };
        for n in [0, 1, 2, 3, 4, 97] {
            let one = map_indexed(n, threads(1), f);
            let three = map_indexed(n, threads(3), f);
            assert_eq!(one.len(), n);
            assert!(one.iter().enumerate().all(|(k, &(i, _))| i == k));
            let bits = |v: &[(usize, f64)]| -> Vec<(usize, u64)> {
                v.iter().map(|&(i, x)| (i, x.to_bits())).collect()
            };
            assert_eq!(bits(&one), bits(&three), "n = {n}");
        }
    }

    #[test]
    fn every_index_runs_exactly_once() {
        let calls = AtomicUsize::new(0);
        let out = map_indexed(1000, threads(4), |i| {
            calls.fetch_add(1, Ordering::SeqCst);
            i
        });
        assert_eq!(calls.load(Ordering::SeqCst), 1000);
        assert_eq!(out, (0..1000).collect::<Vec<_>>());
    }

    #[test]
    fn a_worker_panic_is_forwarded_with_its_payload() {
        let caught = std::panic::catch_unwind(|| {
            map_indexed(16, threads(3), |i| {
                assert!(i != 11, "unit {i} failed");
                i
            })
        });
        let payload = caught.expect_err("the panic must reach the caller");
        let msg = payload
            .downcast_ref::<String>()
            .map(String::as_str)
            .unwrap_or_default();
        assert_eq!(msg, "unit 11 failed");
    }
}
