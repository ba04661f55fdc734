//! Poison-tolerant synchronization helpers.
//!
//! The campaign daemon and the pipeline's e–h pair LUT slots both follow
//! the same policy for lock poisoning: recover the inner data instead of
//! propagating the panic. All job code runs under `catch_unwind` *off*-lock, so a thread
//! panicking while holding one of these locks cannot happen in the first
//! place — but if it ever does, a poisoned `Mutex` must not wedge the daemon
//! (a wedged daemon loses the partial checkpoints a clean shutdown would
//! flush). Rather than repeat `lock().unwrap_or_else(|p| p.into_inner())`
//! at every call site, this module is the single, documented home of that
//! idiom.
//!
//! These helpers are also the **sanctioned span** for the `lock-order-audit`
//! and `guard-lifetime-audit` lint families in `cargo xtask lint`: the raw
//! poison-recovery token pattern anywhere else in the workspace is flagged,
//! so new code is pushed toward this module instead of re-inlining it.

use std::sync::{Condvar, Mutex, MutexGuard, WaitTimeoutResult};
use std::time::Duration;

/// Locks `mutex`, recovering the guard from a poisoned lock.
///
/// Use this instead of `mutex.lock().unwrap()` (which would panic and
/// cascade) or an inline `unwrap_or_else(|p| p.into_inner())` (which the
/// lint gate flags outside this module).
pub fn lock_recovering<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(|p| p.into_inner())
}

/// Blocks on `cv`, consuming and re-returning the guard, recovering from
/// poisoning exactly like [`lock_recovering`].
pub fn wait_recovering<'a, T>(cv: &Condvar, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
    cv.wait(guard).unwrap_or_else(|p| p.into_inner())
}

/// Bounded [`wait_recovering`]: blocks on `cv` for at most `dur`.
pub fn wait_timeout_recovering<'a, T>(
    cv: &Condvar,
    guard: MutexGuard<'a, T>,
    dur: Duration,
) -> (MutexGuard<'a, T>, WaitTimeoutResult) {
    cv.wait_timeout(guard, dur)
        .unwrap_or_else(|p| p.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Arc, Condvar, Mutex};
    use std::time::Duration;

    fn poisoned(value: u32) -> Arc<Mutex<u32>> {
        let m = Arc::new(Mutex::new(value));
        let m2 = Arc::clone(&m);
        let _ = std::thread::spawn(move || {
            let _guard = m2.lock().unwrap();
            panic!("poison the lock");
        })
        .join();
        assert!(m.is_poisoned());
        m
    }

    #[test]
    fn lock_recovering_survives_poison() {
        let m = poisoned(7);
        assert_eq!(*lock_recovering(&m), 7);
        // Still usable afterwards.
        *lock_recovering(&m) += 1;
        assert_eq!(*lock_recovering(&m), 8);
    }

    #[test]
    fn wait_timeout_recovering_times_out_and_returns_guard() {
        let m = Mutex::new(1u32);
        let cv = Condvar::new();
        let g = lock_recovering(&m);
        let (g, timeout) = wait_timeout_recovering(&cv, g, Duration::from_millis(1));
        assert!(timeout.timed_out());
        assert_eq!(*g, 1);
    }

    #[test]
    fn wait_recovering_wakes_on_notify() {
        let pair = Arc::new((Mutex::new(false), Condvar::new()));
        let pair2 = Arc::clone(&pair);
        let waker = std::thread::spawn(move || {
            let (m, cv) = &*pair2;
            *lock_recovering(m) = true;
            cv.notify_all();
        });
        let (m, cv) = &*pair;
        let mut done = lock_recovering(m);
        while !*done {
            done = wait_recovering(cv, done);
        }
        waker.join().unwrap();
    }
}
