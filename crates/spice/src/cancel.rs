//! Cooperative cancellation for long-running solves.
//!
//! A [`CancelToken`] is a cheap, cloneable flag (optionally with a
//! wall-clock deadline) that a supervisor hands to a worker thread. The
//! worker registers it for its own thread with [`install_scoped`]; while
//! the guard is alive every Newton solve, recovery-ladder rung and
//! transient step on that thread polls the token and aborts with
//! [`SpiceError::Cancelled`] instead of burning iterations on an answer
//! nobody will read. Cancellation is *cooperative*: nothing is interrupted
//! mid-factorization, the solver simply refuses to start the next solve.
//!
//! The registry is keyed by [`std::thread::ThreadId`] behind a mutex, with
//! an atomic active-count fast path so the uncancellable common case (no
//! token installed anywhere in the process) costs a single atomic load per
//! solve and never touches the lock.
//!
//! [`SpiceError::Cancelled`]: crate::SpiceError::Cancelled

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::thread::ThreadId;
use std::time::Instant;

#[derive(Debug)]
struct Inner {
    cancelled: AtomicBool,
    deadline: Option<Instant>,
}

/// A cloneable cancellation flag with an optional wall-clock deadline.
///
/// All clones share one underlying flag: cancelling any clone cancels them
/// all. A token whose deadline has passed reports cancelled without anyone
/// calling [`CancelToken::cancel`].
#[derive(Debug, Clone)]
pub struct CancelToken {
    inner: Arc<Inner>,
}

impl Default for CancelToken {
    fn default() -> Self {
        Self::new()
    }
}

impl CancelToken {
    /// A token that only cancels when [`CancelToken::cancel`] is called.
    pub fn new() -> Self {
        Self {
            inner: Arc::new(Inner {
                cancelled: AtomicBool::new(false),
                deadline: None,
            }),
        }
    }

    /// A token that additionally auto-cancels once `deadline` passes.
    pub fn with_deadline(deadline: Instant) -> Self {
        Self {
            inner: Arc::new(Inner {
                cancelled: AtomicBool::new(false),
                deadline: Some(deadline),
            }),
        }
    }

    /// Cancels the token (idempotent; observed by all clones).
    pub fn cancel(&self) {
        self.inner.cancelled.store(true, Ordering::SeqCst);
    }

    /// Whether the token is cancelled, either explicitly or by deadline.
    pub fn is_cancelled(&self) -> bool {
        self.reason().is_some()
    }

    /// Why the token is cancelled, if it is: `"cancelled"` for an explicit
    /// [`CancelToken::cancel`], `"deadline exceeded"` when the wall-clock
    /// deadline has passed.
    pub fn reason(&self) -> Option<&'static str> {
        if self.inner.cancelled.load(Ordering::SeqCst) {
            return Some("cancelled");
        }
        if self.inner.deadline.is_some_and(|d| Instant::now() >= d) {
            return Some("deadline exceeded");
        }
        None
    }
}

/// Count of live per-thread registrations; the solver's fast path.
static ACTIVE: AtomicUsize = AtomicUsize::new(0);

fn registry() -> &'static Mutex<HashMap<ThreadId, CancelToken>> {
    static REGISTRY: OnceLock<Mutex<HashMap<ThreadId, CancelToken>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(HashMap::new()))
}

fn lock_registry() -> std::sync::MutexGuard<'static, HashMap<ThreadId, CancelToken>> {
    // A panicking worker (caught upstream by its supervisor) must not
    // disable cancellation for every other thread.
    crate::sync::lock_recovering(registry())
}

/// Registers `token` as the cancellation token of the *current thread* for
/// the lifetime of the returned guard. Solves executed on this thread poll
/// it; dropping the guard (or replacing it with a nested install) detaches
/// the token.
pub fn install_scoped(token: &CancelToken) -> CancelScope {
    let id = std::thread::current().id();
    let previous = lock_registry().insert(id, token.clone());
    if previous.is_none() {
        ACTIVE.fetch_add(1, Ordering::SeqCst);
    }
    CancelScope { id, previous }
}

/// Guard returned by [`install_scoped`]; restores the thread's previous
/// token (or none) on drop.
#[derive(Debug)]
pub struct CancelScope {
    id: ThreadId,
    previous: Option<CancelToken>,
}

impl Drop for CancelScope {
    fn drop(&mut self) {
        let mut map = lock_registry();
        match self.previous.take() {
            Some(prev) => {
                map.insert(self.id, prev);
            }
            None => {
                if map.remove(&self.id).is_some() {
                    ACTIVE.fetch_sub(1, Ordering::SeqCst);
                }
            }
        }
    }
}

/// The token installed for the current thread, if any. A worker pool that
/// runs a thread's solves on other threads installs it on each of them;
/// the registry is per thread, so a fresh thread starts with none. One
/// atomic load when no thread in the process has a token installed.
pub fn current() -> Option<CancelToken> {
    if ACTIVE.load(Ordering::SeqCst) == 0 {
        return None;
    }
    lock_registry().get(&std::thread::current().id()).cloned()
}

/// Why the current thread's solve should abort, if it should: `None` when
/// no token is installed for this thread or the installed token is live.
/// One atomic load when no thread in the process has a token installed.
pub(crate) fn cancelled_reason() -> Option<&'static str> {
    current().and_then(|t| t.reason())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn token_cancels_all_clones() {
        let a = CancelToken::new();
        let b = a.clone();
        assert!(!b.is_cancelled());
        a.cancel();
        assert!(b.is_cancelled());
        assert_eq!(b.reason(), Some("cancelled"));
    }

    #[test]
    fn deadline_auto_cancels() {
        let t = CancelToken::with_deadline(Instant::now() - Duration::from_millis(1));
        assert_eq!(t.reason(), Some("deadline exceeded"));
        let live = CancelToken::with_deadline(Instant::now() + Duration::from_secs(3600));
        assert!(!live.is_cancelled());
    }

    #[test]
    fn scoped_install_is_per_thread_and_nests() {
        let outer = CancelToken::new();
        let inner = CancelToken::new();
        assert_eq!(cancelled_reason(), None);
        {
            let _g1 = install_scoped(&outer);
            assert_eq!(cancelled_reason(), None);
            outer.cancel();
            assert_eq!(cancelled_reason(), Some("cancelled"));
            {
                // Nested install shadows, drop restores the outer token.
                let _g2 = install_scoped(&inner);
                assert_eq!(cancelled_reason(), None);
            }
            assert_eq!(cancelled_reason(), Some("cancelled"));
        }
        assert_eq!(cancelled_reason(), None);

        // Another thread never sees this thread's token.
        let other = CancelToken::new();
        other.cancel();
        let _g = install_scoped(&other);
        std::thread::spawn(|| assert_eq!(cancelled_reason(), None))
            .join()
            .expect("spawned thread");
    }
}
