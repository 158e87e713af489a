//! The abort signal (F3).
//!
//! A Wolfram Notebook user can abort an "infinite" evaluation without
//! quitting the session. The interpreter checks the flag periodically, the
//! legacy VM checks it per instruction, and the new compiler inserts checks
//! at loop headers and function prologues (§4.5).

use crate::error::RuntimeError;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

/// A shared, asynchronously-triggerable abort flag.
///
/// Cloning shares the underlying flag, and the flag may be triggered from
/// another thread (as a notebook front end would).
///
/// # Examples
///
/// ```
/// use wolfram_runtime::AbortSignal;
/// let signal = AbortSignal::new();
/// assert!(signal.check().is_ok());
/// signal.trigger();
/// assert!(signal.check().is_err());
/// signal.reset();
/// assert!(signal.check().is_ok());
/// ```
#[derive(Debug, Clone, Default)]
pub struct AbortSignal {
    flag: Arc<AtomicBool>,
}

impl AbortSignal {
    /// A fresh, untriggered signal.
    pub fn new() -> Self {
        Self::default()
    }

    /// Requests an abort. Running evaluations observe it at their next
    /// check point and unwind with [`RuntimeError::Aborted`].
    pub fn trigger(&self) {
        self.flag.store(true, Ordering::Release);
    }

    /// Clears the flag (the interpreter does this when the prompt returns).
    pub fn reset(&self) {
        self.flag.store(false, Ordering::Release);
    }

    /// Whether `self` and `other` share one flag (one is a clone of the
    /// other), so binding either to a machine is the same binding.
    pub fn ptr_eq(&self, other: &AbortSignal) -> bool {
        Arc::ptr_eq(&self.flag, &other.flag)
    }

    /// Whether an abort has been requested.
    pub fn is_triggered(&self) -> bool {
        self.flag.load(Ordering::Acquire)
    }

    /// The abort check compiled into loop headers and prologues.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::Aborted`] if the flag is set.
    #[inline]
    pub fn check(&self) -> Result<(), RuntimeError> {
        if self.is_triggered() {
            Err(RuntimeError::Aborted)
        } else {
            Ok(())
        }
    }

    /// Arms the signal to auto-trigger after `n` successful checks. Used by
    /// tests to simulate a user abort landing mid-computation.
    pub fn trigger_after(&self, n: u64) -> CountdownAbort {
        CountdownAbort {
            signal: self.clone(),
            remaining: n,
        }
    }

    /// Arms a wall-clock deadline: a watchdog thread triggers this signal
    /// after `after`, unless the returned guard is dropped first.
    ///
    /// Dropping the [`DeadlineGuard`] cancels the watchdog and joins it, so
    /// a completed evaluation never races with a late trigger on a reused
    /// signal. The signal itself is *not* reset by the guard — callers that
    /// reuse signals (like the difftest oracle's shared host interpreters)
    /// reset explicitly after checking [`DeadlineGuard::fired`].
    ///
    /// # Examples
    ///
    /// ```
    /// use std::time::Duration;
    /// use wolfram_runtime::AbortSignal;
    /// let signal = AbortSignal::new();
    /// {
    ///     let _guard = signal.deadline(Duration::from_secs(60));
    ///     // ... finishes well before the deadline ...
    /// } // guard dropped: watchdog cancelled
    /// assert!(!signal.is_triggered());
    /// ```
    pub fn deadline(&self, after: Duration) -> DeadlineGuard {
        let state = Arc::new(DeadlineState {
            lock: Mutex::new(false),
            cancelled: Condvar::new(),
            fired: AtomicBool::new(false),
        });
        let armed = self.clone();
        let shared = Arc::clone(&state);
        let watchdog = std::thread::spawn(move || {
            let mut done = shared.lock.lock().expect("deadline lock poisoned");
            let deadline = std::time::Instant::now() + after;
            while !*done {
                let now = std::time::Instant::now();
                let Some(left) = deadline
                    .checked_duration_since(now)
                    .filter(|d| !d.is_zero())
                else {
                    shared.fired.store(true, Ordering::Release);
                    armed.trigger();
                    return;
                };
                let (guard, _timeout) = shared
                    .cancelled
                    .wait_timeout(done, left)
                    .expect("deadline lock poisoned");
                done = guard;
            }
        });
        DeadlineGuard {
            state,
            watchdog: Some(watchdog),
        }
    }
}

/// Shared state between a [`DeadlineGuard`] and its watchdog thread.
#[derive(Debug)]
struct DeadlineState {
    /// Set to `true` by the guard to cancel the watchdog.
    lock: Mutex<bool>,
    cancelled: Condvar,
    /// Whether the watchdog actually triggered the signal.
    fired: AtomicBool,
}

/// Cancels an armed [`AbortSignal::deadline`] watchdog when dropped.
#[derive(Debug)]
pub struct DeadlineGuard {
    state: Arc<DeadlineState>,
    watchdog: Option<std::thread::JoinHandle<()>>,
}

impl DeadlineGuard {
    /// Whether the deadline expired and triggered the signal.
    pub fn fired(&self) -> bool {
        self.state.fired.load(Ordering::Acquire)
    }
}

impl Drop for DeadlineGuard {
    fn drop(&mut self) {
        if let Ok(mut done) = self.state.lock.lock() {
            *done = true;
        }
        self.state.cancelled.notify_all();
        if let Some(handle) = self.watchdog.take() {
            let _ = handle.join();
        }
    }
}

/// Helper that triggers an [`AbortSignal`] after a countdown of checks.
#[derive(Debug)]
pub struct CountdownAbort {
    signal: AbortSignal,
    remaining: u64,
}

impl CountdownAbort {
    /// Decrements the countdown; triggers the signal when it reaches zero.
    pub fn tick(&mut self) {
        if self.remaining == 0 {
            self.signal.trigger();
        } else {
            self.remaining -= 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shared_across_clones() {
        let a = AbortSignal::new();
        let b = a.clone();
        b.trigger();
        assert!(a.is_triggered());
        assert_eq!(a.check(), Err(RuntimeError::Aborted));
    }

    #[test]
    fn cross_thread_trigger() {
        let a = AbortSignal::new();
        let b = a.clone();
        std::thread::spawn(move || b.trigger()).join().unwrap();
        assert!(a.is_triggered());
    }

    #[test]
    fn deadline_fires_after_timeout() {
        let signal = AbortSignal::new();
        let guard = signal.deadline(Duration::from_millis(10));
        let start = std::time::Instant::now();
        while !signal.is_triggered() {
            assert!(
                start.elapsed() < Duration::from_secs(5),
                "watchdog never fired"
            );
            std::thread::yield_now();
        }
        assert!(guard.fired());
        assert_eq!(signal.check(), Err(RuntimeError::Aborted));
    }

    #[test]
    fn deadline_cancelled_by_drop() {
        let signal = AbortSignal::new();
        let guard = signal.deadline(Duration::from_secs(60));
        assert!(!guard.fired());
        drop(guard); // joins the watchdog without waiting a minute
        assert!(!signal.is_triggered());
    }

    #[test]
    fn countdown() {
        let a = AbortSignal::new();
        let mut countdown = a.trigger_after(2);
        countdown.tick();
        assert!(!a.is_triggered());
        countdown.tick();
        assert!(!a.is_triggered());
        countdown.tick();
        assert!(a.is_triggered());
    }
}
