//! Fault-isolated experiment execution: panics become [`Error`]s and
//! transient failures get a bounded retry.
//!
//! One failing experiment must not take down a multi-experiment study:
//! `mps-harness all` runs every experiment through [`run_isolated`], so a
//! panic in one figure is reported (and exits nonzero at the end) while
//! the remaining figures still run — and, with a store attached,
//! everything already computed stays reusable by the rerun.

use mps_store::{Error, Result};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Retry policy for [`run_isolated`].
#[derive(Debug, Clone, Copy, Default)]
pub struct IsolateOptions {
    /// Extra attempts after the first failure (0 = fail fast).
    pub retries: u32,
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

/// Runs `work` on the caller's thread, catching panics, with up to
/// `opts.retries` repeat attempts.
///
/// `work` must be `Fn` (not `FnOnce`) so a failed attempt can be retried;
/// experiments are pure functions of a `StudyContext`, so reruns are safe
/// and — thanks to the deterministic seeding — identical.
///
/// # Errors
///
/// [`Error::WorkerPanic`] when every attempt panicked, or the last inner
/// error when `work` itself fails.
pub fn run_isolated<T, F>(what: &str, opts: IsolateOptions, work: F) -> Result<T>
where
    F: Fn() -> Result<T>,
{
    let attempt_hist = mps_obs::histogram("isolate.attempt.latency_us");
    let mut last_err: Option<Error> = None;
    for attempt in 0..=opts.retries {
        if attempt > 0 {
            mps_obs::counter("isolate.retry").incr();
            mps_obs::event(
                "isolate.retry",
                &[("what", what.to_owned()), ("attempt", attempt.to_string())],
            );
        }
        let started = std::time::Instant::now();
        let outcome = catch_unwind(AssertUnwindSafe(&work)).unwrap_or_else(|p| {
            Err(Error::WorkerPanic {
                what: what.to_owned(),
                detail: panic_message(p),
            })
        });
        attempt_hist.record_duration(started.elapsed());
        match outcome {
            Ok(v) => return Ok(v),
            Err(e) => {
                let retryable = matches!(e, Error::WorkerPanic { .. } | Error::Io(_));
                last_err = Some(e);
                if !retryable {
                    break;
                }
            }
        }
    }
    Err(last_err.expect("loop ran at least once"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU32, Ordering};

    #[test]
    fn success_passes_value_through() {
        let v = run_isolated("ok", IsolateOptions::default(), || Ok(41 + 1)).unwrap();
        assert_eq!(v, 42);
    }

    #[test]
    fn panic_becomes_worker_panic_error() {
        let err = run_isolated("boom", IsolateOptions::default(), || -> Result<()> {
            panic!("exploded at cell 7")
        })
        .unwrap_err();
        match err {
            Error::WorkerPanic { what, detail } => {
                assert_eq!(what, "boom");
                assert!(detail.contains("exploded at cell 7"), "{detail}");
            }
            other => panic!("wrong error: {other}"),
        }
    }

    #[test]
    fn panics_are_retried_to_success() {
        let attempts = AtomicU32::new(0);
        let v = run_isolated("flaky", IsolateOptions { retries: 2 }, || {
            if attempts.fetch_add(1, Ordering::SeqCst) < 2 {
                panic!("transient");
            }
            Ok(7)
        })
        .unwrap();
        assert_eq!(v, 7);
        assert_eq!(attempts.load(Ordering::SeqCst), 3);
    }

    #[test]
    fn domain_errors_are_not_retried() {
        let attempts = AtomicU32::new(0);
        let err = run_isolated(
            "invalid",
            IsolateOptions { retries: 5 },
            || -> Result<()> {
                attempts.fetch_add(1, Ordering::SeqCst);
                Err(Error::InvalidInput("bad cores".to_owned()))
            },
        )
        .unwrap_err();
        assert!(matches!(err, Error::InvalidInput(_)), "{err}");
        assert_eq!(attempts.load(Ordering::SeqCst), 1, "no retry on bad input");
    }
}
