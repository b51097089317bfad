//! The workspace's one worker pool: isolated calibration runs, training
//! profiles and pair runs, and the experiment sweeps all map over it.

/// Runs `job` over `items` on up to `threads` workers, preserving order.
///
/// Each worker writes results into its own local buffer — there is no
/// lock on the result path, so a panicking job cannot poison shared
/// state. A panic in any job stops the remaining workers from claiming
/// new items and is re-raised on the caller with the job's own payload
/// (the lowest-index panic wins when several jobs fail), not a secondary
/// `PoisonError` that hides the root cause.
pub fn parallel_map<T: Sync, R: Send>(
    items: &[T],
    threads: usize,
    job: impl Fn(&T) -> R + Sync,
) -> Vec<R> {
    use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

    let n = items.len();
    let threads = threads.max(1).min(n.max(1));
    let next = AtomicUsize::new(0);
    let poisoned = AtomicBool::new(false);
    let job = &job;
    let mut results: Vec<(usize, R)> = Vec::with_capacity(n);
    let mut panics: Vec<(usize, Box<dyn std::any::Any + Send>)> = Vec::new();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| {
                    let mut local: Vec<(usize, R)> = Vec::new();
                    let mut failure = None;
                    while !poisoned.load(Ordering::Relaxed) {
                        let k = next.fetch_add(1, Ordering::Relaxed);
                        if k >= n {
                            break;
                        }
                        match catch_unwind(AssertUnwindSafe(|| job(&items[k]))) {
                            Ok(r) => local.push((k, r)),
                            Err(payload) => {
                                poisoned.store(true, Ordering::Relaxed);
                                failure = Some((k, payload));
                                break;
                            }
                        }
                    }
                    (local, failure)
                })
            })
            .collect();
        for h in handles {
            let (local, failure) = h.join().expect("worker caught its job's panic");
            results.extend(local);
            if let Some(f) = failure {
                panics.push(f);
            }
        }
    });
    if let Some((_, payload)) = panics.into_iter().min_by_key(|&(k, _)| k) {
        resume_unwind(payload);
    }
    let mut out: Vec<Option<R>> = (0..n).map(|_| None).collect();
    for (k, r) in results {
        out[k] = Some(r);
    }
    out.into_iter().map(|x| x.unwrap()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_map_preserves_order() {
        let items: Vec<u32> = (0..20).collect();
        let out = parallel_map(&items, 4, |&x| x * 3);
        assert_eq!(out, (0..20).map(|x| x * 3).collect::<Vec<_>>());
    }

    /// Regression: a panicking job used to poison the shared result mutex,
    /// so the caller saw a `PoisonError` from an unrelated worker instead
    /// of the job's own message. The original payload must surface.
    #[test]
    fn parallel_map_surfaces_the_panicking_jobs_own_message() {
        let items: Vec<u32> = (0..20).collect();
        let err = std::panic::catch_unwind(|| {
            parallel_map(&items, 4, |&x| {
                if x == 13 {
                    panic!("job 13 exploded");
                }
                x * 2
            })
        })
        .unwrap_err();
        let msg = err
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_else(|| err.downcast_ref::<&str>().unwrap_or(&"").to_string());
        assert!(
            msg.contains("job 13 exploded"),
            "payload was {msg:?}, not the failing job's panic"
        );
    }
}
