//! The scoped worker pool: one-shot sharded maps and multi-round fleet
//! execution over persistent per-shard state.
//!
//! Both entry points share the same determinism contract:
//!
//! * work is assigned by [`crate::shard::partition`] — static,
//!   contiguous, worker-count-capped shards;
//! * results are reduced on the caller's thread in **shard-index order**
//!   (= item order, shards being contiguous), never in completion order;
//! * a panic inside one shard is caught at the shard boundary and
//!   surfaced as a typed [`ParError::ShardPanic`] — no poisoned locks,
//!   no hung receivers, and the remaining shards wind down cleanly.
//!
//! With those rules, a run's observable output is a pure function of its
//! inputs and per-stream seeds, independent of the worker count.

use std::num::NonZeroUsize;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread;

use crate::{ParError, RoundsError};

/// Renders a caught panic payload for [`ParError::ShardPanic`].
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Locks a mutex, shrugging off poisoning. The pool's protocol never
/// unwinds while holding a lock (all caller code runs under
/// `catch_unwind`), so a poisoned mutex still holds consistent data.
fn lock_ignore_poison<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    match m.lock() {
        Ok(guard) => guard,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// Iterations of `spin_loop` before a barrier waiter parks on the
/// condvar. Sized for round-granularity in the tens of microseconds:
/// on a multi-core box waiters almost always catch the release while
/// still spinning, which is what makes per-slot barriers cheaper than
/// channel round-trips. On a single-core box spinning only delays the
/// releaser, so the spin phase is skipped entirely.
const SPIN_LIMIT: u32 = 1 << 14;

/// A reusable sense-reversing barrier: brief spin, then park.
///
/// `wait` returns once all `parties` arrive. Alternating two barriers
/// gives a release/acquire-paired round protocol: everything a thread
/// wrote before entering a barrier is visible to every thread after it
/// leaves. Safe to reuse because a thread can only re-enter one barrier
/// after the whole fleet passed the *other* one.
struct SpinBarrier {
    parties: usize,
    spin_limit: u32,
    count: AtomicUsize,
    generation: AtomicUsize,
    lock: Mutex<()>,
    cv: Condvar,
}

impl SpinBarrier {
    fn new(parties: usize) -> Self {
        let cores = thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        SpinBarrier {
            parties,
            spin_limit: if cores > 1 { SPIN_LIMIT } else { 0 },
            count: AtomicUsize::new(0),
            generation: AtomicUsize::new(0),
            lock: Mutex::new(()),
            cv: Condvar::new(),
        }
    }

    fn wait(&self) {
        let gen = self.generation.load(Ordering::SeqCst);
        let arrived = self.count.fetch_add(1, Ordering::SeqCst) + 1;
        if arrived == self.parties {
            self.count.store(0, Ordering::SeqCst);
            self.generation.store(gen.wrapping_add(1), Ordering::SeqCst);
            // Serialize with the check-then-park below (an empty
            // critical section suffices), then wake any parked waiters.
            drop(lock_ignore_poison(&self.lock));
            self.cv.notify_all();
        } else {
            let mut spins = 0u32;
            while self.generation.load(Ordering::SeqCst) == gen {
                if spins < self.spin_limit {
                    spins += 1;
                    std::hint::spin_loop();
                } else {
                    // Park. Re-checking the generation under the lock
                    // closes the missed-wakeup race: the releaser takes
                    // the lock before notifying.
                    let mut guard = lock_ignore_poison(&self.lock);
                    while self.generation.load(Ordering::SeqCst) == gen {
                        guard = match self.cv.wait(guard) {
                            Ok(g) => g,
                            Err(poisoned) => poisoned.into_inner(),
                        };
                    }
                    return;
                }
            }
        }
    }
}

/// Releases the worker fleet exactly once: sets the stop flag and joins
/// the start barrier so every worker wakes, observes the flag, and
/// exits. Runs on drop too, so a panic in caller-supplied `make_ctx` or
/// `apply` on the driving thread can never leave workers spinning at a
/// barrier that will not open.
struct FleetRelease<'a> {
    stop: &'a AtomicBool,
    start: &'a SpinBarrier,
    released: bool,
}

impl FleetRelease<'_> {
    fn release(&mut self) {
        if !self.released {
            self.released = true;
            self.stop.store(true, Ordering::SeqCst);
            self.start.wait();
        }
    }
}

impl Drop for FleetRelease<'_> {
    fn drop(&mut self) {
        self.release();
    }
}

/// Maps `f` over `items` on up to `workers` threads and returns the
/// results in item order.
///
/// `f` receives the *global* item index alongside the item, so output
/// never depends on the shard layout. With one worker (or one item) the
/// map runs inline on the caller's thread — the code path the
/// differential tests compare the threaded one against.
///
/// # Errors
///
/// Returns [`ParError::ShardPanic`] naming the first shard (in shard
/// order) whose closure panicked; results from other shards are
/// discarded.
///
/// # Shared mutation does not compile
///
/// `f` is `Fn + Sync`, so a closure that writes to a captured local is
/// rejected; shards return their contribution and the caller folds it:
///
/// ```compile_fail,E0594
/// use std::num::NonZeroUsize;
/// let workers = NonZeroUsize::MIN;
/// let mut total = 0;
/// let _ = leime_par::par_map_shards(&[1u32, 2, 3], workers, |_i, x| {
///     total += 1;
///     *x
/// });
/// ```
pub fn par_map_shards<T, R, F>(items: &[T], workers: NonZeroUsize, f: F) -> Result<Vec<R>, ParError>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let shards = crate::shard::partition(items.len(), workers.get());
    if shards.len() <= 1 {
        // Inline fast path; still panic-guarded so the error surface is
        // identical at every worker count.
        return catch_unwind(AssertUnwindSafe(|| {
            items.iter().enumerate().map(|(i, t)| f(i, t)).collect()
        }))
        .map_err(|payload| ParError::ShardPanic {
            shard: 0,
            message: panic_message(payload),
        });
    }
    thread::scope(|scope| {
        let f = &f;
        let handles: Vec<_> = shards
            .into_iter()
            .map(|range| {
                scope.spawn(move || {
                    catch_unwind(AssertUnwindSafe(|| {
                        range.map(|i| f(i, &items[i])).collect::<Vec<R>>()
                    }))
                })
            })
            .collect();
        let mut out = Vec::with_capacity(items.len());
        let mut first_failure: Option<ParError> = None;
        for (shard, handle) in handles.into_iter().enumerate() {
            // A scoped thread's closure never unwinds (the panic is
            // caught inside it), so join only fails if the thread was
            // killed outright; fold that into the same typed error.
            let joined = handle.join().unwrap_or_else(Err);
            match joined {
                Ok(chunk) => out.extend(chunk),
                Err(payload) => {
                    if first_failure.is_none() {
                        first_failure = Some(ParError::ShardPanic {
                            shard,
                            message: panic_message(payload),
                        });
                    }
                }
            }
        }
        match first_failure {
            None => Ok(out),
            Some(e) => Err(e),
        }
    })
}

/// Runs `rounds` synchronized rounds over persistent per-shard state.
///
/// Workers are spawned once and live for the whole call; the caller's
/// thread works shard 0 itself, so `workers = N` costs `N − 1` spawned
/// threads. Each round, the caller's thread builds a broadcast context
/// with `make_ctx(round)`, every shard applies
/// `work(shard_id, round, &ctx, &mut state)` to its own state, and the
/// caller's thread folds the shard outputs — ordered by shard index —
/// with `apply(round, outputs)`. On success the final per-shard states
/// come back in shard order.
///
/// Rounds are barriers: round `r + 1` starts only after every shard's
/// round-`r` output has been applied. The barrier is a spin-then-yield
/// `SpinBarrier` pair rather than channels — at fleet-simulation
/// granularity (tens of microseconds of work per round) channel
/// round-trips cost more than the round itself. Per-shard state never
/// crosses shards, which is what lets the slotted simulator keep
/// per-device queues, RNG streams and degradation ladders bit-identical
/// to a sequential run.
///
/// With a single shard everything runs inline on the caller's thread.
///
/// # Errors
///
/// * [`RoundsError::Par`] — a shard panicked ([`ParError::ShardPanic`])
///   or a worker vanished ([`ParError::WorkerLost`]); in-flight work on
///   other shards is discarded and all threads are joined before
///   returning.
/// * [`RoundsError::Apply`] — `apply` itself failed; the pool shuts
///   down the same way.
///
/// # Shared mutation does not compile
///
/// `work` is `Fn + Sync`: it may mutate its own shard state, but a
/// write to a captured local is rejected. Cross-shard tallies belong in
/// `apply`, which runs on the caller's thread in shard order:
///
/// ```compile_fail,E0594
/// use std::num::NonZeroUsize;
/// let mut total = 0;
/// let _ = leime_par::run_rounds(
///     vec![0u32; 2],
///     3,
///     |round| round,
///     |_shard, _round, _ctx: &usize, state: &mut u32| {
///         total += 1;
///         *state += 1;
///     },
///     |_round, _outs: Vec<()>| Ok::<(), ()>(()),
/// );
/// ```
pub fn run_rounds<S, Ctx, Out, E, MkCtx, Work, Apply>(
    shards: Vec<S>,
    rounds: usize,
    mut make_ctx: MkCtx,
    work: Work,
    mut apply: Apply,
) -> Result<Vec<S>, RoundsError<E>>
where
    S: Send,
    Ctx: Send + Sync,
    Out: Send,
    MkCtx: FnMut(usize) -> Ctx,
    Work: Fn(usize, usize, &Ctx, &mut S) -> Out + Sync,
    Apply: FnMut(usize, Vec<Out>) -> Result<(), E>,
{
    if shards.len() <= 1 {
        let mut shards = shards;
        for round in 0..rounds {
            let ctx = make_ctx(round);
            let mut outs = Vec::with_capacity(1);
            if let Some(state) = shards.first_mut() {
                let result = catch_unwind(AssertUnwindSafe(|| work(0, round, &ctx, state)));
                match result {
                    Ok(out) => outs.push(out),
                    Err(payload) => {
                        return Err(RoundsError::Par(ParError::ShardPanic {
                            shard: 0,
                            message: panic_message(payload),
                        }))
                    }
                }
            }
            apply(round, outs).map_err(RoundsError::Apply)?;
        }
        return Ok(shards);
    }

    let n_shards = shards.len();
    let mut shards = shards.into_iter();
    let Some(mut state0) = shards.next() else {
        // Unreachable: n_shards > 1 here; fail closed rather than panic.
        return Err(RoundsError::Par(ParError::WorkerLost { shard: 0 }));
    };

    // Round protocol: the driver publishes the round's context, the
    // `start` barrier opens, every shard (driver included, as shard 0)
    // computes, the `end` barrier closes the round, and the driver
    // collects each shard's slot in shard order. Workers only observe
    // the stop flag immediately after `start`, and the driver only
    // raises it before joining `start` — so no thread can be left at a
    // barrier that never opens, panic or no panic.
    let stop = AtomicBool::new(false);
    let ctx_slot: Mutex<Option<Arc<Ctx>>> = Mutex::new(None);
    let results: Vec<Mutex<Option<Result<Out, String>>>> =
        (1..n_shards).map(|_| Mutex::new(None)).collect();
    let start = SpinBarrier::new(n_shards);
    let end = SpinBarrier::new(n_shards);

    thread::scope(|scope| {
        let work = &work;
        let handles: Vec<_> = shards
            .enumerate()
            .map(|(idx, mut state)| {
                let shard_id = idx + 1;
                let (stop, ctx_slot, results, start, end) =
                    (&stop, &ctx_slot, &results, &start, &end);
                scope.spawn(move || {
                    let mut round = 0usize;
                    loop {
                        start.wait();
                        if stop.load(Ordering::SeqCst) {
                            break;
                        }
                        let ctx = lock_ignore_poison(ctx_slot).clone();
                        let out = match ctx {
                            Some(ctx) => catch_unwind(AssertUnwindSafe(|| {
                                work(shard_id, round, ctx.as_ref(), &mut state)
                            }))
                            .map_err(panic_message),
                            // Unreachable: the driver publishes the
                            // context before every `start`.
                            None => Err("round context missing".to_string()),
                        };
                        *lock_ignore_poison(&results[idx]) = Some(out);
                        end.wait();
                        round += 1;
                    }
                    state
                })
            })
            .collect();

        let mut fleet = FleetRelease {
            stop: &stop,
            start: &start,
            released: false,
        };
        let mut failure: Option<RoundsError<E>> = None;
        'rounds: for round in 0..rounds {
            let ctx = Arc::new(make_ctx(round));
            *lock_ignore_poison(&ctx_slot) = Some(Arc::clone(&ctx));
            start.wait();
            let out0 = catch_unwind(AssertUnwindSafe(|| {
                work(0, round, ctx.as_ref(), &mut state0)
            }))
            .map_err(panic_message);
            end.wait();

            let mut ordered = Vec::with_capacity(n_shards);
            for (shard, out) in std::iter::once((0, Some(out0))).chain(
                results
                    .iter()
                    .enumerate()
                    .map(|(idx, slot)| (idx + 1, lock_ignore_poison(slot).take())),
            ) {
                match out {
                    Some(Ok(out)) => ordered.push(out),
                    Some(Err(message)) => {
                        failure = Some(RoundsError::Par(ParError::ShardPanic { shard, message }));
                        break 'rounds;
                    }
                    // An empty slot after `end` means the worker never
                    // ran its round — impossible under this protocol,
                    // but fail closed rather than reduce garbage.
                    None => {
                        failure = Some(RoundsError::Par(ParError::WorkerLost { shard }));
                        break 'rounds;
                    }
                }
            }
            if let Err(e) = apply(round, ordered) {
                failure = Some(RoundsError::Apply(e));
                break 'rounds;
            }
        }

        // Wake the fleet one last time with the stop flag up; every
        // worker exits its loop and hands its state back, so join cannot
        // hang.
        fleet.release();
        let mut finals = Vec::with_capacity(n_shards);
        finals.push(state0);
        for (idx, handle) in handles.into_iter().enumerate() {
            match handle.join() {
                Ok(state) => finals.push(state),
                Err(payload) => {
                    if failure.is_none() {
                        failure = Some(RoundsError::Par(ParError::ShardPanic {
                            shard: idx + 1,
                            message: panic_message(payload),
                        }));
                    }
                }
            }
        }
        match failure {
            None => Ok(finals),
            Some(e) => Err(e),
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn w(n: usize) -> NonZeroUsize {
        NonZeroUsize::new(n).unwrap()
    }

    #[test]
    fn par_map_matches_sequential_at_every_worker_count() {
        let items: Vec<u64> = (0..37).collect();
        let expect: Vec<u64> = items.iter().map(|x| x * x + 1).collect();
        for workers in [1, 2, 3, 5, 8, 64] {
            let got = par_map_shards(&items, w(workers), |_, x| x * x + 1).unwrap();
            assert_eq!(got, expect, "workers = {workers}");
        }
    }

    #[test]
    fn par_map_passes_global_indices() {
        let items = vec!["a"; 10];
        let got = par_map_shards(&items, w(3), |i, _| i).unwrap();
        assert_eq!(got, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn par_map_empty_and_singleton() {
        let empty: Vec<u32> = Vec::new();
        assert_eq!(par_map_shards(&empty, w(4), |_, x| *x).unwrap(), empty);
        assert_eq!(par_map_shards(&[9u32], w(4), |_, x| *x).unwrap(), vec![9]);
    }

    #[test]
    fn par_map_panic_surfaces_as_typed_error() {
        let items: Vec<u32> = (0..20).collect();
        for workers in [1, 4] {
            let err = par_map_shards(&items, w(workers), |i, _| {
                assert!(i != 13, "boom at 13");
                i
            })
            .unwrap_err();
            match err {
                ParError::ShardPanic { message, .. } => {
                    assert!(message.contains("boom at 13"), "message: {message}")
                }
                other => panic!("unexpected error {other:?}"),
            }
        }
    }

    #[test]
    fn run_rounds_reduces_in_shard_order() {
        for workers in [1usize, 2, 3, 8] {
            let shards: Vec<Vec<usize>> = crate::shard::partition(10, workers)
                .into_iter()
                .map(|r| r.collect())
                .collect();
            let mut seen: Vec<Vec<usize>> = Vec::new();
            let finals = run_rounds(
                shards,
                3,
                |round| round * 100,
                |_, _, ctx, state: &mut Vec<usize>| {
                    state.iter().map(|i| i + ctx).collect::<Vec<_>>()
                },
                |_, outs: Vec<Vec<usize>>| -> Result<(), ()> {
                    seen.push(outs.into_iter().flatten().collect());
                    Ok(())
                },
            )
            .unwrap();
            // Every round's reduction sees items in global order, and the
            // final states come back in shard order.
            for (round, row) in seen.iter().enumerate() {
                let expect: Vec<usize> = (0..10).map(|i| i + round * 100).collect();
                assert_eq!(row, &expect, "workers = {workers}, round = {round}");
            }
            assert_eq!(
                finals.into_iter().flatten().collect::<Vec<_>>(),
                (0..10).collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn run_rounds_state_persists_across_rounds() {
        for workers in [1usize, 4] {
            let shards: Vec<u64> = vec![0; workers];
            let finals = run_rounds(
                shards,
                5,
                |_| 1u64,
                |_, _, ctx, state: &mut u64| {
                    *state += ctx;
                    *state
                },
                |round, outs: Vec<u64>| -> Result<(), String> {
                    for o in outs {
                        if o != round as u64 + 1 {
                            return Err(format!("state lost: {o} at round {round}"));
                        }
                    }
                    Ok(())
                },
            )
            .unwrap();
            assert!(finals.iter().all(|&s| s == 5));
        }
    }

    #[test]
    fn run_rounds_shard_panic_is_typed_and_does_not_hang() {
        for workers in [1usize, 3] {
            let shards: Vec<usize> = (0..workers).collect();
            let err = run_rounds(
                shards,
                4,
                |round| round,
                |shard, round, _, _state: &mut usize| {
                    assert!(!(round == 2 && shard == workers - 1), "shard blew up");
                    shard
                },
                |_, _outs: Vec<usize>| -> Result<(), ()> { Ok(()) },
            )
            .unwrap_err();
            match err {
                RoundsError::Par(ParError::ShardPanic { shard, message }) => {
                    assert_eq!(shard, workers - 1);
                    assert!(message.contains("shard blew up"));
                }
                other => panic!("unexpected error {other:?}"),
            }
        }
    }

    #[test]
    fn run_rounds_apply_error_aborts_cleanly() {
        let err = run_rounds(
            vec![(), (), ()],
            10,
            |_| (),
            |shard, _, _, _: &mut ()| shard,
            |round, _outs: Vec<usize>| {
                if round == 1 {
                    Err("apply refused")
                } else {
                    Ok(())
                }
            },
        )
        .unwrap_err();
        assert!(matches!(err, RoundsError::Apply("apply refused")));
    }

    #[test]
    fn run_rounds_zero_shards_and_zero_rounds() {
        let empty: Vec<u8> = Vec::new();
        let mut applies = 0usize;
        let finals = run_rounds(
            empty,
            3,
            |_| (),
            |_, _, _, _: &mut u8| 0u8,
            |_, outs: Vec<u8>| -> Result<(), ()> {
                assert!(outs.is_empty());
                applies += 1;
                Ok(())
            },
        )
        .unwrap();
        assert!(finals.is_empty());
        assert_eq!(applies, 3);

        let finals = run_rounds(
            vec![7u8],
            0,
            |_| (),
            |_, _, _, s: &mut u8| *s,
            |_, _: Vec<u8>| -> Result<(), ()> { Err(()) },
        )
        .unwrap();
        assert_eq!(finals, vec![7]);
    }
}
