//! The scoped worker pool: multi-round execution over persistent
//! per-shard state ([`run_rounds`], driven through [`Rounds`]).
//!
//! Its determinism contract:
//!
//! * the caller hands in its shards, cut by [`crate::shard::partition`]
//!   — static, contiguous, worker-count-capped ranges;
//! * each round's outputs come back to the caller's thread in
//!   **shard-index order** (= item order, shards being contiguous),
//!   never in completion order;
//! * a panic inside one shard is caught at the shard boundary and
//!   surfaced as a typed [`ParError::ShardPanic`] — no poisoned locks,
//!   no hung receivers, and the pool stays ready for the next round.
//!
//! With those rules, a run's observable output is a pure function of its
//! inputs and per-stream seeds, independent of the worker count.
//!
//! This module is the workspace's one home for `Sync` mutable state:
//! the barriers' atomics, mutex and condvar, and the round's slots.
//! Everywhere else clippy bans those types (`clippy.toml`), so a shard
//! body can reach no lock, atomic or channel, and the `Fn + Sync` bound
//! on `work` keeps every `Cell`, `RefCell` and `Rc` out of it.
#![expect(
    clippy::disallowed_types,
    reason = "the pool's barriers and round slots are the workspace's only shared mutable state"
)]

use std::cell::Cell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread;

use crate::ParError;

thread_local! {
    /// Whether this thread is running a shard body: set for a worker's
    /// whole life, and on the driver's thread around shard 0's `work`.
    static IN_SHARD: Cell<bool> = const { Cell::new(false) };
}

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

    /// Blocks until all parties arrive; a barrier of one party (or
    /// none) has no one to wait for and returns at once.
    fn wait(&self) {
        if self.parties <= 1 {
            return;
        }
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

/// What the driver and the workers share: the stop flag, the round's
/// context, shards `1…`'s outputs (one slot each: the output, or the
/// rendered panic) and the two round barriers.
struct Fleet<Ctx, Out> {
    stop: AtomicBool,
    ctx: Mutex<Option<Arc<Ctx>>>,
    results: Vec<Mutex<Option<Result<Out, String>>>>,
    start: SpinBarrier,
    end: SpinBarrier,
}

/// The driver's handle on a [`run_rounds`] pool: each [`Rounds::run`]
/// is one synchronized round over every shard.
pub struct Rounds<'p, S, Ctx, Out> {
    work: &'p (dyn Fn(usize, &Ctx, &mut S) -> Out + Sync),
    /// Shard 0, worked on the driver's thread (`None` without shards).
    state0: Option<S>,
    fleet: &'p Fleet<Ctx, Out>,
    released: bool,
}

impl<S, Ctx, Out> Rounds<'_, S, Ctx, Out> {
    /// Runs one round: every shard applies `work(shard, &ctx, &mut
    /// state)` to its own state, and the outputs come back in shard
    /// order.
    ///
    /// Round protocol: the driver publishes `ctx`, the `start` barrier
    /// opens, every shard (the driver as shard 0) computes, the `end`
    /// barrier closes the round, and the driver collects each shard's
    /// slot in shard order. With one shard there is no one to publish
    /// to or wait for. Workers only observe the stop flag right after
    /// `start`, and only the handle's release raises it before joining
    /// `start`, so no thread is left at a barrier that never opens.
    ///
    /// # Errors
    ///
    /// [`ParError::ShardPanic`] for the lowest shard whose `work`
    /// panicked, or [`ParError::WorkerLost`] for one that reported
    /// nothing. Every shard finished the round either way, so the pool
    /// stays consistent and the driver decides what comes next.
    pub fn run(&mut self, ctx: Ctx) -> Result<Vec<Out>, ParError> {
        let fleet = self.fleet;
        let ctx = Arc::new(ctx);
        if !fleet.results.is_empty() {
            *lock_ignore_poison(&fleet.ctx) = Some(Arc::clone(&ctx));
        }
        fleet.start.wait();
        let work = self.work;
        let out0 = self.state0.as_mut().map(|state| {
            IN_SHARD.set(true);
            let out = catch_unwind(AssertUnwindSafe(|| work(0, ctx.as_ref(), state)));
            IN_SHARD.set(false);
            out.map_err(panic_message)
        });
        fleet.end.wait();

        let mut outs = Vec::with_capacity(fleet.results.len() + 1);
        let mut failure = None;
        let workers = (fleet.results.iter().enumerate())
            .map(|(idx, slot)| (idx + 1, lock_ignore_poison(slot).take()));
        for (shard, out) in out0.map(|out| (0, Some(out))).into_iter().chain(workers) {
            match out {
                Some(Ok(out)) => outs.push(out),
                Some(Err(message)) => {
                    failure.get_or_insert(ParError::ShardPanic { shard, message });
                }
                // An empty slot after `end` means the worker never ran
                // its round — impossible under this protocol, but fail
                // closed rather than hand back garbage.
                None => {
                    failure.get_or_insert(ParError::WorkerLost { shard });
                }
            }
        }
        failure.map_or(Ok(outs), Err)
    }

    /// Releases the workers exactly once: raises the stop flag and joins
    /// the start barrier, so every worker wakes, observes the flag, and
    /// exits with its state.
    fn release(&mut self) {
        if !self.released {
            self.released = true;
            self.fleet.stop.store(true, Ordering::SeqCst);
            self.fleet.start.wait();
        }
    }
}

/// A panic in the caller's `drive` drops the handle while unwinding, so
/// it can never leave workers spinning at a barrier that will not open.
impl<S, Ctx, Out> Drop for Rounds<'_, S, Ctx, Out> {
    fn drop(&mut self) {
        self.release();
    }
}

/// Runs synchronized rounds over persistent per-shard state, for as
/// long as `drive` asks.
///
/// Workers are spawned once and live for the whole call; the caller's
/// thread works shard 0 itself, so `N` shards cost `N − 1` spawned
/// threads. `drive` runs on the caller's thread with a [`Rounds`]
/// handle: each [`Rounds::run`]`(ctx)` has every shard apply
/// `work(shard, &ctx, &mut state)` to its own state and returns the
/// outputs in shard order, so `drive` builds each round's context and
/// folds its outputs in one plain loop. When `drive` returns, its
/// result and the final per-shard states (in shard order) come back.
///
/// Rounds are barriers: a round starts only after `drive` has the
/// previous round's outputs. The barrier is a spin-then-park
/// `SpinBarrier` pair rather than channels — at fleet-simulation
/// granularity (tens of microseconds of work per round) channel
/// round-trips cost more than the round itself. Per-shard state never
/// crosses shards, which is what lets the slotted simulator keep
/// per-device queues, RNG streams and degradation ladders bit-identical
/// to a sequential run.
///
/// # Errors
///
/// `drive`'s own error, and a [`ParError`] (through `E: From<ParError>`)
/// if a worker thread died outside a round. All threads are joined
/// before returning, and also if `drive` unwinds. Called from inside a
/// shard body, it starts nothing and returns [`ParError::Nested`]: the
/// outer round's barriers would wait on the inner pool's.
///
/// # Shared mutation does not compile
///
/// `work` is `Fn + Sync`: it may mutate its own shard state, but a
/// write to a captured local is rejected. Cross-shard tallies belong in
/// `drive`, which runs on the caller's thread and sees the outputs in
/// shard order:
///
/// ```compile_fail,E0594
/// let mut total = 0;
/// let _ = leime_par::run_rounds(
///     vec![0u32; 2],
///     |_shard, _ctx: &usize, state: &mut u32| {
///         total += 1;
///         *state += 1;
///     },
///     |rounds| rounds.run(3),
/// );
/// ```
pub fn run_rounds<S, Ctx, Out, R, E>(
    shards: Vec<S>,
    work: impl Fn(usize, &Ctx, &mut S) -> Out + Sync,
    drive: impl FnOnce(&mut Rounds<'_, S, Ctx, Out>) -> Result<R, E>,
) -> Result<(R, Vec<S>), E>
where
    S: Send,
    Ctx: Send + Sync,
    Out: Send,
    E: From<ParError>,
{
    if IN_SHARD.get() {
        return Err(ParError::Nested.into());
    }
    let n_shards = shards.len();
    let mut shards = shards.into_iter();
    let state0 = shards.next();
    let fleet: Fleet<Ctx, Out> = Fleet {
        stop: AtomicBool::new(false),
        ctx: Mutex::new(None),
        results: (1..n_shards).map(|_| Mutex::new(None)).collect(),
        start: SpinBarrier::new(n_shards),
        end: SpinBarrier::new(n_shards),
    };

    thread::scope(|scope| {
        let (work, fleet) = (&work, &fleet);
        let handles: Vec<_> = shards
            .enumerate()
            .map(|(idx, mut state)| {
                scope.spawn(move || {
                    IN_SHARD.set(true);
                    loop {
                        fleet.start.wait();
                        if fleet.stop.load(Ordering::SeqCst) {
                            break;
                        }
                        let ctx = lock_ignore_poison(&fleet.ctx).clone();
                        let out = match ctx {
                            Some(ctx) => catch_unwind(AssertUnwindSafe(|| {
                                work(idx + 1, ctx.as_ref(), &mut state)
                            }))
                            .map_err(panic_message),
                            // Unreachable: the driver publishes the
                            // context before every `start`.
                            None => Err("round context missing".to_string()),
                        };
                        *lock_ignore_poison(&fleet.results[idx]) = Some(out);
                        fleet.end.wait();
                    }
                    state
                })
            })
            .collect();

        let mut rounds = Rounds {
            work,
            state0,
            fleet,
            released: false,
        };
        let driven = drive(&mut rounds);

        // Wake the fleet one last time with the stop flag up; every
        // worker exits its loop and hands its state back, so join cannot
        // hang.
        rounds.release();
        let mut finals = Vec::with_capacity(n_shards);
        finals.extend(rounds.state0.take());
        let mut lost = None;
        for (idx, handle) in handles.into_iter().enumerate() {
            match handle.join() {
                Ok(state) => finals.push(state),
                Err(payload) => {
                    lost.get_or_insert(ParError::ShardPanic {
                        shard: idx + 1,
                        message: panic_message(payload),
                    });
                }
            }
        }
        let r = driven?;
        lost.map_or(Ok((r, finals)), |e| Err(e.into()))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_rounds_reduces_in_shard_order() {
        for workers in [1usize, 2, 3, 8] {
            let shards: Vec<Vec<usize>> = crate::shard::partition(10, workers)
                .into_iter()
                .map(|r| r.collect())
                .collect();
            let (seen, finals) = run_rounds(
                shards,
                |_, ctx, state: &mut Vec<usize>| state.iter().map(|i| i + ctx).collect::<Vec<_>>(),
                |rounds| {
                    let mut seen: Vec<Vec<usize>> = Vec::new();
                    for round in 0..3 {
                        seen.push(rounds.run(round * 100)?.into_iter().flatten().collect());
                    }
                    Ok::<_, ParError>(seen)
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

    /// A driver error: the pool's own, or a refusal of the driver's.
    #[derive(Debug, PartialEq)]
    enum DriveError {
        Par(ParError),
        Refused(String),
    }

    impl From<ParError> for DriveError {
        fn from(e: ParError) -> Self {
            DriveError::Par(e)
        }
    }

    #[test]
    fn run_rounds_state_persists_across_rounds() {
        for workers in [1usize, 4] {
            let shards: Vec<u64> = vec![0; workers];
            let ((), finals) = run_rounds(
                shards,
                |_, ctx, state: &mut u64| {
                    *state += ctx;
                    *state
                },
                |rounds| {
                    for round in 0..5 {
                        for o in rounds.run(1u64)? {
                            if o != round + 1 {
                                let lost = format!("state lost: {o} at round {round}");
                                return Err(DriveError::Refused(lost));
                            }
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
                |shard, &round, _state: &mut usize| {
                    assert!(!(round == 2 && shard == workers - 1), "shard blew up");
                    shard
                },
                |rounds| {
                    for round in 0..4 {
                        rounds.run(round)?;
                    }
                    Ok::<_, ParError>(())
                },
            )
            .unwrap_err();
            match err {
                ParError::ShardPanic { shard, message } => {
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
            |shard, _: &(), _: &mut ()| shard,
            |rounds| {
                for round in 0..10 {
                    rounds.run(())?;
                    if round == 1 {
                        return Err(DriveError::Refused("apply refused".into()));
                    }
                }
                Ok(())
            },
        )
        .unwrap_err();
        assert!(matches!(err, DriveError::Refused(e) if e == "apply refused"));
    }

    #[test]
    fn run_rounds_zero_shards_and_zero_rounds() {
        let empty: Vec<u8> = Vec::new();
        let (applies, finals) = run_rounds(
            empty,
            |_, _: &(), _: &mut u8| 0u8,
            |rounds| {
                let mut applies = 0usize;
                for _ in 0..3 {
                    let outs = rounds.run(())?;
                    assert!(outs.is_empty());
                    applies += 1;
                }
                Ok::<_, ParError>(applies)
            },
        )
        .unwrap();
        assert!(finals.is_empty());
        assert_eq!(applies, 3);

        let ((), finals) = run_rounds(
            vec![7u8],
            |_, _: &(), s: &mut u8| *s,
            |_| Ok::<_, ParError>(()),
        )
        .unwrap();
        assert_eq!(finals, vec![7]);
    }

    #[test]
    fn nested_run_rounds_is_a_typed_error() {
        // Every shard, the driver's shard 0 included, tries to start a
        // pool of its own; the driver's thread may start one between
        // rounds.
        for workers in [1usize, 3] {
            let nested = || run_rounds(vec![0u8; 2], |_, _: &(), _: &mut u8| (), |_| Ok(()));
            let (outs, _) = run_rounds(
                vec![(); workers],
                |_, _: &(), _: &mut ()| nested().map(|_| ()),
                |rounds| {
                    let outs = rounds.run(())?;
                    assert_eq!(nested().map(|(r, _)| r), Ok::<_, ParError>(()));
                    Ok::<_, ParError>(outs)
                },
            )
            .unwrap();
            assert_eq!(outs, vec![Err(ParError::Nested); workers]);
        }
    }

    #[test]
    fn run_rounds_driver_panic_joins_every_worker() {
        // The driver panics between rounds: the release guard must wake
        // the parked workers with the stop flag up, so the unwind reaches
        // the caller with every worker joined. Each worker records that
        // it handed its state back.
        let exited: Vec<Mutex<bool>> = (0..3).map(|_| Mutex::new(false)).collect();
        struct Exit<'a>(&'a Mutex<bool>);
        impl Drop for Exit<'_> {
            fn drop(&mut self) {
                *lock_ignore_poison(self.0) = true;
            }
        }
        let shards: Vec<Exit<'_>> = exited.iter().map(Exit).collect();
        let unwound = catch_unwind(AssertUnwindSafe(|| {
            run_rounds(
                shards,
                |shard, _: &(), _: &mut Exit<'_>| shard,
                |rounds| -> Result<(), ParError> {
                    assert_eq!(rounds.run(()), Ok(vec![0, 1, 2]));
                    panic!("driver blew up")
                },
            )
        }));
        let payload = unwound.err().map(panic_message);
        assert_eq!(payload.as_deref(), Some("driver blew up"));
        assert!(exited.iter().all(|e| *lock_ignore_poison(e)));
    }
}
