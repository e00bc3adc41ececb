//! A scoped worker pool with deterministic, index-ordered results.

use aegis_obs as obs;
use serde_json::Value;
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Mutex};
use std::time::Instant;

/// Process-wide worker count: 0 means "not configured yet".
static THREADS: AtomicUsize = AtomicUsize::new(0);

/// Hardware parallelism of this machine (≥ 1).
pub fn available_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Sets the process-wide worker count used by [`Executor::from_config`].
/// `0` resets to "unconfigured" (env / hardware default).
pub fn set_threads(n: usize) {
    THREADS.store(n, Ordering::SeqCst);
}

/// Resolves the process-wide worker count: an explicit [`set_threads`]
/// wins, then the `AEGIS_THREADS` environment variable, then the
/// machine's available parallelism.
pub fn get_threads() -> usize {
    let configured = THREADS.load(Ordering::SeqCst);
    if configured > 0 {
        return configured;
    }
    if let Ok(v) = std::env::var("AEGIS_THREADS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n > 0 {
                return n;
            }
        }
    }
    available_threads()
}

/// A fixed-width worker pool. Threads are scoped per call (no detached
/// pool to shut down) and results always come back in input order, so a
/// computation's output is a pure function of its inputs and seeds — not
/// of the worker count or the OS scheduler.
#[derive(Clone, Copy, Debug)]
pub struct Executor {
    threads: usize,
}

impl Executor {
    /// A pool of exactly `threads` workers (clamped to ≥ 1).
    pub fn new(threads: usize) -> Self {
        Executor {
            threads: threads.max(1),
        }
    }

    /// A pool sized by the process-wide configuration ([`get_threads`]).
    pub fn from_config() -> Self {
        Executor::new(get_threads())
    }

    /// This pool's worker count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Maps `items` through `work`, returning results in input order.
    ///
    /// `work` receives the unit's input index and the item; any RNG it
    /// needs must be derived from that index (see
    /// [`derive_seed`](crate::derive_seed)), never taken from shared
    /// mutable state.
    pub fn map<T, R, F>(&self, items: Vec<T>, work: F) -> Vec<R>
    where
        T: Send,
        R: Send,
        F: Fn(usize, T) -> R + Sync,
    {
        self.map_with(
            items,
            |_worker| (),
            move |(), index, item| work(index, item),
        )
    }

    /// Like [`Executor::map`] but with a worker-local context built once
    /// per worker thread — the home for expensive replicas (a forked
    /// `Host`, a cloned `Core`) that units reset rather than rebuild.
    ///
    /// It is [`Executor::stream`] on a pool narrowed to one worker per
    /// item, fed every item up front with no in-flight bound: the calling
    /// thread is one of the workers, and a one-worker map spawns no
    /// thread.
    ///
    /// Determinism contract: `make_ctx` must produce equivalent contexts
    /// for every worker, and `work` must not let one unit's leftover
    /// context state influence the next unit's result (reset it, or
    /// derive all randomness from `index`).
    pub fn map_with<C, T, R, FC, F>(&self, items: Vec<T>, make_ctx: FC, work: F) -> Vec<R>
    where
        T: Send,
        R: Send,
        FC: Fn(usize) -> C + Sync,
        F: Fn(&mut C, usize, T) -> R + Sync,
    {
        let pool = Executor::new(self.threads.min(items.len()));
        if obs::enabled() {
            obs::gauge_set("par.workers", pool.threads as f64);
        }
        let mut out = Vec::with_capacity(items.len());
        pool.stream(
            usize::MAX,
            make_ctx,
            work,
            |result| out.push(result),
            |feed| items.into_iter().for_each(|item| feed.push(item)),
        );
        out
    }

    /// Runs `drive` on the calling thread while the pool works off the
    /// units it submits through [`Feed::push`] — the shape of a
    /// sequential producer (a scheduler walk, an rng-driven sampler)
    /// feeding independent units. Each unit's result goes to `sink`, on
    /// the calling thread and in submission order, as soon as it and
    /// every earlier result are done. Returns `drive`'s value.
    ///
    /// The pool spawns `threads − 1` workers, and the caller's thread is
    /// the last one. At most `max_in_flight` submitted units wait, run,
    /// or hold an undelivered result at once: when a push would exceed
    /// that, the caller runs queued units itself until it drops below,
    /// and once `drive` returns it works off the rest the same way. The
    /// producer therefore never outruns the pool by more than the bound
    /// and memory stays bounded. A one-worker pool spawns no thread; its
    /// caller runs every unit. The caller builds its worker context at
    /// its first unit, so building it never delays the first pushes.
    ///
    /// The determinism contract is [`Executor::map_with`]'s: a unit's
    /// result may depend only on its index, its item and a context
    /// `work` resets.
    pub fn stream<T, R, C, FC, F, S, D, O>(
        &self,
        max_in_flight: usize,
        make_ctx: FC,
        work: F,
        mut sink: S,
        drive: D,
    ) -> O
    where
        T: Send,
        R: Send,
        FC: Fn(usize) -> C + Sync,
        F: Fn(&mut C, usize, T) -> R + Sync,
        S: FnMut(R),
        D: FnOnce(&mut Feed<'_, T, R, C>) -> O,
    {
        let spawned = self.threads - 1;
        let observe = obs::enabled();
        let (work_tx, work_rx) = mpsc::channel::<(usize, T)>();
        // The workers share one receiver. Whoever holds the lock blocks in
        // `recv` only while the queue is empty, and the caller steals with
        // `try_lock`, so it never waits on a worker that waits for work.
        let work_rx = Mutex::new(work_rx);
        let (done_tx, done_rx) = mpsc::channel::<(usize, std::thread::Result<R>)>();
        std::thread::scope(|scope| {
            for worker in 0..spawned {
                let done_tx = done_tx.clone();
                let (work_rx, make_ctx, work) = (&work_rx, &make_ctx, &work);
                scope.spawn(move || {
                    let mut ctx = make_ctx(worker);
                    let mut units = 0u64;
                    let mut idle_ns = 0u128;
                    loop {
                        let wait = Instant::now();
                        let claimed = work_rx.lock().expect("no unit runs under the lock").recv();
                        let Ok((index, item)) = claimed else {
                            break;
                        };
                        idle_ns += wait.elapsed().as_nanos();
                        // A panicking unit is handed to the caller, which
                        // re-raises it: a lost result must never leave the
                        // caller waiting on it.
                        let result = catch_unwind(AssertUnwindSafe(|| work(&mut ctx, index, item)));
                        units += 1;
                        if done_tx.send((index, result)).is_err() {
                            break;
                        }
                    }
                    if observe {
                        record_worker_stats(worker, units, idle_ns as u64);
                    }
                });
            }
            drop(done_tx);
            let mut feed = Feed {
                work: &work,
                make_ctx: &make_ctx,
                sink: &mut sink,
                worker: spawned,
                ctx: None,
                work_tx,
                work_rx: &work_rx,
                done_rx,
                max_in_flight,
                submitted: 0,
                pending: VecDeque::new(),
                delivered: 0,
                inline_units: 0,
            };
            let out = drive(&mut feed);
            feed.finish(observe);
            out
        })
    }
}

/// The caller's end of [`Executor::stream`]: submits units to the pool,
/// works off queued ones itself when too many are in flight, and hands
/// results to the sink in submission order.
pub struct Feed<'w, T, R, C> {
    work: &'w (dyn Fn(&mut C, usize, T) -> R + Sync),
    make_ctx: &'w (dyn Fn(usize) -> C + Sync),
    sink: &'w mut dyn FnMut(R),
    /// The caller's worker index (for utilization stats).
    worker: usize,
    /// The caller's worker context, built at its first unit.
    ctx: Option<C>,
    work_tx: mpsc::Sender<(usize, T)>,
    work_rx: &'w Mutex<mpsc::Receiver<(usize, T)>>,
    done_rx: mpsc::Receiver<(usize, std::thread::Result<R>)>,
    max_in_flight: usize,
    submitted: usize,
    /// Results of units `delivered..submitted`, in index order; `None`
    /// until the unit finishes.
    pending: VecDeque<Option<R>>,
    delivered: usize,
    inline_units: u64,
}

impl<T, R, C> Feed<'_, T, R, C> {
    /// Submits one unit.
    pub fn push(&mut self, item: T) {
        let index = self.submitted;
        self.submitted += 1;
        self.pending.push_back(None);
        self.work_tx
            .send((index, item))
            .expect("the feed holds a receiver");
        while self.submitted - self.delivered > self.max_in_flight {
            self.settle();
        }
    }

    fn run_inline(&mut self, index: usize, item: T) {
        let ctx = self.ctx.get_or_insert_with(|| (self.make_ctx)(self.worker));
        let result = (self.work)(ctx, index, item);
        self.inline_units += 1;
        self.complete(index, result);
    }

    /// Files a finished result and delivers every result now ready.
    fn complete(&mut self, index: usize, result: R) {
        self.pending[index - self.delivered] = Some(result);
        while let Some(Some(_)) = self.pending.front() {
            let ready = self.pending.pop_front().flatten().expect("front is done");
            (self.sink)(ready);
            self.delivered += 1;
        }
    }

    /// Makes progress with units in flight: collects finished results,
    /// else runs one queued unit here, else waits for a worker to finish
    /// one.
    fn settle(&mut self) {
        let mut finished: Vec<_> = std::iter::from_fn(|| self.done_rx.try_recv().ok()).collect();
        if finished.is_empty() {
            let stolen = self
                .work_rx
                .try_lock()
                .ok()
                .and_then(|queue| queue.try_recv().ok());
            if let Some((index, item)) = stolen {
                self.run_inline(index, item);
                return;
            }
            match self.done_rx.recv() {
                Ok(done) => finished.push(done),
                Err(_) => panic!("every worker exited with units in flight"),
            }
        }
        for (index, result) in finished {
            match result {
                Ok(r) => self.complete(index, r),
                Err(panic) => resume_unwind(panic),
            }
        }
    }

    /// Runs or awaits every unit still in flight, delivering the rest of
    /// the results. Dropping the feed closes the work queue, so the
    /// workers exit.
    fn finish(mut self, observe: bool) {
        while self.delivered < self.submitted {
            self.settle();
        }
        if observe && self.inline_units > 0 {
            record_worker_stats(self.worker, self.inline_units, 0);
        }
    }
}

/// Records one worker's per-`map` utilization: how many units it
/// processed and how long it waited to claim them. Write-only —
/// scheduling never reads these back, so the determinism contract holds
/// with observability at any level.
fn record_worker_stats(worker: usize, units: u64, idle_ns: u64) {
    let registry = obs::global();
    registry.counter_add("par.units", units as f64);
    registry.histogram_record("par.worker.units", units as f64);
    registry.histogram_record("par.worker.idle_ns", idle_ns as f64);
    obs::event_with(
        "worker",
        "par.worker",
        &[
            ("worker", Value::from(worker)),
            ("units", Value::from(units)),
            ("idle_ns", Value::from(idle_ns)),
        ],
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::derive_seed;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn results_come_back_in_input_order() {
        let ex = Executor::new(4);
        let out = ex.map((0..100u64).collect(), |i, x| {
            // Stagger finish times so completion order scrambles.
            if i % 7 == 0 {
                std::thread::sleep(std::time::Duration::from_micros(200));
            }
            x * 2
        });
        assert_eq!(out, (0..100u64).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn worker_count_does_not_change_seeded_results() {
        let run = |threads: usize| -> Vec<u64> {
            Executor::new(threads).map((0..64u64).collect(), |i, unit| {
                let mut rng = StdRng::seed_from_u64(derive_seed(99, 5, i as u64));
                (0..16).map(|_| rng.gen_range(0..1000u64)).sum::<u64>() ^ unit
            })
        };
        let serial = run(1);
        assert_eq!(serial, run(2));
        assert_eq!(serial, run(8));
    }

    #[test]
    fn map_with_builds_one_context_per_worker() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        // (pool width, items, most contexts): a map narrows its pool to
        // one worker per item.
        for (threads, n, most) in [(3, 32u64, 3), (8, 2, 2)] {
            let built = AtomicUsize::new(0);
            let out = Executor::new(threads).map_with(
                (0..n).collect(),
                |worker| {
                    built.fetch_add(1, Ordering::SeqCst);
                    worker
                },
                |_ctx, i, x| x + i as u64,
            );
            assert_eq!(out, (0..n).map(|x| 2 * x).collect::<Vec<_>>());
            assert!(built.load(Ordering::SeqCst) <= most);
        }
    }

    #[test]
    fn the_calling_thread_is_one_of_the_maps_workers() {
        let caller = std::thread::current().id();
        let ran = Executor::new(2).map(vec![(); 64], |_, ()| {
            std::thread::sleep(std::time::Duration::from_micros(200));
            std::thread::current().id()
        });
        let helpers: std::collections::HashSet<_> =
            ran.into_iter().filter(|&id| id != caller).collect();
        assert!(
            helpers.len() <= 1,
            "{} spawned threads ran units of a 2-worker map",
            helpers.len()
        );
    }

    #[test]
    fn empty_and_single_item_inputs_work() {
        let ex = Executor::new(8);
        let empty: Vec<u32> = ex.map(Vec::<u32>::new(), |_, x| x);
        assert!(empty.is_empty());
        assert_eq!(ex.map(vec![5u32], |_, x| x * 3), vec![15]);
    }

    #[test]
    fn stream_delivers_results_in_push_order_at_any_width() {
        for threads in [1, 2, 4] {
            for bound in [1, 3, 64] {
                let mut out = Vec::new();
                let sum = Executor::new(threads).stream(
                    bound,
                    |worker| worker,
                    |_worker, i, x: u64| {
                        // Stagger finish times so completion order scrambles.
                        if i % 5 == 0 {
                            std::thread::sleep(std::time::Duration::from_micros(100));
                        }
                        x * 3 + i as u64
                    },
                    |r| out.push(r),
                    |feed| {
                        (0..50u64).fold(0, |sum, x| {
                            feed.push(x);
                            sum + x
                        })
                    },
                );
                assert_eq!(sum, 1225);
                assert_eq!(out, (0..50u64).map(|x| 4 * x).collect::<Vec<_>>());
            }
        }
    }

    #[test]
    fn stream_keeps_at_most_the_bound_undelivered() {
        use std::cell::Cell;
        let delivered = Cell::new(0usize);
        let bound = 3;
        Executor::new(3).stream(
            bound,
            |_| (),
            |(), i, ()| {
                std::thread::sleep(std::time::Duration::from_micros(50));
                i
            },
            |i| {
                assert_eq!(i, delivered.get(), "delivered out of order");
                delivered.set(i + 1);
            },
            |feed| {
                for pushed in 1..=40 {
                    feed.push(());
                    let undelivered = pushed - delivered.get();
                    assert!(undelivered <= bound, "{undelivered} units undelivered");
                }
            },
        );
        assert_eq!(delivered.get(), 40);
    }

    #[test]
    fn a_panicking_stream_unit_reaches_the_caller() {
        let run = std::panic::catch_unwind(|| {
            Executor::new(2).stream(
                2,
                |_| (),
                |(), i, ()| {
                    assert!(i != 3, "unit 3 fails");
                    i
                },
                drop,
                |feed| (0..10).for_each(|_| feed.push(())),
            )
        });
        assert!(run.is_err());
    }

    #[test]
    fn a_panicking_map_unit_reaches_the_caller() {
        let run = std::panic::catch_unwind(|| {
            Executor::new(3).map((0..20).collect(), |i, x: u32| {
                assert!(i != 7, "unit 7 fails");
                x
            })
        });
        let panic = run.expect_err("the unit's panic must propagate");
        let message = panic
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| panic.downcast_ref::<&str>().copied());
        assert_eq!(message, Some("unit 7 fails"));
    }

    #[test]
    fn contended_units_each_run_once_in_input_order() {
        use std::sync::atomic::{AtomicU32, Ordering};
        let n = 10_000;
        let runs: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(0)).collect();
        let out = Executor::new(8).map((0..n).collect(), |i, x: usize| {
            runs[i].fetch_add(1, Ordering::Relaxed);
            x * 3
        });
        assert!(runs.iter().all(|r| r.load(Ordering::Relaxed) == 1));
        assert_eq!(out, (0..n).map(|x| x * 3).collect::<Vec<_>>());
    }

    #[test]
    fn thread_config_precedence() {
        set_threads(3);
        assert_eq!(get_threads(), 3);
        set_threads(0);
        // Unset: falls back to env or hardware; either way ≥ 1.
        assert!(get_threads() >= 1);
    }
}
