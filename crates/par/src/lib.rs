//! # gef-par
//!
//! A small, zero-external-dependency parallel runtime for the GEF
//! workspace: a persistent scoped thread pool with **deterministic
//! chunked fan-out**. Every fan-out primitive here guarantees
//! *bit-identical* results at any thread count:
//!
//! * **Fixed chunk boundaries.** [`chunk_ranges`] partitions a workload
//!   from its length alone (never from the thread count), so the same
//!   input always produces the same task decomposition.
//! * **Ordered reduction.** [`map`] returns results in task-index order
//!   and [`map_reduce`] folds chunk results left-to-right in chunk-index
//!   order, so floating-point accumulation order never depends on which
//!   thread finished first.
//! * **Execution order is free, arithmetic order is not.** Threads may
//!   claim tasks in any interleaving; each task's arithmetic and every
//!   cross-task combination step are fixed by index.
//!
//! # Sizing
//!
//! The pool is sized by the `GEF_THREADS` environment variable, falling
//! back to [`std::thread::available_parallelism`]. Invalid values
//! (garbage, `0`, counts beyond [`MAX_THREADS`]) are clamped or replaced
//! by the fallback — never silently: the raw value is named through the
//! shared [`gef_trace::env`] warn-once path. `threads() == 1`
//! (and any workload of a single task) bypasses the pool entirely — no
//! worker threads are ever spawned and the fan-out primitives degenerate
//! to plain loops with zero synchronization. Tests and benchmarks can
//! override the size in-process with [`set_threads`].
//!
//! # Errors and cancellation
//!
//! Every fan-out primitive returns `Result<_, `[`ParError`]`>` instead
//! of panicking:
//!
//! * A panic inside a task is caught (on workers and on the serial
//!   path alike), the region is drained, and the **first** panic's
//!   payload comes back as [`ParError::TaskPanicked`] — the coordinator
//!   never re-raises, so callers under a no-panic gate get a typed
//!   error they can surface (e.g. as `GefError::WorkerPanicked`).
//! * The dispatching thread's [`gef_trace::ctx::Scope`] — its run
//!   budget, trace id and span path — is captured at dispatch and
//!   entered once by each pool worker that joins the region, so
//!   per-request scoped deadlines (as armed by `gef-serve`) bound their
//!   own fan-outs and nobody else's. Workers poll the budget between
//!   task claims, so a hard deadline fires *mid-region*: remaining
//!   tasks are skipped, the latch still opens, and the call returns
//!   [`ParError::Cancelled`].
//!
//! With no budget armed and no panicking task, every primitive returns
//! `Ok` and behaves exactly as before — the checks are relaxed atomic
//! loads.
//!
//! # Fault-injection interplay
//!
//! Deterministic fault sites ([`gef_trace::fault`]) count *hits* in
//! invocation order, so running guarded code on racing worker threads
//! would make fault schedules thread-count-dependent. The runtime
//! therefore checks [`gef_trace::fault::any_armed`] at dispatch time, in
//! the coordinating thread: while any site is armed, every region runs
//! serially (in task-index order) on the coordinator, making fault hit
//! sequences invariant across `GEF_THREADS` settings by construction.
//!
//! # Telemetry
//!
//! When tracing is enabled and a region actually dispatches to the pool,
//! the runtime records a `par.workers` gauge (threads participating,
//! coordinator included), a `par.regions` counter, a `par.tasks`
//! histogram, and — for coarse regions that opt in via
//! [`Options::chunk_events`] — one `par.chunk` event per task at
//! dispatch time. Serial execution records none of these, so `par.*`
//! names are the only telemetry delta between thread counts (the CI
//! determinism diff excludes exactly that namespace). Worker threads
//! inherit the coordinator's span path with its scope, so spans opened
//! inside tasks land at the same hierarchical paths as in a serial run.
//!
//! When timeline profiling is on (`GEF_PROF`; see
//! [`gef_trace::timeline`]), every task additionally records a
//! begin/end pair on its executing thread's timeline — labelled via
//! [`Options::label`], carrying region id, chunk index, and task count.
//! Each pool worker registers its spawn index as its logical thread id
//! once ([`gef_trace::recorder::register_worker`]), so the exported
//! chrome trace shows a stable per-worker gantt of who ran which chunk
//! when. Profiling changes *observation only*: task claiming, chunking,
//! and arithmetic order are untouched, so results stay bit-identical
//! with `GEF_PROF` on or off.
//!
//! # Example
//!
//! ```
//! // Results are in index order regardless of which thread ran what.
//! let squares = gef_par::map(8, gef_par::Options::default(), |i| i * i).unwrap();
//! assert_eq!(squares, vec![0, 1, 4, 9, 16, 25, 36, 49]);
//!
//! // Chunked sum: same chunk boundaries and fold order at any thread
//! // count, so the f64 result is bit-identical to a serial run.
//! let xs: Vec<f64> = (0..1000).map(|i| (i as f64).sin()).collect();
//! let total = gef_par::map_reduce(
//!     xs.len(),
//!     gef_par::Options::default(),
//!     |r| xs[r].iter().sum::<f64>(),
//!     |a, b| a + b,
//! )
//! .unwrap()
//! .unwrap_or(0.0);
//! let serial: f64 = gef_par::chunk_ranges(xs.len())
//!     .into_iter()
//!     .map(|r| xs[r].iter().sum::<f64>())
//!     .sum();
//! assert_eq!(total.to_bits(), serial.to_bits());
//! ```

#![deny(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use std::cell::UnsafeCell;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

/// Hard upper bound on the configured thread count (defensive cap for
/// absurd `GEF_THREADS` values).
pub const MAX_THREADS: usize = 512;

/// Maximum number of chunks [`chunk_ranges`] partitions a workload
/// into. A constant (never the thread count!) so that chunk boundaries
/// — and therefore per-chunk floating-point accumulation — depend only
/// on the workload length.
pub const MAX_CHUNKS: usize = 64;

// 0 = unresolved (read GEF_THREADS on first use), otherwise the count.
static THREADS: AtomicUsize = AtomicUsize::new(0);

fn threads_from_env() -> usize {
    let fallback = std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(MAX_THREADS);
    // Rejections and clamps go through the workspace-wide warn-once
    // path in gef_trace::env (stderr naming the raw value, an
    // `env.invalid` recorder note, and a telemetry event).
    match gef_trace::env::read_u64("GEF_THREADS") {
        gef_trace::env::EnvValue::Unset => fallback,
        gef_trace::env::EnvValue::Parsed(0) => {
            gef_trace::env::warn_invalid("GEF_THREADS", "0", &format!("using {fallback}"));
            fallback
        }
        gef_trace::env::EnvValue::Parsed(n) if n as usize > MAX_THREADS => {
            gef_trace::env::warn_invalid(
                "GEF_THREADS",
                &n.to_string(),
                &format!("using {MAX_THREADS}"),
            );
            MAX_THREADS
        }
        gef_trace::env::EnvValue::Parsed(n) => n as usize,
        gef_trace::env::EnvValue::Invalid(raw) => {
            gef_trace::env::warn_invalid("GEF_THREADS", &raw, &format!("using {fallback}"));
            fallback
        }
    }
}

/// Typed failure of a parallel region. Replaces the runtime's former
/// coordinator re-panic: callers get a value they can propagate (the
/// GEF pipeline surfaces it as `GefError::WorkerPanicked`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParError {
    /// A task panicked. The region was drained (remaining tasks may
    /// have been skipped) and this carries the **first** panic's
    /// payload, rendered as a string.
    TaskPanicked {
        /// The panic payload (`&str`/`String` payloads verbatim,
        /// anything else as a placeholder).
        payload: String,
    },
    /// The region was cancelled before every task ran: its hard
    /// deadline passed, observed at a between-task poll.
    Cancelled,
}

impl std::fmt::Display for ParError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParError::TaskPanicked { payload } => {
                write!(f, "a parallel task panicked: {payload}")
            }
            ParError::Cancelled => write!(f, "parallel region cancelled (deadline)"),
        }
    }
}

impl std::error::Error for ParError {}

/// Render a `catch_unwind` payload as a string (`&str` / `String`
/// payloads verbatim, anything else as a placeholder).
fn payload_to_string(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// The configured thread count (coordinator included), resolving
/// `GEF_THREADS` on first call. `1` means strictly serial execution.
pub fn threads() -> usize {
    match THREADS.load(Ordering::Relaxed) {
        0 => {
            let n = threads_from_env();
            THREADS.store(n, Ordering::Relaxed);
            n
        }
        n => n,
    }
}

/// Override the thread count in-process (clamped to
/// `1..=`[`MAX_THREADS`]), taking precedence over `GEF_THREADS`.
///
/// Intended for tests and benchmarks that compare thread counts within
/// one process. Already-spawned workers are never torn down — lowering
/// the count simply parks the surplus.
pub fn set_threads(n: usize) {
    THREADS.store(n.clamp(1, MAX_THREADS), Ordering::Relaxed);
}

/// Deterministic partition of `0..len` into at most [`MAX_CHUNKS`]
/// contiguous, equally sized ranges (the last may be shorter).
///
/// The boundaries are a pure function of `len` — thread count plays no
/// role — which is the foundation of the runtime's bit-identical
/// determinism contract.
///
/// ```
/// let ranges = gef_par::chunk_ranges(10);
/// assert_eq!(ranges.len(), 10); // len <= MAX_CHUNKS → unit chunks
/// let ranges = gef_par::chunk_ranges(1000);
/// assert_eq!(ranges.len(), 63);
/// assert_eq!(ranges[0], 0..16);
/// assert_eq!(ranges.last().unwrap().end, 1000);
/// ```
pub fn chunk_ranges(len: usize) -> Vec<Range<usize>> {
    if len == 0 {
        return Vec::new();
    }
    let size = chunk_size(len);
    (0..len)
        .step_by(size)
        .map(|s| s..(s + size).min(len))
        .collect()
}

/// The chunk length [`chunk_ranges`] uses for a workload of `len`
/// items (a pure function of `len`).
pub fn chunk_size(len: usize) -> usize {
    len.div_ceil(len.clamp(1, MAX_CHUNKS)).max(1)
}

/// Per-region dispatch options.
#[derive(Debug, Clone, Copy, Default)]
pub struct Options {
    /// Emit one `par.chunk` telemetry event per task at dispatch time.
    /// Reserve this for *coarse* regions (a handful of dispatches per
    /// run); hot inner loops such as per-leaf histogram builds would
    /// flood the bounded event log.
    pub chunk_events: bool,
    /// Name for this region's per-task timeline events when profiling
    /// (`GEF_PROF`) is on — the label shown on each worker's track in
    /// the exported chrome trace (e.g. `"forest.hist_build"`). Unlabeled
    /// regions record as `"par.task"`. Ignored while profiling is off.
    pub label: Option<&'static str>,
}

impl Options {
    /// Options for a coarse region: per-chunk events enabled.
    pub fn coarse() -> Options {
        Options {
            chunk_events: true,
            ..Options::default()
        }
    }

    /// Set the timeline label for this region's per-task events.
    pub fn with_label(mut self, label: &'static str) -> Options {
        self.label = Some(label);
        self
    }
}

/// Write-once result slots, indexed by task id.
///
/// Safety contract: the runtime claims every task index exactly once,
/// so each cell is touched by exactly one thread; the completion latch
/// (a mutex) orders all writes before the coordinator reads.
struct Slots<T> {
    cells: Vec<UnsafeCell<Option<T>>>,
}

unsafe impl<T: Send> Sync for Slots<T> {}

impl<T> Slots<T> {
    fn empty(n: usize) -> Self {
        Slots {
            cells: (0..n).map(|_| UnsafeCell::new(None)).collect(),
        }
    }

    fn filled(items: Vec<T>) -> Self {
        Slots {
            cells: items
                .into_iter()
                .map(|v| UnsafeCell::new(Some(v)))
                .collect(),
        }
    }

    /// Store the result for task `i`.
    ///
    /// # Safety
    /// `i` must be claimed by exactly one thread (guaranteed by the
    /// runtime's atomic task claiming).
    unsafe fn put(&self, i: usize, v: T) {
        unsafe { *self.cells[i].get() = Some(v) };
    }

    /// Move task `i`'s input out of its slot.
    ///
    /// # Safety
    /// Same uniqueness requirement as [`Slots::put`].
    unsafe fn take(&self, i: usize) -> Option<T> {
        unsafe { (*self.cells[i].get()).take() }
    }

    fn into_results(self) -> Vec<Option<T>> {
        self.cells.into_iter().map(|c| c.into_inner()).collect()
    }
}

/// Lifetime-erased pointer to the region's task closure. Only
/// dereferenced between a successful task claim and its completion
/// acknowledgement, a window during which the coordinator is provably
/// still blocked in [`run_tasks`] (so the borrow is live).
struct TaskPtr(*const (dyn Fn(usize) + Sync));

unsafe impl Send for TaskPtr {}
unsafe impl Sync for TaskPtr {}

/// One parallel region: a task closure plus claim/completion state.
struct Region {
    task: TaskPtr,
    n_tasks: usize,
    next: AtomicUsize,
    completed: Mutex<usize>,
    all_done: Condvar,
    panicked: AtomicBool,
    /// First panic's payload, rendered as a string (first writer wins).
    panic_payload: Mutex<Option<String>>,
    /// Tasks that actually executed (vs. drained after panic/cancel).
    executed: AtomicUsize,
    /// The dispatching thread's scope, captured at dispatch. Workers
    /// enter it for the region, so checkpoints inside tasks observe the
    /// coordinator's deadline, task records carry the dispatching
    /// request's trace id, and spans nest as in a serial run.
    scope: gef_trace::ctx::Scope,
    /// Timeline label for per-task begin/end events ([`Options::label`]).
    label: Option<&'static str>,
    /// Region id carried in per-task timeline event args.
    region_id: u64,
    /// Whether profiling was on at dispatch (captured once so every
    /// task of the region records — or none does).
    prof: bool,
}

impl Region {
    /// Claim and run tasks until none remain. Callable from any number
    /// of threads concurrently; each task index is claimed exactly once.
    ///
    /// Once a task has panicked or the hard deadline has passed (polled
    /// between claims, so a deadline fires mid-region), remaining
    /// claims are *drained*: acknowledged without running, so the
    /// completion latch still opens and nothing hangs. Every caller
    /// runs under the region's scope, so the poll reads its budget.
    fn work(&self) {
        loop {
            let i = self.next.fetch_add(1, Ordering::Relaxed);
            if i >= self.n_tasks {
                return;
            }
            let draining =
                self.panicked.load(Ordering::Relaxed) || gef_trace::budget::hard_exceeded();
            if !draining {
                // The claim → acknowledge window is what keeps the
                // erased borrow live; see TaskPtr.
                let task = unsafe { &*self.task.0 };
                if self.prof {
                    gef_trace::timeline::begin_with(
                        self.label.unwrap_or("par.task"),
                        &[
                            ("region", self.region_id as f64),
                            ("chunk", i as f64),
                            ("of", self.n_tasks as f64),
                        ],
                    );
                }
                let outcome = catch_unwind(AssertUnwindSafe(|| task(i)));
                if self.prof {
                    gef_trace::timeline::end(self.label.unwrap_or("par.task"));
                }
                match outcome {
                    Ok(()) => {
                        self.executed.fetch_add(1, Ordering::Relaxed);
                    }
                    Err(payload) => {
                        let rendered = payload_to_string(payload.as_ref());
                        // Breadcrumb for incident dumps: the contained
                        // panic, on the thread that caught it.
                        gef_trace::recorder::note(
                            gef_trace::recorder::Kind::Panic,
                            "par.task_panicked",
                            &rendered,
                        );
                        let mut slot = self.panic_payload.lock().unwrap_or_else(|e| e.into_inner());
                        if slot.is_none() {
                            *slot = Some(rendered);
                        }
                        drop(slot);
                        self.panicked.store(true, Ordering::Relaxed);
                    }
                }
            }
            let mut done = self.completed.lock().unwrap_or_else(|e| e.into_inner());
            *done += 1;
            if *done == self.n_tasks {
                self.all_done.notify_all();
            }
        }
    }

    /// Block until every task has been acknowledged. The latch mutex
    /// also publishes all task-side writes to the caller.
    fn wait(&self) {
        let mut done = self.completed.lock().unwrap_or_else(|e| e.into_inner());
        while *done < self.n_tasks {
            done = self.all_done.wait(done).unwrap_or_else(|e| e.into_inner());
        }
    }
}

struct Pool {
    /// Pending helper slots: one queue entry wakes one worker to join a
    /// region. Entries for already-finished regions are harmless — the
    /// worker finds no unclaimed task and moves on.
    queue: Mutex<Vec<Arc<Region>>>,
    ready: Condvar,
    spawned: AtomicUsize,
}

static POOL: OnceLock<Pool> = OnceLock::new();
static REGION_ID: AtomicU64 = AtomicU64::new(0);

fn pool() -> &'static Pool {
    POOL.get_or_init(|| Pool {
        queue: Mutex::new(Vec::new()),
        ready: Condvar::new(),
        spawned: AtomicUsize::new(0),
    })
}

fn worker_loop(pool: &'static Pool) {
    loop {
        let region = {
            let mut q = pool.queue.lock().unwrap_or_else(|e| e.into_inner());
            loop {
                if let Some(r) = q.pop() {
                    break r;
                }
                q = pool.ready.wait(q).unwrap_or_else(|e| e.into_inner());
            }
        };
        // Run under the dispatcher's scope: its deadline, trace id and
        // span path reach the tasks and any nested regions they launch.
        let _scope = region.scope.enter();
        region.work();
    }
}

/// Spawn workers until `want` exist (process lifetime; they park when
/// idle). Spawn failures are tolerated: the coordinator always
/// participates, so a region completes with however many threads exist.
fn ensure_workers(pool: &'static Pool, want: usize) {
    loop {
        let cur = pool.spawned.load(Ordering::Relaxed);
        if cur >= want {
            return;
        }
        if pool
            .spawned
            .compare_exchange(cur, cur + 1, Ordering::Relaxed, Ordering::Relaxed)
            .is_err()
        {
            continue;
        }
        let spawned = std::thread::Builder::new()
            .name(format!("gef-par-{cur}"))
            .spawn(move || {
                // Bind this thread to its logical worker id so its
                // rings record as `tid = cur + 1` at any GEF_THREADS.
                gef_trace::recorder::register_worker(cur);
                worker_loop(pool)
            });
        if spawned.is_err() {
            pool.spawned.fetch_sub(1, Ordering::Relaxed);
            return;
        }
    }
}

/// Spawn the pool's worker threads now (idempotent, cheap when already
/// up). Benchmarks call this once per process so the first timed region
/// does not pay thread start-up.
pub fn prestart() {
    let t = threads();
    if t > 1 {
        ensure_workers(pool(), t - 1);
    }
}

/// Core dispatch: run `task(i)` for every `i in 0..n_tasks`.
///
/// Serial (a plain in-order loop on the calling thread) whenever the
/// pool is sized to one thread, the region has a single task, or any
/// fault-injection site is armed (see the crate docs). Otherwise tasks
/// are claimed atomically by the coordinator plus up to `threads()-1`
/// pool workers; the call returns only after every task was claimed and
/// acknowledged. Panics inside tasks are caught (never re-raised) and
/// the hard deadline is polled between tasks on both paths; see
/// [`ParError`].
fn run_tasks(n_tasks: usize, opts: Options, task: &(dyn Fn(usize) + Sync)) -> Result<(), ParError> {
    if n_tasks == 0 {
        return Ok(());
    }
    let t = threads();
    let prof = gef_trace::timeline::prof_enabled();
    if t <= 1 || n_tasks == 1 || gef_trace::fault::any_armed() {
        let label = opts.label.unwrap_or("par.task");
        let region_id = if prof {
            REGION_ID.fetch_add(1, Ordering::Relaxed)
        } else {
            0
        };
        for i in 0..n_tasks {
            if gef_trace::budget::hard_exceeded() {
                return Err(ParError::Cancelled);
            }
            if prof {
                gef_trace::timeline::begin_with(
                    label,
                    &[
                        ("region", region_id as f64),
                        ("chunk", i as f64),
                        ("of", n_tasks as f64),
                    ],
                );
            }
            let outcome = catch_unwind(AssertUnwindSafe(|| task(i)));
            if prof {
                gef_trace::timeline::end(label);
            }
            if let Err(payload) = outcome {
                let rendered = payload_to_string(payload.as_ref());
                gef_trace::recorder::note(
                    gef_trace::recorder::Kind::Panic,
                    "par.task_panicked",
                    &rendered,
                );
                return Err(ParError::TaskPanicked { payload: rendered });
            }
        }
        return Ok(());
    }
    let helpers = (t - 1).min(n_tasks - 1);
    let pool = pool();
    ensure_workers(pool, helpers);

    let traced = gef_trace::enabled();
    let region_id = if prof || (traced && opts.chunk_events) {
        REGION_ID.fetch_add(1, Ordering::Relaxed)
    } else {
        0
    };
    if traced {
        let g = gef_trace::global();
        g.gauge("par.workers", (helpers + 1) as f64);
        gef_trace::counter!("par.regions").incr();
        g.record_value("par.tasks", n_tasks as u64);
        if opts.chunk_events {
            for i in 0..n_tasks {
                g.event(
                    "par.chunk",
                    &[
                        ("region", region_id as f64),
                        ("chunk", i as f64),
                        ("of", n_tasks as f64),
                    ],
                );
            }
        }
    }

    // Erase the task borrow's lifetime for the worker threads. Sound
    // because this function does not return before `region.wait()`
    // observes every task completed, and stale queue entries never
    // dereference the pointer (no unclaimed task remains).
    let erased: *const (dyn Fn(usize) + Sync) = unsafe {
        std::mem::transmute::<
            *const (dyn Fn(usize) + Sync + '_),
            *const (dyn Fn(usize) + Sync + 'static),
        >(task as *const _)
    };
    let region = Arc::new(Region {
        task: TaskPtr(erased),
        n_tasks,
        next: AtomicUsize::new(0),
        completed: Mutex::new(0),
        all_done: Condvar::new(),
        panicked: AtomicBool::new(false),
        panic_payload: Mutex::new(None),
        executed: AtomicUsize::new(0),
        scope: gef_trace::ctx::Scope::current(),
        label: opts.label,
        region_id,
        prof,
    });
    {
        let mut q = pool.queue.lock().unwrap_or_else(|e| e.into_inner());
        for _ in 0..helpers {
            q.push(Arc::clone(&region));
        }
    }
    pool.ready.notify_all();
    region.work();
    region.wait();
    if region.panicked.load(Ordering::Relaxed) {
        let payload = region
            .panic_payload
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .take()
            .unwrap_or_else(|| "unknown panic payload".to_string());
        return Err(ParError::TaskPanicked { payload });
    }
    if region.executed.load(Ordering::Relaxed) < n_tasks {
        return Err(ParError::Cancelled);
    }
    Ok(())
}

/// Run `f(i)` for every `i in 0..n` on the pool (serial fallback per
/// the crate determinism rules). Side effects must be per-index
/// independent; ordering across indices is unspecified when parallel.
pub fn for_each_index(n: usize, opts: Options, f: impl Fn(usize) + Sync) -> Result<(), ParError> {
    run_tasks(n, opts, &f)
}

/// Compute `f(i)` for every `i in 0..n` and return the results in index
/// order — the parallel equivalent of `(0..n).map(f).collect()`.
pub fn map<T: Send>(
    n: usize,
    opts: Options,
    f: impl Fn(usize) -> T + Sync,
) -> Result<Vec<T>, ParError> {
    let slots = Slots::empty(n);
    run_tasks(n, opts, &|i| {
        let v = f(i);
        // Safety: each index is claimed exactly once.
        unsafe { slots.put(i, v) };
    })?;
    // Ok from run_tasks means every task executed, so every slot is
    // filled; the expect is unreachable by construction.
    #[allow(clippy::expect_used)]
    Ok(slots
        .into_results()
        .into_iter()
        .map(|o| o.expect("gef-par: completed task left no result"))
        .collect())
}

/// Feed each element of `tasks` (moved) to `f` along with its index.
/// The parallel equivalent of `tasks.into_iter().enumerate().for_each(..)`
/// for inputs that are not `Clone` (e.g. disjoint `&mut` sub-slices).
/// On cancellation, unconsumed inputs are dropped with the slots.
pub fn for_each_task<T: Send>(
    tasks: Vec<T>,
    opts: Options,
    f: impl Fn(usize, T) + Sync,
) -> Result<(), ParError> {
    let n = tasks.len();
    let slots = Slots::filled(tasks);
    run_tasks(n, opts, &|i| {
        // Safety: each index is claimed exactly once.
        if let Some(v) = unsafe { slots.take(i) } {
            f(i, v);
        }
    })
}

/// Hand out disjoint mutable chunks of `data` (fixed [`chunk_size`]
/// boundaries): `f(chunk_index, start_offset, chunk)`. On an `Err`,
/// chunks that did not run keep their previous contents.
pub fn for_each_chunk_mut<T: Send>(
    data: &mut [T],
    opts: Options,
    f: impl Fn(usize, usize, &mut [T]) + Sync,
) -> Result<(), ParError> {
    let len = data.len();
    if len == 0 {
        return Ok(());
    }
    let size = chunk_size(len);
    let chunks: Vec<(usize, &mut [T])> = data
        .chunks_mut(size)
        .enumerate()
        .map(|(i, c)| (i * size, c))
        .collect();
    for_each_task(chunks, opts, |i, (start, chunk)| f(i, start, chunk))
}

/// Chunked map-reduce over `0..len`: `map_fn` runs per fixed chunk, and
/// the chunk results are folded **left-to-right in chunk-index order**
/// with `reduce` — so the combination order (and therefore any
/// floating-point rounding) is identical at every thread count. Returns
/// `Ok(None)` for an empty workload.
pub fn map_reduce<T: Send>(
    len: usize,
    opts: Options,
    map_fn: impl Fn(Range<usize>) -> T + Sync,
    reduce: impl FnMut(T, T) -> T,
) -> Result<Option<T>, ParError> {
    let ranges = chunk_ranges(len);
    let parts = map(ranges.len(), opts, |i| map_fn(ranges[i].clone()))?;
    Ok(parts.into_iter().reduce(reduce))
}

#[cfg(test)]
mod tests {
    use super::*;

    // `threads()` is process-global; tests that change it serialise.
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    fn at_threads<T>(n: usize, f: impl FnOnce() -> T) -> T {
        set_threads(n);
        let out = f();
        set_threads(1);
        out
    }

    #[test]
    fn chunk_ranges_cover_exactly() {
        for len in [0usize, 1, 2, 63, 64, 65, 1000, 4096, 100_000] {
            let ranges = chunk_ranges(len);
            assert!(ranges.len() <= MAX_CHUNKS);
            let mut cursor = 0;
            for r in &ranges {
                assert_eq!(r.start, cursor);
                assert!(r.end > r.start);
                cursor = r.end;
            }
            assert_eq!(cursor, len);
        }
    }

    #[test]
    fn map_returns_index_order() {
        let _guard = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        for t in [1, 4] {
            let got = at_threads(t, || map(100, Options::default(), |i| i * 3).unwrap());
            assert_eq!(got, (0..100).map(|i| i * 3).collect::<Vec<_>>());
        }
    }

    #[test]
    fn tasks_observe_dispatching_trace_context() {
        let _guard = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        for t in [1, 4] {
            let seen: Vec<AtomicU64> = (0..64).map(|_| AtomicU64::new(0)).collect();
            at_threads(t, || {
                let _ctx = gef_trace::ctx::enter_trace(0x77);
                for_each_index(64, Options::default(), |i| {
                    seen[i].store(gef_trace::ctx::current_id(), Ordering::Relaxed);
                })
                .unwrap();
            });
            assert!(
                seen.iter().all(|s| s.load(Ordering::Relaxed) == 0x77),
                "threads={t}: every task sees the dispatcher's trace id"
            );
        }
    }

    #[test]
    fn map_reduce_is_bit_identical_across_thread_counts() {
        let _guard = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let xs: Vec<f64> = (0..50_000).map(|i| ((i * 37) as f64).sin() * 1e3).collect();
        let sum_at = |t: usize| {
            at_threads(t, || {
                map_reduce(
                    xs.len(),
                    Options::default(),
                    |r| xs[r].iter().sum::<f64>(),
                    |a, b| a + b,
                )
                .unwrap()
                .unwrap_or(0.0)
            })
        };
        let s1 = sum_at(1);
        for t in [2, 4, 8] {
            assert_eq!(s1.to_bits(), sum_at(t).to_bits(), "threads={t}");
        }
    }

    #[test]
    fn for_each_chunk_mut_writes_every_slot() {
        let _guard = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        for t in [1, 4] {
            let mut out = vec![0usize; 10_000];
            at_threads(t, || {
                for_each_chunk_mut(&mut out, Options::default(), |_, start, chunk| {
                    for (k, v) in chunk.iter_mut().enumerate() {
                        *v = start + k;
                    }
                })
                .unwrap();
            });
            assert!(out.iter().enumerate().all(|(i, &v)| v == i));
        }
    }

    #[test]
    fn for_each_task_consumes_each_input_once() {
        let _guard = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let hits: Vec<AtomicUsize> = (0..64).map(|_| AtomicUsize::new(0)).collect();
        at_threads(4, || {
            let tasks: Vec<usize> = (0..64).collect();
            for_each_task(tasks, Options::default(), |i, v| {
                assert_eq!(i, v);
                hits[v].fetch_add(1, Ordering::Relaxed);
            })
            .unwrap();
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn task_panic_returns_typed_error_with_payload() {
        let _guard = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        for t in [1, 4] {
            let result = at_threads(t, || {
                for_each_index(32, Options::default(), |i| {
                    assert!(i != 17, "injected test panic");
                })
            });
            match result {
                Err(ParError::TaskPanicked { payload }) => {
                    assert!(
                        payload.contains("injected test panic"),
                        "threads={t}: payload should carry the panic message: {payload:?}"
                    );
                }
                other => panic!("threads={t}: expected TaskPanicked, got {other:?}"),
            }
            // The pool stays usable after a panicked region.
            let ok = at_threads(t.max(4), || map(32, Options::default(), |i| i).unwrap());
            assert_eq!(ok.len(), 32);
        }
    }

    #[test]
    fn cancellation_fires_mid_region() {
        let _guard = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        for t in [1, 4] {
            // An already-expired hard deadline: the first between-task
            // poll observes it, so the region drains without running
            // (almost) anything and reports Cancelled.
            let ran = AtomicUsize::new(0);
            let result = at_threads(t, || {
                let expired = Some(std::time::Duration::ZERO);
                let _budget = gef_trace::budget::Budget::armed(expired, None).enter();
                for_each_index(64, Options::default(), |_| {
                    ran.fetch_add(1, Ordering::Relaxed);
                })
            });
            assert_eq!(result, Err(ParError::Cancelled), "threads={t}");
            assert!(
                ran.load(Ordering::Relaxed) < 64,
                "threads={t}: cancellation must skip remaining tasks"
            );
            // The scope is left with the guard: the pool is usable again.
            let ok = at_threads(t, || map(16, Options::default(), |i| i).unwrap());
            assert_eq!(ok.len(), 16);
        }
    }

    #[test]
    fn nested_regions_complete() {
        let _guard = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let got = at_threads(4, || {
            map(8, Options::default(), |i| {
                map(8, Options::default(), |j| i * 8 + j)
                    .unwrap()
                    .into_iter()
                    .sum::<usize>()
            })
            .unwrap()
        });
        let want: Vec<usize> = (0..8).map(|i| (0..8).map(|j| i * 8 + j).sum()).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn set_threads_clamps() {
        let _guard = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        set_threads(0);
        assert_eq!(threads(), 1);
        set_threads(usize::MAX);
        assert_eq!(threads(), MAX_THREADS);
        set_threads(1);
    }

    #[test]
    fn empty_workloads_are_no_ops() {
        let _guard = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        at_threads(4, || {
            assert!(map(0, Options::default(), |i| i).unwrap().is_empty());
            assert_eq!(
                map_reduce(0, Options::default(), |_| 1usize, |a, b| a + b),
                Ok(None)
            );
            for_each_chunk_mut(&mut [] as &mut [u8], Options::default(), |_, _, _| {
                panic!("must not run")
            })
            .unwrap();
        });
    }
}
