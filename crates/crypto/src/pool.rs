//! Persistent work-stealing encryption pool.
//!
//! §6.2 of the paper assumes "P processors that we can utilize in
//! parallel" when dividing its time estimates: *"Encrypting the set of
//! values is trivially parallelizable in all three protocols."* This
//! module supplies that `P` with *persistent* workers, so one pool, sized
//! once per process, serves every protocol round without re-paying thread
//! spawn/join on each batch — the structure the chunked engine in
//! `minshare-core` needs, where many small batches are in flight at once.
//! It is the one parallel path to `Ce`: every claim runs
//! [`FixedExponentPlan::pow_batch`] on its slice.
//!
//! Work distribution is by atomic sub-chunk claiming: every dispatched
//! job sits on a shared run queue, and each worker (plus the waiting
//! caller) repeatedly claims a contiguous range with a `fetch_add`
//! cursor. Claim sizes are *guided* (half the remaining share of the
//! claiming party, floored at [`MIN_CLAIM`]): the first parties to
//! arrive take large contiguous head chunks — so the submitting thread
//! does most of its help in one cache-friendly run instead of contending
//! per-item — while the geometric decay leaves [`MIN_CLAIM`]-sized
//! crumbs at the tail for straggler rebalancing, the same property a
//! stealing deque buys with nothing but one lock and one atomic. The
//! claim cursor and every other hot counter sit on their own cache line
//! ([`CachePadded`]) so claims from different threads never false-share.
//!
//! # Per-session fairness
//!
//! The daemon shares one pool across concurrent protocol sessions, so
//! worker time is scheduled by start-time fair queuing: every job is
//! tagged with a [`PoolSession`] (thread-local [`PoolSession::scope`]
//! binding; unscoped submissions fall to a default session), each
//! session carries a virtual time that advances by the items served
//! whenever a pool worker serves it, and workers always pick the
//! runnable job whose session has the *lowest* virtual time, claiming at
//! most [`FAIR_QUANTUM`] items before re-picking. A million-element
//! equijoin therefore cannot starve a 64-item intersection: after one
//! quantum the big session's virtual time passes the small one's, and
//! the next quantum goes to the small session. The submitting caller
//! still helps its own job without a quantum cap — fairness governs the
//! shared workers, not the session's own thread — and per-session
//! claim counters ([`PoolSession::items_claimed`]) give tests an
//! exactly-once ledger.
//!
//! The caller *helps*: [`PendingBatch::wait`] runs the job on the calling
//! thread too, so a pool with zero workers still completes every job
//! (inline), and a pool on a loaded machine never deadlocks waiting for a
//! busy worker.
//!
//! Two measured guards keep the pool from losing to serial (as it
//! measurably did on a 1-core host):
//!
//! * [`EncryptPool::new`] clamps the worker count to `cores - 1` (the
//!   caller is the remaining party), so a 1-core host gets zero workers
//!   and every job runs inline — identical code path to serial.
//! * Batches below a *measured* hand-off threshold run inline even when
//!   workers exist. Construction times several probe round-trips through
//!   the job channel and takes their median (one descheduled worker no
//!   longer poisons the estimate); afterwards, every pooled job's first
//!   worker claim feeds the observed submit→claim latency back into a
//!   dispatch EWMA, and every evaluated claim (inline *and* pooled) feeds
//!   the per-item cost EWMA. The inline threshold is their ratio — a
//!   batch must outweigh the dispatch overhead before it is worth waking
//!   another thread — and it keeps auto-tuning as the workload shifts.
//!
//! This file carries a WIRE01 exemption in the analyzer's taint
//! registry (`WIRE01_EXEMPT_FILES`): the `send` calls here are
//! crossbeam channel hand-offs to worker threads in the same process,
//! not network transmission. Conversely [`PendingBatch::wait`] is
//! registered encrypt-class — the pool runs nothing but scheme ops, so
//! its output is ciphertext. Keep both properties true if this module
//! grows.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crossbeam::channel::{unbounded, Receiver, Sender};
use minshare_bignum::{FixedExponentPlan, UBig};

use crate::commutative::CommutativeKey;
use crate::group::{fold, QrGroup};

/// Smallest cursor claim: the tail granularity stragglers rebalance at,
/// and the floor of the inline hand-off threshold (anything one claim
/// would cover is not worth dispatching).
const MIN_CLAIM: usize = 16;

/// Ceiling of the measured inline threshold, so a mis-calibrated probe
/// (e.g. a descheduled worker inflating the round-trip) cannot disable
/// the pool for genuinely large batches.
const MAX_INLINE: usize = 1024;

/// Construction-time dispatch probe rounds; the first is a warm-up
/// (thread start-up, cold caches) and is discarded, the median of the
/// rest becomes the initial dispatch estimate.
const DISPATCH_PROBES: usize = 6;

/// Live dispatch samples above this are treated as scheduler noise (a
/// descheduled worker, not channel cost) and clipped before entering the
/// EWMA.
const DISPATCH_SAMPLE_CAP_NS: u64 = 50_000_000;

/// Most items a pool worker claims from one job before re-consulting the
/// fair scheduler. Small enough that a waiting small session is served
/// within one quantum of worker time; large enough that the per-quantum
/// lock acquisition is noise next to the modexp work it buys.
const FAIR_QUANTUM: usize = 64;

/// Virtual-time units charged per item served.
const VTIME_SCALE: u64 = 1024;

/// Pads a hot atomic to its own cache line (128 bytes covers the spatial
/// prefetcher pair on current x86 cores), so claim traffic on one counter
/// never invalidates a neighbour. Hand-rolled because this workspace
/// forbids `unsafe` and vendors no utility crates.
#[repr(align(128))]
#[derive(Debug, Default)]
struct CachePadded<T>(T);

/// EWMA fold: `next = (3·old + sample) / 4`, seeding on the first sample.
fn ewma_record(cell: &AtomicU64, sample: u64) {
    let sample = sample.max(1);
    let old = cell.load(Ordering::Relaxed);
    let next = if old == 0 {
        sample
    } else {
        (3 * old + sample) / 4
    };
    cell.store(next, Ordering::Relaxed);
}

/// The pool's live calibration state, shared with every in-flight job so
/// pooled claims keep tuning the estimates (inline-only feedback went
/// stale as soon as the pool warmed up and stopped running inline).
#[derive(Debug, Default)]
struct PoolTuning {
    /// EWMA of submit→first-worker-claim latency (ns); seeded by the
    /// construction probe median. 0 only for a workerless pool.
    dispatch_ns: CachePadded<AtomicU64>,
    /// EWMA of per-item encrypt cost (ns), fed by inline runs and pooled
    /// claims alike; 0 until the first nonempty batch calibrates it.
    item_ns: CachePadded<AtomicU64>,
}

/// Lifetime submission counters, one padded atomic each (the stats lock
/// this replaces serialized every submit across threads).
#[derive(Debug, Default)]
struct PoolCounters {
    jobs: CachePadded<AtomicU64>,
    items: CachePadded<AtomicU64>,
    inline_jobs: CachePadded<AtomicU64>,
}

/// Counters for observing pool behavior (benches and tests).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Jobs submitted over the pool's lifetime.
    pub jobs: u64,
    /// Total items across all submitted jobs.
    pub items: u64,
    /// Jobs that ran inline on the caller (below threshold or no workers).
    pub inline_jobs: u64,
}

/// Scheduling state of one protocol session sharing the pool: the fair
/// scheduler's virtual clock plus an exactly-once claim ledger. Pure
/// scheduling metadata — no key material lives here.
#[derive(Debug)]
struct SessionState {
    /// Stable id, for trace attribution (0 is the default session).
    id: u64,
    /// Virtual time: `items · VTIME_SCALE` accumulated over the
    /// worker quanta this session has been served. Workers pick the
    /// runnable job with the minimum.
    vtime: CachePadded<AtomicU64>,
    /// Items claimed on behalf of this session, across worker quanta,
    /// caller help, and inline runs — an exactly-once ledger.
    claimed: CachePadded<AtomicU64>,
}

thread_local! {
    /// Stack of `(pool id, session)` bindings installed by
    /// [`PoolSession::scope`]; submissions on this thread are attributed
    /// to the innermost binding whose pool id matches.
    static CURRENT_SESSION: std::cell::RefCell<Vec<(u64, Arc<SessionState>)>> =
        const { std::cell::RefCell::new(Vec::new()) };
}

/// A fair-scheduling identity on one [`EncryptPool`]. Create with
/// [`EncryptPool::session`], then wrap protocol work in
/// [`PoolSession::scope`]: every submission made on the calling thread
/// inside the closure is attributed to this session, with no change to
/// the submit signatures. Cloneable and `Send`, so a handle can outlive
/// the scope for accounting ([`PoolSession::items_claimed`]).
#[derive(Clone, Debug)]
pub struct PoolSession {
    pool_id: u64,
    state: Arc<SessionState>,
}

impl PoolSession {
    /// Runs `f` with this session installed as the calling thread's
    /// submission identity for its pool. Nests: the innermost matching
    /// scope wins, and the previous binding is restored on exit (also on
    /// panic — the restore lives in a drop guard).
    pub fn scope<R>(&self, f: impl FnOnce() -> R) -> R {
        struct Restore;
        impl Drop for Restore {
            fn drop(&mut self) {
                CURRENT_SESSION.with(|stack| {
                    stack.borrow_mut().pop();
                });
            }
        }
        CURRENT_SESSION.with(|stack| {
            stack
                .borrow_mut()
                .push((self.pool_id, Arc::clone(&self.state)));
        });
        let _restore = Restore;
        f()
    }

    /// Stable session id (0 is the pool's default session).
    pub fn id(&self) -> u64 {
        self.state.id
    }

    /// Total items evaluated on this session's behalf so far — the sum of
    /// worker quanta, caller help, and inline runs. With every claim
    /// accounted exactly once, this equals the session's submitted item
    /// count once all its batches have been waited on.
    pub fn items_claimed(&self) -> u64 {
        self.state.claimed.0.load(Ordering::Relaxed)
    }
}

/// The shared run queue workers schedule from: dispatched jobs plus the
/// global virtual clock. Lock poisoning is absorbed (`into_inner`) — the
/// state is a job list whose correctness lives in per-job atomic
/// cursors, so observing a poisoned snapshot is safe.
struct RunQueue {
    state: Mutex<QueueState>,
    ready: Condvar,
    /// High-water virtual time across sessions; newly created sessions
    /// start here so an idle period never banks scheduling credit.
    vclock: CachePadded<AtomicU64>,
}

#[derive(Default)]
struct QueueState {
    jobs: Vec<Arc<PoolJob>>,
    shutdown: bool,
}

impl RunQueue {
    fn new() -> Self {
        RunQueue {
            state: Mutex::new(QueueState::default()),
            ready: Condvar::new(),
            vclock: CachePadded(AtomicU64::new(0)),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, QueueState> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Enqueues a dispatched job and wakes every worker (a single job is
    /// claimable by all of them at once).
    fn push(&self, job: Arc<PoolJob>) {
        self.lock().jobs.push(job);
        self.ready.notify_all();
    }

    /// Jobs currently dispatched and not yet exhausted — the live queue
    /// depth the telemetry gauge reports. Telemetry-only: taken under
    /// the same lock as scheduling, so only read when tracing is on.
    fn depth(&self) -> usize {
        self.lock().jobs.len()
    }
}

/// One pool worker: repeatedly pick the runnable job whose session has
/// the minimum virtual time, serve one bounded quantum, charge the
/// session's clock, re-pick. The quantum cap is what makes the schedule
/// fair — no worker commits to a job for longer than [`FAIR_QUANTUM`]
/// items, so a newly arrived small session waits at most one quantum per
/// worker.
fn worker_loop(queue: &RunQueue) {
    loop {
        let job = {
            let mut state = queue.lock();
            loop {
                if state.shutdown {
                    return;
                }
                state.jobs.retain(|job| !job.exhausted());
                let pick = state
                    .jobs
                    .iter()
                    .min_by_key(|job| job.session.vtime.0.load(Ordering::Relaxed))
                    .cloned();
                if let Some(job) = pick {
                    break job;
                }
                state = queue.ready.wait(state).unwrap_or_else(|e| e.into_inner());
            }
        };
        let served = job.run_quantum(FAIR_QUANTUM, true);
        if served > 0 {
            let credit = (served as u64).saturating_mul(VTIME_SCALE);
            let after = job
                .session
                .vtime
                .0
                .fetch_add(credit, Ordering::Relaxed)
                .saturating_add(credit);
            queue.vclock.0.fetch_max(after, Ordering::Relaxed);
        }
    }
}

/// What a broadcast job asks the workers to do.
enum JobWork {
    /// Raise every item to the plan's exponent — `f_e` under an encrypt
    /// plan, `f_e⁻¹` under a decrypt plan.
    Crypto {
        plan: Arc<FixedExponentPlan>,
        items: Vec<UBig>,
    },
    /// Construction-time dispatch probe: the first claimer sends one
    /// empty marker so the pool can time a channel round-trip.
    Probe,
}

/// One in-flight batch: the work, a claim cursor, and the channel
/// results flow back on.
///
/// Holds a live fixed-exponent plan (equivalent to the key) for the
/// duration of the batch, so it is registered with the secret-hygiene
/// analyzer: no `Debug`, no structural equality.
struct PoolJob {
    work: JobWork,
    /// Next unclaimed item index; cache-line isolated so concurrent
    /// claims touch nothing else.
    cursor: CachePadded<AtomicUsize>,
    /// Workers + the helping caller: the denominator of guided claims.
    parties: usize,
    /// The session this job is billed to — its virtual time orders the
    /// job in the fair scheduler, its ledger counts the claims.
    session: Arc<SessionState>,
    /// When the job was dispatched; the first worker claim measures
    /// submit→claim latency against it.
    submitted: Instant,
    /// Latched by the first *worker* claim so exactly one dispatch-latency
    /// sample enters the EWMA per job.
    dispatch_seen: AtomicBool,
    /// Live calibration shared with the owning pool.
    tuning: Arc<PoolTuning>,
    results: Sender<(usize, Vec<UBig>)>,
}

impl PoolJob {
    /// True once every item has been claimed (a probe is exhausted after
    /// its single marker claim); the scheduler prunes exhausted jobs.
    fn exhausted(&self) -> bool {
        match &self.work {
            JobWork::Probe => self.cursor.0.load(Ordering::Relaxed) > 0,
            JobWork::Crypto { items, .. } => self.cursor.0.load(Ordering::Relaxed) >= items.len(),
        }
    }

    /// Claims and evaluates one contiguous sub-chunk of at most `cap`
    /// items; returns how many were evaluated (0 when the job is
    /// exhausted or the claim raced past the end). Guided claim sizing:
    /// each claim takes half the claimant's share of what remains, so
    /// early claims are large and contiguous and the tail degrades to
    /// [`MIN_CLAIM`] crumbs for rebalancing; workers additionally cap at
    /// [`FAIR_QUANTUM`] so one job never holds a worker hostage.
    fn run_quantum(&self, cap: usize, is_worker: bool) -> usize {
        match &self.work {
            JobWork::Probe => {
                if self.cursor.0.fetch_add(1, Ordering::Relaxed) == 0 {
                    let _ = self.results.send((0, Vec::new()));
                }
                0
            }
            JobWork::Crypto { plan, items } => {
                let total = items.len();
                let claimed = self.cursor.0.load(Ordering::Relaxed);
                if claimed >= total {
                    return 0;
                }
                // A stale `claimed` only skews the claim size, never
                // correctness: the fetch_add below is the sole authority
                // on who owns which range.
                let want = ((total - claimed) / (2 * self.parties))
                    .max(MIN_CLAIM)
                    .min(cap.max(1));
                let start = self.cursor.0.fetch_add(want, Ordering::Relaxed);
                if start >= total {
                    return 0;
                }
                if is_worker && !self.dispatch_seen.swap(true, Ordering::Relaxed) {
                    let lat = self
                        .submitted
                        .elapsed()
                        .as_nanos()
                        .min(u128::from(u64::MAX)) as u64;
                    ewma_record(&self.tuning.dispatch_ns.0, lat.min(DISPATCH_SAMPLE_CAP_NS));
                }
                let end = start.saturating_add(want).min(total);
                let eval_started = Instant::now();
                // Always `Some`: a cursor-claimed range is in bounds.
                if let Some(claim) = items.get(start..end) {
                    let out = plan.pow_batch(claim);
                    let out = out.into_iter().map(|y| fold(plan.modulus(), y)).collect();
                    record_item_cost(&self.tuning, eval_started.elapsed(), end - start);
                    // A send error means the caller abandoned the batch;
                    // keep draining the cursor so the job finishes quietly.
                    let _ = self.results.send((start, out));
                }
                let served = end - start;
                self.session
                    .claimed
                    .0
                    .fetch_add(served as u64, Ordering::Relaxed);
                served
            }
        }
    }

    /// Caller help: runs the job to exhaustion with no quantum cap — the
    /// fair scheduler governs the shared workers, not the session's own
    /// thread, so the submitter keeps its large cache-friendly claims.
    fn help(&self) {
        while self.run_quantum(usize::MAX, false) > 0 {}
    }

    fn total_items(&self) -> usize {
        match &self.work {
            JobWork::Probe => 0,
            JobWork::Crypto { items, .. } => items.len(),
        }
    }
}

/// Folds a measured run's per-item cost into the EWMA calibration.
fn record_item_cost(tuning: &PoolTuning, elapsed: Duration, items: usize) {
    if items == 0 {
        return;
    }
    let per = (elapsed.as_nanos() / items as u128).min(u128::from(u64::MAX)) as u64;
    ewma_record(&tuning.item_ns.0, per);
}

/// Handle to an in-flight batch; redeem with [`PendingBatch::wait`].
pub struct PendingBatch {
    inner: PendingInner,
}

enum PendingInner {
    /// Results computed inline at submission (small batch or no workers).
    Ready(Vec<UBig>),
    /// Broadcast to the workers; the caller helps at `wait`.
    InFlight {
        job: Arc<PoolJob>,
        rx: Receiver<(usize, Vec<UBig>)>,
    },
}

impl PendingBatch {
    /// Wraps already-computed results, e.g. from a serial fallback path.
    /// `wait` returns them unchanged.
    pub fn ready(results: Vec<UBig>) -> Self {
        PendingBatch {
            inner: PendingInner::Ready(results),
        }
    }

    /// Number of items the batch will produce.
    pub fn len(&self) -> usize {
        match &self.inner {
            PendingInner::Ready(v) => v.len(),
            PendingInner::InFlight { job, .. } => job.total_items(),
        }
    }

    /// True if the batch holds no items.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Blocks until every item is processed and returns the outputs in
    /// input order. The calling thread helps with unclaimed sub-chunks
    /// first — its guided claims take contiguous ranges, not per-item
    /// nibbles — so completion never depends on pool workers being free.
    pub fn wait(self) -> Vec<UBig> {
        let (job, rx) = match self.inner {
            PendingInner::Ready(v) => return v,
            PendingInner::InFlight { job, rx } => (job, rx),
        };
        let waited = minshare_trace::span("pool", "wait", false);
        job.help();
        let total = job.total_items();
        let mut parts: Vec<(usize, Vec<UBig>)> = Vec::new();
        let mut received = 0usize;
        while received < total {
            match rx.recv() {
                Ok((start, part)) => {
                    received += part.len();
                    parts.push((start, part));
                }
                // Unreachable while `job` (which owns a sender) is
                // alive; bail rather than spin if it ever happens.
                Err(_) => break,
            }
        }
        parts.sort_by_key(|(start, _)| *start);
        waited.finish(vec![minshare_trace::count("items", total as u64)]);
        parts.into_iter().flat_map(|(_, part)| part).collect()
    }
}

/// A persistent pool of encryption workers, sized once and shared across
/// protocol rounds. Cheap to share by reference; submission takes `&self`.
pub struct EncryptPool {
    /// Distinguishes this pool's thread-local session bindings from any
    /// other pool's in the same process.
    pool_id: u64,
    /// The fair-scheduled run queue shared with every worker.
    queue: Arc<RunQueue>,
    workers: Vec<JoinHandle<()>>,
    counters: PoolCounters,
    /// Live dispatch/per-item estimates, shared with in-flight jobs.
    tuning: Arc<PoolTuning>,
    /// Where unscoped submissions are billed (session id 0).
    default_session: Arc<SessionState>,
    /// Next [`EncryptPool::session`] id (0 is the default session).
    next_session: AtomicU64,
}

/// Process-wide pool id source, so sessions of different pools can never
/// cross-match through the thread-local binding stack.
static POOL_IDS: AtomicU64 = AtomicU64::new(1);

impl EncryptPool {
    /// Creates a pool with at most `threads` background workers, clamped
    /// to the host's available parallelism minus one (the submitting
    /// thread is the remaining party — it always helps in
    /// [`PendingBatch::wait`]). On a 1-core host this yields zero workers
    /// and every job runs inline, which measurably beats oversubscribing.
    /// `threads == 0` is valid: jobs then always run on the caller.
    pub fn new(threads: usize) -> Self {
        let cores = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        Self::build(threads.min(cores.saturating_sub(1)))
    }

    /// Creates a pool with exactly `threads` workers, bypassing the core
    /// clamp. For tests and ablations that need the cross-thread path on
    /// hosts with too few cores to get it from [`EncryptPool::new`].
    pub fn with_workers(threads: usize) -> Self {
        Self::build(threads)
    }

    fn build(threads: usize) -> Self {
        let queue = Arc::new(RunQueue::new());
        let mut workers = Vec::with_capacity(threads);
        for i in 0..threads {
            let worker_queue = Arc::clone(&queue);
            let builder = std::thread::Builder::new().name(format!("encrypt-pool-{i}"));
            // A failed spawn degrades capacity, never correctness: the
            // caller-help in `wait` still completes every job.
            if let Ok(handle) = builder.spawn(move || worker_loop(&worker_queue)) {
                workers.push(handle);
            }
        }
        let tuning = Arc::new(PoolTuning::default());
        let default_session = Arc::new(SessionState {
            id: 0,
            vtime: CachePadded(AtomicU64::new(0)),
            claimed: CachePadded(AtomicU64::new(0)),
        });
        tuning.dispatch_ns.0.store(
            measure_dispatch(&queue, workers.len(), &tuning, &default_session),
            Ordering::Relaxed,
        );
        EncryptPool {
            pool_id: POOL_IDS.fetch_add(1, Ordering::Relaxed),
            queue,
            workers,
            counters: PoolCounters::default(),
            tuning,
            default_session,
            next_session: AtomicU64::new(1),
        }
    }

    /// Creates a new fair-scheduling session on this pool; every session
    /// gets an equal share of worker time. The session starts at the
    /// pool's current virtual clock, so a long-idle session cannot bank
    /// credit and later monopolize the workers.
    pub fn session(&self) -> PoolSession {
        let state = Arc::new(SessionState {
            id: self.next_session.fetch_add(1, Ordering::Relaxed),
            vtime: CachePadded(AtomicU64::new(self.queue.vclock.0.load(Ordering::Relaxed))),
            claimed: CachePadded(AtomicU64::new(0)),
        });
        PoolSession {
            pool_id: self.pool_id,
            state,
        }
    }

    /// The session submissions on this thread are currently billed to:
    /// the innermost [`PoolSession::scope`] binding for this pool, or
    /// the default session.
    fn bound_session(&self) -> Arc<SessionState> {
        CURRENT_SESSION
            .with(|stack| {
                stack
                    .borrow()
                    .iter()
                    .rev()
                    .find(|(pool_id, _)| *pool_id == self.pool_id)
                    .map(|(_, state)| Arc::clone(state))
            })
            .unwrap_or_else(|| Arc::clone(&self.default_session))
    }

    /// Number of live background workers.
    pub fn threads(&self) -> usize {
        self.workers.len()
    }

    /// The current submit→first-claim dispatch estimate in nanoseconds:
    /// the construction probe median, refined by the EWMA of observed
    /// first-claim latencies on real jobs (0 for a workerless pool).
    pub fn dispatch_overhead_ns(&self) -> u64 {
        self.tuning.dispatch_ns.0.load(Ordering::Relaxed)
    }

    /// The current per-item cost estimate in nanoseconds (EWMA over
    /// inline runs and pooled claims; 0 until the first batch).
    pub fn item_cost_ns(&self) -> u64 {
        self.tuning.item_ns.0.load(Ordering::Relaxed)
    }

    /// Snapshot of lifetime submission counters.
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            jobs: self.counters.jobs.0.load(Ordering::Relaxed),
            items: self.counters.items.0.load(Ordering::Relaxed),
            inline_jobs: self.counters.inline_jobs.0.load(Ordering::Relaxed),
        }
    }

    /// Batch size at or below which submission runs inline: the measured
    /// dispatch latency divided by the measured per-item cost, floored
    /// at one claim and capped so large batches always use the workers.
    /// Both inputs are live EWMAs, so the threshold tracks the workload.
    fn inline_threshold(&self) -> usize {
        if self.workers.is_empty() {
            return usize::MAX;
        }
        let item = self.item_cost_ns();
        if item == 0 {
            return MIN_CLAIM;
        }
        ((self.dispatch_overhead_ns() / item) as usize).clamp(MIN_CLAIM, MAX_INLINE)
    }

    fn submit(&self, plan: Arc<FixedExponentPlan>, items: &[UBig]) -> PendingBatch {
        let total = items.len();
        let session = self.bound_session();
        let inline = total <= self.inline_threshold();
        self.counters.jobs.0.fetch_add(1, Ordering::Relaxed);
        self.counters
            .items
            .0
            .fetch_add(total as u64, Ordering::Relaxed);
        if inline {
            self.counters.inline_jobs.0.fetch_add(1, Ordering::Relaxed);
        }
        // The inline decision feeds on the EWMA of measured per-item
        // cost, so the flag (and in principle the event count a sink
        // sees, if a caller branches on pool behaviour) is
        // timing-dependent — non-deterministic by construction.
        minshare_trace::emit("pool", "submit", false, || {
            vec![
                minshare_trace::count("items", total as u64),
                minshare_trace::count("session", session.id),
                minshare_trace::flag("inline", inline),
            ]
        });
        if inline {
            let started = Instant::now();
            let out = plan.pow_batch(items);
            let out = out.into_iter().map(|y| fold(plan.modulus(), y)).collect();
            record_item_cost(&self.tuning, started.elapsed(), total);
            // Inline runs still enter the session's exactly-once ledger.
            session.claimed.0.fetch_add(total as u64, Ordering::Relaxed);
            return PendingBatch::ready(out);
        }
        // Start-tag per SFQ: an idle session rejoins at the current
        // virtual clock instead of replaying its banked past.
        session.vtime.0.fetch_max(
            self.queue.vclock.0.load(Ordering::Relaxed),
            Ordering::Relaxed,
        );
        let (tx, rx) = unbounded();
        let job = Arc::new(PoolJob {
            work: JobWork::Crypto {
                plan,
                items: items.to_vec(),
            },
            cursor: CachePadded(AtomicUsize::new(0)),
            parties: self.workers.len() + 1,
            session,
            submitted: Instant::now(),
            dispatch_seen: AtomicBool::new(false),
            tuning: Arc::clone(&self.tuning),
            results: tx,
        });
        // Enqueue through a queue-local: the job carries the key's
        // exponent plan, and pushing it via `self` would make the whole
        // pool handle read as key-holding to the analyzer's taint pass,
        // poisoning benign metadata (the session id traced above).
        let run_queue = &self.queue;
        run_queue.push(Arc::clone(&job));
        // Scheduling gauges for the live-telemetry registry: run-queue
        // depth and this session's SFQ virtual time (the fairness
        // signal — sessions under load should show converging
        // vtimes). Values are read into benign locals first;
        // nothing key-derived appears inside the telemetry call.
        if minshare_trace::is_enabled() {
            let depth = run_queue.depth() as u64;
            let sid = job.session.id;
            let vtime = job.session.vtime.0.load(Ordering::Relaxed);
            minshare_trace::emit("pool", "queue", false, || {
                vec![minshare_trace::size("depth", depth)]
            });
            minshare_trace::emit("pool", "session_vtime", false, || {
                vec![
                    minshare_trace::count("session", sid),
                    minshare_trace::count("vtime", vtime),
                ]
            });
        }
        PendingBatch {
            inner: PendingInner::InFlight { job, rx },
        }
    }

    /// Starts encrypting `items` with `key`; returns immediately.
    pub fn submit_encrypt(
        &self,
        group: &QrGroup,
        key: &CommutativeKey,
        items: &[UBig],
    ) -> PendingBatch {
        self.submit(key.enc_plan(group.mont_ctx()), items)
    }

    /// Starts decrypting `items` with `key`; returns immediately.
    pub fn submit_decrypt(
        &self,
        group: &QrGroup,
        key: &CommutativeKey,
        items: &[UBig],
    ) -> PendingBatch {
        self.submit(key.dec_plan(group.mont_ctx()), items)
    }

    /// Convenience: submit + wait. Returns exactly what
    /// [`QrGroup::encrypt_many`] returns, with the pool's workers helping.
    pub fn encrypt_batch(
        &self,
        group: &QrGroup,
        key: &CommutativeKey,
        items: &[UBig],
    ) -> Vec<UBig> {
        self.submit_encrypt(group, key, items).wait()
    }
}

/// Measures the run-queue dispatch latency at construction:
/// [`DISPATCH_PROBES`] probe round-trips through the scheduler,
/// discarding the first (worker start-up) and taking the median of the
/// rest, so one descheduled round cannot poison the estimate the inline
/// threshold and pipeline calibration start from. Returns 0 when there
/// is nothing to measure (no workers).
fn measure_dispatch(
    queue: &Arc<RunQueue>,
    workers: usize,
    tuning: &Arc<PoolTuning>,
    session: &Arc<SessionState>,
) -> u64 {
    if workers == 0 {
        return 0;
    }
    let mut samples = Vec::with_capacity(DISPATCH_PROBES);
    for _ in 0..DISPATCH_PROBES {
        let (tx, rx) = unbounded();
        let probe = Arc::new(PoolJob {
            work: JobWork::Probe,
            cursor: CachePadded(AtomicUsize::new(0)),
            parties: workers + 1,
            session: Arc::clone(session),
            submitted: Instant::now(),
            dispatch_seen: AtomicBool::new(false),
            tuning: Arc::clone(tuning),
            results: tx,
        });
        let started = Instant::now();
        queue.push(probe);
        // A bounded wait: a wedged worker should degrade calibration,
        // not hang construction.
        let _ = rx.recv_timeout(Duration::from_millis(100));
        samples.push(started.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64);
    }
    // Drop the warm-up round, then take the median.
    samples.remove(0);
    samples.sort_unstable();
    samples.get(samples.len() / 2).copied().unwrap_or(0)
}

impl Drop for EncryptPool {
    fn drop(&mut self) {
        // Raising the shutdown flag ends each worker's scheduling loop;
        // a worker mid-quantum finishes that claim first. Jobs still
        // unclaimed complete through caller help in `PendingBatch::wait`.
        self.queue.lock().shutdown = true;
        self.queue.ready.notify_all();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn group() -> QrGroup {
        let mut rng = StdRng::seed_from_u64(0xba7c);
        QrGroup::generate(&mut rng, 64).unwrap()
    }

    #[test]
    fn pool_matches_serial_batch() {
        let g = group();
        let mut rng = StdRng::seed_from_u64(11);
        let key = g.gen_key(&mut rng);
        let items: Vec<UBig> = (0..41).map(|_| g.sample_element(&mut rng)).collect();
        let serial = g.encrypt_many(&key, &items);
        for threads in [0usize, 1, 2, 4] {
            let pool = EncryptPool::new(threads);
            assert_eq!(pool.encrypt_batch(&g, &key, &items), serial, "t={threads}");
        }
    }

    #[test]
    fn unclamped_pool_matches_serial_batch() {
        // The cross-thread path, regardless of host core count.
        let g = group();
        let mut rng = StdRng::seed_from_u64(21);
        let key = g.gen_key(&mut rng);
        let items: Vec<UBig> = (0..MAX_INLINE + 7)
            .map(|_| g.sample_element(&mut rng))
            .collect();
        let serial = g.encrypt_many(&key, &items);
        let pool = EncryptPool::with_workers(2);
        assert_eq!(pool.threads(), 2);
        assert_eq!(pool.encrypt_batch(&g, &key, &items), serial);
    }

    #[test]
    fn stress_pool_matches_serial_at_every_thread_count() {
        // The guided-claiming scheme must never change results: every
        // thread count, repeated rounds (so the EWMAs move and the inline
        // threshold shifts mid-test), exact equality with serial.
        let g = group();
        let mut rng = StdRng::seed_from_u64(31);
        let key = g.gen_key(&mut rng);
        let items: Vec<UBig> = (0..257).map(|_| g.sample_element(&mut rng)).collect();
        let serial = g.encrypt_many(&key, &items);
        for threads in [0usize, 1, 2, 3, 4, 8] {
            let pool = EncryptPool::with_workers(threads);
            for round in 0..3 {
                assert_eq!(
                    pool.encrypt_batch(&g, &key, &items),
                    serial,
                    "t={threads} round={round}"
                );
            }
            let stats = pool.stats();
            assert_eq!(stats.jobs, 3);
            assert_eq!(stats.items, 3 * items.len() as u64);
        }
    }

    #[test]
    fn guided_claims_cover_exactly_once() {
        // Claim-ledger property: across many shapes, the concatenated
        // sorted parts must reconstruct the whole input — no item done
        // twice, none skipped — even when claims race.
        let g = group();
        let mut rng = StdRng::seed_from_u64(32);
        let key = g.gen_key(&mut rng);
        for count in [MIN_CLAIM + 1, 63, 100, 255] {
            let items: Vec<UBig> = (0..count).map(|_| g.sample_element(&mut rng)).collect();
            let serial = g.encrypt_many(&key, &items);
            let pool = EncryptPool::with_workers(3);
            let out = pool.encrypt_batch(&g, &key, &items);
            assert_eq!(out.len(), items.len(), "count={count}");
            assert_eq!(out, serial, "count={count}");
        }
    }

    #[test]
    fn worker_count_is_clamped_to_cores() {
        let cores = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        let pool = EncryptPool::new(64);
        assert!(
            pool.threads() <= cores.saturating_sub(1),
            "workers={} cores={cores}",
            pool.threads()
        );
        assert_eq!(EncryptPool::new(0).threads(), 0);
    }

    #[test]
    fn small_batches_run_inline_on_worker_pools() {
        let g = group();
        let mut rng = StdRng::seed_from_u64(22);
        let key = g.gen_key(&mut rng);
        let pool = EncryptPool::with_workers(2);
        let items: Vec<UBig> = (0..MIN_CLAIM).map(|_| g.sample_element(&mut rng)).collect();
        let out = pool.encrypt_batch(&g, &key, &items);
        assert_eq!(out, g.encrypt_many(&key, &items));
        assert_eq!(pool.stats().inline_jobs, 1, "≤ MIN_CLAIM must not dispatch");
    }

    #[test]
    fn pooled_jobs_feed_the_item_ewma() {
        // The per-item EWMA must calibrate from dispatched jobs too, not
        // only inline runs — otherwise the threshold goes stale the
        // moment the pool warms up.
        let g = group();
        let mut rng = StdRng::seed_from_u64(23);
        let key = g.gen_key(&mut rng);
        let pool = EncryptPool::with_workers(2);
        let items: Vec<UBig> = (0..MAX_INLINE + 7)
            .map(|_| g.sample_element(&mut rng))
            .collect();
        let _ = pool.encrypt_batch(&g, &key, &items);
        assert!(pool.item_cost_ns() > 0, "dispatched batch left EWMA cold");
        assert!(pool.dispatch_overhead_ns() > 0);
    }

    #[test]
    fn pool_decrypt_inverts() {
        let g = group();
        let mut rng = StdRng::seed_from_u64(12);
        let key = g.gen_key(&mut rng);
        let items: Vec<UBig> = (0..17).map(|_| g.sample_element(&mut rng)).collect();
        let pool = EncryptPool::with_workers(2);
        let enc = pool.encrypt_batch(&g, &key, &items);
        assert_eq!(pool.submit_decrypt(&g, &key, &enc).wait(), items);
    }

    #[test]
    fn pool_hash_encrypt_matches_pointwise() {
        // The engine's order: hash on the protocol thread, then encrypt
        // the hashes on the pool.
        let g = group();
        let mut rng = StdRng::seed_from_u64(13);
        let key = g.gen_key(&mut rng);
        let values: Vec<Vec<u8>> = (0..9u32).map(|i| i.to_be_bytes().to_vec()).collect();
        let hashes: Vec<UBig> = values.iter().map(|v| g.hash_to_group(v)).collect();
        let pool = EncryptPool::with_workers(3);
        let out = pool.encrypt_batch(&g, &key, &hashes);
        for (v, e) in values.iter().zip(&out) {
            assert_eq!(&g.hash_encrypt(&key, v), e);
        }
    }

    #[test]
    fn many_jobs_in_flight_preserve_order() {
        let g = group();
        let mut rng = StdRng::seed_from_u64(14);
        let key = g.gen_key(&mut rng);
        let pool = EncryptPool::with_workers(2);
        let batches: Vec<Vec<UBig>> = (0..6)
            .map(|i| {
                (0..(i * 3 + 1))
                    .map(|_| g.sample_element(&mut rng))
                    .collect()
            })
            .collect();
        let pending: Vec<PendingBatch> = batches
            .iter()
            .map(|b| pool.submit_encrypt(&g, &key, b))
            .collect();
        for (b, p) in batches.iter().zip(pending) {
            assert_eq!(p.wait(), g.encrypt_many(&key, b));
        }
        let stats = pool.stats();
        assert_eq!(stats.jobs, 6);
        assert_eq!(stats.items, batches.iter().map(|b| b.len() as u64).sum());
    }

    #[test]
    fn ready_batch_is_transparent() {
        let g = group();
        let mut rng = StdRng::seed_from_u64(16);
        let items: Vec<UBig> = (0..5).map(|_| g.sample_element(&mut rng)).collect();
        let pending = PendingBatch::ready(items.clone());
        assert_eq!(pending.len(), 5);
        assert!(!pending.is_empty());
        assert_eq!(pending.wait(), items);
    }

    /// The headline fairness property from the daemon issue: one 64k-item
    /// session sharing the pool with eight 64-item sessions. Under the
    /// old run-to-exhaustion broadcast, every worker chewed the large job
    /// first; under SFQ every small session is served within a quantum.
    /// Every small session must complete before the large one, and the
    /// per-session claim ledgers must account for every item exactly once.
    #[test]
    fn small_sessions_are_not_starved_by_a_large_one() {
        let g = group();
        let mut rng = StdRng::seed_from_u64(41);
        let key = g.gen_key(&mut rng);
        let pool = EncryptPool::with_workers(2);
        // Force the 64-item jobs onto the workers: pin the calibration to
        // "dispatch is free, items are expensive" so the inline threshold
        // clamps to MIN_CLAIM (< 64). The EWMAs drift back toward reality
        // as the test runs, which is harmless — a small job that slips
        // inline completes early trivially and keeps its ledger exact.
        pool.tuning.dispatch_ns.0.store(1, Ordering::Relaxed);
        pool.tuning.item_ns.0.store(1_000_000, Ordering::Relaxed);

        let large_items: Vec<UBig> = (0..65_536).map(|_| g.sample_element(&mut rng)).collect();
        let small_batches: Vec<Vec<UBig>> = (0..8)
            .map(|_| (0..64).map(|_| g.sample_element(&mut rng)).collect())
            .collect();
        let large_session = pool.session();
        let small_sessions: Vec<PoolSession> = (0..8).map(|_| pool.session()).collect();

        // Submit the large job FIRST so a FIFO scheduler would bury the
        // small sessions behind 64k items, then dispatch the smalls.
        let pending_large = large_session.scope(|| pool.submit_encrypt(&g, &key, &large_items));
        let pending_small: Vec<PendingBatch> = small_batches
            .iter()
            .zip(&small_sessions)
            .map(|(items, session)| session.scope(|| pool.submit_encrypt(&g, &key, items)))
            .collect();

        // The caller helps only its own (large) session, so every small
        // item below must be served by the pool workers.
        let large_out = pending_large.wait();
        assert_eq!(large_out.len(), large_items.len());

        // Starvation check: by the time the large session completes, the
        // workers must already have fully served every small session —
        // under SFQ the smalls win the virtual-time comparison within one
        // quantum. The grace poll below only absorbs a descheduled worker
        // finishing its final small chunk; it is two orders of magnitude
        // shorter than the large job's runtime, so the old
        // run-to-exhaustion schedule (workers pinned to the large job
        // until its last claim) still fails it.
        let grace = Instant::now();
        for (i, session) in small_sessions.iter().enumerate() {
            while session.items_claimed() < 64 && grace.elapsed() < Duration::from_millis(100) {
                std::thread::sleep(Duration::from_millis(1));
            }
            assert_eq!(
                session.items_claimed(),
                64,
                "small session {i} still starved when the large session finished"
            );
        }

        // Exactly-once ledger + correctness of the small results.
        for (items, pending) in small_batches.iter().zip(pending_small) {
            assert_eq!(pending.wait(), g.encrypt_many(&key, items));
        }
        assert_eq!(large_session.items_claimed(), 65_536);
        for (i, session) in small_sessions.iter().enumerate() {
            assert_eq!(session.items_claimed(), 64, "session {i} ledger");
        }
    }

    #[test]
    fn session_scope_attributes_claims_exactly_once() {
        let g = group();
        let mut rng = StdRng::seed_from_u64(42);
        let key = g.gen_key(&mut rng);
        // Workerless pool: every job runs inline, so attribution is
        // deterministic and exercises the inline arm of the ledger.
        let pool = EncryptPool::with_workers(0);
        let outer = pool.session();
        let inner = pool.session();
        assert_ne!(outer.id(), inner.id());

        let items = |n: usize| -> Vec<UBig> {
            let mut r = StdRng::seed_from_u64(n as u64);
            (0..n).map(|_| g.sample_element(&mut r)).collect()
        };
        outer.scope(|| {
            let _ = pool.encrypt_batch(&g, &key, &items(3));
            // The innermost binding wins while it is in scope...
            inner.scope(|| {
                let _ = pool.encrypt_batch(&g, &key, &items(5));
            });
            // ...and the outer binding is restored afterwards.
            let _ = pool.encrypt_batch(&g, &key, &items(7));
        });
        // Unscoped submissions bill the pool's default session.
        let _ = pool.encrypt_batch(&g, &key, &items(2));

        assert_eq!(outer.items_claimed(), 10);
        assert_eq!(inner.items_claimed(), 5);
        assert_eq!(pool.default_session.claimed.0.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn foreign_pool_scopes_do_not_capture_submissions() {
        let g = group();
        let mut rng = StdRng::seed_from_u64(43);
        let key = g.gen_key(&mut rng);
        let pool = EncryptPool::with_workers(0);
        let other = EncryptPool::with_workers(0);
        let foreign = other.session();
        let items: Vec<UBig> = (0..4).map(|_| g.sample_element(&mut rng)).collect();
        // A scope bound to a different pool must not claim this pool's
        // submissions; they fall through to the default session.
        foreign.scope(|| {
            let _ = pool.encrypt_batch(&g, &key, &items);
        });
        assert_eq!(foreign.items_claimed(), 0);
        assert_eq!(pool.default_session.claimed.0.load(Ordering::Relaxed), 4);
    }

    #[test]
    fn empty_batch_completes() {
        let g = group();
        let mut rng = StdRng::seed_from_u64(15);
        let key = g.gen_key(&mut rng);
        let pool = EncryptPool::new(2);
        let pending = pool.submit_encrypt(&g, &key, &[]);
        assert!(pending.is_empty());
        assert!(pending.wait().is_empty());
    }
}
