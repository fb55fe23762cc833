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
//! One rule decides whether a batch runs inline or is dispatched:
//!
//! * [`EncryptPool::new`] clamps the worker count to `cores - 1` (the
//!   caller is the remaining party), so a 1-core host gets zero workers
//!   and every job runs inline — identical code path to serial.
//! * With workers, a batch of at most [`MIN_CLAIM`] items runs inline and
//!   every larger one is dispatched. One claim covers such a batch, so
//!   the helping caller would take it whole anyway; dispatching it would
//!   only add a hand-off. The decision is a function of the batch size
//!   and the worker count, never of a timing.
//!
//! This file carries a WIRE01 exemption in the analyzer's taint
//! registry (`WIRE01_EXEMPT_FILES`): the `send` calls here are
//! crossbeam channel hand-offs to worker threads in the same process,
//! not network transmission. Conversely [`PendingBatch::wait`] is
//! registered encrypt-class — the pool runs nothing but scheme ops, so
//! its output is ciphertext. Keep both properties true if this module
//! grows.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crossbeam::channel::{unbounded, Receiver, Sender};
use minshare_bignum::{FixedExponentPlan, UBig};

use crate::commutative::CommutativeKey;
use crate::group::{fold, QrGroup};

/// Smallest cursor claim: the tail granularity stragglers rebalance at,
/// and the largest batch a pool with workers runs inline (one claim
/// covers it, so dispatching it buys no second party).
const MIN_CLAIM: usize = 16;

/// Dispatch probe rounds in [`EncryptPool::dispatch_overhead_ns`]; the
/// first is a warm-up (cold caches) and is discarded, the median of the
/// rest is the estimate.
const DISPATCH_PROBES: usize = 6;

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
        let served = job.run_quantum(FAIR_QUANTUM);
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
    /// Dispatch probe: the first claimer sends one empty marker so the
    /// pool can time a run-queue round-trip.
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
    fn run_quantum(&self, cap: usize) -> usize {
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
                let end = start.saturating_add(want).min(total);
                // Always `Some`: a cursor-claimed range is in bounds.
                if let Some(claim) = items.get(start..end) {
                    let out = plan.pow_batch(claim);
                    let out = out.into_iter().map(|y| fold(plan.modulus(), y)).collect();
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
        while self.run_quantum(usize::MAX) > 0 {}
    }

    fn total_items(&self) -> usize {
        match &self.work {
            JobWork::Probe => 0,
            JobWork::Crypto { items, .. } => items.len(),
        }
    }
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
        let default_session = Arc::new(SessionState {
            id: 0,
            vtime: CachePadded(AtomicU64::new(0)),
            claimed: CachePadded(AtomicU64::new(0)),
        });
        EncryptPool {
            pool_id: POOL_IDS.fetch_add(1, Ordering::Relaxed),
            queue,
            workers,
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

    /// Measures the run-queue dispatch latency now, in nanoseconds:
    /// [`DISPATCH_PROBES`] probe round-trips through the scheduler,
    /// discarding the first and taking the median of the rest, so one
    /// descheduled round cannot dominate. Returns 0 for a workerless
    /// pool. A report for benchmarks; nothing in the pool reads it.
    pub fn dispatch_overhead_ns(&self) -> u64 {
        if self.workers.is_empty() {
            return 0;
        }
        let mut samples = Vec::with_capacity(DISPATCH_PROBES);
        for _ in 0..DISPATCH_PROBES {
            let (tx, rx) = unbounded();
            let probe = Arc::new(PoolJob {
                work: JobWork::Probe,
                cursor: CachePadded(AtomicUsize::new(0)),
                parties: self.workers.len() + 1,
                session: Arc::clone(&self.default_session),
                results: tx,
            });
            let started = Instant::now();
            self.queue.push(probe);
            // Bounded: a wedged worker should skew the report, not hang
            // the caller.
            let _ = rx.recv_timeout(Duration::from_millis(100));
            samples.push(started.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64);
        }
        // Drop the warm-up round, then take the median.
        samples.remove(0);
        samples.sort_unstable();
        samples.get(samples.len() / 2).copied().unwrap_or(0)
    }

    fn submit(&self, plan: Arc<FixedExponentPlan>, items: &[UBig]) -> PendingBatch {
        let total = items.len();
        let session = self.bound_session();
        let inline = self.workers.is_empty() || total <= MIN_CLAIM;
        // The inline flag is a function of the batch size and the worker
        // count. It is non-deterministic only because the worker count
        // follows the host's cores.
        minshare_trace::emit("pool", "submit", false, || {
            vec![
                minshare_trace::count("items", total as u64),
                minshare_trace::count("session", session.id),
                minshare_trace::flag("inline", inline),
            ]
        });
        if inline {
            let out = plan.pow_batch(items);
            let out = out.into_iter().map(|y| fold(plan.modulus(), y)).collect();
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
        let items: Vec<UBig> = (0..1031).map(|_| g.sample_element(&mut rng)).collect();
        let serial = g.encrypt_many(&key, &items);
        let pool = EncryptPool::with_workers(2);
        assert_eq!(pool.threads(), 2);
        assert_eq!(pool.encrypt_batch(&g, &key, &items), serial);
    }

    #[test]
    fn stress_pool_matches_serial_at_every_thread_count() {
        // The guided-claiming scheme must never change results: every
        // thread count, repeated rounds, exact equality with serial.
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

    fn is_ready(pending: &PendingBatch) -> bool {
        matches!(pending.inner, PendingInner::Ready(_))
    }

    #[test]
    fn inline_exactly_when_one_claim_covers_the_batch() {
        // The dispatch rule: with workers, a batch of at most MIN_CLAIM
        // items runs inline and every larger one is dispatched, however
        // many jobs are already queued and whatever the items cost;
        // without workers everything runs inline. Every size is in flight
        // at once, as the chunked engine submits, and results match
        // serial either way.
        let g = group();
        let mut rng = StdRng::seed_from_u64(22);
        let key = g.gen_key(&mut rng);
        let items: Vec<UBig> = (0..64).map(|_| g.sample_element(&mut rng)).collect();
        let serial = g.encrypt_many(&key, &items);
        for workers in [2usize, 0] {
            let pool = EncryptPool::with_workers(workers);
            for round in 0..3 {
                let pending: Vec<PendingBatch> = (1..=items.len())
                    .map(|n| pool.submit_encrypt(&g, &key, &items[..n]))
                    .collect();
                for (i, p) in pending.into_iter().enumerate() {
                    let n = i + 1;
                    let inline = workers == 0 || n <= MIN_CLAIM;
                    assert_eq!(
                        is_ready(&p),
                        inline,
                        "workers={workers} round={round} n={n}"
                    );
                    assert_eq!(p.wait(), serial[..n], "workers={workers} n={n}");
                }
            }
        }
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
        // 64 items exceed one claim, so every small job is dispatched.
        let pool = EncryptPool::with_workers(2);

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
