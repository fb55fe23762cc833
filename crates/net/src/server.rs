//! Long-running multi-session protocol daemon.
//!
//! [`serve_mux_connection`] is the server side of the session-mux
//! envelope ([`crate::mux`]): a single-threaded event loop that owns one
//! framed connection, routes inbound mux frames to per-session bounded
//! queues, spawns one handler thread per admitted session, and writes
//! everything the handlers send back out. The loop never blocks
//! indefinitely on any one session:
//!
//! * **Admission control** — a shared [`SessionRegistry`] caps in-flight
//!   sessions across every connection of the daemon. An OPEN past the cap
//!   is answered with a typed BUSY frame ([`NetError::Busy`] client-side),
//!   never queued and never hung.
//! * **Backpressure / load-shedding** — each session's inbound queue is
//!   bounded ([`MuxConfig::session_queue_depth`]). A session whose
//!   handler stops draining is shed: its queue is dropped (the handler
//!   sees `Closed`), a CLOSE frame tells the peer, and every other
//!   session is untouched.
//! * **Graceful shutdown** — a [`ShutdownHandle`] stops admission
//!   (BUSY) while active sessions drain; once the last one finishes the
//!   loop says GOAWAY and returns. A peer's GOAWAY triggers the same
//!   drain from the other end, and then the loop returns without a
//!   farewell: that peer reads nothing more.
//! * **Undecodable frames** — the link is reliable and ordered, so a
//!   frame that does not decode comes from a confused or hostile peer:
//!   the loop ends that connection with [`NetError::MalformedFrame`].
//!
//! [`MuxClient`] is the matching client: a background driver thread owns
//! the connection, demultiplexes ACCEPT/BUSY/DATA/CLOSE to per-session
//! channels, and [`MuxClient::open_session`] hands out
//! [`SessionTransport`]s — each one an ordinary [`Transport`] that the
//! unmodified protocol engines run over.
//!
//! # The event pump
//!
//! Both loops are the same function, `pump`, blocked in `recv` on
//! **one** FIFO queue of `Event`s: a raw inbound frame, the end of the
//! inbound stream, an outbound frame from [`SessionTransport::send`] (or
//! its drop, or [`MuxClient`]), a handler-done notice, a client control
//! message, a shutdown notice from [`ShutdownHandle::shutdown`]. Whoever
//! has something for the loop enqueues an event and the loop wakes for
//! it; the loop has no timer. What differs between the two roles —
//! admission on one side, pending OPENs on the other — is an `Endpoint`
//! the pump calls into.
//!
//! Inbound frames reach the queue from a *reader thread*, which owns the
//! receive half that every transport hands out
//! ([`DeadlineTransport::split_reader`]); the loop keeps the send half.
//! At most `INBOUND_WINDOW` inbound frames are in flight between the two
//! — the reader takes a credit per frame and blocks when none is left,
//! so a flooding peer is throttled by TCP backpressure exactly as when
//! the loop read one frame at a time, and the queue never grows on the
//! peer's say-so. The reader is unblocked and joined on every exit path
//! of the pump.
//!
//! Handler threads communicate with the loop only through channels, so
//! the loop holds no locks (LOCK01 has nothing to inspect) and a handler
//! panic is confined to its session: the scope join reaps the thread and
//! the session is simply gone, with a CLOSE on the wire.

use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use crossbeam::channel::{bounded, unbounded, Receiver, RecvTimeoutError, Sender, TrySendError};
use parking_lot::Mutex;

use crate::error::NetError;
use crate::mux::{MuxFrame, MuxKind};
use crate::transport::{DeadlineTransport, SplitReader, Transport};

/// Inbound frames in flight between a connection's reader thread and its
/// loop. The reader blocks at the bound; the frames themselves are
/// capped by the transport's frame limit.
const INBOUND_WINDOW: usize = 64;

/// Knobs for the mux server loop and client driver.
///
/// Nothing here paces the loops: they are event-driven and have no
/// timer (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MuxConfig {
    /// Bound on each session's inbound frame queue, on both sides; a
    /// session that falls further behind than this is shed with a CLOSE.
    /// It is also the most a peer may send ahead of the session reading
    /// it (there is no per-session flow control): a protocol run whose
    /// reply would exceed it must be sharded.
    pub session_queue_depth: usize,
    /// Client-side wait for the answer to an OPEN (ACCEPT/BUSY) or a
    /// STATS request, in wall-clock milliseconds.
    pub open_timeout_ms: u64,
}

impl Default for MuxConfig {
    fn default() -> Self {
        MuxConfig {
            session_queue_depth: 4096,
            open_timeout_ms: 10_000,
        }
    }
}

/// Daemon-wide session admission: a capacity shared by every connection
/// the server accepts. Lock-free — admission is one atomic update.
#[derive(Debug)]
pub struct SessionRegistry {
    active: AtomicUsize,
    limit: usize,
}

impl SessionRegistry {
    /// A registry admitting at most `limit` concurrent sessions.
    pub fn new(limit: usize) -> Arc<Self> {
        Arc::new(SessionRegistry {
            active: AtomicUsize::new(0),
            limit,
        })
    }

    /// The capacity in force.
    pub fn limit(&self) -> usize {
        self.limit
    }

    /// Number of sessions currently admitted.
    pub fn active(&self) -> usize {
        self.active.load(Ordering::Acquire)
    }

    fn try_admit(&self) -> bool {
        self.active
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |n| {
                (n < self.limit).then_some(n + 1)
            })
            .is_ok()
    }

    fn release(&self) {
        self.active.fetch_sub(1, Ordering::AcqRel);
    }
}

/// Graceful shutdown, shared between the accept loop, every connection
/// loop, and whatever decides the daemon is done.
#[derive(Clone, Default)]
pub struct ShutdownHandle {
    state: Arc<ShutdownState>,
}

/// The flag, and the event queue of each live connection loop keyed by
/// its enrolment number (with the next number to hand out).
#[derive(Default)]
struct ShutdownState {
    flag: AtomicBool,
    loops: Mutex<(u64, HashMap<u64, Sender<Event>>)>,
}

impl std::fmt::Debug for ShutdownHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ShutdownHandle {{ shutdown: {} }}", self.is_shutdown())
    }
}

impl ShutdownHandle {
    /// A fresh, un-set handle.
    pub fn new() -> Self {
        Self::default()
    }

    /// Begins graceful shutdown: connection loops stop admitting new
    /// sessions and return once their active sessions drain. Each live
    /// loop is woken by an event.
    pub fn shutdown(&self) {
        self.state.flag.store(true, Ordering::Release);
        // `iter`, not `values`: WIRE01 reads a `values` binding as raw
        // set values.
        for (_, loop_events) in self.state.loops.lock().1.iter() {
            let _ = loop_events.send(Event::Shutdown);
        }
    }

    /// Whether shutdown has been requested.
    pub fn is_shutdown(&self) -> bool {
        self.state.flag.load(Ordering::Acquire)
    }

    /// Enrolls a loop's event queue until the guard drops. A loop that
    /// enrolls after `shutdown` took the lock finds the flag set.
    fn enroll(&self, events: Sender<Event>) -> Enrolled<'_> {
        let (next, loops) = &mut *self.state.loops.lock();
        *next += 1;
        loops.insert(*next, events);
        Enrolled(self, *next)
    }
}

/// A loop's enrolment; dropping it forgets the loop's event queue.
struct Enrolled<'a>(&'a ShutdownHandle, u64);

impl Drop for Enrolled<'_> {
    fn drop(&mut self) {
        self.0.state.loops.lock().1.remove(&self.1);
    }
}

/// What one connection loop did, returned when it exits.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Sessions admitted and spawned.
    pub opened: u64,
    /// Sessions whose handler ran to completion.
    pub completed: u64,
    /// OPENs refused because the registry was at capacity (or the
    /// connection was draining).
    pub rejected_busy: u64,
    /// Sessions shed because their bounded inbound queue overflowed.
    pub shed_overflow: u64,
    /// OPENs ignored because their session id was already used on this
    /// connection. A frame that does not decode at all is not counted:
    /// it ends the connection with [`NetError::MalformedFrame`].
    pub malformed: u64,
    /// Sessions the peer closed before the handler finished.
    pub closed_by_peer: u64,
    /// STATS snapshots served over this connection.
    pub stats_served: u64,
}

/// Produces the payload of a STATS reply: one versioned JSON snapshot of
/// the daemon's metrics registry. The provider is registered with the
/// static analyzer as a wire exporter (WIRE01): anything it returns goes
/// straight onto the connection, so secret-typed values must never flow
/// into it — only the registry's typed numeric aggregates.
pub type StatsProvider = Arc<dyn Fn() -> Vec<u8> + Send + Sync>;

/// Everything that can wake a connection loop. One FIFO queue of these
/// per connection; see the module docs.
enum Event {
    /// One raw frame off the wire, from the reader thread, holding one
    /// inbound credit.
    Inbound(Vec<u8>),
    /// The inbound stream ended: `Closed` when the peer hung up (or the
    /// reader was unblocked), anything else a transport failure.
    InboundEnded(NetError),
    /// A frame to write: DATA from [`SessionTransport::send`], CLOSE from
    /// its drop, OPEN and STATS requests from [`MuxClient`].
    Outbound(MuxFrame),
    /// Server: this session's handler returned. Enqueued after the
    /// handler's last frame and its CLOSE, so those are already written.
    HandlerDone(u32),
    /// Client: a request from the [`MuxClient`] handle.
    Control(ClientCtl),
    /// Server: [`ShutdownHandle::shutdown`] was called; the loop looks at
    /// the flag as it wakes.
    Shutdown,
}

/// The transport one session sees: an ordinary frame pipe whose frames
/// travel inside the mux envelope. `send` enqueues a DATA frame on the
/// connection's event queue (never blocks — the queue is unbounded on
/// the outbound side, and the send wakes the loop, which writes the
/// frame at once); `recv` blocks on the session's bounded inbound queue
/// and returns [`NetError::Closed`] once the session is over — closed by
/// the peer, shed because that queue overflowed, or the connection gone.
/// Dropping the transport enqueues a best-effort CLOSE so the peer learns
/// the session ended.
pub struct SessionTransport {
    session: u32,
    out: Sender<Event>,
    inbound: Receiver<Vec<u8>>,
    send_seq: u32,
}

impl SessionTransport {
    fn new(session: u32, out: Sender<Event>, inbound: Receiver<Vec<u8>>) -> Self {
        SessionTransport {
            session,
            out,
            inbound,
            send_seq: 0,
        }
    }

    /// The mux session id this transport belongs to.
    pub fn session_id(&self) -> u32 {
        self.session
    }
}

impl std::fmt::Debug for SessionTransport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SessionTransport")
            .field("session", &self.session)
            .field("send_seq", &self.send_seq)
            .finish_non_exhaustive()
    }
}

impl Transport for SessionTransport {
    fn send(&mut self, frame: &[u8]) -> Result<(), NetError> {
        let seq = self.send_seq;
        self.send_seq = seq.checked_add(1).ok_or(NetError::SequenceExhausted)?;
        self.out
            .send(Event::Outbound(MuxFrame::data(
                self.session,
                seq,
                frame.to_vec(),
            )))
            .map_err(|_| NetError::Closed)
    }

    fn recv(&mut self) -> Result<Vec<u8>, NetError> {
        self.inbound.recv().map_err(|_| NetError::Closed)
    }
}

impl Drop for SessionTransport {
    fn drop(&mut self) {
        // Best-effort: if the loop is already gone the peer will learn
        // from the connection closing instead.
        let _ = self.out.send(Event::Outbound(MuxFrame::control(
            MuxKind::Close,
            self.session,
        )));
    }
}

/// The role-specific half of a connection loop. Every method runs on the
/// loop's thread; frames pushed to `out` are written, in order, as soon
/// as the method returns.
trait Endpoint {
    /// Routes one decoded inbound frame. A frame that fails to decode
    /// never gets here: it ends the connection.
    fn on_frame(&mut self, frame: MuxFrame, out: &mut Vec<MuxFrame>);

    /// Server: the handler of `session` returned.
    fn on_handler_done(&mut self, _session: u32) {}

    /// Client: a request from the [`MuxClient`] handle.
    fn on_control(&mut self, _ctl: ClientCtl) {}

    /// A write found the peer gone. `true` keeps the loop routing what
    /// the peer delivered before it left (nothing more is written);
    /// `false` ends the loop.
    fn on_send_dead(&mut self) -> bool;

    /// Nothing is left to do: the loop says GOAWAY and returns.
    fn finished(&self) -> bool;

    /// The peer said GOAWAY. It reads nothing more, so a finished loop
    /// returns without a farewell.
    fn peer_said_goaway(&self) -> bool;
}

/// How a connection loop ended, when it ended without an error.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PumpExit {
    /// The endpoint finished and the loop said its GOAWAY.
    Drained,
    /// The peer hung up first.
    PeerGone,
}

/// Runs one connection to its end: splits off the transport's reader,
/// pumps events, and — on every exit path, unwinding included — unblocks
/// and joins the reader before returning. `events_tx` is the sending
/// side of `events`, for the reader; `events` is dropped on return, so a
/// `SessionTransport` that outlives the loop fails its sends instead of
/// queueing into the void.
fn run_connection<T, E>(
    mut transport: T,
    events_tx: Sender<Event>,
    events: Receiver<Event>,
    endpoint: &mut E,
) -> Result<PumpExit, NetError>
where
    T: DeadlineTransport,
    E: Endpoint,
{
    let SplitReader { recv, unblock } = transport.split_reader();
    std::thread::scope(|scope| {
        let (credit_tx, credits) = bounded::<()>(INBOUND_WINDOW);
        // Both are dropped when this closure ends, however it ends, and
        // so before the scope joins the reader: `unblock` wakes a reader
        // parked in the socket, dropping `credits` one parked on the
        // window.
        let _unblock_reader = OnDrop(unblock);
        // The reader runs the channel's `open`, so it traces into the
        // loop's sink.
        let tracer = minshare_trace::current();
        std::thread::Builder::new()
            .name("mux-reader".to_string())
            .spawn_scoped(scope, move || {
                let _trace = minshare_trace::install(tracer);
                read_loop(recv, &credit_tx, &events_tx)
            })?;
        pump(&mut transport, &events, &credits, endpoint)
    })
}

/// Calls the closure when dropped.
struct OnDrop(Box<dyn Fn() + Send>);

impl Drop for OnDrop {
    fn drop(&mut self) {
        (self.0)();
    }
}

/// The reader thread: receive a frame, take a credit (blocking while
/// [`INBOUND_WINDOW`] frames are unrouted), enqueue it. Ends when the
/// receive side does — reporting why — or when the loop is gone.
fn read_loop(
    mut recv: Box<dyn FnMut() -> Result<Vec<u8>, NetError> + Send>,
    credits: &Sender<()>,
    events: &Sender<Event>,
) {
    loop {
        match recv() {
            Ok(raw) => {
                if credits.send(()).is_err() || events.send(Event::Inbound(raw)).is_err() {
                    return;
                }
            }
            Err(e) => {
                let _ = events.send(Event::InboundEnded(e));
                return;
            }
        }
    }
}

/// The connection loop, once, for both roles: wait for the next event,
/// route or write it. Each `Inbound` event gives the credit its reader
/// took back to `credits`.
fn pump<T, E>(
    transport: &mut T,
    events: &Receiver<Event>,
    credits: &Receiver<()>,
    endpoint: &mut E,
) -> Result<PumpExit, NetError>
where
    T: Transport,
    E: Endpoint,
{
    // Set once a write surfaces peer departure: stop writing, but (if
    // the endpoint wants) keep routing what the peer already delivered —
    // its CLOSE and GOAWAY frames may still be on their way up.
    let mut send_dead = false;
    let mut out: Vec<MuxFrame> = Vec::new();
    loop {
        // Checked before every wait, as the frames of a finished session
        // precede its `HandlerDone` in the queue: with no live session
        // nothing that still matters can be queued behind this point.
        if endpoint.finished() {
            // Best-effort farewell: the peer may already be gone, and one
            // that said GOAWAY itself reads nothing more.
            if !send_dead && !endpoint.peer_said_goaway() {
                let _ = transport.send(&MuxFrame::control(MuxKind::Goaway, 0).encode());
            }
            return Ok(PumpExit::Drained);
        }
        // Unreachable while the reader holds a sender.
        let Ok(event) = events.recv() else {
            return Ok(PumpExit::PeerGone);
        };
        match event {
            Event::Inbound(raw) => {
                let _ = credits.try_recv();
                endpoint.on_frame(MuxFrame::decode(&raw)?, &mut out);
            }
            Event::InboundEnded(NetError::Closed) => return Ok(PumpExit::PeerGone),
            Event::InboundEnded(e) => return Err(e),
            Event::Outbound(frame) => out.push(frame),
            Event::HandlerDone(session) => endpoint.on_handler_done(session),
            Event::Control(ctl) => endpoint.on_control(ctl),
            // Read by `finished` as the loop comes round.
            Event::Shutdown => {}
        }
        for frame in out.drain(..) {
            if send_dead {
                continue;
            }
            match transport.send(&frame.encode()) {
                Ok(()) => {}
                // A peer that hung up mid-write is not an error:
                // undelivered frames are moot once nobody is listening.
                Err(NetError::Closed) => {
                    send_dead = true;
                    if !endpoint.on_send_dead() {
                        return Ok(PumpExit::PeerGone);
                    }
                }
                Err(e) => return Err(e),
            }
        }
    }
}

/// Hands a DATA payload to a session's bounded inbound queue without
/// blocking. `true` when the queue had no room — the session has stopped
/// draining and is to be shed; a disconnected queue means its reader is
/// already gone and the frame is moot.
fn queue_is_full(tx: &Sender<Vec<u8>>, payload: Vec<u8>) -> bool {
    matches!(tx.try_send(payload), Err(TrySendError::Full(_)))
}

/// One admitted session as the connection loop tracks it. Dropping the
/// entry drops the inbound sender, which is how the handler (blocked in
/// `recv`) learns the session is over.
struct SessionEntry {
    tx: Sender<Vec<u8>>,
}

/// The server role: admission, per-session queues, handler threads.
struct ServerSide<'scope, 'env, F> {
    scope: &'scope std::thread::Scope<'scope, 'env>,
    handler: &'env F,
    config: &'env MuxConfig,
    registry: &'env SessionRegistry,
    shutdown: &'env ShutdownHandle,
    stats_provider: Option<StatsProvider>,
    events_tx: Sender<Event>,
    sessions: HashMap<u32, SessionEntry>,
    finished: HashSet<u32>,
    stats: ServerStats,
    peer_goaway: bool,
}

impl<F> ServerSide<'_, '_, F> {
    /// Ends `session` if it is live: frees its registry slot and drops
    /// its inbound sender.
    fn retire(&mut self, session: u32) -> bool {
        let live = self.sessions.remove(&session).is_some();
        if live {
            self.finished.insert(session);
            self.registry.release();
        }
        live
    }

    /// Releases every live session's registry slot and drops the inbound
    /// senders, so blocked handlers wake with `Closed` and the scope can
    /// join them. Every exit path of the connection funnels through this.
    fn release_all(&mut self) {
        for _ in self.sessions.drain() {
            self.registry.release();
        }
    }
}

impl<'scope, F> Endpoint for ServerSide<'scope, '_, F>
where
    F: Fn(u32, Vec<u8>, SessionTransport) + Send + Sync,
{
    fn on_frame(&mut self, frame: MuxFrame, out: &mut Vec<MuxFrame>) {
        let sid = frame.session;
        match frame.kind {
            MuxKind::Open => {
                if self.sessions.contains_key(&sid) || self.finished.contains(&sid) {
                    // A session id runs at most once per connection: a
                    // repeated OPEN is a confused or hostile peer.
                    self.stats.malformed += 1;
                } else if self.peer_goaway
                    || self.shutdown.is_shutdown()
                    || !self.registry.try_admit()
                {
                    // The shutdown flag is read as the OPEN is routed, so
                    // "shutdown, then OPEN" sheds deterministically.
                    self.stats.rejected_busy += 1;
                    minshare_trace::emit("server", "busy", false, || {
                        vec![minshare_trace::count("session", u64::from(sid))]
                    });
                    out.push(MuxFrame::busy(sid, self.registry.limit()));
                } else {
                    self.stats.opened += 1;
                    minshare_trace::emit("server", "session_open", false, || {
                        vec![minshare_trace::count("session", u64::from(sid))]
                    });
                    let (in_tx, in_rx) = bounded(self.config.session_queue_depth);
                    self.sessions.insert(sid, SessionEntry { tx: in_tx });
                    // ACCEPT is written when this method returns; the
                    // handler's first DATA is an event behind it.
                    out.push(MuxFrame::control(MuxKind::Accept, sid));
                    let session_transport =
                        SessionTransport::new(sid, self.events_tx.clone(), in_rx);
                    let request = frame.payload;
                    let done = self.events_tx.clone();
                    let handler = self.handler;
                    self.scope.spawn(move || {
                        handler(sid, request, session_transport);
                        let _ = done.send(Event::HandlerDone(sid));
                    });
                }
            }
            MuxKind::Data => {
                let overflow = self
                    .sessions
                    .get(&sid)
                    .is_some_and(|entry| queue_is_full(&entry.tx, frame.payload));
                if overflow {
                    // The handler stopped draining its queue: shed this
                    // one session, leave the rest alone.
                    self.stats.shed_overflow += 1;
                    minshare_trace::emit("server", "session_shed", false, || {
                        vec![minshare_trace::count("session", u64::from(sid))]
                    });
                    self.retire(sid);
                    out.push(MuxFrame::control(MuxKind::Close, sid));
                }
            }
            MuxKind::Close => {
                if self.retire(sid) {
                    self.stats.closed_by_peer += 1;
                    minshare_trace::emit("server", "closed_by_peer", false, || {
                        vec![minshare_trace::count("session", u64::from(sid))]
                    });
                }
            }
            MuxKind::Goaway => self.peer_goaway = true,
            MuxKind::Stats => {
                // Read-only telemetry on session 0: answer with one
                // registry snapshot. No provider degrades to an empty
                // object, never a hang.
                let payload = self
                    .stats_provider
                    .as_ref()
                    .map_or_else(|| b"{}".to_vec(), |p| p());
                self.stats.stats_served += 1;
                minshare_trace::emit("server", "stats_served", false, || {
                    vec![minshare_trace::size("bytes", payload.len() as u64)]
                });
                out.push(MuxFrame {
                    kind: MuxKind::Stats,
                    session: 0,
                    seq: 0,
                    payload,
                });
            }
            // Server never expects these; a confused peer's frames are
            // dropped, not fatal.
            MuxKind::Accept | MuxKind::Busy => {}
        }
    }

    fn on_handler_done(&mut self, session: u32) {
        if self.retire(session) {
            self.stats.completed += 1;
            minshare_trace::emit("server", "session_complete", false, || {
                vec![minshare_trace::count("session", u64::from(session))]
            });
        }
    }

    /// Keep routing: frames the peer delivered before leaving (CLOSEs,
    /// its GOAWAY) must still be routed so sessions drain accountably.
    fn on_send_dead(&mut self) -> bool {
        self.peer_goaway = true;
        true
    }

    fn finished(&self) -> bool {
        (self.peer_goaway || self.shutdown.is_shutdown()) && self.sessions.is_empty()
    }

    fn peer_said_goaway(&self) -> bool {
        self.peer_goaway
    }
}

/// Runs the server side of one mux connection until the peer departs,
/// the peer says GOAWAY and every session drains, or shutdown is
/// requested and every session drains. See the module docs for the
/// admission / shedding / shutdown semantics.
///
/// `handler` runs once per admitted session on its own thread, with the
/// session id, the OPEN request payload, and the session's transport.
/// Its lifetime is bounded by this call: all handler threads and the
/// connection's reader thread are joined before the function returns.
/// [`ShutdownHandle::shutdown`] wakes the loop with an event, so an idle
/// connection returns as soon as it is called.
///
/// `stats` answers read-only STATS frames on session 0 with a metrics
/// snapshot; `None` replies with an empty JSON object so a scrape of a
/// daemon without a registry degrades, not hangs.
pub fn serve_mux_connection<T, F>(
    transport: T,
    config: &MuxConfig,
    registry: &SessionRegistry,
    shutdown: &ShutdownHandle,
    stats_provider: Option<StatsProvider>,
    handler: F,
) -> Result<ServerStats, NetError>
where
    T: DeadlineTransport,
    F: Fn(u32, Vec<u8>, SessionTransport) + Send + Sync,
{
    let (events_tx, events) = unbounded::<Event>();
    let _enrolled = shutdown.enroll(events_tx.clone());
    std::thread::scope(|scope| {
        let mut server = ServerSide {
            scope,
            handler: &handler,
            config,
            registry,
            shutdown,
            stats_provider,
            events_tx: events_tx.clone(),
            sessions: HashMap::new(),
            finished: HashSet::new(),
            stats: ServerStats::default(),
            peer_goaway: false,
        };
        let exit = run_connection(transport, events_tx, events, &mut server);
        // Peer gone or transport failed: handlers see `Closed` and the
        // scope joins them.
        server.release_all();
        if exit? == PumpExit::Drained {
            minshare_trace::emit("server", "drained", false, || {
                vec![minshare_trace::count("completed", server.stats.completed)]
            });
        }
        Ok(server.stats)
    })
}

/// What the client driver tracks per pending OPEN.
struct PendingOpen {
    reply: Sender<Result<Receiver<Vec<u8>>, NetError>>,
}

enum ClientCtl {
    Open {
        session: u32,
        pending: PendingOpen,
    },
    Stats {
        reply: Sender<Result<Vec<u8>, NetError>>,
    },
    Close,
}

/// Client side of a mux connection: a background driver thread owns the
/// transport; sessions opened through [`MuxClient::open_session`] are
/// ordinary [`Transport`]s multiplexed over it.
pub struct MuxClient {
    events: Sender<Event>,
    driver: Option<std::thread::JoinHandle<Result<(), NetError>>>,
    next_session: u32,
    config: MuxConfig,
}

impl MuxClient {
    /// Starts the driver thread over `transport`.
    ///
    /// Driver errors (a transport failure mid-connection) surface from
    /// [`MuxClient::close`]; sessions observe them as `Closed`.
    pub fn new<T>(transport: T, config: MuxConfig) -> Self
    where
        T: DeadlineTransport + Send + 'static,
    {
        let (events_tx, events) = unbounded::<Event>();
        let reader_tx = events_tx.clone();
        // The driver seals what it writes and its reader opens what
        // arrives, so both trace into the caller's sink.
        let tracer = minshare_trace::current();
        let driver = std::thread::Builder::new()
            .name("mux-client".to_string())
            .spawn(move || {
                let _trace = minshare_trace::install(tracer);
                let mut client = ClientSide::new(config);
                run_connection(transport, reader_tx, events, &mut client).map(|_| ())
            })
            .ok();
        MuxClient {
            events: events_tx,
            driver,
            next_session: 1,
            config,
        }
    }

    /// Opens a new session, sending `request` as the OPEN payload.
    ///
    /// Returns the session's transport on ACCEPT, [`NetError::Busy`] if
    /// the server shed the session at admission, [`NetError::Closed`] if
    /// the connection died, or [`NetError::TimedOut`] if no answer came
    /// within [`MuxConfig::open_timeout_ms`].
    pub fn open_session(&mut self, request: &[u8]) -> Result<SessionTransport, NetError> {
        let sid = self.next_session;
        self.next_session = sid.checked_add(1).ok_or(NetError::SequenceExhausted)?;
        let (reply_tx, reply_rx) = bounded(1);
        self.events
            .send(Event::Control(ClientCtl::Open {
                session: sid,
                pending: PendingOpen { reply: reply_tx },
            }))
            .map_err(|_| NetError::Closed)?;
        self.events
            .send(Event::Outbound(MuxFrame::open(sid, request.to_vec())))
            .map_err(|_| NetError::Closed)?;
        let inbound = self.await_reply(&reply_rx)??;
        Ok(SessionTransport::new(sid, self.events.clone(), inbound))
    }

    /// Fetches one metrics snapshot from the server: sends a STATS frame
    /// on session 0 and waits for the reply payload (a versioned JSON
    /// object; see `minshare-trace::metrics::STATS_VERSION`).
    ///
    /// Fails typed: `Closed` when the connection died, `TimedOut` when
    /// no reply came within [`MuxConfig::open_timeout_ms`].
    pub fn fetch_stats(&mut self) -> Result<Vec<u8>, NetError> {
        let (reply_tx, reply_rx) = bounded(1);
        self.events
            .send(Event::Control(ClientCtl::Stats { reply: reply_tx }))
            .map_err(|_| NetError::Closed)?;
        self.events
            .send(Event::Outbound(MuxFrame::control(MuxKind::Stats, 0)))
            .map_err(|_| NetError::Closed)?;
        self.await_reply(&reply_rx)?
    }

    /// Waits [`MuxConfig::open_timeout_ms`] for the driver's answer to one
    /// request. The connection is reliable, so the request is sent once.
    fn await_reply<R>(&self, reply: &Receiver<R>) -> Result<R, NetError> {
        let timeout = Duration::from_millis(self.config.open_timeout_ms);
        reply.recv_timeout(timeout).map_err(|e| match e {
            RecvTimeoutError::Timeout => NetError::TimedOut {
                waited_ms: self.config.open_timeout_ms,
            },
            RecvTimeoutError::Disconnected => NetError::Closed,
        })
    }

    /// Says GOAWAY — behind every frame enqueued before this call — and
    /// joins the driver, which has joined its reader thread by then.
    /// Returns the driver's terminal result.
    pub fn close(mut self) -> Result<(), NetError> {
        let _ = self.events.send(Event::Control(ClientCtl::Close));
        match self.driver.take().map(|d| d.join()) {
            Some(Ok(result)) => result,
            // A panicked driver was already confined to its thread.
            Some(Err(_)) => Err(NetError::Closed),
            None => Ok(()),
        }
    }
}

impl Drop for MuxClient {
    fn drop(&mut self) {
        let _ = self.events.send(Event::Control(ClientCtl::Close));
        if let Some(driver) = self.driver.take() {
            let _ = driver.join();
        }
    }
}

/// The client role: pending OPENs in place of admission control. When
/// the connection ends — for any reason — this is dropped, and a caller
/// still waiting on an OPEN or a scrape sees its reply channel
/// disconnect, which it reports as `Closed`.
struct ClientSide {
    config: MuxConfig,
    pending: HashMap<u32, PendingOpen>,
    pending_stats: VecDeque<Sender<Result<Vec<u8>, NetError>>>,
    sessions: HashMap<u32, Sender<Vec<u8>>>,
    remote_goaway: bool,
    closing: bool,
}

impl ClientSide {
    fn new(config: MuxConfig) -> Self {
        ClientSide {
            config,
            pending: HashMap::new(),
            pending_stats: VecDeque::new(),
            sessions: HashMap::new(),
            remote_goaway: false,
            closing: false,
        }
    }
}

impl Endpoint for ClientSide {
    fn on_frame(&mut self, frame: MuxFrame, out: &mut Vec<MuxFrame>) {
        let sid = frame.session;
        match frame.kind {
            MuxKind::Accept => {
                if let Some(p) = self.pending.remove(&sid) {
                    let (in_tx, in_rx) = bounded(self.config.session_queue_depth);
                    self.sessions.insert(sid, in_tx);
                    let _ = p.reply.send(Ok(in_rx));
                }
                // An ACCEPT nobody is waiting for is dropped.
            }
            MuxKind::Busy => {
                if let Some(p) = self.pending.remove(&sid) {
                    let _ = p.reply.send(Err(NetError::Busy {
                        limit: frame.busy_limit(),
                    }));
                }
            }
            MuxKind::Data => {
                let overflow = self
                    .sessions
                    .get(&sid)
                    .is_some_and(|tx| queue_is_full(tx, frame.payload));
                if overflow {
                    // The session stopped draining its queue and the
                    // frame has nowhere to go. Losing it silently would
                    // leave the engine waiting for it forever, so shed
                    // as the server does: the session's `recv` drains
                    // what is queued and then reports `Closed`, and a
                    // CLOSE tells the server.
                    minshare_trace::emit("client", "session_shed", false, || {
                        vec![minshare_trace::count("session", u64::from(sid))]
                    });
                    self.sessions.remove(&sid);
                    out.push(MuxFrame::control(MuxKind::Close, sid));
                }
            }
            MuxKind::Close => {
                self.sessions.remove(&sid);
            }
            MuxKind::Goaway => {
                self.remote_goaway = true;
                for (_, p) in self.pending.drain() {
                    let _ = p.reply.send(Err(NetError::Busy { limit: 0 }));
                }
            }
            MuxKind::Stats => {
                // A snapshot reply answers the oldest pending scrape; one
                // nobody asked for is dropped.
                if let Some(reply) = self.pending_stats.pop_front() {
                    let _ = reply.send(Ok(frame.payload));
                }
            }
            // Client never receives OPEN; drop it.
            MuxKind::Open => {}
        }
    }

    fn on_control(&mut self, ctl: ClientCtl) {
        match ctl {
            ClientCtl::Open { session, pending } => {
                if self.remote_goaway {
                    let _ = pending.reply.send(Err(NetError::Busy { limit: 0 }));
                } else {
                    self.pending.insert(session, pending);
                }
            }
            // Stats stay answerable while draining: a scrape of a
            // shutting-down daemon still sees its final counters.
            ClientCtl::Stats { reply } => self.pending_stats.push_back(reply),
            ClientCtl::Close => self.closing = true,
        }
    }

    /// The server hung up; whatever is left unsent is moot.
    fn on_send_dead(&mut self) -> bool {
        false
    }

    fn finished(&self) -> bool {
        self.closing
    }

    fn peer_said_goaway(&self) -> bool {
        self.remote_goaway
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::duplex::duplex_pair;

    fn echo_handler(_sid: u32, _request: Vec<u8>, mut t: SessionTransport) {
        while let Ok(frame) = t.recv() {
            if t.send(&frame).is_err() {
                break;
            }
        }
    }

    fn fast_config() -> MuxConfig {
        MuxConfig {
            open_timeout_ms: 2_000,
            ..MuxConfig::default()
        }
    }

    /// Runs a server loop over one duplex end on a helper thread.
    fn spawn_echo_server(
        limit: usize,
    ) -> (
        MuxClient,
        ShutdownHandle,
        std::thread::JoinHandle<Result<ServerStats, NetError>>,
    ) {
        let (client_end, server_end) = duplex_pair();
        let shutdown = ShutdownHandle::new();
        let shutdown_server = shutdown.clone();
        let server = std::thread::spawn(move || {
            let registry = SessionRegistry::new(limit);
            let provider: StatsProvider =
                Arc::new(|| b"{\"stats_version\":1,\"epoch\":0}".to_vec());
            serve_mux_connection(
                server_end,
                &fast_config(),
                &registry,
                &shutdown_server,
                Some(provider),
                echo_handler,
            )
        });
        let client = MuxClient::new(client_end, fast_config());
        (client, shutdown, server)
    }

    #[test]
    fn sessions_echo_independently() {
        let (mut client, _shutdown, server) = spawn_echo_server(8);
        let mut a = client.open_session(b"a").unwrap();
        let mut b = client.open_session(b"b").unwrap();
        a.send(b"first-a").unwrap();
        b.send(b"first-b").unwrap();
        assert_eq!(a.recv().unwrap(), b"first-a");
        assert_eq!(b.recv().unwrap(), b"first-b");
        drop(a);
        drop(b);
        client.close().unwrap();
        let stats = server.join().unwrap().unwrap();
        assert_eq!(stats.opened, 2);
        assert_eq!(stats.rejected_busy, 0);
    }

    #[test]
    fn admission_cap_is_typed_busy() {
        let (mut client, _shutdown, server) = spawn_echo_server(1);
        let a = client.open_session(b"a").unwrap();
        let err = client.open_session(b"b").unwrap_err();
        assert_eq!(err, NetError::Busy { limit: 1 });
        drop(a);
        // The slot frees once the server reaps the CLOSE; a later open
        // succeeds again.
        let mut c = loop {
            match client.open_session(b"c") {
                Ok(t) => break t,
                Err(NetError::Busy { .. }) => std::thread::yield_now(),
                Err(other) => panic!("unexpected open error: {other}"),
            }
        };
        c.send(b"ping").unwrap();
        assert_eq!(c.recv().unwrap(), b"ping");
        drop(c);
        client.close().unwrap();
        let stats = server.join().unwrap().unwrap();
        assert!(stats.rejected_busy >= 1);
    }

    #[test]
    fn zero_capacity_rejects_everything() {
        let (mut client, _shutdown, server) = spawn_echo_server(0);
        assert_eq!(
            client.open_session(b"x").unwrap_err(),
            NetError::Busy { limit: 0 }
        );
        client.close().unwrap();
        let stats = server.join().unwrap().unwrap();
        assert_eq!(stats.opened, 0);
        assert_eq!(stats.rejected_busy, 1);
    }

    #[test]
    fn graceful_shutdown_drains_active_sessions() {
        let (mut client, shutdown, server) = spawn_echo_server(8);
        let mut a = client.open_session(b"a").unwrap();
        a.send(b"in-flight").unwrap();
        shutdown.shutdown();
        // New sessions are refused while draining...
        let err = loop {
            match client.open_session(b"late") {
                Err(e) => break e,
                // The shutdown flag may not be visible to the loop yet.
                Ok(t) => drop(t),
            }
        };
        assert!(matches!(err, NetError::Busy { .. } | NetError::Closed));
        // ...but the active session still completes its round trip.
        assert_eq!(a.recv().unwrap(), b"in-flight");
        drop(a);
        let stats = server.join().unwrap().unwrap();
        // The drained session ended one of two ways depending on timing:
        // the handler noticed the client's CLOSE and finished, or the
        // loop reaped the CLOSE first. Either way it was admitted and
        // served to completion, not cut off. (`opened` may exceed 1 if a
        // "late" open slipped in before the flag became visible.)
        assert!(stats.opened >= 1);
        assert!(stats.completed + stats.closed_by_peer >= 1);
        client.close().unwrap();
    }

    #[test]
    fn queue_overflow_sheds_only_the_stalled_session() {
        let config = MuxConfig {
            session_queue_depth: 4,
            ..fast_config()
        };
        let (client_end, server_end) = duplex_pair();
        let shutdown = ShutdownHandle::new();
        let shutdown_server = shutdown.clone();
        // Handler that never drains: its queue must overflow and shed.
        let server = std::thread::spawn(move || {
            let registry = SessionRegistry::new(8);
            serve_mux_connection(
                server_end,
                &config,
                &registry,
                &shutdown_server,
                None,
                |_sid, request, t: SessionTransport| {
                    if request == b"stall" {
                        // Refuse to drain long enough for the flood to
                        // overflow the bounded queue, then drain until
                        // the shed surfaces as a typed close.
                        std::thread::sleep(std::time::Duration::from_millis(500));
                        while !matches!(
                            t.inbound.recv_timeout(Duration::from_millis(10)),
                            Err(RecvTimeoutError::Disconnected)
                        ) {}
                    } else {
                        echo_handler(0, request, t);
                    }
                },
            )
        });
        let mut client = MuxClient::new(client_end, config);
        let mut stalled = client.open_session(b"stall").unwrap();
        let mut live = client.open_session(b"echo").unwrap();
        // Flood the stalled session far past its queue depth.
        for _ in 0..64 {
            if stalled.send(b"flood").is_err() {
                break;
            }
        }
        // The healthy session is untouched by its neighbor being shed.
        live.send(b"still alive").unwrap();
        assert_eq!(live.recv().unwrap(), b"still alive");
        // The stalled session ends in a typed close, not a hang.
        assert_eq!(stalled.recv().unwrap_err(), NetError::Closed);
        drop(stalled);
        drop(live);
        client.close().unwrap();
        let stats = server.join().unwrap().unwrap();
        assert!(stats.shed_overflow >= 1, "stats: {stats:?}");
    }

    /// The client mirrors the server's shed: a session that does not
    /// drain its inbound queue ends in a typed close, never in frames
    /// lost without a word (which left the engine in `recv` forever).
    #[test]
    fn client_session_overflow_sheds_with_a_typed_close() {
        const BURST: usize = 64;
        let config = MuxConfig {
            session_queue_depth: 4,
            ..fast_config()
        };
        let (client_end, server_end) = duplex_pair();
        let shutdown = ShutdownHandle::new();
        let shutdown_server = shutdown.clone();
        // The burst session's handler tells the barrier session's when
        // the whole burst is on the connection's queue.
        let (burst_sent_tx, burst_sent_rx) = bounded::<()>(1);
        let burst_sent_rx = std::sync::Mutex::new(burst_sent_rx);
        let server = std::thread::spawn(move || {
            let registry = SessionRegistry::new(8);
            serve_mux_connection(
                server_end,
                &config,
                &registry,
                &shutdown_server,
                None,
                |_sid, request, mut t: SessionTransport| {
                    if request == b"burst" {
                        let _ = t.recv();
                        for i in 0..BURST {
                            if t.send(&[i as u8]).is_err() {
                                break;
                            }
                        }
                        let _ = burst_sent_tx.send(());
                        // Hold the session open: the close the client
                        // sees must be its own shed, not ours.
                        while t.recv().is_ok() {}
                    } else {
                        let _ = burst_sent_rx.lock().unwrap().recv();
                        let _ = t.send(b"burst is ahead of me");
                    }
                },
            )
        });
        let mut client = MuxClient::new(client_end, config);
        let mut burst = client.open_session(b"burst").unwrap();
        let mut barrier = client.open_session(b"barrier").unwrap();
        burst.send(b"go").unwrap();
        // The connection is FIFO, so once the barrier frame is here the
        // driver has routed the whole burst into a queue of four.
        assert_eq!(barrier.recv().unwrap(), b"burst is ahead of me");
        let mut delivered = 0;
        let closed = loop {
            // The test's own deadline: at the parent the shed frames are
            // dropped silently and this receive never returns.
            match burst.inbound.recv_timeout(Duration::from_secs(10)) {
                Ok(_) => delivered += 1,
                Err(RecvTimeoutError::Timeout) => {
                    panic!("shed never surfaced after {delivered} frames")
                }
                Err(e) => break e,
            }
        };
        assert_eq!(closed, RecvTimeoutError::Disconnected);
        assert_eq!(delivered, 4);
        // The neighbour is untouched and the server was told.
        drop(burst);
        drop(barrier);
        client.close().unwrap();
        let stats = server.join().unwrap().unwrap();
        assert_eq!(stats.opened, 2);
        assert_eq!(stats.completed + stats.closed_by_peer, 2);
    }

    /// The reader takes a credit per frame and blocks when the window is
    /// spent: the loop-side queue never holds more than
    /// `INBOUND_WINDOW` inbound frames, however fast the peer writes.
    #[test]
    fn reader_blocks_at_the_inbound_window() {
        let (events_tx, events) = unbounded::<Event>();
        let (credit_tx, credits) = bounded::<()>(INBOUND_WINDOW);
        // A peer with an endless supply of frames; every `recv` call is
        // reported so the test can see how far the reader got.
        let (calls_tx, calls) = unbounded::<()>();
        let reader = std::thread::spawn(move || {
            let flood = Box::new(move || {
                calls_tx.send(()).map_err(|_| NetError::Closed)?;
                Ok(vec![0u8; 16])
            });
            read_loop(flood, &credit_tx, &events_tx);
        });
        // WINDOW frames enqueued, one more received and held back.
        for _ in 0..=INBOUND_WINDOW {
            calls.recv().unwrap();
        }
        assert!(
            calls.recv_timeout(Duration::from_millis(200)).is_err(),
            "reader kept receiving past the window"
        );
        let mut queued = 0;
        while let Ok(event) = events.try_recv() {
            assert!(matches!(event, Event::Inbound(_)));
            queued += 1;
        }
        assert_eq!(queued, INBOUND_WINDOW);
        // One credit back (what the loop does per routed frame) lets
        // exactly one more frame through.
        credits.recv().unwrap();
        assert!(matches!(events.recv().unwrap(), Event::Inbound(_)));
        calls.recv().unwrap();
        assert!(calls.recv_timeout(Duration::from_millis(200)).is_err());
        assert!(events.try_recv().is_err());
        // Dropping the credit receiver is how the loop's exit wakes a
        // reader parked on the window.
        drop(credits);
        reader.join().unwrap();
    }

    #[test]
    fn stats_scrape_round_trips_and_counts() {
        let (mut client, _shutdown, server) = spawn_echo_server(8);
        let mut a = client.open_session(b"a").unwrap();
        a.send(b"ping").unwrap();
        assert_eq!(a.recv().unwrap(), b"ping");
        // A scrape mid-session answers from the provider without
        // disturbing the live session.
        let snap = client.fetch_stats().unwrap();
        assert_eq!(snap, b"{\"stats_version\":1,\"epoch\":0}");
        a.send(b"pong").unwrap();
        assert_eq!(a.recv().unwrap(), b"pong");
        drop(a);
        client.close().unwrap();
        let stats = server.join().unwrap().unwrap();
        assert_eq!(stats.stats_served, 1);
    }

    #[test]
    fn stats_scrape_without_provider_degrades_to_empty_object() {
        let (client_end, server_end) = duplex_pair();
        let shutdown = ShutdownHandle::new();
        let shutdown_server = shutdown.clone();
        let server = std::thread::spawn(move || {
            let registry = SessionRegistry::new(8);
            serve_mux_connection(
                server_end,
                &fast_config(),
                &registry,
                &shutdown_server,
                None,
                echo_handler,
            )
        });
        let mut client = MuxClient::new(client_end, fast_config());
        assert_eq!(client.fetch_stats().unwrap(), b"{}");
        client.close().unwrap();
        server.join().unwrap().unwrap();
    }

    /// A session id runs once per connection: a repeated OPEN, for a live
    /// or a finished session, is counted as malformed and answered with
    /// nothing.
    #[test]
    fn repeated_open_is_malformed_and_never_reruns() {
        let (mut client_end, server_end) = duplex_pair();
        let server = std::thread::spawn(move || {
            let registry = SessionRegistry::new(8);
            let shutdown = ShutdownHandle::new();
            serve_mux_connection(
                server_end,
                &fast_config(),
                &registry,
                &shutdown,
                None,
                echo_handler,
            )
        });
        let open = MuxFrame::open(1, Vec::new());
        let close = MuxFrame::control(MuxKind::Close, 1);
        let goaway = MuxFrame::control(MuxKind::Goaway, 0);
        for frame in [&open, &open, &close, &open, &goaway] {
            client_end.send(&frame.encode()).unwrap();
        }
        let mut accepts = 0;
        while let Ok(raw) = client_end.recv() {
            accepts += usize::from(MuxFrame::decode(&raw).unwrap().kind == MuxKind::Accept);
        }
        let stats = server.join().unwrap().unwrap();
        assert_eq!((accepts, stats.opened, stats.malformed), (1, 1, 2));
    }

    /// A frame that does not decode ends the connection: the loop returns
    /// the typed error, the live session's handler is released, and the
    /// peer reads the end of the connection instead of waiting on it.
    #[test]
    fn undecodable_frame_ends_the_connection_typed() {
        let (mut client_end, server_end) = duplex_pair();
        let server = std::thread::spawn(move || {
            let registry = SessionRegistry::new(8);
            let shutdown = ShutdownHandle::new();
            serve_mux_connection(
                server_end,
                &fast_config(),
                &registry,
                &shutdown,
                None,
                echo_handler,
            )
        });
        client_end
            .send(&MuxFrame::open(1, Vec::new()).encode())
            .unwrap();
        let accept = MuxFrame::decode(&client_end.recv().unwrap()).unwrap();
        assert_eq!(accept.kind, MuxKind::Accept);
        client_end.send(b"not a mux frame").unwrap();
        assert_eq!(client_end.recv_deadline(5_000), Err(NetError::Closed));
        let result = server.join().unwrap();
        assert!(
            matches!(result, Err(NetError::MalformedFrame { .. })),
            "{result:?}"
        );
    }

    /// Lets the first inbound frame (the OPEN) through and holds the rest
    /// until a write fails: the frames a departed peer delivered are
    /// still unread when the loop learns of the departure from its own
    /// write.
    struct ReadAfterFailedWrite {
        inner: crate::duplex::DuplexEndpoint,
        /// Told of the first failed write, and by `unblock`.
        write_failed: Sender<()>,
        write_failed_rx: Option<Receiver<()>>,
    }

    impl Transport for ReadAfterFailedWrite {
        fn send(&mut self, frame: &[u8]) -> Result<(), NetError> {
            let sent = self.inner.send(frame);
            if sent.is_err() {
                let _ = self.write_failed.send(());
            }
            sent
        }

        fn recv(&mut self) -> Result<Vec<u8>, NetError> {
            self.inner.recv()
        }
    }

    impl DeadlineTransport for ReadAfterFailedWrite {
        fn recv_deadline(&mut self, timeout_ms: u64) -> Result<Option<Vec<u8>>, NetError> {
            self.inner.recv_deadline(timeout_ms)
        }

        fn split_reader(&mut self) -> SplitReader {
            let SplitReader { mut recv, unblock } = self.inner.split_reader();
            let mut gate = self.write_failed_rx.take();
            let wake = self.write_failed.clone();
            let mut opened = false;
            SplitReader {
                recv: Box::new(move || {
                    // Past the OPEN, wait once for the first failed write.
                    if std::mem::replace(&mut opened, true) {
                        if let Some(gate) = gate.take() {
                            let _ = gate.recv();
                        }
                    }
                    recv()
                }),
                unblock: Box::new(move || {
                    unblock();
                    let _ = wake.send(());
                }),
            }
        }
    }

    /// A peer that says CLOSE and GOAWAY and hangs up while a handler is
    /// still sending: the loop learns of the departure from a failed
    /// write, and must still account for the session — not return with
    /// it neither completed nor closed.
    #[test]
    fn write_to_departed_peer_still_accounts_for_its_sessions() {
        let (mut client_end, server_end) = duplex_pair();
        let (write_failed, write_failed_rx) = unbounded();
        let transport = ReadAfterFailedWrite {
            inner: server_end,
            write_failed,
            write_failed_rx: Some(write_failed_rx),
        };
        let (go_tx, go_rx) = bounded::<()>(1);
        let go_rx = std::sync::Mutex::new(go_rx);
        let server = std::thread::spawn(move || {
            let registry = SessionRegistry::new(8);
            serve_mux_connection(
                transport,
                &fast_config(),
                &registry,
                &ShutdownHandle::new(),
                None,
                |_sid, _request, mut t: SessionTransport| {
                    let _ = go_rx.lock().unwrap().recv();
                    for _ in 0..16 {
                        if t.send(b"late").is_err() {
                            break;
                        }
                    }
                },
            )
        });
        let open = MuxFrame::open(1, Vec::new());
        client_end.send(&open.encode()).unwrap();
        let accept = MuxFrame::decode(&client_end.recv().unwrap()).unwrap();
        assert_eq!(accept.kind, MuxKind::Accept);
        let close = MuxFrame::control(MuxKind::Close, 1);
        let goaway = MuxFrame::control(MuxKind::Goaway, 0);
        client_end.send(&close.encode()).unwrap();
        client_end.send(&goaway.encode()).unwrap();
        drop(client_end);
        go_tx.send(()).unwrap();
        let stats = server.join().unwrap().unwrap();
        assert_eq!(stats.opened, 1);
        let accounted = stats.completed + stats.closed_by_peer;
        assert_eq!(accounted, stats.opened, "{stats:?}");
    }

    /// A peer that said GOAWAY reads nothing more: the loop it finished
    /// returns without a farewell, and the peer's stream ends `Closed`
    /// with no GOAWAY in it.
    #[test]
    fn peer_goaway_gets_no_farewell_goaway() {
        let (mut client_end, server_end) = duplex_pair();
        let server = std::thread::spawn(move || {
            let registry = SessionRegistry::new(8);
            serve_mux_connection(
                server_end,
                &fast_config(),
                &registry,
                &ShutdownHandle::new(),
                None,
                echo_handler,
            )
        });
        let open = MuxFrame::open(1, Vec::new());
        let close = MuxFrame::control(MuxKind::Close, 1);
        let goaway = MuxFrame::control(MuxKind::Goaway, 0);
        for frame in [&open, &close, &goaway] {
            client_end.send(&frame.encode()).unwrap();
        }
        let mut kinds = Vec::new();
        let end = loop {
            match client_end.recv() {
                Ok(raw) => kinds.push(MuxFrame::decode(&raw).unwrap().kind),
                Err(e) => break e,
            }
        };
        assert_eq!(end, NetError::Closed);
        assert!(!kinds.contains(&MuxKind::Goaway), "{kinds:?}");
        assert_eq!(kinds.first(), Some(&MuxKind::Accept));
        let stats = server.join().unwrap().unwrap();
        assert_eq!(stats.opened, 1);
    }

    #[test]
    fn handler_panic_is_confined_to_its_session() {
        let (client_end, server_end) = duplex_pair();
        let shutdown = ShutdownHandle::new();
        let shutdown_server = shutdown.clone();
        let server = std::thread::spawn(move || {
            let registry = SessionRegistry::new(8);
            serve_mux_connection(
                server_end,
                &fast_config(),
                &registry,
                &shutdown_server,
                None,
                |_sid, request, mut t: SessionTransport| {
                    if request == b"bomb" {
                        panic!("session blew up");
                    }
                    while let Ok(frame) = t.recv() {
                        if t.send(&frame).is_err() {
                            break;
                        }
                    }
                },
            )
        });
        let mut client = MuxClient::new(client_end, fast_config());
        let bomb = client.open_session(b"bomb").unwrap();
        let mut ok = client.open_session(b"fine").unwrap();
        ok.send(b"unperturbed").unwrap();
        assert_eq!(ok.recv().unwrap(), b"unperturbed");
        drop(bomb);
        drop(ok);
        client.close().unwrap();
        // The scope propagates the handler panic when the loop exits —
        // visible here as the server thread panicking, but only after
        // every other session completed untouched.
        assert!(server.join().is_err());
    }
}
