//! The server: accept loop, admission control, and session threads,
//! split by what each blocks on.
//!
//! * **Accept loop** (one thread) — answers `Busy` and closes while
//!   [`ServeConfig::max_sessions`] sessions are live, so overload
//!   degrades to fast refusals instead of unbounded queueing. Each
//!   admitted connection gets a session thread in a `thread::scope`,
//!   so leaving the loop at shutdown joins every session.
//! * **Session threads** — block on their own socket. A session answers
//!   inline every request with no search to cancel (decode and
//!   validation failures, epoch bumps, scrapes, games the tenant's
//!   table has resolved). Every other search it runs itself, as worker
//!   0 of the engine pool's fan-out, once it holds one of the
//!   [`ServeConfig::workers`] search slots; an idle session holds none.
//!   Mid-search the socket is non-blocking and the search's
//!   `CancelToken` watches it: EOF or a transport error fires the token.
//!
//! Cancellation is safe at any moment: a cancelled walk installs no
//! cache summaries (see `DESIGN.md`), so a timed-out request leaves its
//! tenant's warmth as it found it. Nothing spawns a thread per request.
//! Shutdown closes the slots first (see `jobs` for why), then
//! force-closes every session socket and joins every session.
//!
//! `Server::spawn` also flips the workspace's metrics default **on**
//! (a daemon you cannot scrape is blind) unless `SELC_METRICS=0` asks
//! for the zero-overhead path. `serve.queue_depth` counts sessions
//! waiting for a slot; refusals and aborts are counters, per-op
//! latencies log2 histograms, all scrapeable via a `Metrics` request.

use crate::jobs::Slots;
use crate::protocol::{read_frame, write_frame, Request, Response, WireMetrics, Workload};
use crate::tenants::{Tenant, Tenants};
use crate::workload::{self, Ran};
use selc::env::{env_usize, SERVE_MAX_SESSIONS_ENV, SERVE_PORT_ENV, SERVE_WORKERS_ENV};
use selc_engine::{configured_threads, CancelToken};
use selc_obs::{metrics, Counter, Gauge, Histogram};
use std::cell::Cell;
use std::collections::HashMap;
use std::io;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, LazyLock, Mutex};
use std::thread;
use std::time::{Duration, Instant};

/// Default listen port (loopback only): "SELC" on a phone keypad, mod
/// the registered range.
pub const DEFAULT_PORT: u16 = 7352;

/// Default admission limit when `SELC_SERVE_MAX_SESSIONS` is unset.
pub const DEFAULT_MAX_SESSIONS: usize = 32;

/// The serve layer's registry handles, resolved once. Every member is
/// an `Arc` clone of the registry's metric, so recording is an atomic
/// op (or a no-op while metrics are disabled).
struct ServeMetrics {
    queue_depth: Gauge,
    admission_rejects: Counter,
    deadline_timeouts: Counter,
    disconnect_cancels: Counter,
    requests: Counter,
    latency_chain: Histogram,
    latency_game: Histogram,
    latency_bump_epoch: Histogram,
    latency_metrics: Histogram,
}

static SERVE_METRICS: LazyLock<ServeMetrics> = LazyLock::new(|| ServeMetrics {
    queue_depth: metrics::gauge("serve.queue_depth"),
    admission_rejects: metrics::counter("serve.admission_rejects"),
    deadline_timeouts: metrics::counter("serve.deadline_timeouts"),
    disconnect_cancels: metrics::counter("serve.disconnect_cancels"),
    requests: metrics::counter("serve.requests"),
    latency_chain: metrics::histogram("serve.latency_us.chain"),
    latency_game: metrics::histogram("serve.latency_us.game"),
    latency_bump_epoch: metrics::histogram("serve.latency_us.bump_epoch"),
    latency_metrics: metrics::histogram("serve.latency_us.metrics"),
});

/// Server configuration, defaulted from the `SELC_SERVE_*` knobs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ServeConfig {
    /// Listen port on `127.0.0.1`; `0` asks the OS for an ephemeral
    /// port (tests and benches do this and read it back from
    /// [`Server::addr`]).
    pub port: u16,
    /// Search slots — the number of *concurrent searches* across all
    /// sessions; each search parallelises further via `SELC_THREADS`.
    /// Idle sessions hold no slot.
    pub workers: usize,
    /// Admission limit: connections beyond this many live sessions are
    /// refused with `Busy`.
    pub max_sessions: usize,
}

impl ServeConfig {
    /// Reads `SELC_SERVE_PORT`, `SELC_SERVE_WORKERS` (default: the
    /// `SELC_THREADS` pool width), and `SELC_SERVE_MAX_SESSIONS`, under
    /// the workspace's usual "anything but a positive integer is
    /// as-if-unset" rule.
    #[must_use]
    pub fn from_env() -> ServeConfig {
        let port =
            env_usize(SERVE_PORT_ENV).and_then(|p| u16::try_from(p).ok()).unwrap_or(DEFAULT_PORT);
        ServeConfig {
            port,
            workers: env_usize(SERVE_WORKERS_ENV).unwrap_or_else(configured_threads),
            max_sessions: env_usize(SERVE_MAX_SESSIONS_ENV).unwrap_or(DEFAULT_MAX_SESSIONS),
        }
    }

    /// An ephemeral-port config for in-process use (tests, benches).
    #[must_use]
    pub fn loopback(workers: usize, max_sessions: usize) -> ServeConfig {
        ServeConfig { port: 0, workers, max_sessions }
    }
}

/// Cancel checks per socket `peek` on a served search (a peek is a syscall).
const PEEK_EVERY: u32 = 256;

thread_local! {
    /// This thread's cancel checks on served searches.
    static WATCH_CHECKS: Cell<u32> = const { Cell::new(0) };
}

/// State shared by the accept loop, the sessions, and the handle.
struct Shared {
    tenants: Tenants,
    /// The free search slots.
    slots: Slots,
    /// Sessions admitted and not yet finished.
    active: AtomicUsize,
    shutdown: AtomicBool,
    /// Live session sockets, so shutdown can force-close them and wake
    /// sessions blocked in `read_frame` or searching.
    open: Mutex<HashMap<u64, Arc<TcpStream>>>,
    next_session: AtomicU64,
}

impl Shared {
    fn shutting_down(&self) -> bool {
        // ordering: Acquire — pairs with the AcqRel swap in `shutdown`:
        // a thread that observes the flag also observes everything the
        // shutting-down thread published before raising it.
        self.shutdown.load(Ordering::Acquire)
    }
}

/// Locks `m`, continuing through poison: a panicking thread must not
/// cascade into every sibling that touches the same map. The guarded
/// structures stay structurally valid mid-panic (pushes and removes are
/// not interruptible by Rust panics at observable points), and a
/// daemon's job is to keep serving.
pub(crate) fn lock_clean<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// A running server; dropping the handle shuts it down.
pub struct Server {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept: Option<thread::JoinHandle<()>>,
}

impl Server {
    /// Binds `127.0.0.1:{config.port}` and spawns the accept loop, the
    /// only thread the server starts before its first session.
    ///
    /// # Errors
    ///
    /// Fails if the port cannot be bound.
    ///
    /// # Panics
    ///
    /// Panics if `config.workers` or `config.max_sessions` is zero.
    pub fn spawn(config: ServeConfig) -> io::Result<Server> {
        assert!(config.workers >= 1, "a server needs at least one search slot");
        assert!(config.max_sessions >= 1, "a server must admit at least one session");
        // A service you cannot scrape is blind: the daemon defaults
        // metrics ON, and `SELC_METRICS=0` still wins (overhead runs).
        selc_obs::set_metrics_enabled(metrics::configured_metrics().unwrap_or(true));
        let listener = TcpListener::bind(("127.0.0.1", config.port))?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            tenants: Tenants::default(),
            slots: Slots::new(config.workers),
            active: AtomicUsize::new(0),
            shutdown: AtomicBool::new(false),
            open: Mutex::new(HashMap::new()),
            next_session: AtomicU64::new(0),
        });
        let accept = {
            let shared = Arc::clone(&shared);
            let max = config.max_sessions;
            thread::spawn(move || accept_loop(&listener, &shared, max))
        };
        Ok(Server { addr, shared, accept: Some(accept) })
    }

    /// The bound address (read this when spawning on port 0).
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Sessions admitted and not yet hung up.
    #[must_use]
    pub fn active_sessions(&self) -> usize {
        // ordering: Relaxed — the count is exact through RMW atomicity
        // alone; it carries no data, so the old Acquire bought nothing.
        self.shared.active.load(Ordering::Relaxed)
    }

    /// Stops accepting, ends sessions waiting for a slot, force-closes
    /// live sessions, and joins every thread. Idempotent; also runs on
    /// drop.
    pub fn shutdown(&mut self) {
        // ordering: AcqRel — Release publishes everything this thread
        // did before shutting down to threads that observe the flag
        // (see `shutting_down`); Acquire makes the losing caller of an
        // idempotent double-shutdown see the winner's prior work.
        if self.shared.shutdown.swap(true, Ordering::AcqRel) {
            return;
        }
        // Close the slots before anything else: from here no session
        // waits for a slot that a finishing search might never return.
        self.shared.slots.close();
        // Unblock the accept loop with a throwaway connection; it
        // checks the flag before handling anything it accepts.
        let _ = TcpStream::connect(self.addr);
        // Force-close live sessions: idle ones wake from `read_frame`
        // with an error, searching ones' watches see EOF and cancel.
        for (_, stream) in lock_clean(&self.shared.open).drain() {
            let _ = stream.shutdown(Shutdown::Both);
        }
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn accept_loop(listener: &TcpListener, shared: &Shared, max_sessions: usize) {
    thread::scope(|scope| {
        for stream in listener.incoming() {
            if shared.shutting_down() {
                break;
            }
            let Ok(mut stream) = stream else { continue };
            // Tiny frames must not wait out Nagle.
            let _ = stream.set_nodelay(true);
            // ordering: Relaxed — admission control needs only an exact
            // count (RMW atomicity gives it); the load/add pair publishes
            // nothing.
            if shared.active.load(Ordering::Relaxed) >= max_sessions {
                SERVE_METRICS.admission_rejects.inc();
                let _ = write_frame(&mut stream, &Response::Busy.encode());
                continue; // drop: refused, never counted
            }
            shared.active.fetch_add(1, Ordering::Relaxed); // ordering: Relaxed — see the admission comment
            let session = thread::Builder::new().spawn_scoped(scope, move || {
                serve_session(stream, shared);
                shared.active.fetch_sub(1, Ordering::Relaxed); // ordering: Relaxed — see the admission comment
            });
            if session.is_err() {
                shared.active.fetch_sub(1, Ordering::Relaxed); // ordering: Relaxed — see the admission comment
            }
        }
    });
}

/// Registers the session's socket for shutdown, serves it, and
/// unregisters it.
fn serve_session(stream: TcpStream, shared: &Shared) {
    // ordering: Relaxed — session ids only need uniqueness, which the
    // RMW guarantees under any ordering.
    let id = shared.next_session.fetch_add(1, Ordering::Relaxed);
    let stream = Arc::new(stream);
    lock_clean(&shared.open).insert(id, Arc::clone(&stream));
    // A shutdown that raced our registration has already drained the
    // open map; re-checking the flag after inserting closes the gap
    // either way, so no session blocks past shutdown.
    if shared.shutting_down() {
        let _ = stream.shutdown(Shutdown::Both);
    }
    serve_requests(&stream, shared);
    lock_clean(&shared.open).remove(&id);
}

/// Serves one session until the client hangs up, the transport fails,
/// or shutdown ends it. Malformed *payloads* are survivable (the frame
/// was consumed; answer and continue); malformed *frames* are not (the
/// stream can no longer be resynchronised), so those answer and close.
fn serve_requests(stream: &Arc<TcpStream>, shared: &Shared) {
    loop {
        let payload = match read_frame(&mut &**stream) {
            Ok(Some(payload)) => payload,
            Ok(None) => return, // clean hang-up
            Err(e) if e.kind() == io::ErrorKind::InvalidData => {
                let resp = Response::Malformed(e.to_string());
                let _ = write_frame(&mut &**stream, &resp.encode());
                return; // desynchronised: cannot keep the session
            }
            Err(_) => return,
        };
        let started = Instant::now();
        SERVE_METRICS.requests.inc();
        let (response, latency) = match Request::decode(&payload) {
            Err(msg) => (Response::Malformed(msg), None),
            Ok(Request::BumpEpoch { tenant }) => (
                Response::EpochBumped { epoch: shared.tenants.bump(tenant) },
                Some(&SERVE_METRICS.latency_bump_epoch),
            ),
            Ok(Request::Metrics) => (
                Response::Metrics(WireMetrics::from_snapshot(&metrics::snapshot())),
                Some(&SERVE_METRICS.latency_metrics),
            ),
            Ok(Request::Search { tenant, deadline_ms, workload }) => {
                let latency = match workload {
                    Workload::Chain { .. } => &SERVE_METRICS.latency_chain,
                    Workload::Game { .. } => &SERVE_METRICS.latency_game,
                };
                if let Err(msg) = workload::validate(&workload) {
                    (Response::Malformed(msg), Some(latency))
                } else {
                    let tenant = shared.tenants.get_or_create(tenant);
                    // A resolved game answers from one table probe: there
                    // is no search to cancel, so no slot is worth it.
                    let ran = workload::run_warm(&tenant, &workload)
                        .or_else(|| search(stream, &shared.slots, &tenant, &workload, deadline_ms));
                    let Some(ran) = ran else { return };
                    (response(ran), Some(latency))
                }
            }
        };
        let wrote = write_frame(&mut &**stream, &response.encode());
        if let Some(latency) = latency {
            latency.record(u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX));
        }
        if wrote.is_err() {
            return; // client gone mid-response
        }
    }
}

/// Runs one search on this thread once a slot is free, until it ends,
/// its deadline passes, or the client hangs up. `None` ends the session:
/// shutdown closed the slots, the client left, or the socket failed.
fn search(
    stream: &Arc<TcpStream>,
    slots: &Slots,
    tenant: &Tenant,
    workload: &Workload,
    deadline_ms: u32,
) -> Option<Ran> {
    // The session neither reads nor writes until the reply, so the
    // socket can stay non-blocking for the watch's peeks until then.
    stream.set_nonblocking(true).ok()?;
    SERVE_METRICS.queue_depth.inc();
    let slot = slots.take();
    SERVE_METRICS.queue_depth.dec();
    if !slot {
        return None;
    }
    let cancel = match deadline_ms {
        0 => CancelToken::default(),
        ms => CancelToken::with_timeout(Duration::from_millis(u64::from(ms))),
    };
    let watched = Arc::clone(stream);
    let cancel = cancel.with_watch(move || {
        let checks = WATCH_CHECKS.get().wrapping_add(1);
        WATCH_CHECKS.set(checks);
        !checks.is_multiple_of(PEEK_EVERY) || client_alive(&watched)
    });
    let ran = workload::run(tenant, workload, &cancel, deadline_ms > 0);
    slots.give();
    if matches!(ran, Ran::TimedOut { .. }) && !client_alive(stream) {
        SERVE_METRICS.disconnect_cancels.inc();
        return None;
    }
    stream.set_nonblocking(false).ok()?;
    Some(ran)
}

/// Whether the client on a non-blocking `stream` is there: yes while bytes
/// wait (a pipelined request) or nothing does; no on EOF or any error.
fn client_alive(stream: &TcpStream) -> bool {
    match stream.peek(&mut [0u8; 1]) {
        Ok(n) => n > 0,
        Err(e) => e.kind() == io::ErrorKind::WouldBlock,
    }
}

/// The reply for a finished (or refused, or timed-out) search.
fn response(ran: Ran) -> Response {
    match ran {
        Ran::Done { index, loss, stats } => Response::Ok { index, loss, stats },
        Ran::TimedOut { partial } => {
            SERVE_METRICS.deadline_timeouts.inc();
            Response::Timeout { partial }
        }
        // The flow shape guard refused the compiled program: same
        // client-visible shape as a parameter-level validation failure.
        Ran::Rejected(msg) => Response::Malformed(msg),
    }
}
