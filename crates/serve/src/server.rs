//! The server: accept loop, admission control, session workers.
//!
//! Anatomy of a running server:
//!
//! * **Accept loop** (one thread) — accepts connections and applies
//!   *admission control*: while [`ServeConfig::max_sessions`] sessions
//!   are live, a new connection is answered `Busy` and closed without
//!   ever reaching a worker, so overload degrades to fast refusals
//!   instead of unbounded queueing.
//! * **Session queue** — admitted connections wait in a `VecDeque`
//!   under a condvar.
//! * **Worker pool** ([`ServeConfig::workers`] threads) — each worker
//!   owns one session at a time and serves its requests sequentially;
//!   a session holds its worker until the client hangs up, so
//!   `workers` bounds *concurrent searches* and `max_sessions` bounds
//!   *open connections*.
//!
//! Deadlines and disconnects both flow through one `CancelToken` per
//! search: the token's deadline is the request's `deadline_ms`, and a
//! per-request watcher thread peeks the socket while the search runs,
//! firing the same token if the client vanishes — the fix for workers
//! grinding through a search whose caller is gone. Cancellation is
//! safe to trigger at any moment: the engines guarantee a cancelled
//! walk installs no cache summaries (see `DESIGN.md`), so a timed-out
//! request leaves its tenant's warmth exactly as it found it. Watcher
//! threads are *tracked*: the session signals them done (they wake
//! immediately off a condvar, not a poll), finished handles are reaped
//! as new ones spawn, and shutdown joins every straggler — the server
//! never accumulates detached threads.
//!
//! The server is also where the workspace's metrics default flips
//! **on**: a daemon you cannot scrape is blind, so `Server::spawn`
//! enables recording unless `SELC_METRICS=0` explicitly asks for the
//! zero-overhead path (overhead benches do). Live state travels as
//! gauges (`serve.queue_depth`, `serve.active_watchers`), refusals and
//! aborts as counters, and per-op end-to-end latency as log2
//! histograms, all scrapeable via a `Metrics` request.

use crate::protocol::{read_frame, write_frame, Request, Response, WireMetrics, Workload};
use crate::tenants::Tenants;
use crate::workload::{self, Ran};
use selc::env::{env_usize, SERVE_MAX_SESSIONS_ENV, SERVE_PORT_ENV, SERVE_WORKERS_ENV};
use selc_engine::{configured_threads, CancelToken};
use selc_obs::{metrics, Counter, Gauge, Histogram};
use std::collections::{HashMap, VecDeque};
use std::io;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, LazyLock, Mutex};
use std::thread;
use std::time::{Duration, Instant};

/// Default listen port (loopback only): "SELC" on a phone keypad, mod
/// the registered range.
pub const DEFAULT_PORT: u16 = 7352;

/// Default admission limit when `SELC_SERVE_MAX_SESSIONS` is unset.
pub const DEFAULT_MAX_SESSIONS: usize = 32;

/// How often a request's disconnect watcher polls the socket.
const WATCH_INTERVAL: Duration = Duration::from_millis(25);

/// The serve layer's registry handles, resolved once. Every member is
/// an `Arc` clone of the registry's metric, so recording is an atomic
/// op (or a no-op while metrics are disabled).
struct ServeMetrics {
    queue_depth: Gauge,
    active_watchers: Gauge,
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
    active_watchers: metrics::gauge("serve.active_watchers"),
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
    /// [`ServerHandle::addr`]).
    pub port: u16,
    /// Session-worker threads — the number of *concurrent sessions
    /// being served*; each search inside a session parallelises
    /// further via `SELC_THREADS`.
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

/// State shared by the accept loop, the workers, and the handle.
struct Shared {
    tenants: Tenants,
    queue: Mutex<VecDeque<TcpStream>>,
    available: Condvar,
    /// Sessions admitted and not yet finished (counted from the accept
    /// loop's enqueue to the worker's hang-up).
    active: AtomicUsize,
    shutdown: AtomicBool,
    /// Clones of live session sockets, so shutdown can force-close
    /// them and unblock workers parked in `read_frame`.
    open: Mutex<HashMap<u64, TcpStream>>,
    next_session: AtomicU64,
    /// Handles of the per-request disconnect watchers, reaped as new
    /// ones register and joined at shutdown — bounded by in-flight
    /// requests, not request count.
    watchers: Mutex<Vec<thread::JoinHandle<()>>>,
}

impl Shared {
    fn shutting_down(&self) -> bool {
        // ordering: Acquire — pairs with the AcqRel swap in `shutdown`:
        // a thread that observes the flag also observes everything the
        // shutting-down thread published before raising it.
        self.shutdown.load(Ordering::Acquire)
    }

    fn track_watcher(&self, handle: thread::JoinHandle<()>) {
        let mut watchers = lock_clean(&self.watchers);
        reap_finished(&mut watchers);
        watchers.push(handle);
    }
}

/// Locks `m`, continuing through poison: a panicking worker must not
/// cascade into every sibling that touches the same queue or map. The
/// guarded structures stay structurally valid mid-panic (pushes and
/// removes are not interruptible by Rust panics at observable points),
/// and a daemon's job is to keep serving.
pub(crate) fn lock_clean<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Joins (not just drops) every finished handle in place: a joined
/// watcher is provably gone, which is what [`Server::active_watchers`]
/// counts and the leak test asserts on.
fn reap_finished(watchers: &mut Vec<thread::JoinHandle<()>>) {
    let mut i = 0;
    while i < watchers.len() {
        if watchers[i].is_finished() {
            let _ = watchers.swap_remove(i).join();
        } else {
            i += 1;
        }
    }
}

/// Completion handshake between a session worker and its request's
/// disconnect watcher: the worker flips `done` and rings the bell, so
/// a watcher waiting out a poll interval wakes immediately instead of
/// sleeping the interval to its end.
struct WatchSignal {
    done: Mutex<bool>,
    bell: Condvar,
}

impl WatchSignal {
    fn new() -> WatchSignal {
        WatchSignal { done: Mutex::new(false), bell: Condvar::new() }
    }

    fn finish(&self) {
        *lock_clean(&self.done) = true;
        self.bell.notify_all();
    }

    fn is_done(&self) -> bool {
        *lock_clean(&self.done)
    }

    /// Waits up to `timeout` for the request to finish; true once done.
    fn wait_done(&self, timeout: Duration) -> bool {
        let guard = lock_clean(&self.done);
        let (done, _) = self
            .bell
            .wait_timeout_while(guard, timeout, |done| !*done)
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        *done
    }
}

/// A running server; dropping the handle shuts it down.
pub struct Server {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept: Option<thread::JoinHandle<()>>,
    workers: Vec<thread::JoinHandle<()>>,
}

/// Alias kept for readers scanning the crate root: the handle *is* the
/// server object.
pub type ServerHandle = Server;

impl Server {
    /// Binds `127.0.0.1:{config.port}` and spawns the accept loop and
    /// worker pool.
    ///
    /// # Errors
    ///
    /// Fails if the port cannot be bound.
    ///
    /// # Panics
    ///
    /// Panics if `config.workers` or `config.max_sessions` is zero.
    pub fn spawn(config: ServeConfig) -> io::Result<Server> {
        assert!(config.workers >= 1, "a server needs at least one worker");
        assert!(config.max_sessions >= 1, "a server must admit at least one session");
        // A service you cannot scrape is blind: the daemon defaults
        // metrics ON, and `SELC_METRICS=0` still wins (overhead runs).
        selc_obs::set_metrics_enabled(metrics::configured_metrics().unwrap_or(true));
        let listener = TcpListener::bind(("127.0.0.1", config.port))?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            tenants: Tenants::default(),
            queue: Mutex::new(VecDeque::new()),
            available: Condvar::new(),
            active: AtomicUsize::new(0),
            shutdown: AtomicBool::new(false),
            open: Mutex::new(HashMap::new()),
            next_session: AtomicU64::new(0),
            watchers: Mutex::new(Vec::new()),
        });
        let accept = {
            let shared = Arc::clone(&shared);
            let max = config.max_sessions;
            thread::spawn(move || accept_loop(&listener, &shared, max))
        };
        let workers = (0..config.workers)
            .map(|_| {
                let shared = Arc::clone(&shared);
                thread::spawn(move || worker_loop(&shared))
            })
            .collect();
        Ok(Server { addr, shared, accept: Some(accept), workers })
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

    /// Disconnect-watcher threads spawned for requests and not yet
    /// exited. Joins finished handles as a side effect, so the count is
    /// of provably-live threads — the no-leak test asserts this returns
    /// to zero once requests settle.
    #[must_use]
    pub fn active_watchers(&self) -> usize {
        let mut watchers = lock_clean(&self.shared.watchers);
        reap_finished(&mut watchers);
        watchers.len()
    }

    /// Stops accepting, force-closes live sessions, and joins every
    /// thread. Idempotent; also runs on drop.
    pub fn shutdown(&mut self) {
        // ordering: AcqRel — Release publishes everything this thread
        // did before shutting down to threads that observe the flag
        // (see `shutting_down`); Acquire makes the losing caller of an
        // idempotent double-shutdown see the winner's prior work.
        if self.shared.shutdown.swap(true, Ordering::AcqRel) {
            return;
        }
        // Unblock the accept loop with a throwaway connection; it
        // checks the flag before handling anything it accepts.
        let _ = TcpStream::connect(self.addr);
        // Force-close live sessions so workers parked in read_frame
        // wake with an error instead of waiting for their client.
        for (_, stream) in lock_clean(&self.shared.open).drain() {
            let _ = stream.shutdown(Shutdown::Both);
        }
        self.shared.available.notify_all();
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
        // Workers gone ⇒ every request signalled its watcher done;
        // each exits within one poll interval, so these joins are
        // bounded — and afterwards no thread of ours survives the
        // handle.
        let handles: Vec<_> = lock_clean(&self.shared.watchers).drain(..).collect();
        for watcher in handles {
            let _ = watcher.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn accept_loop(listener: &TcpListener, shared: &Shared, max_sessions: usize) {
    for stream in listener.incoming() {
        if shared.shutting_down() {
            break;
        }
        let Ok(mut stream) = stream else { continue };
        let _ = stream.set_nodelay(true); // tiny frames must not wait out Nagle
                                          // ordering: Relaxed — admission control needs only an exact
                                          // count (RMW atomicity gives it); the load/add pair publishes
                                          // nothing, so the old Acquire/AcqRel were needless strength.
        if shared.active.load(Ordering::Relaxed) >= max_sessions {
            SERVE_METRICS.admission_rejects.inc();
            let _ = write_frame(&mut stream, &Response::Busy.encode());
            continue; // drop: refused, never counted
        }
        shared.active.fetch_add(1, Ordering::Relaxed); // ordering: Relaxed — see the admission comment
        lock_clean(&shared.queue).push_back(stream);
        SERVE_METRICS.queue_depth.inc();
        shared.available.notify_one();
    }
}

fn worker_loop(shared: &Shared) {
    loop {
        let stream = {
            let mut queue = lock_clean(&shared.queue);
            loop {
                if shared.shutting_down() {
                    return;
                }
                if let Some(stream) = queue.pop_front() {
                    SERVE_METRICS.queue_depth.dec();
                    break stream;
                }
                queue =
                    shared.available.wait(queue).unwrap_or_else(std::sync::PoisonError::into_inner);
            }
        };
        // ordering: Relaxed — session ids only need uniqueness, which
        // the RMW guarantees under any ordering.
        let id = shared.next_session.fetch_add(1, Ordering::Relaxed);
        if let Ok(clone) = stream.try_clone() {
            lock_clean(&shared.open).insert(id, clone);
        }
        // A shutdown that raced our registration has already drained
        // the open map; re-checking the flag after inserting closes
        // the gap either way, so no worker blocks past shutdown.
        if shared.shutting_down() {
            let _ = stream.shutdown(Shutdown::Both);
        }
        serve_session(stream, shared);
        lock_clean(&shared.open).remove(&id);
        // ordering: Relaxed — see the admission-control comment.
        shared.active.fetch_sub(1, Ordering::Relaxed);
    }
}

/// Serves one session until the client hangs up or the transport
/// fails. Malformed *payloads* are survivable (the frame was consumed;
/// answer and continue); malformed *frames* are not (the stream can no
/// longer be resynchronised), so those answer and close.
fn serve_session(mut stream: TcpStream, shared: &Shared) {
    loop {
        // A previous request's (detached) watcher set a short read
        // timeout on the shared fd; idle reads must block indefinitely.
        let _ = stream.set_read_timeout(None);
        let payload = match read_frame(&mut stream) {
            Ok(Some(payload)) => payload,
            Ok(None) => return, // clean hang-up
            Err(e) if e.kind() == io::ErrorKind::InvalidData => {
                let resp = Response::Malformed(e.to_string());
                let _ = write_frame(&mut stream, &resp.encode());
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
                let response = match workload::validate(&workload) {
                    Err(msg) => Response::Malformed(msg),
                    Ok(()) => {
                        let tenant = shared.tenants.get_or_create(tenant);
                        // A resolved game answers from one table probe:
                        // there is no search to cancel, so no watcher
                        // thread is worth spawning for it.
                        let ran = workload::run_warm(&tenant, &workload).unwrap_or_else(|| {
                            let cancel = if deadline_ms > 0 {
                                CancelToken::with_timeout(Duration::from_millis(u64::from(
                                    deadline_ms,
                                )))
                            } else {
                                CancelToken::never()
                            };
                            let signal = Arc::new(WatchSignal::new());
                            let watcher =
                                spawn_watcher(&stream, cancel.clone(), Arc::clone(&signal));
                            if let Some(handle) = watcher {
                                shared.track_watcher(handle);
                            }
                            let ran = workload::run(&tenant, &workload, &cancel, deadline_ms > 0);
                            // The watcher wakes off the bell (or within one
                            // poll interval if it is mid-peek) and exits;
                            // its tracked handle is reaped later, off this
                            // request's latency path.
                            signal.finish();
                            ran
                        });
                        match ran {
                            Ran::Done { index, loss, stats } => Response::Ok { index, loss, stats },
                            Ran::TimedOut { partial } => {
                                SERVE_METRICS.deadline_timeouts.inc();
                                Response::Timeout { partial }
                            }
                            // The flow shape guard refused the compiled
                            // program: same client-visible shape as a
                            // parameter-level validation failure.
                            Ran::Rejected(msg) => Response::Malformed(msg),
                        }
                    }
                };
                (response, Some(latency))
            }
        };
        let wrote = write_frame(&mut stream, &response.encode());
        if let Some(latency) = latency {
            let micros = u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX);
            latency.record(micros);
        }
        if wrote.is_err() {
            return; // client gone mid-response
        }
    }
}

/// Watches the session socket while a search runs: if the client hangs
/// up (peek sees EOF) or the transport dies, the search's token fires
/// and the workers stop claiming — the queue-drain fix made
/// end-to-end. The watcher borrows the socket via `try_clone`, which
/// shares the fd; its short read timeout leaks past the request, so
/// the session clears it before each blocking `read_frame`. The
/// returned handle is tracked by the caller and joined at shutdown;
/// the thread itself exits within one poll interval of the signal
/// finishing (immediately, when it is waiting on the bell rather than
/// mid-peek).
fn spawn_watcher(
    stream: &TcpStream,
    cancel: CancelToken,
    signal: Arc<WatchSignal>,
) -> Option<thread::JoinHandle<()>> {
    let peer = stream.try_clone().ok()?;
    peer.set_read_timeout(Some(WATCH_INTERVAL)).ok()?;
    Some(thread::spawn(move || {
        SERVE_METRICS.active_watchers.inc();
        let mut probe = [0u8; 1];
        loop {
            if signal.is_done() {
                break;
            }
            match peer.peek(&mut probe) {
                Ok(0) => {
                    SERVE_METRICS.disconnect_cancels.inc();
                    cancel.cancel(); // EOF: the caller is gone
                    break;
                }
                // Bytes waiting (a pipelined request): still alive.
                // Wait out a poll interval or the completion bell,
                // whichever comes first.
                Ok(_) => {
                    if signal.wait_done(WATCH_INTERVAL) {
                        break;
                    }
                }
                Err(e)
                    if e.kind() == io::ErrorKind::WouldBlock
                        || e.kind() == io::ErrorKind::TimedOut => {}
                Err(_) => {
                    SERVE_METRICS.disconnect_cancels.inc();
                    cancel.cancel(); // transport dead: same as gone
                    break;
                }
            }
        }
        SERVE_METRICS.active_watchers.dec();
    }))
}
