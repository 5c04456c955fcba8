//! The pumpkind daemon proper: listeners, the worker pool, and drain.
//!
//! `std::net` only. Connection threads are thin: they parse frames,
//! answer the environment-free control methods (`ping`, `metrics`,
//! `shutdown`) inline, and hand everything else to a bounded work queue
//! as a `Job`, then block until the worker's reply comes back over the
//! job's channel. A fixed pool of worker threads drains the queue; each
//! worker owns one long-lived [`Session`] with its own clone of the warm
//! environment (the kernel's `Env` is `Send` but not `Sync`, so
//! per-worker ownership is also the only sound sharing strategy). Because
//! sessions outlive connections, their configuration caches stay warm
//! across clients — the second connection asking for a recipe skips the
//! search procedure entirely.
//!
//! Admission control is two-layered and never queues unbounded work: a
//! connection beyond the session cap gets one [`code::BUSY`] reply and is
//! closed, and a request arriving while the work queue is full gets a
//! `busy` reply on its own id (the connection survives; clients retry).
//! A request's cancel token is created at *enqueue* time, so a
//! `deadline_ms` budget covers time spent waiting in the queue, not just
//! time on a worker.
//!
//! Shutdown is graceful: the connection that receives `shutdown` answers
//! it, flips the server-wide flag, closes the queue, and wakes the accept
//! loops by self-connecting; the loops stop accepting. Workers finish
//! every job already queued (closing the queue stops admission, not
//! delivery), idle connections are drained by half-closing their read
//! sides, and `std::thread::scope` joins every thread before
//! [`Server::run`] returns — a drain, not an abort.

use std::collections::{HashMap, VecDeque};
use std::io::{self, BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
#[cfg(unix)]
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

use pumpkin_core::trace::serve_stats::{self, ServeStats};
use pumpkin_core::trace::{Event, EventKind, Metrics};
use pumpkin_core::CancelToken;
use pumpkin_kernel::env::Env;
use pumpkin_wire::Value;

use crate::proto::{self, code, Frame, Request};
use crate::session::{self, Control, Session};

/// A thunk that half-closes one connection's read side, unblocking a
/// connection thread waiting for its next frame without cutting off a
/// reply in flight.
type ReadCloser = Box<dyn Fn() + Send>;

/// A connection the daemon can serve: readable, writable, and drainable
/// (its blocked reads can be interrupted from another thread).
pub trait Conn: Read + Write {
    /// Returns a thunk that half-closes this connection's read side, or
    /// `None` when the transport cannot be cloned (such a connection
    /// only drains when the client closes it).
    fn read_closer(&self) -> Option<ReadCloser>;
}

impl Conn for TcpStream {
    fn read_closer(&self) -> Option<ReadCloser> {
        let clone = self.try_clone().ok()?;
        Some(Box::new(move || {
            let _ = clone.shutdown(Shutdown::Read);
        }))
    }
}

#[cfg(unix)]
impl Conn for UnixStream {
    fn read_closer(&self) -> Option<ReadCloser> {
        let clone = self.try_clone().ok()?;
        Some(Box::new(move || {
            let _ = clone.shutdown(Shutdown::Read);
        }))
    }
}

/// How a [`Server`] is assembled.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// TCP listen address (`127.0.0.1:0` picks a free port).
    pub listen: String,
    /// Optional additional Unix-domain listener (ignored off unix).
    pub unix: Option<PathBuf>,
    /// Concurrent-connection cap; connections beyond it get one `busy`
    /// reply and are closed.
    pub max_sessions: usize,
    /// Worker threads (each owns a long-lived session and its warm
    /// configuration cache).
    pub workers: usize,
    /// Bound on queued-but-unstarted requests; a request past it gets a
    /// `busy` reply on its own id.
    pub queue_depth: usize,
    /// Root of the persistent cross-run lift cache, if enabled.
    pub cache_dir: Option<PathBuf>,
    /// Size budget for the persist cache in bytes; past it the least
    /// recently used entries are evicted. `None` means unbounded.
    pub cache_max_bytes: Option<u64>,
    /// Slow-request threshold: a request whose parse-to-reply-write wall
    /// time reaches this many milliseconds gets one structured
    /// `serve_slow` JSONL line in the log sink. `None` disables the log.
    pub slow_ms: Option<u64>,
    /// Slow-log sink path (append). `None` writes to stderr.
    pub log: Option<PathBuf>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            listen: "127.0.0.1:0".into(),
            unix: None,
            max_sessions: 8,
            workers: 2,
            queue_depth: 32,
            cache_dir: None,
            cache_max_bytes: None,
            slow_ms: None,
            log: None,
        }
    }
}

/// What a worker sends back for one job: the reply line plus the
/// lifecycle timings only the worker can measure.
struct WorkerReply {
    text: String,
    ctl: Control,
    /// Enqueue → worker pickup.
    queue_wait_ns: u64,
    /// Worker pickup → reply rendered.
    service_ns: u64,
}

/// One queued request: parsed frame, its (enqueue-time) cancel token,
/// its lifecycle id, and the channel its reply travels back on.
struct Job {
    request: Request,
    cancel: Option<CancelToken>,
    /// Server-wide lifecycle request id, assigned at frame parse.
    req_id: u64,
    /// When the job entered the queue (queue wait = pickup − this).
    enqueued: Instant,
    reply_tx: mpsc::Sender<WorkerReply>,
}

/// Why [`WorkQueue::push`] refused a job.
enum Refusal {
    /// The queue is at its depth bound.
    Full,
    /// The queue is closed (server draining).
    Closed,
}

/// A bounded MPMC queue of [`Job`]s: non-blocking bounded push, blocking
/// pop. Closing stops admission but not delivery — workers keep popping
/// until the backlog is drained, which is what makes shutdown graceful
/// for requests already accepted.
struct WorkQueue {
    depth: usize,
    state: Mutex<QueueState>,
    ready: Condvar,
}

struct QueueState {
    jobs: VecDeque<Job>,
    closed: bool,
}

impl WorkQueue {
    fn new(depth: usize) -> WorkQueue {
        WorkQueue {
            depth: depth.max(1),
            state: Mutex::new(QueueState {
                jobs: VecDeque::new(),
                closed: false,
            }),
            ready: Condvar::new(),
        }
    }

    /// Enqueues without blocking; hands the job back on refusal so the
    /// caller can answer on its id. On success, returns the queue depth
    /// *after* the push (for the high-water-mark gauge).
    fn push(&self, job: Job) -> Result<usize, (Box<Job>, Refusal)> {
        let mut st = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        if st.closed {
            return Err((Box::new(job), Refusal::Closed));
        }
        if st.jobs.len() >= self.depth {
            return Err((Box::new(job), Refusal::Full));
        }
        st.jobs.push_back(job);
        let depth = st.jobs.len();
        drop(st);
        self.ready.notify_one();
        Ok(depth)
    }

    /// Blocks for the next job; `None` only once the queue is closed
    /// *and* drained.
    fn pop(&self) -> Option<Job> {
        let mut st = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        loop {
            if let Some(job) = st.jobs.pop_front() {
                return Some(job);
            }
            if st.closed {
                return None;
            }
            st = self.ready.wait(st).unwrap_or_else(PoisonError::into_inner);
        }
    }

    fn close(&self) {
        self.state
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .closed = true;
        self.ready.notify_all();
    }
}

/// State shared by accept loops, connection threads, and workers.
/// Deliberately holds no `Env` (it is not `Sync`); workers own their
/// clones.
struct Shared {
    max_sessions: usize,
    workers: usize,
    cache_dir: Option<PathBuf>,
    cache_max_bytes: Option<u64>,
    metrics: Arc<Mutex<Metrics>>,
    /// Service stats: per-method latency/queue-wait histograms + gauges,
    /// shared with every worker session and read by the `stats` RPC.
    stats: Arc<ServeStats>,
    queue: WorkQueue,
    active: AtomicUsize,
    shutdown: AtomicBool,
    /// Wake targets for draining blocked accept loops.
    tcp_addr: SocketAddr,
    unix_path: Option<PathBuf>,
    /// Read-closers for every live connection, keyed by a connection id
    /// (each connection thread removes its own entry when it exits).
    conns: Mutex<HashMap<u64, ReadCloser>>,
    next_conn: AtomicU64,
    /// Server-wide lifecycle request ids, assigned at frame parse (the
    /// first accepted frame is req_id 1).
    next_req: AtomicU64,
    /// The daemon's monotonic epoch; slow-log event timestamps are
    /// offsets from it.
    epoch: Instant,
    /// Slow-request threshold in nanoseconds (`None`: slow log off).
    slow_ns: Option<u64>,
    /// The slow log's sink (`--log`, default stderr). One short JSONL
    /// line per offending request; the mutex is uncontended unless many
    /// requests are slow at once — and then log ordering is the point.
    slow_sink: Mutex<Box<dyn Write + Send>>,
}

impl Shared {
    /// Unblocks every accept loop (so it can observe the shutdown flag)
    /// and every idle connection (by half-closing its read side).
    fn wake(&self) {
        let _ = TcpStream::connect(self.tcp_addr);
        #[cfg(unix)]
        if let Some(p) = &self.unix_path {
            let _ = UnixStream::connect(p);
        }
        for closer in self
            .conns
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .values()
        {
            closer();
        }
    }

    /// Writes one `serve_slow` JSONL line for a request whose wall time
    /// crossed the `--slow-ms` threshold.
    fn log_slow(&self, t_ns: u64, total_ns: u64, timing: &ReqTiming) {
        let event = Event {
            t_ns,
            dur_ns: total_ns,
            worker: 0,
            kind: EventKind::ServeSlow {
                req_id: timing.req_id,
                method: timing.method.as_str().into(),
                queue_wait_ns: timing.queue_wait_ns.unwrap_or(0),
                service_ns: timing.service_ns,
                write_ns: timing.write_ns,
            },
        };
        serve_stats::inc(&self.stats.gauges.slow_logged);
        let mut sink = self
            .slow_sink
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        let _ = writeln!(sink, "{}", event.to_json());
        let _ = sink.flush();
    }
}

/// Lifecycle timings for one answered frame, accumulated across the
/// connection thread (parse, write) and the worker (queue wait, service).
struct ReqTiming {
    /// The frame's lifecycle id (echoed as `req_id`).
    req_id: u64,
    /// The RPC method, for the per-method histograms.
    method: String,
    /// Frame parse time (the lifecycle's start).
    start: Instant,
    /// Enqueue → worker pickup; `None` for control methods answered
    /// inline, which never queue.
    queue_wait_ns: Option<u64>,
    /// Time spent computing the reply (inline or on a worker).
    service_ns: u64,
    /// Reply-write time, filled in by the connection loop.
    write_ns: u64,
}

/// A bound, not-yet-running daemon.
pub struct Server {
    listener: TcpListener,
    #[cfg(unix)]
    unix: Option<UnixListener>,
    base: Env,
    shared: Arc<Shared>,
}

impl Server {
    /// Binds the listeners and builds the warm base environment (the
    /// standard library) once.
    ///
    /// # Errors
    ///
    /// Propagates socket binding failures.
    pub fn bind(cfg: ServerConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(&cfg.listen)?;
        let tcp_addr = listener.local_addr()?;
        #[cfg(unix)]
        let unix = match &cfg.unix {
            Some(p) => {
                // A stale socket file from a previous run would fail the
                // bind; replacing it is the conventional daemon behavior.
                let _ = std::fs::remove_file(p);
                Some(UnixListener::bind(p)?)
            }
            None => None,
        };
        #[cfg(not(unix))]
        let _ = &cfg.unix;
        let slow_sink: Box<dyn Write + Send> = match &cfg.log {
            Some(path) => Box::new(
                std::fs::OpenOptions::new()
                    .create(true)
                    .append(true)
                    .open(path)?,
            ),
            None => Box::new(io::stderr()),
        };
        Ok(Server {
            listener,
            #[cfg(unix)]
            unix,
            base: pumpkin_stdlib::std_env(),
            shared: Arc::new(Shared {
                max_sessions: cfg.max_sessions.max(1),
                workers: cfg.workers.max(1),
                cache_dir: cfg.cache_dir,
                cache_max_bytes: cfg.cache_max_bytes,
                metrics: Arc::new(Mutex::new(Metrics::new())),
                stats: Arc::new(ServeStats::new()),
                queue: WorkQueue::new(cfg.queue_depth),
                active: AtomicUsize::new(0),
                shutdown: AtomicBool::new(false),
                tcp_addr,
                unix_path: if cfg!(unix) { cfg.unix } else { None },
                conns: Mutex::new(HashMap::new()),
                next_conn: AtomicU64::new(0),
                next_req: AtomicU64::new(1),
                epoch: Instant::now(),
                slow_ns: cfg.slow_ms.map(|ms| ms.saturating_mul(1_000_000)),
                slow_sink: Mutex::new(slow_sink),
            }),
        })
    }

    /// The bound TCP address (useful after binding port 0).
    ///
    /// # Errors
    ///
    /// Propagates `local_addr` failures.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Serves until a client sends `shutdown`, then drains: stops
    /// accepting, lets workers finish the queued backlog, waits for every
    /// in-flight connection, and returns.
    ///
    /// # Errors
    ///
    /// Propagates fatal listener errors (per-connection errors only end
    /// that connection).
    pub fn run(self) -> io::Result<()> {
        let Server {
            listener,
            #[cfg(unix)]
            unix,
            base,
            shared,
        } = self;
        std::thread::scope(|s| {
            for _ in 0..shared.workers {
                let env = base.clone();
                let wshared = Arc::clone(&shared);
                s.spawn(move || worker_loop(env, &wshared));
            }
            #[cfg(unix)]
            if let Some(ul) = unix {
                let ushared = Arc::clone(&shared);
                s.spawn(move || {
                    accept_loop(s, || ul.accept().map(|(c, _)| c), &ushared);
                });
            }
            accept_loop(
                s,
                || {
                    listener.accept().map(|(c, _)| {
                        // Tiny request/reply frames: Nagle + delayed ACK
                        // would add ~40 ms per round trip.
                        let _ = c.set_nodelay(true);
                        c
                    })
                },
                &shared,
            );
        });
        if let Some(p) = &shared.unix_path {
            let _ = std::fs::remove_file(p);
        }
        Ok(())
    }
}

/// One worker: a long-lived session draining the queue until it closes.
/// The session (and its configuration cache) outlives every connection.
fn worker_loop(env: Env, shared: &Shared) {
    let mut session = Session::new(env, shared.cache_dir.clone(), Arc::clone(&shared.metrics))
        .cache_max_bytes(shared.cache_max_bytes)
        .serve_stats(Arc::clone(&shared.stats));
    while let Some(job) = shared.queue.pop() {
        let queue_wait_ns = job.enqueued.elapsed().as_nanos() as u64;
        serve_stats::inc(&shared.stats.gauges.workers_busy);
        let picked_up = Instant::now();
        let (text, ctl) =
            session.handle_request_traced(&job.request, job.cancel.as_ref(), job.req_id);
        let service_ns = picked_up.elapsed().as_nanos() as u64;
        serve_stats::dec(&shared.stats.gauges.workers_busy);
        // A connection that gave up (client vanished) just drops the
        // receiver; the work was already done either way.
        let _ = job.reply_tx.send(WorkerReply {
            text,
            ctl,
            queue_wait_ns,
            service_ns,
        });
    }
}

/// Accepts until the shutdown flag trips, spawning one connection thread
/// per admitted connection inside the caller's scope (so the scope's
/// exit is the drain barrier).
fn accept_loop<'scope, S>(
    scope: &'scope std::thread::Scope<'scope, '_>,
    mut accept: impl FnMut() -> io::Result<S>,
    shared: &Arc<Shared>,
) where
    S: Conn + Send + 'scope,
{
    loop {
        if shared.shutdown.load(Ordering::Acquire) {
            return;
        }
        let mut stream = match accept() {
            Ok(s) => s,
            Err(_) => continue,
        };
        if shared.shutdown.load(Ordering::Acquire) {
            // Likely the wake-up self-connect; anyone else racing the
            // drain gets told so.
            let _ = writeln!(
                stream,
                "{}",
                proto::err_reply(&Value::Null, code::SHUTTING_DOWN, "server is draining")
            );
            return;
        }
        if shared.active.fetch_add(1, Ordering::AcqRel) >= shared.max_sessions {
            shared.active.fetch_sub(1, Ordering::AcqRel);
            serve_stats::inc(&shared.stats.gauges.busy_session_cap);
            let _ = writeln!(
                stream,
                "{}",
                proto::err_reply_value_detail(
                    &Value::Null,
                    code::BUSY,
                    "session cap reached; retry later",
                    "session_cap",
                )
            );
            continue;
        }
        serve_stats::inc(&shared.stats.gauges.live_sessions);
        let conn_id = shared.next_conn.fetch_add(1, Ordering::AcqRel);
        if let Some(closer) = stream.read_closer() {
            shared
                .conns
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .insert(conn_id, closer);
            // A shutdown racing this insert may have already swept the
            // map; close the read side ourselves so the new connection
            // cannot outlive the drain (closing twice is harmless).
            if shared.shutdown.load(Ordering::Acquire) {
                if let Some(closer) = shared
                    .conns
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .get(&conn_id)
                {
                    closer();
                }
            }
        }
        let shared = Arc::clone(shared);
        scope.spawn(move || {
            let wants_shutdown = serve_connection(stream, conn_id, &shared);
            shared
                .conns
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .remove(&conn_id);
            shared.active.fetch_sub(1, Ordering::AcqRel);
            serve_stats::dec(&shared.stats.gauges.live_sessions);
            if wants_shutdown {
                shared.shutdown.store(true, Ordering::Release);
                shared.queue.close();
                shared.wake();
            }
        });
    }
}

/// Runs one connection's request loop; returns whether the client asked
/// the whole server to shut down. `conn_id` doubles as the stats shard
/// lane, so one connection's recording always lands in one shard.
fn serve_connection<S: Read + Write>(stream: S, conn_id: u64, shared: &Shared) -> bool {
    let mut reader = BufReader::new(stream);
    // Every accepted frame — malformed ones included — consumes one
    // server-wide lifecycle id, echoed to the client as `req_id`.
    let fresh_req_id = || shared.next_req.fetch_add(1, Ordering::AcqRel);
    loop {
        let (text, ctl, timing) = match proto::read_frame(&mut reader) {
            Err(_) | Ok(Frame::Eof) => return false,
            Ok(Frame::Oversized) => {
                let mut reply = proto::err_reply_value(
                    &Value::Null,
                    code::OVERSIZED,
                    &format!("frame exceeds {} bytes", proto::MAX_FRAME),
                );
                proto::stamp_req_id(&mut reply, fresh_req_id());
                (reply.to_string(), Control::Continue, None)
            }
            Ok(Frame::Truncated) => {
                // Best-effort: the read side is gone, but the client may
                // still be listening on its read half.
                let mut reply = proto::err_reply_value(
                    &Value::Null,
                    code::TRUNCATED,
                    "connection closed mid-frame",
                );
                proto::stamp_req_id(&mut reply, fresh_req_id());
                let _ = writeln!(reader.get_mut(), "{reply}");
                return false;
            }
            Ok(Frame::Line(bytes)) => match String::from_utf8(bytes) {
                Ok(line) if line.trim().is_empty() => continue,
                Ok(line) => handle_frame(&line, shared),
                Err(_) => {
                    let mut reply =
                        proto::err_reply_value(&Value::Null, code::PARSE, "frame is not UTF-8");
                    proto::stamp_req_id(&mut reply, fresh_req_id());
                    (reply.to_string(), Control::Continue, None)
                }
            },
        };
        // One write per reply — a separate newline write would sit in
        // its own packet behind the client's delayed ACK.
        let mut frame = text.into_bytes();
        frame.push(b'\n');
        let write_started = Instant::now();
        if reader.get_mut().write_all(&frame).is_err() {
            return false;
        }
        let _ = reader.get_mut().flush();
        if let Some(mut timing) = timing {
            timing.write_ns = write_started.elapsed().as_nanos() as u64;
            let total_ns = timing.start.elapsed().as_nanos() as u64;
            shared
                .stats
                .record(conn_id, &timing.method, total_ns, timing.queue_wait_ns);
            if shared.slow_ns.is_some_and(|thresh| total_ns >= thresh) {
                let t_ns = timing.start.duration_since(shared.epoch).as_nanos() as u64;
                shared.log_slow(t_ns, total_ns, &timing);
            }
        }
        if ctl == Control::Shutdown {
            return true;
        }
    }
}

/// One frame's journey: parse, answer control methods inline (they need
/// no environment and must stay responsive while the pool is saturated),
/// or enqueue a job and wait for its reply. The cancel token is created
/// *here*, so a request's deadline budget includes its time in the
/// queue. Returns the reply line, the connection control verdict, and —
/// for frames that named a method — the lifecycle timing for the
/// per-method histograms (the connection loop adds the write time).
fn handle_frame(line: &str, shared: &Shared) -> (String, Control, Option<ReqTiming>) {
    let start = Instant::now();
    let req_id = shared.next_req.fetch_add(1, Ordering::AcqRel);
    let req = match proto::parse_request(line) {
        Ok(r) => r,
        Err(msg) => {
            let mut reply = proto::err_reply_value(&Value::Null, code::PARSE, &msg);
            proto::stamp_req_id(&mut reply, req_id);
            return (reply.to_string(), Control::Continue, None);
        }
    };
    if let Some(res) =
        session::control_result(&req.method, &req.params, &shared.metrics, &shared.stats)
    {
        let (mut reply, ctl) = match res {
            Ok((result, ctl)) => (proto::ok_reply_value(&req.id, result), ctl),
            Err(e) => (e.reply(&req.id), Control::Continue),
        };
        proto::stamp_req_id(&mut reply, req_id);
        return (
            reply.to_string(),
            ctl,
            Some(ReqTiming {
                req_id,
                method: req.method,
                start,
                queue_wait_ns: None,
                service_ns: start.elapsed().as_nanos() as u64,
                write_ns: 0,
            }),
        );
    }
    let cancel = req
        .params
        .get("deadline_ms")
        .and_then(Value::as_u64)
        .map(|ms| CancelToken::with_deadline(Duration::from_millis(ms)));
    let method = req.method.clone();
    let (reply_tx, reply_rx) = mpsc::channel();
    let job = Job {
        request: req,
        cancel,
        req_id,
        enqueued: Instant::now(),
        reply_tx,
    };
    match shared.queue.push(job) {
        Ok(depth) => shared.stats.raise_queue_depth(depth as u64),
        Err((job, refusal)) => {
            let mut reply = match refusal {
                Refusal::Full => {
                    serve_stats::inc(&shared.stats.gauges.busy_queue_full);
                    proto::err_reply_value_detail(
                        &job.request.id,
                        code::BUSY,
                        "work queue is full; retry later",
                        "queue_full",
                    )
                }
                Refusal::Closed => proto::err_reply_value(
                    &job.request.id,
                    code::SHUTTING_DOWN,
                    "server is draining",
                ),
            };
            proto::stamp_req_id(&mut reply, req_id);
            return (reply.to_string(), Control::Continue, None);
        }
    }
    match reply_rx.recv() {
        Ok(wr) => (
            wr.text,
            wr.ctl,
            Some(ReqTiming {
                req_id,
                method,
                start,
                queue_wait_ns: Some(wr.queue_wait_ns),
                service_ns: wr.service_ns,
                write_ns: 0,
            }),
        ),
        Err(_) => {
            let mut reply = proto::err_reply_value(
                &Value::Null,
                code::REPAIR_FAILED,
                "worker exited before replying",
            );
            proto::stamp_req_id(&mut reply, req_id);
            (reply.to_string(), Control::Continue, None)
        }
    }
}
