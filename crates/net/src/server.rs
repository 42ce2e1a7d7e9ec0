//! The TCP front-end: accept loop, per-connection threads, graceful drain.
//!
//! ```text
//!   accept thread ──► per-connection reader ──► Server::submit
//!        │                   │                        │ ResponseHandle
//!        │ (cap check,       ▼                        ▼
//!        │  drain flag)   event channel ──► per-connection writer
//!        │                                  (polls in-flight handles,
//!        │                                   writes completions in the
//!        ▼                                   order they FINISH — no
//!   connection registry                      head-of-line blocking)
//! ```
//!
//! Each accepted connection gets a **reader** thread (decodes `ODQ1`
//! frames, submits to the in-process [`Server`]) and a **writer** thread
//! (owns the write half; answers requests as their handles resolve, so a
//! slow request never delays a fast one submitted after it). Admission
//! rejections travel back as typed error frames; a malformed, truncated,
//! or oversized frame gets a typed error frame and closes the connection
//! (framing cannot be resynchronized after a parse failure), releasing
//! its connection slot.
//!
//! [`NetServer::shutdown`] drains gracefully: the accept loop stops, every
//! open connection's read side is shut down (no new requests), writers
//! answer everything still in flight, and only then is the inner server
//! shut down and the final ledger summary returned.

use std::collections::HashMap;
use std::io::{self, BufReader, BufWriter};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::Duration;

use crossbeam::channel::{unbounded, Receiver, Sender};
use odq_serve::{NetTap, ResponseHandle, Server, StatsSummary};

use crate::wire::{
    self, encode_error, encode_response, ErrorFrame, Frame, ResponseFrame, WireError,
    WireErrorCode, WireLimits, NO_REQUEST_ID,
};

/// Front-end tuning knobs.
#[derive(Clone, Copy, Debug)]
pub struct NetConfig {
    /// Maximum simultaneously open connections. Connection number
    /// `max_connections + 1` is refused at accept time with a
    /// [`WireErrorCode::TooManyConnections`] error frame. Default 64.
    pub max_connections: usize,
    /// Decoder hardening limits applied to every inbound frame.
    pub limits: WireLimits,
}

impl Default for NetConfig {
    fn default() -> Self {
        Self { max_connections: 64, limits: WireLimits::default() }
    }
}

/// Poison-tolerant lock: connection threads must keep tearing down even
/// if a sibling panicked while holding a registry lock.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|p| p.into_inner())
}

/// What a connection's reader hands its writer.
enum Event {
    /// A submitted request whose handle will resolve later. The bool is
    /// whether the request carried `FLAG_TRACE` — only then does the
    /// response frame echo the trace id (v1 clients keep seeing v1
    /// response bodies).
    Inflight(u64, bool, ResponseHandle),
    /// A request rejected at admission: answer immediately.
    Reject(ErrorFrame),
    /// A connection-fatal protocol error: send it, finish the in-flight
    /// work, and close.
    Fatal(ErrorFrame),
}

struct Shared {
    server: Arc<Server>,
    tap: NetTap,
    limits: WireLimits,
    shutting_down: Arc<AtomicBool>,
    /// Read halves of live connections, keyed by connection id, so drain
    /// can shut each read side down (the reader then sees EOF).
    conns: Mutex<HashMap<u64, TcpStream>>,
    /// Join handles of live connection threads.
    threads: Mutex<Vec<JoinHandle<()>>>,
}

/// A TCP front-end wrapping an in-process [`Server`].
///
/// Owns the server: publish/deploy through [`server`](Self::server), and
/// recover the final [`StatsSummary`] (serving *and* transport counters)
/// from [`shutdown`](Self::shutdown).
pub struct NetServer {
    shared: Arc<Shared>,
    addr: SocketAddr,
    accept: Option<JoinHandle<()>>,
    done: bool,
}

impl NetServer {
    /// Bind `addr` (use port 0 for an ephemeral port) and start accepting
    /// connections for `server`.
    pub fn bind(server: Server, addr: impl ToSocketAddrs, cfg: NetConfig) -> io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let tap = server.net_tap();
        let shared = Arc::new(Shared {
            server: Arc::new(server),
            tap,
            limits: cfg.limits,
            shutting_down: Arc::new(AtomicBool::new(false)),
            conns: Mutex::new(HashMap::new()),
            threads: Mutex::new(Vec::new()),
        });
        let accept_shared = Arc::clone(&shared);
        let accept = std::thread::Builder::new()
            .name("odq-net-accept".into())
            .spawn(move || accept_loop(listener, accept_shared, cfg.max_connections))
            .expect("spawn accept thread");
        Ok(Self { shared, addr, accept: Some(accept), done: false })
    }

    /// The bound address (the actual port when bound with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The wrapped server, for in-process control: publish, deploy,
    /// canary, stats — all while remote connections are live.
    pub fn server(&self) -> &Server {
        &self.shared.server
    }

    /// Graceful drain: stop accepting, shut down every connection's read
    /// side (no new requests), let writers answer everything still in
    /// flight, join all connection threads, then shut the inner server
    /// down and return its final summary.
    pub fn shutdown(mut self) -> StatsSummary {
        self.drain();
        self.done = true;
        // Every connection thread and the accept loop are joined, so
        // their `Arc<Shared>` clones are gone; after dropping `self`
        // (drain is already done and idempotent) the clone below is the
        // last owner and both unwraps succeed.
        let shared = Arc::clone(&self.shared);
        drop(self);
        match Arc::try_unwrap(shared) {
            Ok(sh) => match Arc::try_unwrap(sh.server) {
                Ok(server) => server.shutdown(),
                Err(arc) => {
                    // Unreachable in practice (all threads joined); fall
                    // back to a snapshot + drop-driven shutdown.
                    let sum = arc.stats();
                    drop(arc);
                    sum
                }
            },
            Err(shared) => {
                let sum = shared.server.stats();
                drop(shared);
                sum
            }
        }
    }

    fn drain(&mut self) {
        if self.done {
            return;
        }
        self.shared.shutting_down.store(true, Ordering::SeqCst);
        // Wake the accept thread out of its blocking accept() with a
        // throwaway local connection; it observes the flag and exits.
        let _ = TcpStream::connect(self.addr);
        if let Some(a) = self.accept.take() {
            let _ = a.join();
        }
        // No new connections can register now. Shut down every live read
        // side: readers see EOF, writers answer the remaining in-flight
        // requests, connection threads exit.
        for stream in lock(&self.shared.conns).values() {
            let _ = stream.shutdown(Shutdown::Read);
        }
        let threads: Vec<JoinHandle<()>> = lock(&self.shared.threads).drain(..).collect();
        for t in threads {
            let _ = t.join();
        }
    }
}

impl Drop for NetServer {
    fn drop(&mut self) {
        self.drain();
    }
}

fn accept_loop(listener: TcpListener, shared: Arc<Shared>, max_connections: usize) {
    let conn_seq = AtomicU64::new(0);
    loop {
        let stream = match listener.accept() {
            Ok((s, _)) => s,
            Err(_) => {
                if shared.shutting_down.load(Ordering::SeqCst) {
                    break;
                }
                continue;
            }
        };
        // Responses are small frames: without NODELAY, Nagle holds one
        // back after a quiet gap until the client's delayed ACK arrives.
        stream.set_nodelay(true).ok();
        if shared.shutting_down.load(Ordering::SeqCst) {
            // The drain wake-up, or a straggler racing it: refuse.
            let frame = encode_error(&ErrorFrame {
                id: NO_REQUEST_ID,
                code: WireErrorCode::ShuttingDown,
                message: "server is draining".into(),
            });
            let _ = wire::write_frame(&mut &stream, &frame);
            break;
        }
        // Reap finished connection threads so the registry does not grow
        // with connection churn (their map entries are already gone).
        lock(&shared.threads).retain(|t| !t.is_finished());

        let conn_id = conn_seq.fetch_add(1, Ordering::Relaxed);
        {
            let mut conns = lock(&shared.conns);
            if conns.len() >= max_connections {
                drop(conns);
                shared.tap.conn_rejected();
                let frame = encode_error(&ErrorFrame {
                    id: NO_REQUEST_ID,
                    code: WireErrorCode::TooManyConnections,
                    message: format!("connection cap of {max_connections} reached"),
                });
                let _ = wire::write_frame(&mut &stream, &frame);
                let _ = stream.shutdown(Shutdown::Both);
                continue;
            }
            let registered = match stream.try_clone() {
                Ok(c) => c,
                Err(_) => continue,
            };
            conns.insert(conn_id, registered);
        }
        let conn_shared = Arc::clone(&shared);
        let spawned = std::thread::Builder::new()
            .name(format!("odq-net-conn-{conn_id}"))
            .spawn(move || handle_connection(conn_id, stream, conn_shared));
        match spawned {
            Ok(handle) => lock(&shared.threads).push(handle),
            Err(_) => {
                lock(&shared.conns).remove(&conn_id);
            }
        }
    }
}

fn handle_connection(conn_id: u64, stream: TcpStream, shared: Arc<Shared>) {
    shared.tap.conn_opened();
    let writer = stream.try_clone();
    let (ev_tx, ev_rx) = unbounded::<Event>();
    let writer_thread = writer.ok().and_then(|w| {
        let tap = shared.tap.clone();
        std::thread::Builder::new()
            .name(format!("odq-net-write-{conn_id}"))
            .spawn(move || writer_loop(w, ev_rx, tap))
            .ok()
    });
    if writer_thread.is_some() {
        reader_loop(&stream, &shared, &ev_tx);
    }
    // Dropping the event sender lets the writer finish the in-flight
    // requests and exit; only then is the connection accounted closed.
    drop(ev_tx);
    if let Some(w) = writer_thread {
        let _ = w.join();
    }
    let _ = stream.shutdown(Shutdown::Both);
    lock(&shared.conns).remove(&conn_id);
    shared.tap.conn_closed();
}

fn reader_loop(stream: &TcpStream, shared: &Shared, ev_tx: &Sender<Event>) {
    let mut reader = BufReader::new(stream);
    loop {
        match wire::read_frame(&mut reader, &shared.limits) {
            Ok((Frame::Request(rf), n)) => {
                shared.tap.frame_in(n as u64);
                let id = rf.id;
                let echo_trace = rf.trace.is_some();
                let ev = match shared.server.submit(rf.into_request()) {
                    Ok(handle) => Event::Inflight(id, echo_trace, handle),
                    Err(e) => Event::Reject(ErrorFrame {
                        id,
                        code: WireErrorCode::from_serve_error(&e),
                        message: e.to_string(),
                    }),
                };
                if ev_tx.send(ev).is_err() {
                    return;
                }
            }
            Ok((_, n)) => {
                // Clients have no business sending Response/Error frames.
                shared.tap.frame_in(n as u64);
                shared.tap.protocol_error();
                let _ = ev_tx.send(Event::Fatal(ErrorFrame {
                    id: NO_REQUEST_ID,
                    code: WireErrorCode::Malformed,
                    message: "unexpected frame kind from client".into(),
                }));
                return;
            }
            // EOF (clean close or drain) and transport failures end the
            // connection quietly.
            Err(WireError::Io(_)) => return,
            Err(e) => {
                shared.tap.protocol_error();
                let code = match &e {
                    WireError::TooLarge { .. } => WireErrorCode::TooLarge,
                    _ => WireErrorCode::Malformed,
                };
                let _ = ev_tx.send(Event::Fatal(ErrorFrame {
                    id: NO_REQUEST_ID,
                    code,
                    message: e.to_string(),
                }));
                return;
            }
        }
    }
}

/// How long the writer sleeps between in-flight polls when nothing is
/// ready. The vendored channel library has no `select`, so completion
/// order is discovered by polling each handle's `try_wait`.
const POLL_IDLE: Duration = Duration::from_micros(100);

fn writer_loop(stream: TcpStream, ev_rx: Receiver<Event>, tap: NetTap) {
    let mut w = BufWriter::new(stream);
    // In-flight requests, answered in the order they FINISH: a slow
    // request never blocks a fast one behind it on the same connection.
    // The bool is the request's trace-echo opt-in.
    let mut inflight: Vec<(u64, bool, ResponseHandle)> = Vec::new();
    let mut open = true;

    let mut emit = |w: &mut BufWriter<TcpStream>, bytes: &[u8]| -> bool {
        let ok = wire::write_frame(w, bytes).is_ok();
        if ok {
            tap.frame_out(bytes.len() as u64);
        }
        ok
    };

    'conn: while open || !inflight.is_empty() {
        // Block only when there is nothing to poll; otherwise drain
        // whatever events are already queued and go back to polling.
        if inflight.is_empty() && open {
            match ev_rx.recv() {
                Ok(ev) => {
                    if !dispatch(ev, &mut inflight, &mut w, &mut emit) {
                        break 'conn;
                    }
                }
                Err(_) => {
                    open = false;
                    continue;
                }
            }
        }
        loop {
            match ev_rx.try_recv() {
                Ok(ev) => {
                    if !dispatch(ev, &mut inflight, &mut w, &mut emit) {
                        break 'conn;
                    }
                }
                Err(crossbeam::channel::TryRecvError::Empty) => break,
                Err(crossbeam::channel::TryRecvError::Disconnected) => {
                    open = false;
                    break;
                }
            }
        }
        // Answer every request whose handle has resolved.
        let mut progressed = false;
        let mut i = 0;
        while i < inflight.len() {
            match inflight[i].2.try_wait() {
                Some(result) => {
                    let (id, echo_trace, _) = inflight.swap_remove(i);
                    progressed = true;
                    let bytes = match result {
                        Ok(resp) => {
                            let frame = ResponseFrame {
                                id,
                                timing: resp.timing,
                                output: resp.output,
                                trace: if echo_trace { resp.trace } else { None },
                            };
                            encode_response(&frame).unwrap_or_else(|e| {
                                encode_error(&ErrorFrame {
                                    id,
                                    code: WireErrorCode::Internal,
                                    message: format!("response unencodable: {e}"),
                                })
                            })
                        }
                        Err(e) => encode_error(&ErrorFrame {
                            id,
                            code: WireErrorCode::from_serve_error(&e),
                            message: e.to_string(),
                        }),
                    };
                    if !emit(&mut w, &bytes) {
                        break 'conn;
                    }
                }
                None => i += 1,
            }
        }
        if !progressed && !inflight.is_empty() {
            std::thread::sleep(POLL_IDLE);
        }
    }
    // A failed write means the peer is gone: remaining handles are
    // dropped, the pipeline still completes those requests server-side.
}

/// Apply one reader event. Returns `false` when the connection is dead
/// (write failure).
fn dispatch(
    ev: Event,
    inflight: &mut Vec<(u64, bool, ResponseHandle)>,
    w: &mut BufWriter<TcpStream>,
    emit: &mut impl FnMut(&mut BufWriter<TcpStream>, &[u8]) -> bool,
) -> bool {
    match ev {
        Event::Inflight(id, echo_trace, handle) => {
            inflight.push((id, echo_trace, handle));
            true
        }
        Event::Reject(frame) | Event::Fatal(frame) => emit(w, &encode_error(&frame)),
    }
}
