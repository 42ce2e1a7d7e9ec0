//! The TCP front-end: accept loop, per-connection threads, graceful drain.
//!
//! ```text
//!   accept thread ──► per-connection reader ──► Server::submit_tagged
//!        │                   │ rejections,            │ completion queue:
//!        │ (cap check,       │ protocol errors        │ (tag, result) encoded
//!        │  drain flag)      ▼                        ▼ as it finishes
//!        │               frame channel ◄──────────────┘
//!        │                   │
//!        ▼                   ▼
//!   connection registry  per-connection writer (blocks on the one
//!                        channel; frames go out in the order requests
//!                        FINISH — no head-of-line blocking)
//! ```
//!
//! Each accepted connection gets a **reader** thread (decodes `ODQ1`
//! frames, submits to the in-process [`Server`]) and a **writer** thread
//! (owns the write half). The reader submits each request with
//! [`Server::submit_tagged`] under a connection-local tag; the
//! connection's completion queue turns each `(tag, result)` into its
//! response or error frame the moment the pipeline finishes the request
//! and pushes it onto the same channel that carries the reader's own
//! error frames. The writer blocks on that one channel, so a slow request
//! never delays a fast one submitted after it, and nothing polls.
//! Admission rejections travel back as typed error frames; a malformed,
//! truncated, or oversized frame gets a typed error frame and closes the
//! connection (framing cannot be resynchronized after a parse failure),
//! releasing its connection slot.
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

use crossbeam::channel::{unbounded, Receiver, Sender};
use odq_serve::{CompletionQueue, InferResponse, NetTap, ServeError, Server, StatsSummary};

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
    let (frame_tx, frame_rx) = unbounded::<Vec<u8>>();
    let writer_thread = writer.ok().and_then(|w| {
        let tap = shared.tap.clone();
        std::thread::Builder::new()
            .name(format!("odq-net-write-{conn_id}"))
            .spawn(move || writer_loop(w, frame_rx, tap))
            .ok()
    });
    if writer_thread.is_some() {
        reader_loop(&stream, &shared, &frame_tx);
    }
    // Dropping the reader's sender lets the writer finish the in-flight
    // requests and exit; only then is the connection accounted closed.
    drop(frame_tx);
    if let Some(w) = writer_thread {
        let _ = w.join();
    }
    let _ = stream.shutdown(Shutdown::Both);
    lock(&shared.conns).remove(&conn_id);
    shared.tap.conn_closed();
}

fn reader_loop(stream: &TcpStream, shared: &Shared, frames: &Sender<Vec<u8>>) {
    let mut reader = BufReader::new(stream);
    // Requests in flight by tag: wire id, and whether the request carried
    // `FLAG_TRACE` — only then does the response frame echo the trace id
    // (v1 clients keep seeing v1 response bodies). Registered before the
    // submit, so the completion always finds its entry.
    let inflight: Arc<Mutex<HashMap<u64, (u64, bool)>>> = Arc::default();
    // Each admitted request's completion becomes its frame on the writer's
    // channel. The queue holds a sender, so the channel stays open until
    // the last in-flight request is answered.
    let done = {
        let (tx, inflight) = (frames.clone(), Arc::clone(&inflight));
        CompletionQueue::new(move |(tag, result)| {
            if let Some((id, echo_trace)) = lock(&inflight).remove(&tag) {
                let _ = tx.send(encode_outcome(id, echo_trace, result));
            }
        })
    };
    let mut next_tag = 0u64;
    loop {
        match wire::read_frame(&mut reader, &shared.limits) {
            Ok((Frame::Request(rf), n)) => {
                shared.tap.frame_in(n as u64);
                let (tag, id) = (next_tag, rf.id);
                next_tag += 1;
                lock(&inflight).insert(tag, (id, rf.trace.is_some()));
                if let Err(e) = shared.server.submit_tagged(rf.into_request(), tag, &done) {
                    lock(&inflight).remove(&tag);
                    if frames.send(encode_outcome(id, false, Err(e))).is_err() {
                        return;
                    }
                }
            }
            Ok((_, n)) => {
                // Clients have no business sending Response/Error frames.
                shared.tap.frame_in(n as u64);
                shared.tap.protocol_error();
                let _ = frames.send(encode_error(&ErrorFrame {
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
                let _ = frames.send(encode_error(&ErrorFrame {
                    id: NO_REQUEST_ID,
                    code,
                    message: e.to_string(),
                }));
                return;
            }
        }
    }
}

/// Write every frame the reader and the connection's completion queue
/// push, as they arrive. The channel disconnects once the reader has
/// exited and every in-flight request has been answered.
fn writer_loop(stream: TcpStream, frames: Receiver<Vec<u8>>, tap: NetTap) {
    let mut w = BufWriter::new(stream);
    while let Ok(bytes) = frames.recv() {
        if wire::write_frame(&mut w, &bytes).is_err() {
            // The peer is gone: the pipeline still completes the remaining
            // requests server-side, and their frames go nowhere.
            break;
        }
        tap.frame_out(bytes.len() as u64);
    }
}

/// The response or error frame answering request `id`.
fn encode_outcome(id: u64, echo_trace: bool, result: Result<InferResponse, ServeError>) -> Vec<u8> {
    match result {
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
    }
}
