//! Real-socket glue: the [`TcpTransport`] client endpoint, and
//! [`TcpNetServer`], which drives a [`NetServer`] over `std::net`.
//!
//! Both ends wake on bytes, not on a timer. The server gives each
//! accepted connection one reader thread that blocks on its socket,
//! frames the bytes into request lines and sends them down one channel.
//! The thread that owns the [`NetServer`] (and with it the mining
//! service, which is not `Send`) handles those lines in arrival order,
//! so the protocol state machine still sees one sequence of `on_line` /
//! `pump` calls on one thread, as under the deterministic simulation
//! over [`SimNet`](crate::SimNet). While sessions are live that thread
//! drains the channel between service cycles without blocking; when
//! none is, it blocks on the channel, waking at least every
//! `IDLE_WAIT` to check its stop condition and accept connections.
//! The client side blocks on its socket for at most one step
//! ([`Transport::wait_readable`]) between polls.

use std::collections::HashMap;
use std::io::{ErrorKind, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::mpsc::{self, Receiver, Sender};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::server::NetServer;
use crate::transport::{NetError, Transport};

/// The longest an idle server blocks on its channel before it checks its
/// stop condition and accepts pending connections. A request line wakes
/// it at once, so this bounds only how long a new connection waits to be
/// accepted and how late `stop` is seen.
const IDLE_WAIT: Duration = Duration::from_micros(200);

/// Take the next complete line (without its `\n` or `\r\n`) off `buf`.
fn take_line(buf: &mut Vec<u8>) -> Option<String> {
    let pos = buf.iter().position(|&b| b == b'\n')?;
    let line = String::from_utf8_lossy(&buf[..pos])
        .trim_end_matches('\r')
        .to_owned();
    buf.drain(..=pos);
    Some(line)
}

/// Send one line on a non-blocking stream. A full send buffer finishes
/// the line in blocking mode rather than spinning.
fn send_line(stream: &mut TcpStream, line: &str) -> std::io::Result<()> {
    let mut bytes = Vec::with_capacity(line.len() + 1);
    bytes.extend_from_slice(line.as_bytes());
    bytes.push(b'\n');
    let mut off = 0;
    while off < bytes.len() {
        match stream.write(&bytes[off..]) {
            Ok(0) => return Err(ErrorKind::WriteZero.into()),
            Ok(n) => off += n,
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                stream.set_nonblocking(false)?;
                let rest = stream.write_all(&bytes[off..]);
                stream.set_nonblocking(true)?;
                return rest;
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// A [`Transport`] over one TCP connection. The socket is non-blocking,
/// except inside [`wait_readable`](Transport::wait_readable), which
/// blocks on it for at most its bound.
pub struct TcpTransport {
    addr: String,
    stream: Option<TcpStream>,
    buf: Vec<u8>,
}

impl TcpTransport {
    /// Connect to `addr` (e.g. `"127.0.0.1:7464"`).
    pub fn connect(addr: impl Into<String>) -> Result<Self, NetError> {
        let mut t = TcpTransport {
            addr: addr.into(),
            stream: None,
            buf: Vec::new(),
        };
        t.reconnect()?;
        Ok(t)
    }

    fn stream(&mut self) -> Result<&mut TcpStream, NetError> {
        self.stream
            .as_mut()
            .ok_or_else(|| NetError::Closed("not connected".into()))
    }
}

impl Transport for TcpTransport {
    fn send(&mut self, line: &str) -> Result<(), NetError> {
        let stream = self.stream()?;
        send_line(stream, line).map_err(|e| {
            self.stream = None;
            NetError::Closed(e.to_string())
        })
    }

    fn try_recv(&mut self) -> Result<Option<String>, NetError> {
        // Buffered whole lines first, then poll the socket.
        if let Some(line) = take_line(&mut self.buf) {
            return Ok(Some(line));
        }
        let Some(stream) = self.stream.as_mut() else {
            return Err(NetError::Closed("not connected".into()));
        };
        let mut chunk = [0u8; 4096];
        match stream.read(&mut chunk) {
            Ok(0) => {
                self.stream = None;
                Err(NetError::Closed("peer closed".into()))
            }
            Ok(n) => {
                self.buf.extend_from_slice(&chunk[..n]);
                self.try_recv()
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => Ok(None),
            Err(e) if e.kind() == ErrorKind::Interrupted => Ok(None),
            Err(e) => {
                self.stream = None;
                Err(NetError::Closed(e.to_string()))
            }
        }
    }

    /// Block on the socket until bytes arrive or `max` passes. What
    /// arrives is buffered for [`try_recv`](Transport::try_recv); an end
    /// of stream or an error is left for `try_recv` to report, since
    /// the socket reports it again. The socket's read timeout counts in
    /// kernel timer ticks, so a silent wait rounds `max` up to a tick or
    /// two (a 300-µs bound waited 6–12 ms, median 8 ms, on a 2-vCPU
    /// Linux 6.18 KVM guest).
    fn wait_readable(&mut self, max: Duration) {
        if max.is_zero() || self.buf.contains(&b'\n') {
            return;
        }
        let Some(stream) = self.stream.as_mut() else {
            return;
        };
        let mut chunk = [0u8; 4096];
        let read = stream
            .set_nonblocking(false)
            .and_then(|()| stream.set_read_timeout(Some(max)))
            .and_then(|()| stream.read(&mut chunk));
        if let Ok(n) = read {
            self.buf.extend_from_slice(&chunk[..n]);
        }
        if stream.set_nonblocking(true).is_err() {
            self.stream = None;
        }
    }

    fn reconnect(&mut self) -> Result<(), NetError> {
        self.stream = None;
        self.buf.clear();
        let stream = TcpStream::connect(&self.addr).map_err(|e| NetError::Closed(e.to_string()))?;
        stream
            .set_nonblocking(true)
            .map_err(|e| NetError::Io(e.to_string()))?;
        stream.set_nodelay(true).ok();
        self.stream = Some(stream);
        Ok(())
    }

    fn close(&mut self) {
        self.stream = None;
        self.buf.clear();
    }
}

/// What a connection's reader thread tells the serving thread.
enum Event {
    /// One complete, non-empty request line.
    Line(u64, String),
    /// The peer closed the connection, or reading from it failed.
    Closed(u64),
}

/// A connection's reader: block on the socket, frame the bytes into
/// lines, forward each one, and report the close.
fn read_lines(conn: u64, mut stream: TcpStream, events: Sender<Event>) {
    let mut buf = Vec::new();
    let mut chunk = [0u8; 4096];
    loop {
        match stream.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => {
                buf.extend_from_slice(&chunk[..n]);
                while let Some(line) = take_line(&mut buf) {
                    if !line.is_empty() && events.send(Event::Line(conn, line)).is_err() {
                        return; // the server is gone
                    }
                }
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(_) => break,
        }
    }
    let _ = events.send(Event::Closed(conn));
}

/// An accepted connection: the blocking socket the serving thread
/// writes to, and the thread reading it. Dropping it shuts the socket
/// down, which ends the reader's blocking read, and joins the reader.
struct Conn {
    stream: TcpStream,
    reader: Option<JoinHandle<()>>,
}

impl Drop for Conn {
    fn drop(&mut self) {
        let _ = self.stream.shutdown(Shutdown::Both);
        if let Some(reader) = self.reader.take() {
            let _ = reader.join();
        }
    }
}

/// The TCP front-end over a [`NetServer`]: the calling thread serves,
/// one reader thread per connection feeds it. Dropping the server closes
/// every connection and joins every reader.
pub struct TcpNetServer {
    conns: HashMap<u64, Conn>,
    listener: TcpListener,
    server: NetServer,
    next_conn: u64,
    sender: Sender<Event>,
    events: Receiver<Event>,
}

impl TcpNetServer {
    /// Bind `addr` (use port 0 to let the OS pick) around `server`. No
    /// thread starts until a connection is accepted.
    pub fn bind(addr: impl ToSocketAddrs, server: NetServer) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let (sender, events) = mpsc::channel();
        Ok(TcpNetServer {
            conns: HashMap::new(),
            listener,
            server,
            next_conn: 0,
            sender,
            events,
        })
    }

    /// The bound address (for port-0 binds).
    pub fn local_addr(&self) -> std::io::Result<std::net::SocketAddr> {
        self.listener.local_addr()
    }

    /// The wrapped protocol server.
    pub fn server(&self) -> &NetServer {
        &self.server
    }

    /// Unwrap (e.g. to recover the service after serving). Open
    /// connections are disconnected first.
    pub fn into_server(mut self) -> NetServer {
        let open: Vec<u64> = self.conns.keys().copied().collect();
        for conn in open {
            self.disconnect(conn);
        }
        self.server
    }

    /// Serve until `stop()` returns true. A request is answered as soon
    /// as its line arrives; the service is pumped between requests while
    /// any session is live, and otherwise the loop blocks on the
    /// readers' channel for at most `IDLE_WAIT` (200 µs).
    pub fn serve_until(&mut self, stop: impl Fn() -> bool) -> std::io::Result<()> {
        let mut accept_at = Instant::now();
        while !stop() {
            let now = Instant::now();
            if now >= accept_at {
                self.accept_pending()?;
                accept_at = now + IDLE_WAIT;
            }
            while let Ok(event) = self.events.try_recv() {
                self.handle(event);
            }
            if !self.server.pump() {
                if let Ok(event) = self.events.recv_timeout(IDLE_WAIT) {
                    self.handle(event);
                }
            }
        }
        Ok(())
    }

    /// Accept every pending connection and start its reader. A
    /// connection whose reader cannot start is dropped again, so the
    /// client sees it close.
    fn accept_pending(&mut self) -> std::io::Result<()> {
        loop {
            let stream = match self.listener.accept() {
                Ok((stream, _)) => stream,
                Err(e) if e.kind() == ErrorKind::WouldBlock => return Ok(()),
                Err(e) => return Err(e),
            };
            stream.set_nodelay(true).ok();
            let conn = self.next_conn;
            self.next_conn += 1;
            let events = self.sender.clone();
            let reader = stream
                .set_nonblocking(false)
                .and_then(|()| stream.try_clone())
                .and_then(|reading| {
                    std::thread::Builder::new()
                        .name(format!("oassis-net-conn-{conn}"))
                        .spawn(move || read_lines(conn, reading, events))
                });
            let Ok(reader) = reader else {
                continue;
            };
            self.server.on_connect(conn);
            self.conns.insert(
                conn,
                Conn {
                    stream,
                    reader: Some(reader),
                },
            );
        }
    }

    /// Answer one request line, or retire a closed connection. Events
    /// of a connection already dropped are ignored (ids are never
    /// reused).
    fn handle(&mut self, event: Event) {
        match event {
            Event::Line(conn, line) => {
                let Some(open) = self.conns.get_mut(&conn) else {
                    return;
                };
                let mut batch = self.server.on_line(conn, &line).join("\n");
                batch.push('\n');
                let written = open.stream.write_all(batch.as_bytes());
                if written.is_err() || line_closes(&line) {
                    self.disconnect(conn);
                }
            }
            Event::Closed(conn) => self.disconnect(conn),
        }
    }

    /// Drop `conn`, telling the protocol exactly once; dropping the
    /// [`Conn`] closes its socket and joins its reader.
    fn disconnect(&mut self, conn: u64) {
        if self.conns.remove(&conn).is_some() {
            self.server.on_disconnect(conn);
        }
    }
}

/// Whether a request line is a `Close` (the server drops the connection
/// after answering it).
fn line_closes(line: &str) -> bool {
    matches!(
        crate::frame::decode_request(line),
        Ok((_, crate::frame::Request::Close))
    )
}
