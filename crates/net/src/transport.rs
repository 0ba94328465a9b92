//! The client-side transport abstraction: a bidirectional, line-oriented,
//! *unreliable* channel. Everything above it ([`NetClient`]) assumes
//! lines can be lost, duplicated, delayed or reordered, and that the
//! connection can die at any moment — the [`TcpTransport`] only loses
//! lines when the connection dies, while the deterministic
//! [`SimTransport`] injects every fault on purpose.
//!
//! [`NetClient`]: crate::NetClient
//! [`TcpTransport`]: crate::TcpTransport
//! [`SimTransport`]: crate::SimTransport

use std::time::Duration;

/// Why a transport operation failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetError {
    /// The connection is gone (severed, or the peer died). Call
    /// [`Transport::reconnect`] and replay the conversation state.
    Closed(String),
    /// The peer violated the protocol (bad frame, bad sequence).
    Protocol(String),
    /// Transport-level I/O failed in a way reconnecting won't fix.
    Io(String),
}

impl std::fmt::Display for NetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetError::Closed(d) => write!(f, "connection closed: {d}"),
            NetError::Protocol(d) => write!(f, "protocol error: {d}"),
            NetError::Io(d) => write!(f, "i/o error: {d}"),
        }
    }
}

impl std::error::Error for NetError {}

/// One client connection to an OASSIS server. [`try_recv`](Self::try_recv)
/// never blocks: it returns `Ok(None)` when no line has arrived yet. A
/// step-driven harness polls it; a blocking caller waits between polls
/// with [`wait_readable`](Self::wait_readable), which a socket transport
/// ends as soon as bytes arrive.
pub trait Transport {
    /// Send one frame line (no trailing newline). The line may still be
    /// lost in flight — delivery is confirmed only by a response.
    fn send(&mut self, line: &str) -> Result<(), NetError>;

    /// Receive the next available frame line, if any.
    fn try_recv(&mut self) -> Result<Option<String>, NetError>;

    /// Tear down the current connection (if any) and establish a fresh
    /// one to the same server. Connection-scoped protocol state (sequence
    /// numbers, the server's response cache) starts over.
    fn reconnect(&mut self) -> Result<(), NetError>;

    /// Close the connection.
    fn close(&mut self);

    /// Wait until a line may have arrived, for at most `max`. Returning
    /// early is always allowed; the caller polls again either way. The
    /// default sleeps for `max`.
    fn wait_readable(&mut self, max: Duration) {
        std::thread::sleep(max);
    }
}
