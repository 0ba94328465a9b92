//! # oassis-net — the networked session front-end
//!
//! A dependency-free, line-framed request/response protocol that exposes
//! an [`OassisService`](oassis_core::OassisService) (the layer-4 session
//! scheduler, typically backed by the durable store) to remote clients:
//!
//! ```text
//!   client ──"v1|seq|kind|fields…|checksum"──▶ server
//!   client ◀─"v1|seq|idx|kind|fields…|checksum"── server   (a batch)
//! ```
//!
//! Requests are `Hello`, `Submit` (a full [`AdmitSpec`] — the same
//! 13-field encoding the write-ahead log uses), `Poll`, `Resume`,
//! `Cancel` and `Close`; responses stream partial answers (`Answer`
//! frames) ahead of an authoritative terminal `Update` carrying the
//! session's valid-MSP set. Every frame is versioned and checksummed
//! with the same FNV-1a-64 the WAL uses, so a corrupted line is detected
//! and recovered by retransmission rather than misparsed.
//!
//! The crate splits along a [`Transport`] seam:
//!
//! * [`frame`] — the codec (pure functions, no I/O);
//! * [`client`] — [`NetClient`], a step-driven request state machine with
//!   retransmission and batch reassembly;
//! * [`server`] — [`NetServer`], the transport-agnostic protocol state
//!   machine multiplexing connections onto one service, with the
//!   idempotency machinery (sequence cache, `Submit` tokens, `Resume`)
//!   that makes at-least-once delivery produce exactly-once effects;
//! * [`tcp`] — the real thing over `std::net`: [`TcpTransport`], which
//!   blocks on its socket between polls, and [`TcpNetServer`], where one
//!   reader thread per connection frames request lines into a channel
//!   and the calling thread answers them and pumps the service, blocking
//!   on the channel when no session is live;
//! * [`sim`] — [`SimNet`]/[`SimTransport`], a deterministic in-memory
//!   network with seeded drop/duplicate/delay/sever injection and a
//!   kill-the-server switch, driving the protocol crash oracle in
//!   `oassis-simtest`.
//!
//! [`AdmitSpec`]: oassis_store_durable::AdmitSpec

pub mod client;
pub mod frame;
pub mod server;
pub mod sim;
pub mod tcp;
pub mod transport;

pub use client::{is_request_line, NetClient, MAX_RETRIES, RETRY_AFTER_STEPS};
pub use frame::{
    decode_request, decode_response, encode_request, encode_response, FrameError, Request,
    Response, WireStatus, PROTOCOL_VERSION,
};
pub use server::NetServer;
pub use sim::{FaultConfig, SimNet, SimTransport};
pub use tcp::{TcpNetServer, TcpTransport};
pub use transport::{NetError, Transport};
