//! [`NetClient`] — the request/response state machine over any
//! [`Transport`].
//!
//! One request is in flight at a time. The client stamps each request
//! with a connection-scoped sequence number, collects the response batch
//! (frames tagged with that sequence number, deduplicated by frame
//! index), and retransmits the request if the batch does not complete
//! within a polling-step budget — the server's per-connection response
//! cache makes retransmission safe. The machine is *step-driven* so a
//! deterministic harness can interleave it with the simulated network
//! and server; [`call`](NetClient::call) wraps the steps into a blocking
//! convenience for real TCP use.

use std::collections::BTreeMap;
use std::time::Duration;

use crate::frame::{decode_request, decode_response, encode_request, Request, Response};
use crate::transport::{NetError, Transport};

/// Steps without a completed batch before the request is retransmitted.
/// Deliberately small: a step is one poll of the transport, and on the
/// simulated transport a dropped frame should be retried within a few
/// ticks, not wall-clock seconds.
pub const RETRY_AFTER_STEPS: u32 = 24;

/// Retransmissions before the connection is declared dead. Covers frames
/// lost to injected drops; a severed connection fails fast on `send`.
pub const MAX_RETRIES: u32 = 40;

/// The longest [`NetClient::call`] waits on the transport between two
/// steps. A socket transport wakes as soon as bytes arrive.
const STEP_WAIT: Duration = Duration::from_micros(300);

struct Pending {
    seq: u64,
    line: String,
    /// Response frames received so far, keyed by frame index.
    frames: BTreeMap<u64, Response>,
    steps_since_send: u32,
    retries: u32,
}

/// A protocol client over one [`Transport`] connection.
pub struct NetClient<T: Transport> {
    transport: T,
    next_seq: u64,
    pending: Option<Pending>,
}

impl<T: Transport> NetClient<T> {
    /// Wrap an established transport.
    pub fn new(transport: T) -> Self {
        NetClient {
            transport,
            next_seq: 1,
            pending: None,
        }
    }

    /// The underlying transport (e.g. to inspect a simulated endpoint).
    pub fn transport_mut(&mut self) -> &mut T {
        &mut self.transport
    }

    /// Whether a request is awaiting its response batch.
    pub fn is_pending(&self) -> bool {
        self.pending.is_some()
    }

    /// Send `req` and start collecting its response batch. Errors if a
    /// request is already pending ([`step`](Self::step) until it
    /// completes) or the connection is down (reconnect and retry).
    pub fn request(&mut self, req: &Request) -> Result<(), NetError> {
        if self.pending.is_some() {
            return Err(NetError::Protocol("a request is already in flight".into()));
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        let line = encode_request(seq, req);
        self.transport.send(&line)?;
        self.pending = Some(Pending {
            seq,
            line,
            frames: BTreeMap::new(),
            steps_since_send: 0,
            retries: 0,
        });
        Ok(())
    }

    /// Drive the pending request one step: drain arrived frames, check
    /// batch completion, retransmit on timeout. Returns the completed
    /// batch (frames in index order, terminal frame last), or `None`
    /// while still waiting. A `Closed` error means the connection died —
    /// [`reconnect`](Self::reconnect) and re-issue the conversation.
    pub fn step(&mut self) -> Result<Option<Vec<Response>>, NetError> {
        let Some(pending) = self.pending.as_mut() else {
            // Nothing in flight; drain stray deliveries (late duplicates).
            while self.transport.try_recv()?.is_some() {}
            return Ok(None);
        };
        // Drain everything that arrived, remembering (not propagating) a
        // transport death: a server that answers and then closes the
        // connection (`Bye`) delivers the completing frame and EOF in the
        // same step, and the completed batch must win over the error.
        let died = loop {
            match self.transport.try_recv() {
                Ok(Some(line)) => {
                    let Ok((reqseq, idx, resp)) = decode_response(&line) else {
                        // A corrupted frame is indistinguishable from a
                        // lost one: ignore it, retransmission recovers.
                        continue;
                    };
                    if reqseq != pending.seq {
                        continue; // stale frame from a superseded request
                    }
                    pending.frames.entry(idx).or_insert(resp);
                }
                Ok(None) => break None,
                Err(e) => break Some(e),
            }
        };
        // Complete when a terminal frame arrived and every index below it
        // did too (the terminal frame is always the batch's last index).
        let done = pending
            .frames
            .iter()
            .next_back()
            .is_some_and(|(last, resp)| {
                resp.is_terminal() && pending.frames.len() as u64 == last + 1
            });
        if done {
            let pending = self.pending.take().expect("checked above");
            return Ok(Some(pending.frames.into_values().collect()));
        }
        if let Some(e) = died {
            return Err(e);
        }
        pending.steps_since_send += 1;
        if pending.steps_since_send >= RETRY_AFTER_STEPS {
            if pending.retries >= MAX_RETRIES {
                self.pending = None;
                return Err(NetError::Closed(
                    "request retransmission budget exhausted".into(),
                ));
            }
            pending.retries += 1;
            pending.steps_since_send = 0;
            self.transport.send(&pending.line)?;
        }
        Ok(None)
    }

    /// Re-establish the connection after a `Closed` error. Any pending
    /// request is abandoned and the sequence space restarts (the new
    /// connection has fresh server-side state); the caller re-runs its
    /// conversation (`Hello`, then `Resume`/`Submit`-by-token).
    pub fn reconnect(&mut self) -> Result<(), NetError> {
        self.pending = None;
        self.transport.reconnect()?;
        self.next_seq = 1;
        Ok(())
    }

    /// Blocking convenience for real transports: [`request`] then
    /// [`step`] until the batch completes, waiting up to 300 µs on
    /// [`Transport::wait_readable`] between steps, so a step is at most
    /// one wait and a request is retransmitted after
    /// [`RETRY_AFTER_STEPS`] silent waits. Simulation harnesses drive
    /// `step` themselves instead.
    ///
    /// [`request`]: Self::request
    /// [`step`]: Self::step
    pub fn call(&mut self, req: &Request) -> Result<Vec<Response>, NetError> {
        self.request(req)?;
        loop {
            if let Some(batch) = self.step()? {
                return Ok(batch);
            }
            self.transport.wait_readable(STEP_WAIT);
        }
    }

    /// Close the connection.
    pub fn close(&mut self) {
        self.transport.close();
    }
}

/// Sanity helper for tests and the simulated server loop: whether `line`
/// parses as a request frame at all.
pub fn is_request_line(line: &str) -> bool {
    decode_request(line).is_ok()
}
