//! [`NetServer`] — the protocol state machine that multiplexes client
//! connections onto one [`OassisService`].
//!
//! The server is transport-agnostic: a driver (the blocking TCP loop in
//! [`tcp`](crate::tcp), or a deterministic simulation harness over
//! [`SimNet`](crate::SimNet)) feeds it connection events and request
//! lines, writes back the response lines it returns, and calls
//! [`pump`](NetServer::pump) between reads so admitted sessions keep
//! mining.
//!
//! ## At-least-once requests, exactly-once effects
//!
//! The transport may deliver a request zero, one, or many times, so every
//! effectful request carries an idempotency handle and the server keeps
//! just enough state to collapse retries:
//!
//! * **per-connection sequence cache** — a client sends `seq` 1, 2, 3…
//!   and never advances until a batch completes, so the server caches the
//!   response batch of the *latest* processed `seq` and resends it
//!   verbatim when the same `seq` arrives again (a retransmit after a
//!   lost response);
//! * **`Submit` tokens** — a client-chosen `u64` stored in the durable
//!   `Admit` record; a `Submit` retried on a fresh connection (or against
//!   a restarted server) maps back to the already-admitted session
//!   instead of admitting twice;
//! * **`Resume` by id** — idempotent in the service itself
//!   ([`OassisService::resume_by_id`]): any id of a resumption chain
//!   resolves to the chain's last link, which is answered as it stands
//!   when live or closed (a session that closed *before* a crash from its
//!   durable `Close` record, without re-mining) and re-admitted when a
//!   crash interrupted it.
//!
//! Each handler makes one lifecycle call on the service and matches on
//! its answer: `Submit` resumes the token's session or admits a new one,
//! `Resume` calls `resume_by_id`, and every `Update` is read from
//! [`OassisService::state`].
//!
//! Kill the process after any request and replay the client's retry
//! against a recovered server: the observable outcome is the same — the
//! protocol crash oracle in `oassis-simtest` sweeps exactly this.

use std::collections::HashMap;

use oassis_core::{OassisService, SessionId, SessionSpec, SessionState, SessionStatus};
use oassis_store_durable::AdmitSpec;

use crate::frame::{
    decode_request, encode_response, Request, Response, WireStatus, PROTOCOL_VERSION,
};

/// Per-connection protocol state.
struct ConnState {
    /// The next request sequence number this connection should send.
    expected_seq: u64,
    /// The last processed request's sequence number and encoded response
    /// batch, replayed verbatim on retransmission.
    cached: Option<(u64, Vec<String>)>,
}

fn wire_status(status: SessionStatus) -> WireStatus {
    match status {
        SessionStatus::Completed => WireStatus::Completed,
        SessionStatus::Cancelled => WireStatus::Cancelled,
        SessionStatus::BudgetExhausted => WireStatus::BudgetExhausted,
    }
}

/// The protocol front-end over one [`OassisService`].
pub struct NetServer {
    service: OassisService,
    conns: HashMap<u64, ConnState>,
    events: u64,
}

impl NetServer {
    /// Wrap a service (typically started with persistence, so the
    /// protocol's crash story holds).
    pub fn new(service: OassisService) -> Self {
        NetServer {
            service,
            conns: HashMap::new(),
            events: 0,
        }
    }

    /// The wrapped service.
    pub fn service(&self) -> &OassisService {
        &self.service
    }

    /// Mutable access to the wrapped service (e.g. to tune wave size).
    pub fn service_mut(&mut self) -> &mut OassisService {
        &mut self.service
    }

    /// Unwrap the service (e.g. to shut down cleanly).
    pub fn into_service(self) -> OassisService {
        self.service
    }

    /// Request frames processed so far (retransmissions answered from the
    /// sequence cache excluded) — the protocol-event clock the crash
    /// oracle kills at.
    pub fn events_processed(&self) -> u64 {
        self.events
    }

    /// A client connected.
    pub fn on_connect(&mut self, conn: u64) {
        self.conns.insert(
            conn,
            ConnState {
                expected_seq: 1,
                cached: None,
            },
        );
    }

    /// A client's connection died; its protocol state is dropped (the
    /// client starts a fresh sequence space when it reconnects).
    pub fn on_disconnect(&mut self, conn: u64) {
        self.conns.remove(&conn);
    }

    /// Drive one service scheduling cycle; returns whether any session is
    /// still live. Call between protocol reads so sessions keep mining
    /// while clients are quiet.
    pub fn pump(&mut self) -> bool {
        self.service.run_cycle()
    }

    /// Handle one request line from `conn`, returning the encoded
    /// response lines to send back (in order).
    pub fn on_line(&mut self, conn: u64, line: &str) -> Vec<String> {
        let state = self.conns.entry(conn).or_insert(ConnState {
            expected_seq: 1,
            cached: None,
        });
        let (seq, req) = match decode_request(line) {
            Ok(parsed) => parsed,
            Err(e) => {
                // Unparseable frames get a best-effort error tied to no
                // sequence; the client ignores it and retransmits.
                return vec![encode_response(0, 0, &Response::Error { detail: e.0 })];
            }
        };
        if let Some((cached_seq, batch)) = &state.cached {
            if seq == *cached_seq {
                return batch.clone(); // retransmission: replay verbatim
            }
        }
        if seq != state.expected_seq {
            return vec![encode_response(
                seq,
                0,
                &Response::Error {
                    detail: format!(
                        "out-of-order request (seq {seq}, expected {})",
                        state.expected_seq
                    ),
                },
            )];
        }
        self.events += 1;
        let responses = self.handle(&req);
        let batch: Vec<String> = responses
            .iter()
            .enumerate()
            .map(|(idx, resp)| encode_response(seq, idx as u64, resp))
            .collect();
        let state = self.conns.get_mut(&conn).expect("inserted above");
        state.expected_seq = seq + 1;
        state.cached = Some((seq, batch.clone()));
        batch
    }

    fn handle(&mut self, req: &Request) -> Vec<Response> {
        match req {
            Request::Hello { version } => {
                if *version != PROTOCOL_VERSION {
                    return vec![Response::Error {
                        detail: format!(
                            "protocol version {version} not supported (server speaks \
                             {PROTOCOL_VERSION})"
                        ),
                    }];
                }
                vec![Response::Welcome {
                    version: PROTOCOL_VERSION,
                    crowd: self.service.crowd_len() as u64,
                }]
            }
            Request::Submit { spec } => self.handle_submit(spec.clone()),
            Request::Poll { session } => self.handle_poll(*session),
            Request::Resume { session } => self.handle_resume(*session),
            Request::Cancel { session } => {
                self.service.cancel(SessionId(*session));
                vec![self.status_update(*session)]
            }
            Request::Close => vec![Response::Bye],
        }
    }

    fn handle_submit(&mut self, spec: AdmitSpec) -> Vec<Response> {
        let Some(token) = spec.token else {
            return vec![Response::Error {
                detail: "Submit requires an idempotency token".into(),
            }];
        };
        // Token dedup: a retried Submit (new connection, or a restarted
        // server replaying its log) resolves to the admission it already
        // paid for — resumed first if the crash interrupted it.
        let admitted = match self.service.session_for_token(token) {
            Some(id) => self.service.resume_by_id(id),
            None => self
                .service
                .submit_with_token(SessionSpec::from_admit(spec), token),
        };
        match admitted {
            Ok(id) => vec![Response::Admitted { session: id.0 }],
            Err(e) => vec![Response::Error {
                detail: e.to_string(),
            }],
        }
    }

    fn handle_resume(&mut self, session: u64) -> Vec<Response> {
        match self.service.resume_by_id(SessionId(session)) {
            Ok(resumed) => vec![Response::Resumed {
                original: session,
                session: resumed.0,
            }],
            Err(e) => vec![Response::Error {
                detail: e.to_string(),
            }],
        }
    }

    fn handle_poll(&mut self, session: u64) -> Vec<Response> {
        let id = SessionId(session);
        let mut responses: Vec<Response> = self
            .service
            .take_partials(id)
            .into_iter()
            .map(|a| Response::Answer {
                session,
                rendered: a.rendered,
                support: a.support,
                valid: a.valid,
            })
            .collect();
        responses.push(self.status_update(session));
        responses
    }

    /// The `Update` for `session`, answered from the [`state`] of its
    /// resumption chain: the live slot's progress, or the closed outcome
    /// (recorded at close, or recovered from the pre-crash `Close`
    /// record). A finished slot's report is dropped here: its outcome is
    /// already recorded.
    ///
    /// [`state`]: OassisService::state
    fn status_update(&mut self, session: u64) -> Response {
        match self.service.state(SessionId(session)) {
            SessionState::Running {
                crowd_questions,
                store_hits,
                ..
            } => Response::Update {
                session,
                status: WireStatus::Running,
                crowd_questions: crowd_questions as u64,
                store_hits: store_hits as u64,
                msps: Vec::new(),
            },
            SessionState::Closed { id, outcome } => {
                let update = Response::Update {
                    session,
                    status: wire_status(outcome.status),
                    crowd_questions: outcome.crowd_questions as u64,
                    store_hits: outcome.store_hits as u64,
                    msps: outcome.msps.clone(),
                };
                self.service.take_report(id);
                update
            }
            SessionState::Interrupted { .. } => Response::Error {
                detail: format!("session {session} awaits Resume after a restart"),
            },
            SessionState::Unknown => Response::Error {
                detail: format!("unknown session {session}"),
            },
        }
    }
}
