//! The wire frame codec: one line per frame, versioned and checksummed
//! exactly like the WAL.
//!
//! Request frames (client → server):
//!
//! ```text
//! v1|seq|kind|fields...|checksum
//! ```
//!
//! Response frames (server → client) carry the request's `seq` plus a
//! frame index within the response batch, so a client can reassemble a
//! multi-frame answer (zero or more streamed `Answer`s followed by one
//! terminal frame) and discard duplicates:
//!
//! ```text
//! v1|reqseq|idx|kind|fields...|checksum
//! ```
//!
//! `checksum` is the FNV-1a-64 hex digest of everything before the final
//! separator ([`fnv1a64`] — the same function the WAL uses), free-text
//! fields are percent-escaped with the WAL's [`escape_field`] discipline,
//! and MSP lists use the WAL's [`encode_list`] codec. A frame is either
//! valid in full or rejected; a truncated or corrupted line is never
//! half-parsed.

use oassis_store_durable::{
    decode_list, encode_list, escape_field, fnv1a64, unescape_field, AdmitSpec,
};

/// Protocol version spoken by this build. `Hello`/`Welcome` negotiate it;
/// a mismatch is a hard error (there is exactly one version so far).
pub const PROTOCOL_VERSION: u32 = 1;

const SEP: char = '|';
const VERSION_TAG: &str = "v1";

/// Why a frame failed to parse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FrameError(pub String);

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "bad frame: {}", self.0)
    }
}

impl std::error::Error for FrameError {}

/// A client request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Open the conversation; `version` must match [`PROTOCOL_VERSION`].
    Hello {
        /// The client's protocol version.
        version: u32,
    },
    /// Admit a session. `spec.token` must be set: the server dedupes
    /// retransmitted `Submit`s (same connection, a reconnect, or a
    /// restart after a crash) by it, so a retry can never admit twice.
    Submit {
        /// The session spec in its durable/wire shape.
        spec: AdmitSpec,
    },
    /// Ask for a session's progress: the response streams the MSPs
    /// confirmed since the last poll, then reports status and counters.
    Poll {
        /// The session to poll.
        session: u64,
    },
    /// Re-attach to a session after a server restart (idempotent: a live
    /// or already-resumed id resolves to its current incarnation).
    Resume {
        /// The original session id.
        session: u64,
    },
    /// Request cancellation; takes effect at the session's next
    /// scheduling slot.
    Cancel {
        /// The session to cancel.
        session: u64,
    },
    /// End the conversation.
    Close,
}

/// A session's status on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireStatus {
    /// Still mining.
    Running,
    /// Mined to completion.
    Completed,
    /// Cancelled; the result is partial.
    Cancelled,
    /// Crowd-question budget ran out; the result is partial.
    BudgetExhausted,
}

impl WireStatus {
    /// Whether this status ends the session.
    pub fn is_terminal(self) -> bool {
        !matches!(self, WireStatus::Running)
    }

    fn code(self) -> &'static str {
        match self {
            WireStatus::Running => "R",
            WireStatus::Completed => "C",
            WireStatus::Cancelled => "X",
            WireStatus::BudgetExhausted => "B",
        }
    }

    fn from_code(code: &str) -> Result<Self, String> {
        match code {
            "R" => Ok(WireStatus::Running),
            "C" => Ok(WireStatus::Completed),
            "X" => Ok(WireStatus::Cancelled),
            "B" => Ok(WireStatus::BudgetExhausted),
            other => Err(format!("unknown status {other:?}")),
        }
    }
}

/// A server response frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Answer to `Hello`.
    Welcome {
        /// The server's protocol version.
        version: u32,
        /// Crowd seats behind the service.
        crowd: u64,
    },
    /// Answer to `Submit`: the admitted (or deduplicated) session id.
    Admitted {
        /// The session id to poll.
        session: u64,
    },
    /// Answer to `Resume`: the original id and its current incarnation
    /// (equal when the session needs no re-admission).
    Resumed {
        /// The id the client asked to resume.
        original: u64,
        /// The session id to poll from now on.
        session: u64,
    },
    /// One streamed partial result — an MSP confirmed since the last
    /// poll. Zero or more of these precede the terminal frame of a
    /// `Poll` response. The stream is best-effort (frames lost to a
    /// crash or reconnect are not replayed); the terminal `Update`'s
    /// MSP list is authoritative.
    Answer {
        /// The session that confirmed the MSP.
        session: u64,
        /// Rendered MSP (per the query's SELECT form).
        rendered: String,
        /// Aggregated support estimate, if collected.
        support: Option<f64>,
        /// Whether the MSP is valid w.r.t. the query.
        valid: bool,
    },
    /// Status + counters; terminal frame of `Poll` and `Cancel`
    /// responses. `msps` is the complete sorted valid-MSP list once the
    /// status is terminal (empty while running).
    Update {
        /// The polled session.
        session: u64,
        /// Its status.
        status: WireStatus,
        /// Crowd questions dispatched so far.
        crowd_questions: u64,
        /// Answer-store hits so far.
        store_hits: u64,
        /// Final sorted rendered valid MSPs (terminal status only).
        msps: Vec<String>,
    },
    /// The request failed; the conversation may continue.
    Error {
        /// What went wrong.
        detail: String,
    },
    /// Answer to `Close`.
    Bye,
}

impl Response {
    /// Whether this frame ends a response batch (everything except the
    /// streamed `Answer`s).
    pub fn is_terminal(&self) -> bool {
        !matches!(self, Response::Answer { .. })
    }
}

fn opt_f64(v: &Option<f64>) -> String {
    match v {
        Some(x) => x.to_string(),
        None => "-".to_owned(),
    }
}

fn parse<T: std::str::FromStr>(s: &str, what: &str) -> Result<T, FrameError>
where
    T::Err: std::fmt::Display,
{
    s.parse::<T>()
        .map_err(|e| FrameError(format!("bad {what}: {e}")))
}

fn seal(payload: String) -> String {
    format!("{payload}{SEP}{:016x}", fnv1a64(payload.as_bytes()))
}

/// The fewest fields a frame has: the version tag, a sequence number and
/// a kind (a response's frame index stands where a request's kind does).
const MIN_FIELDS: usize = 3;

/// Split a line into checksum-verified fields (the version tag is
/// `fields[0]`). A line of fewer than [`MIN_FIELDS`] fields is refused
/// here, so both decoders may read `fields[1]` and `fields[2]`.
fn open(line: &str) -> Result<Vec<&str>, FrameError> {
    let (payload, checksum) = line
        .rsplit_once(SEP)
        .ok_or_else(|| FrameError("missing checksum".into()))?;
    let expected =
        u64::from_str_radix(checksum, 16).map_err(|e| FrameError(format!("bad checksum: {e}")))?;
    let actual = fnv1a64(payload.as_bytes());
    if actual != expected {
        return Err(FrameError(format!(
            "checksum mismatch (stored {expected:016x}, computed {actual:016x})"
        )));
    }
    let fields: Vec<&str> = payload.split(SEP).collect();
    if fields.first() != Some(&VERSION_TAG) {
        return Err(FrameError(format!(
            "unsupported frame version {:?}",
            fields.first().copied().unwrap_or("")
        )));
    }
    if fields.len() < MIN_FIELDS {
        return Err(FrameError(format!(
            "expected at least {MIN_FIELDS} fields, got {}",
            fields.len()
        )));
    }
    Ok(fields)
}

fn need(fields: &[&str], n: usize) -> Result<(), FrameError> {
    if fields.len() == n {
        Ok(())
    } else {
        Err(FrameError(format!(
            "expected {n} fields, got {}",
            fields.len()
        )))
    }
}

/// Encode a request frame (no trailing newline).
pub fn encode_request(seq: u64, req: &Request) -> String {
    let body = match req {
        Request::Hello { version } => format!("h{SEP}{version}"),
        Request::Submit { spec } => format!("s{SEP}{}", spec.encode_fields()),
        Request::Poll { session } => format!("p{SEP}{session}"),
        Request::Resume { session } => format!("r{SEP}{session}"),
        Request::Cancel { session } => format!("c{SEP}{session}"),
        Request::Close => "q".to_owned(),
    };
    seal(format!("{VERSION_TAG}{SEP}{seq}{SEP}{body}"))
}

/// Decode a request frame into `(seq, request)`.
pub fn decode_request(line: &str) -> Result<(u64, Request), FrameError> {
    let fields = open(line)?;
    let seq: u64 = parse(fields[1], "sequence number")?;
    let req = match fields.get(2).copied() {
        Some("h") => {
            need(&fields, 4)?;
            Request::Hello {
                version: parse(fields[3], "version")?,
            }
        }
        Some("s") => Request::Submit {
            spec: AdmitSpec::decode_fields(&fields[3..]).map_err(FrameError)?,
        },
        Some("p") => {
            need(&fields, 4)?;
            Request::Poll {
                session: parse(fields[3], "session id")?,
            }
        }
        Some("r") => {
            need(&fields, 4)?;
            Request::Resume {
                session: parse(fields[3], "session id")?,
            }
        }
        Some("c") => {
            need(&fields, 4)?;
            Request::Cancel {
                session: parse(fields[3], "session id")?,
            }
        }
        Some("q") => {
            need(&fields, 3)?;
            Request::Close
        }
        other => return Err(FrameError(format!("unknown request kind {other:?}"))),
    };
    Ok((seq, req))
}

/// Encode a response frame for request `reqseq`, position `idx` in its
/// batch (no trailing newline).
pub fn encode_response(reqseq: u64, idx: u64, resp: &Response) -> String {
    let body = match resp {
        Response::Welcome { version, crowd } => format!("W{SEP}{version}{SEP}{crowd}"),
        Response::Admitted { session } => format!("A{SEP}{session}"),
        Response::Resumed { original, session } => format!("R{SEP}{original}{SEP}{session}"),
        Response::Answer {
            session,
            rendered,
            support,
            valid,
        } => format!(
            "M{SEP}{session}{SEP}{}{SEP}{}{SEP}{}",
            opt_f64(support),
            u8::from(*valid),
            escape_field(rendered)
        ),
        Response::Update {
            session,
            status,
            crowd_questions,
            store_hits,
            msps,
        } => format!(
            "U{SEP}{session}{SEP}{}{SEP}{crowd_questions}{SEP}{store_hits}{SEP}{}",
            status.code(),
            encode_list(msps)
        ),
        Response::Error { detail } => format!("E{SEP}{}", escape_field(detail)),
        Response::Bye => "B".to_owned(),
    };
    seal(format!("{VERSION_TAG}{SEP}{reqseq}{SEP}{idx}{SEP}{body}"))
}

/// Decode a response frame into `(reqseq, idx, response)`.
pub fn decode_response(line: &str) -> Result<(u64, u64, Response), FrameError> {
    let fields = open(line)?;
    let reqseq: u64 = parse(fields[1], "request sequence number")?;
    let idx: u64 = parse(fields[2], "frame index")?;
    let resp = match fields.get(3).copied() {
        Some("W") => {
            need(&fields, 6)?;
            Response::Welcome {
                version: parse(fields[4], "version")?,
                crowd: parse(fields[5], "crowd size")?,
            }
        }
        Some("A") => {
            need(&fields, 5)?;
            Response::Admitted {
                session: parse(fields[4], "session id")?,
            }
        }
        Some("R") => {
            need(&fields, 6)?;
            Response::Resumed {
                original: parse(fields[4], "original id")?,
                session: parse(fields[5], "session id")?,
            }
        }
        Some("M") => {
            need(&fields, 8)?;
            Response::Answer {
                session: parse(fields[4], "session id")?,
                support: match fields[5] {
                    "-" => None,
                    s => Some(parse(s, "support")?),
                },
                valid: parse::<u8>(fields[6], "valid flag")? != 0,
                rendered: unescape_field(fields[7]).map_err(FrameError)?,
            }
        }
        Some("U") => {
            need(&fields, 9)?;
            Response::Update {
                session: parse(fields[4], "session id")?,
                status: WireStatus::from_code(fields[5]).map_err(FrameError)?,
                crowd_questions: parse(fields[6], "crowd questions")?,
                store_hits: parse(fields[7], "store hits")?,
                msps: decode_list(fields[8]).map_err(FrameError)?,
            }
        }
        Some("E") => {
            need(&fields, 5)?;
            Response::Error {
                detail: unescape_field(fields[4]).map_err(FrameError)?,
            }
        }
        Some("B") => {
            need(&fields, 4)?;
            Response::Bye
        }
        other => return Err(FrameError(format!("unknown response kind {other:?}"))),
    };
    Ok((reqseq, idx, resp))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_spec() -> AdmitSpec {
        AdmitSpec {
            query: "SELECT FACT-SETS WHERE $x | piped\nand multiline".into(),
            threshold: Some(0.4),
            roster: Some(vec![0, 2]),
            priority: 1,
            budget: Some(9),
            seed: 7,
            aggregator_sample: 4,
            specialization_ratio: 0.0,
            pruning_ratio: 0.0,
            max_questions: 5000,
            top_k: None,
            token: Some(0xBEEF),
        }
    }

    #[test]
    fn requests_roundtrip() {
        let requests = [
            Request::Hello {
                version: PROTOCOL_VERSION,
            },
            Request::Submit {
                spec: sample_spec(),
            },
            Request::Poll { session: 3 },
            Request::Resume { session: 0 },
            Request::Cancel { session: 12 },
            Request::Close,
        ];
        for (i, req) in requests.iter().enumerate() {
            let line = encode_request(i as u64, req);
            assert!(!line.contains('\n'), "one frame = one line: {line:?}");
            let (seq, back) = decode_request(&line).expect("roundtrip");
            assert_eq!(seq, i as u64);
            assert_eq!(&back, req);
        }
    }

    #[test]
    fn responses_roundtrip() {
        let responses = [
            Response::Welcome {
                version: 1,
                crowd: 6,
            },
            Response::Admitted { session: 4 },
            Response::Resumed {
                original: 1,
                session: 5,
            },
            Response::Answer {
                session: 4,
                rendered: "{Biking doAt Central Park} | odd ; text".into(),
                support: Some(0.5),
                valid: true,
            },
            Response::Answer {
                session: 4,
                rendered: "x".into(),
                support: None,
                valid: false,
            },
            Response::Update {
                session: 4,
                status: WireStatus::Completed,
                crowd_questions: 17,
                store_hits: 2,
                msps: vec!["{a}".into(), "b;c|d".into()],
            },
            Response::Update {
                session: 4,
                status: WireStatus::Running,
                crowd_questions: 3,
                store_hits: 0,
                msps: Vec::new(),
            },
            Response::Error {
                detail: "session 9 is not resumable".into(),
            },
            Response::Bye,
        ];
        for (i, resp) in responses.iter().enumerate() {
            let line = encode_response(7, i as u64, resp);
            assert!(!line.contains('\n'), "one frame = one line: {line:?}");
            let (reqseq, idx, back) = decode_response(&line).expect("roundtrip");
            assert_eq!(reqseq, 7);
            assert_eq!(idx, i as u64);
            assert_eq!(&back, resp);
        }
    }

    #[test]
    fn corruption_is_detected() {
        let line = encode_request(1, &Request::Poll { session: 3 });
        let mut bytes = line.clone().into_bytes();
        bytes[3] = if bytes[3] == b'1' { b'2' } else { b'1' };
        let tampered = String::from_utf8(bytes).unwrap();
        assert!(decode_request(&tampered).is_err());
        assert!(decode_request(&line[..line.len() - 4]).is_err());
        assert!(decode_request("").is_err());
        // A response frame is not a request frame and vice versa.
        let resp = encode_response(1, 0, &Response::Bye);
        assert!(decode_request(&resp).is_err());
    }

    #[test]
    fn version_tag_is_enforced() {
        let line = encode_request(1, &Request::Close);
        let retagged = seal(format!("v2{}", &line.rsplit_once(SEP).unwrap().0[2..]));
        assert!(decode_request(&retagged).unwrap_err().0.contains("version"));
    }
}
