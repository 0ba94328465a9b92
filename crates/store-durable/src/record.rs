//! The write-ahead-log record: one line per durable state change.
//!
//! Wire format (version 1): `seq|kind|fields...|checksum` where
//! `checksum` is the FNV-1a-64 hash (hex) of everything before the final
//! separator. Fields that may contain the separator (only the query
//! source) are percent-escaped. Fact-sets are encoded as `s,r,o;s,r,o`
//! (`-` for the empty set); ids are the raw vocabulary-interned
//! integers, so a log is only meaningful against the same ontology
//! build. These records are the only encoding of crowd answers.

use oassis_vocab::{ElementId, Fact, FactSet, RelationId};

use crate::DurableError;

/// The field separator within one record line.
const SEP: char = '|';

/// FNV-1a 64-bit: tiny, dependency-free, and plenty for torn-write and
/// bit-rot *detection* (this is not a cryptographic integrity claim).
/// Public so other line-framed formats (the `oassis-net` wire protocol)
/// can checksum exactly like the WAL.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Escape a free-text field so it cannot contain the separator or a
/// newline: `%` → `%25`, `|` → `%7C`, LF → `%0A`, CR → `%0D`. Shared with
/// the `oassis-net` frame codec, which uses the same line discipline.
pub fn escape_field(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '%' => out.push_str("%25"),
            '|' => out.push_str("%7C"),
            '\n' => out.push_str("%0A"),
            '\r' => out.push_str("%0D"),
            c => out.push(c),
        }
    }
    out
}

/// Invert [`escape_field`]. Errors on an unknown escape sequence.
pub fn unescape_field(s: &str) -> Result<String, String> {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c != '%' {
            out.push(c);
            continue;
        }
        let hex: String = chars.by_ref().take(2).collect();
        match hex.as_str() {
            "25" => out.push('%'),
            "7C" => out.push('|'),
            "0A" => out.push('\n'),
            "0D" => out.push('\r'),
            // Only `encode_list` writes it: a lone `-` item, which would
            // otherwise read as the empty list.
            "2D" => out.push('-'),
            other => return Err(format!("bad escape %{other}")),
        }
    }
    Ok(out)
}

/// The engine-facing shape of a session admission: everything needed to
/// re-admit the session after a restart. Only the scalar subset of the
/// engine config is durable; runtime-only fields (sink, clock, curve
/// tracking) are re-supplied by the recovering caller.
#[derive(Debug, Clone, PartialEq)]
pub struct AdmitSpec {
    /// OASSIS-QL source text.
    pub query: String,
    /// Support-threshold override (`None` = the query's own value).
    pub threshold: Option<f64>,
    /// Pool seat indices (`None` = the whole crowd).
    pub roster: Option<Vec<usize>>,
    /// Scheduling priority.
    pub priority: u8,
    /// Crowd-question budget at admission.
    pub budget: Option<u64>,
    /// Engine RNG seed.
    pub seed: u64,
    /// Aggregator sample size.
    pub aggregator_sample: usize,
    /// Specialization-question probability.
    pub specialization_ratio: f64,
    /// Pruning-interaction probability.
    pub pruning_ratio: f64,
    /// Safety cap on total questions.
    pub max_questions: usize,
    /// Early-exit after this many valid MSPs.
    pub top_k: Option<usize>,
    /// Client-chosen idempotency token (the `oassis-net` front-end dedupes
    /// retransmitted `Submit`s by it, across crashes). `None` for
    /// admissions made in-process.
    pub token: Option<u64>,
}

/// How a closed session ended (the durable mirror of the service's
/// `SessionStatus`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CloseStatus {
    /// Mined to completion.
    Completed,
    /// Cancelled with a partial result.
    Cancelled,
    /// Crowd-question budget ran out.
    BudgetExhausted,
}

impl CloseStatus {
    fn code(self) -> &'static str {
        match self {
            CloseStatus::Completed => "C",
            CloseStatus::Cancelled => "X",
            CloseStatus::BudgetExhausted => "B",
        }
    }

    fn from_code(code: &str) -> Result<Self, String> {
        match code {
            "C" => Ok(CloseStatus::Completed),
            "X" => Ok(CloseStatus::Cancelled),
            "B" => Ok(CloseStatus::BudgetExhausted),
            other => Err(format!("unknown close status {other:?}")),
        }
    }
}

/// One durable state change.
#[derive(Debug, Clone, PartialEq)]
pub enum WalRecord {
    /// A committed concrete crowd answer: `(fact-set, member) → support`.
    /// `session` attributes the paying session when the answer came
    /// through a live dispatch (`None` for answers merged at session
    /// close or imported from elsewhere).
    Answer {
        /// Paying session id, if attributable.
        session: Option<u64>,
        /// Raw member id (`MemberId.0`).
        member: u32,
        /// The member's support value.
        support: f64,
        /// The fact-set asked about.
        factset: FactSet,
    },
    /// A session was admitted (or re-admitted after recovery, in which
    /// case `resumes` names the interrupted original it supersedes).
    Admit {
        /// Service-assigned session id.
        session: u64,
        /// The id of the interrupted session this admission resumes.
        resumes: Option<u64>,
        /// Everything needed to re-admit.
        spec: AdmitSpec,
    },
    /// Budget spend watermark: `spent` crowd questions dispatched so far
    /// by a budgeted session (recovery resumes with `budget - spent`).
    Budget {
        /// The spending session.
        session: u64,
        /// Dispatches so far, including any still in flight.
        spent: u64,
    },
    /// A session reached an end state; it no longer needs recovery.
    Close {
        /// The closed session.
        session: u64,
        /// How it ended.
        status: CloseStatus,
        /// Total crowd dispatches it paid for.
        crowd_questions: u64,
        /// The session's final rendered valid MSPs, so a client resuming a
        /// session that closed just before a crash can be answered from the
        /// log without re-mining.
        msps: Vec<String>,
    },
}

fn encode_factset(fs: &FactSet) -> String {
    if fs.is_empty() {
        return "-".to_owned();
    }
    fs.iter()
        .map(|f| format!("{},{},{}", f.subject.0, f.relation.0, f.object.0))
        .collect::<Vec<_>>()
        .join(";")
}

fn decode_factset(s: &str) -> Result<FactSet, String> {
    if s == "-" {
        return Ok(FactSet::new());
    }
    let mut facts = Vec::new();
    for triple in s.split(';') {
        let ids: Vec<&str> = triple.split(',').collect();
        let [s, r, o] = ids.as_slice() else {
            return Err(format!("bad fact {triple:?}"));
        };
        let parse = |x: &str| x.parse::<u32>().map_err(|e| e.to_string());
        facts.push(Fact::new(
            ElementId(parse(s)?),
            RelationId(parse(r)?),
            ElementId(parse(o)?),
        ));
    }
    Ok(FactSet::from_facts(facts))
}

fn opt<T: std::fmt::Display>(v: &Option<T>) -> String {
    match v {
        Some(x) => x.to_string(),
        None => "-".to_owned(),
    }
}

fn parse_opt<T: std::str::FromStr>(s: &str, what: &str) -> Result<Option<T>, String>
where
    T::Err: std::fmt::Display,
{
    if s == "-" {
        return Ok(None);
    }
    s.parse::<T>()
        .map(Some)
        .map_err(|e| format!("bad {what}: {e}"))
}

fn parse<T: std::str::FromStr>(s: &str, what: &str) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    s.parse::<T>().map_err(|e| format!("bad {what}: {e}"))
}

/// Encode a list of free-text items into one field: each item is
/// [`escape_field`]-escaped (which removes every literal `%`), then `;`
/// — the item separator — is escaped as `%3B`. `-` encodes the empty
/// list, mirroring the other optional fields, so a list of the one item
/// `-` is written `%2D`.
pub fn encode_list(items: &[String]) -> String {
    match items {
        [] => return "-".to_owned(),
        [only] if only == "-" => return "%2D".to_owned(),
        _ => {}
    }
    items
        .iter()
        .map(|s| escape_field(s).replace(';', "%3B"))
        .collect::<Vec<_>>()
        .join(";")
}

/// Invert [`encode_list`].
pub fn decode_list(s: &str) -> Result<Vec<String>, String> {
    if s == "-" {
        return Ok(Vec::new());
    }
    s.split(';')
        .map(|item| unescape_field(&item.replace("%3B", ";")))
        .collect()
}

fn encode_roster(roster: &Option<Vec<usize>>) -> String {
    match roster {
        None => "-".to_owned(),
        Some(seats) if seats.is_empty() => "e".to_owned(),
        Some(seats) => seats
            .iter()
            .map(usize::to_string)
            .collect::<Vec<_>>()
            .join(","),
    }
}

fn decode_roster(s: &str) -> Result<Option<Vec<usize>>, String> {
    match s {
        "-" => Ok(None),
        "e" => Ok(Some(Vec::new())),
        list => list
            .split(',')
            .map(|x| x.parse::<usize>().map_err(|e| format!("bad roster: {e}")))
            .collect::<Result<Vec<_>, _>>()
            .map(Some),
    }
}

/// Number of `|`-separated fields [`AdmitSpec::encode_fields`] emits.
pub const ADMIT_SPEC_FIELDS: usize = 12;

impl AdmitSpec {
    /// Encode as [`ADMIT_SPEC_FIELDS`] `|`-separated fields — the layout
    /// the `Admit` WAL record embeds, shared with the `oassis-net`
    /// `Submit` frame so the wire and the log agree on the spec codec.
    pub fn encode_fields(&self) -> String {
        format!(
            "{}{SEP}{}{SEP}{}{SEP}{}{SEP}{}{SEP}{}{SEP}{}{SEP}{}{SEP}{}{SEP}{}{SEP}{}{SEP}{}",
            self.priority,
            opt(&self.budget),
            opt(&self.threshold),
            self.seed,
            self.aggregator_sample,
            self.specialization_ratio,
            self.pruning_ratio,
            self.max_questions,
            opt(&self.top_k),
            opt(&self.token),
            encode_roster(&self.roster),
            escape_field(&self.query)
        )
    }

    /// Invert [`encode_fields`](Self::encode_fields). `fields` holds
    /// [`ADMIT_SPEC_FIELDS`] entries, or one more in the legacy layout,
    /// whose tenth field was a `0`/`1` index-layer flag: that flag must
    /// parse as a number and is dropped. Every log and `Submit` frame
    /// written before the flag went out still decodes; neither format
    /// records its spec layout, so the field count tells them apart.
    pub fn decode_fields(fields: &[&str]) -> Result<AdmitSpec, String> {
        let fields: Vec<&str> = match fields.len() {
            ADMIT_SPEC_FIELDS => fields.to_vec(),
            LEGACY_ADMIT_SPEC_FIELDS => {
                parse::<u8>(fields[9], "legacy index flag")?;
                [&fields[..9], &fields[10..]].concat()
            }
            n => return Err(format!("expected {ADMIT_SPEC_FIELDS} spec fields, got {n}")),
        };
        Ok(AdmitSpec {
            priority: parse(fields[0], "priority")?,
            budget: parse_opt(fields[1], "budget")?,
            threshold: parse_opt(fields[2], "threshold")?,
            seed: parse(fields[3], "seed")?,
            aggregator_sample: parse(fields[4], "aggregator sample")?,
            specialization_ratio: parse(fields[5], "specialization ratio")?,
            pruning_ratio: parse(fields[6], "pruning ratio")?,
            max_questions: parse(fields[7], "max questions")?,
            top_k: parse_opt(fields[8], "top-k")?,
            token: parse_opt(fields[9], "token")?,
            roster: decode_roster(fields[10])?,
            query: unescape_field(fields[11])?,
        })
    }
}

/// The spec layout logs and `Submit` frames carried before the index-layer
/// flag was dropped: [`ADMIT_SPEC_FIELDS`] plus that flag.
const LEGACY_ADMIT_SPEC_FIELDS: usize = ADMIT_SPEC_FIELDS + 1;

impl WalRecord {
    /// The record's kind tag — also the `wal.append` counter label.
    pub fn kind(&self) -> &'static str {
        match self {
            WalRecord::Answer { .. } => "answer",
            WalRecord::Admit { .. } => "admit",
            WalRecord::Budget { .. } => "budget",
            WalRecord::Close { .. } => "close",
        }
    }

    /// Encode as one checksummed log line (no trailing newline).
    pub fn encode(&self, seq: u64) -> String {
        let body = match self {
            WalRecord::Answer {
                session,
                member,
                support,
                factset,
            } => format!(
                "a{SEP}{}{SEP}{member}{SEP}{support}{SEP}{}",
                opt(session),
                encode_factset(factset)
            ),
            WalRecord::Admit {
                session,
                resumes,
                spec,
            } => format!(
                "s{SEP}{session}{SEP}{}{SEP}{}",
                opt(resumes),
                spec.encode_fields()
            ),
            WalRecord::Budget { session, spent } => format!("b{SEP}{session}{SEP}{spent}"),
            WalRecord::Close {
                session,
                status,
                crowd_questions,
                msps,
            } => format!(
                "c{SEP}{session}{SEP}{}{SEP}{crowd_questions}{SEP}{}",
                status.code(),
                encode_list(msps)
            ),
        };
        let payload = format!("{seq}{SEP}{body}");
        format!("{payload}{SEP}{:016x}", fnv1a64(payload.as_bytes()))
    }

    /// Decode one log line, verifying its checksum. Returns the sequence
    /// number and the record; the error is a plain reason string (callers
    /// wrap it with file/line context).
    pub fn decode(line: &str) -> Result<(u64, WalRecord), String> {
        let (payload, checksum) = line
            .rsplit_once(SEP)
            .ok_or_else(|| "missing checksum".to_owned())?;
        let expected = u64::from_str_radix(checksum, 16).map_err(|e| format!("bad checksum: {e}"))?;
        let actual = fnv1a64(payload.as_bytes());
        if actual != expected {
            return Err(format!(
                "checksum mismatch (stored {expected:016x}, computed {actual:016x})"
            ));
        }
        let fields: Vec<&str> = payload.split(SEP).collect();
        let need = |n: usize| -> Result<(), String> {
            if fields.len() == n {
                Ok(())
            } else {
                Err(format!("expected {n} fields, got {}", fields.len()))
            }
        };
        let seq: u64 = parse(fields[0], "sequence number")?;
        let record = match fields.get(1).copied() {
            Some("a") => {
                need(6)?;
                WalRecord::Answer {
                    session: parse_opt(fields[2], "session id")?,
                    member: parse(fields[3], "member id")?,
                    support: parse(fields[4], "support")?,
                    factset: decode_factset(fields[5])?,
                }
            }
            Some("s") => {
                let spec = AdmitSpec::decode_fields(fields.get(4..).unwrap_or_default())?;
                WalRecord::Admit {
                    session: parse(fields[2], "session id")?,
                    resumes: parse_opt(fields[3], "resumed id")?,
                    spec,
                }
            }
            Some("b") => {
                need(4)?;
                WalRecord::Budget {
                    session: parse(fields[2], "session id")?,
                    spent: parse(fields[3], "spent")?,
                }
            }
            Some("c") => {
                need(6)?;
                WalRecord::Close {
                    session: parse(fields[2], "session id")?,
                    status: CloseStatus::from_code(fields[3])?,
                    crowd_questions: parse(fields[4], "crowd questions")?,
                    msps: decode_list(fields[5])?,
                }
            }
            other => return Err(format!("unknown record kind {other:?}")),
        };
        Ok((seq, record))
    }

    /// Decode with file context for error reporting.
    pub(crate) fn decode_in(
        line: &str,
        context: &str,
        line_no: usize,
    ) -> Result<(u64, WalRecord), DurableError> {
        WalRecord::decode(line).map_err(|reason| DurableError::Corrupt {
            context: context.to_owned(),
            line: line_no,
            reason,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fs(n: u32) -> FactSet {
        FactSet::from_facts([Fact::new(ElementId(n), RelationId(1), ElementId(n + 1))])
    }

    fn sample_records() -> Vec<WalRecord> {
        vec![
            WalRecord::Answer {
                session: Some(3),
                member: 7,
                support: 1.0 / 3.0,
                factset: fs(4),
            },
            WalRecord::Answer {
                session: None,
                member: 0,
                support: 0.5,
                factset: FactSet::new(),
            },
            WalRecord::Admit {
                session: 9,
                resumes: Some(2),
                spec: AdmitSpec {
                    query: "SELECT FACT-SETS WHERE $x | with a pipe\nand newline".into(),
                    threshold: Some(0.4),
                    roster: Some(vec![0, 2, 5]),
                    priority: 3,
                    budget: Some(12),
                    seed: 42,
                    aggregator_sample: 5,
                    specialization_ratio: 0.25,
                    pruning_ratio: 0.0,
                    max_questions: 1_000_000,
                    top_k: None,
                    token: Some(0xFEED_F00D),
                },
            },
            WalRecord::Budget {
                session: 9,
                spent: 4,
            },
            WalRecord::Close {
                session: 9,
                status: CloseStatus::BudgetExhausted,
                crowd_questions: 12,
                msps: vec![
                    "{Biking doAt Central Park}".into(),
                    "odd; rendering | with %3B separators".into(),
                ],
            },
        ]
    }

    #[test]
    fn encode_decode_roundtrip() {
        for (i, rec) in sample_records().into_iter().enumerate() {
            let line = rec.encode(i as u64 + 1);
            assert!(!line.contains('\n'), "one record = one line: {line:?}");
            let (seq, back) = WalRecord::decode(&line).expect("roundtrip");
            assert_eq!(seq, i as u64 + 1);
            assert_eq!(back, rec);
        }
    }

    #[test]
    fn roster_variants_roundtrip() {
        for roster in [None, Some(vec![]), Some(vec![1]), Some(vec![0, 1, 2])] {
            let rec = WalRecord::Admit {
                session: 0,
                resumes: None,
                spec: AdmitSpec {
                    query: "q".into(),
                    threshold: None,
                    roster: roster.clone(),
                    priority: 0,
                    budget: None,
                    seed: 0,
                    aggregator_sample: 5,
                    specialization_ratio: 0.0,
                    pruning_ratio: 0.0,
                    max_questions: 10,
                    top_k: Some(2),
                    token: None,
                },
            };
            let (_, back) = WalRecord::decode(&rec.encode(1)).expect("roundtrip");
            assert_eq!(back, rec);
        }
    }

    #[test]
    fn support_values_roundtrip_exactly() {
        for support in [0.0, 1.0, 1.0 / 3.0, 2.0 / 7.0, 0.123_456_789_012_345_67] {
            let rec = WalRecord::Answer {
                session: None,
                member: 1,
                support,
                factset: fs(1),
            };
            let (_, back) = WalRecord::decode(&rec.encode(1)).expect("roundtrip");
            let WalRecord::Answer { support: s, .. } = back else {
                panic!("kind changed");
            };
            assert_eq!(s.to_bits(), support.to_bits(), "bit-exact float roundtrip");
        }
    }

    #[test]
    fn list_encoding_roundtrips() {
        for items in [
            vec![],
            vec!["plain".to_owned()],
            vec!["a;b".to_owned(), "c|d".to_owned(), "e%3Bf".to_owned()],
            vec!["line\nbreak".to_owned(), "%".to_owned()],
            vec!["-".to_owned()],
            vec!["-".to_owned(), "-".to_owned()],
        ] {
            let encoded = encode_list(&items);
            assert!(!encoded.contains('|') && !encoded.contains('\n'), "{encoded:?}");
            assert_eq!(decode_list(&encoded).expect("roundtrip"), items);
        }
    }

    #[test]
    fn corruption_is_detected() {
        let line = sample_records()[0].encode(1);
        // Flip one character of the body.
        let mut bytes = line.clone().into_bytes();
        bytes[2] = if bytes[2] == b'7' { b'8' } else { b'7' };
        let tampered = String::from_utf8(bytes).unwrap();
        assert!(WalRecord::decode(&tampered)
            .unwrap_err()
            .contains("checksum"));
        // Truncation (a torn write) is also caught.
        assert!(WalRecord::decode(&line[..line.len() - 3]).is_err());
        assert!(WalRecord::decode("").is_err());
    }
}
