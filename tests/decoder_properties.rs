//! Totality and round-trip properties of the two line codecs that carry a
//! session spec: the `oassis-net` wire frames and the WAL records.
//!
//! Over random requests, responses and records (random [`AdmitSpec`]s
//! included):
//!
//! * `decode(encode(x)) == x`;
//! * every proper field-prefix of an encoded line, re-sealed with a valid
//!   checksum, decodes to an error and never panics — a checksum proves
//!   only that the line arrived as sent, not that its sender framed it
//!   whole;
//! * a spec in the legacy 13-field layout (with the index-layer flag that
//!   logs and `Submit` frames carried before it was dropped) decodes to
//!   the same spec, on its own, in a WAL `Admit` record and in a `Submit`
//!   frame, while a legacy flag that is not a number is refused.

use proptest::prelude::*;

use oassis::net::{
    decode_request, decode_response, encode_request, encode_response, Request, Response, WireStatus,
};
use oassis::store_durable::{fnv1a64, AdmitSpec, CloseStatus, WalRecord, ADMIT_SPEC_FIELDS};
use oassis::vocab::{ElementId, Fact, FactSet, RelationId};

/// Characters for free text: the separator, the escape character, line
/// breaks, the list and fact separators, the empty-value marker and a few
/// multi-byte characters, so every escape path is taken.
const CHARS: &[char] = &[
    'a', 'Z', '0', '2', '3', '7', 'A', 'B', 'C', 'D', ' ', '-', 'e', ';', ',', '|', '%', '\n',
    '\r', '{', '}', 'é', '中',
];

fn arb_text() -> impl Strategy<Value = String> {
    proptest::collection::vec(0..CHARS.len(), 0..10)
        .prop_map(|ix| ix.into_iter().map(|i| CHARS[i]).collect())
}

fn arb_texts() -> impl Strategy<Value = Vec<String>> {
    proptest::collection::vec(arb_text(), 0..4)
}

fn arb_u64() -> impl Strategy<Value = u64> {
    prop_oneof![0u64..16, 0u64..u64::MAX, Just(u64::MAX)]
}

/// Finite values only: every codec writes `f64`s with `Display`, which
/// round-trips every finite value exactly.
fn arb_f64() -> impl Strategy<Value = f64> {
    prop_oneof![
        0.0f64..1.0,
        Just(0.0),
        Just(1.0),
        Just(1.0 / 3.0),
        0.0f64..1e9
    ]
}

fn arb_spec() -> impl Strategy<Value = AdmitSpec> {
    (
        (
            arb_text(),
            proptest::option::of(arb_f64()),
            proptest::option::of(proptest::collection::vec(0usize..64, 0..4)),
        ),
        (0u8..=255, proptest::option::of(arb_u64()), arb_u64()),
        (0usize..64, arb_f64(), arb_f64(), 0usize..2_000_000),
        (
            proptest::option::of(0usize..16),
            proptest::option::of(arb_u64()),
        ),
    )
        .prop_map(
            |(
                (query, threshold, roster),
                (priority, budget, seed),
                (aggregator_sample, specialization_ratio, pruning_ratio, max_questions),
                (top_k, token),
            )| AdmitSpec {
                query,
                threshold,
                roster,
                priority,
                budget,
                seed,
                aggregator_sample,
                specialization_ratio,
                pruning_ratio,
                max_questions,
                top_k,
                token,
            },
        )
}

fn arb_request() -> impl Strategy<Value = Request> {
    prop_oneof![
        (0u32..4).prop_map(|version| Request::Hello { version }),
        arb_spec().prop_map(|spec| Request::Submit { spec }),
        arb_u64().prop_map(|session| Request::Poll { session }),
        arb_u64().prop_map(|session| Request::Resume { session }),
        arb_u64().prop_map(|session| Request::Cancel { session }),
        Just(Request::Close),
    ]
}

fn arb_status() -> impl Strategy<Value = WireStatus> {
    (0usize..4).prop_map(|i| {
        [
            WireStatus::Running,
            WireStatus::Completed,
            WireStatus::Cancelled,
            WireStatus::BudgetExhausted,
        ][i]
    })
}

fn arb_response() -> impl Strategy<Value = Response> {
    prop_oneof![
        (0u32..4, arb_u64()).prop_map(|(version, crowd)| Response::Welcome { version, crowd }),
        arb_u64().prop_map(|session| Response::Admitted { session }),
        (arb_u64(), arb_u64())
            .prop_map(|(original, session)| Response::Resumed { original, session }),
        (
            arb_u64(),
            arb_text(),
            proptest::option::of(arb_f64()),
            proptest::bool::ANY
        )
            .prop_map(|(session, rendered, support, valid)| Response::Answer {
                session,
                rendered,
                support,
                valid,
            }),
        (arb_u64(), arb_status(), arb_u64(), arb_u64(), arb_texts()).prop_map(
            |(session, status, crowd_questions, store_hits, msps)| Response::Update {
                session,
                status,
                crowd_questions,
                store_hits,
                msps,
            }
        ),
        arb_text().prop_map(|detail| Response::Error { detail }),
        Just(Response::Bye),
    ]
}

fn arb_factset() -> impl Strategy<Value = FactSet> {
    proptest::collection::vec((0u32..50, 0u32..8, 0u32..50), 0..4).prop_map(|facts| {
        FactSet::from_facts(
            facts
                .into_iter()
                .map(|(s, r, o)| Fact::new(ElementId(s), RelationId(r), ElementId(o))),
        )
    })
}

fn arb_record() -> impl Strategy<Value = WalRecord> {
    prop_oneof![
        (
            proptest::option::of(arb_u64()),
            0u32..1000,
            arb_f64(),
            arb_factset()
        )
            .prop_map(|(session, member, support, factset)| WalRecord::Answer {
                session,
                member,
                support,
                factset,
            }),
        (arb_u64(), proptest::option::of(arb_u64()), arb_spec()).prop_map(
            |(session, resumes, spec)| WalRecord::Admit {
                session,
                resumes,
                spec,
            }
        ),
        (arb_u64(), arb_u64()).prop_map(|(session, spent)| WalRecord::Budget { session, spent }),
        (arb_u64(), 0usize..3, arb_u64(), arb_texts()).prop_map(
            |(session, status, crowd_questions, msps)| WalRecord::Close {
                session,
                status: [
                    CloseStatus::Completed,
                    CloseStatus::Cancelled,
                    CloseStatus::BudgetExhausted,
                ][status],
                crowd_questions,
                msps,
            }
        ),
    ]
}

/// `payload` with its FNV-1a-64 checksum appended, as both codecs seal a
/// line.
fn seal(payload: &str) -> String {
    format!("{payload}|{:016x}", fnv1a64(payload.as_bytes()))
}

/// Every proper field-prefix of the sealed `line`'s payload, re-sealed.
fn resealed_prefixes(line: &str) -> Vec<String> {
    let (payload, _) = line.rsplit_once('|').expect("a sealed line");
    let fields: Vec<&str> = payload.split('|').collect();
    (1..fields.len())
        .map(|k| seal(&fields[..k].join("|")))
        .collect()
}

/// `spec`'s fields in the legacy layout: the index-layer flag `flag`
/// back after `top_k`, where logs and `Submit` frames used to carry it.
fn legacy_fields(spec: &AdmitSpec, flag: &str) -> String {
    let encoded = spec.encode_fields();
    let mut fields: Vec<&str> = encoded.split('|').collect();
    assert_eq!(fields.len(), ADMIT_SPEC_FIELDS);
    fields.insert(9, flag);
    fields.join("|")
}

/// Both encoders write the 12-field spec layout: a `Submit` frame is the
/// tag, sequence number, kind, spec and checksum; an `Admit` record the
/// sequence number, kind, session, resumed id, spec and checksum.
#[test]
fn both_encoders_write_twelve_spec_fields() {
    assert_eq!(ADMIT_SPEC_FIELDS, 12);
    let spec = AdmitSpec {
        query: "q".into(),
        threshold: None,
        roster: None,
        priority: 0,
        budget: None,
        seed: 0,
        aggregator_sample: 5,
        specialization_ratio: 0.0,
        pruning_ratio: 0.0,
        max_questions: 10,
        top_k: None,
        token: Some(1),
    };
    let frame = encode_request(1, &Request::Submit { spec: spec.clone() });
    assert_eq!(frame.split('|').count(), 3 + 12 + 1, "{frame}");
    let record = WalRecord::Admit {
        session: 0,
        resumes: None,
        spec,
    }
    .encode(1);
    assert_eq!(record.split('|').count(), 4 + 12 + 1, "{record}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn requests_round_trip_and_their_prefixes_are_refused(
        seq in arb_u64(),
        req in arb_request(),
    ) {
        let line = encode_request(seq, &req);
        prop_assert_eq!(decode_request(&line), Ok((seq, req.clone())));
        for prefix in resealed_prefixes(&line) {
            prop_assert!(decode_request(&prefix).is_err(), "{:?} decoded", prefix);
        }
    }

    #[test]
    fn responses_round_trip_and_their_prefixes_are_refused(
        reqseq in arb_u64(),
        idx in arb_u64(),
        resp in arb_response(),
    ) {
        let line = encode_response(reqseq, idx, &resp);
        prop_assert_eq!(decode_response(&line), Ok((reqseq, idx, resp.clone())));
        for prefix in resealed_prefixes(&line) {
            prop_assert!(decode_response(&prefix).is_err(), "{:?} decoded", prefix);
        }
    }

    #[test]
    fn records_round_trip_and_their_prefixes_are_refused(
        seq in arb_u64(),
        record in arb_record(),
    ) {
        let line = record.encode(seq);
        prop_assert_eq!(WalRecord::decode(&line), Ok((seq, record.clone())));
        for prefix in resealed_prefixes(&line) {
            prop_assert!(WalRecord::decode(&prefix).is_err(), "{:?} decoded", prefix);
        }
    }

    #[test]
    fn legacy_spec_layout_decodes_to_the_same_spec(
        spec in arb_spec(),
        indexed in proptest::bool::ANY,
        ids in (arb_u64(), arb_u64(), proptest::option::of(arb_u64())),
    ) {
        let (seq, session, resumes) = ids;
        let legacy = legacy_fields(&spec, if indexed { "1" } else { "0" });
        let fields: Vec<&str> = legacy.split('|').collect();
        prop_assert_eq!(AdmitSpec::decode_fields(&fields), Ok(spec.clone()));

        let resumes_field = resumes.map_or_else(|| "-".to_owned(), |r| r.to_string());
        let record = seal(&format!("{seq}|s|{session}|{resumes_field}|{legacy}"));
        let admit = WalRecord::Admit { session, resumes, spec: spec.clone() };
        prop_assert_eq!(WalRecord::decode(&record), Ok((seq, admit)));

        let frame = seal(&format!("v1|{seq}|s|{legacy}"));
        prop_assert_eq!(decode_request(&frame), Ok((seq, Request::Submit { spec: spec.clone() })));

        let garbled = legacy_fields(&spec, "yes");
        let fields: Vec<&str> = garbled.split('|').collect();
        prop_assert!(AdmitSpec::decode_fields(&fields).is_err());
    }
}
