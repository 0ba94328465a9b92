//! End-to-end smoke tests for the wire protocol (`oassis-net`) over real
//! TCP loopback: a served session must produce exactly the valid-MSP set
//! of the in-process serial run, `Submit` tokens must deduplicate,
//! protocol-version mismatches must be refused, and the server's
//! connection lifecycle (concurrent clients, a client that vanishes, a
//! server dropped under a live client, a frame too short to decode) must
//! hold.
//!
//! The adversarial cases — crashes, partitions, drops, duplicates — live
//! in the deterministic protocol crash oracle (`oassis-simtest`, `sim
//! net-sweep`); these tests only pin the happy path onto real sockets,
//! plus fixed crash cases driven in-process without sockets: a `Resume`
//! by the original id after two restarts, and a `Poll` by the original
//! id of a resumed session.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

use oassis::core::{EngineConfig, Oassis, OassisService, SessionRuntime, SessionSpec};
use oassis::net::{
    decode_response, encode_request, NetClient, NetError, NetServer, Request, Response,
    TcpNetServer, TcpTransport, WireStatus, PROTOCOL_VERSION,
};
use oassis::obs::null_sink;
use oassis::store::ontology::figure1_ontology;
use oassis::store_durable::{InMemory, SharedPersistence};
use oassis_simtest::{crowd, valid_msp_set, QUERY};

/// A small aggregator sample keeps the figure-1 valid-MSP set non-empty
/// (the whole-crowd default averages the two answer databases below the
/// support threshold).
fn test_config() -> EngineConfig {
    EngineConfig::builder().aggregator_sample(4).build()
}

/// A loopback server over a fresh figure-1 service with a 4-member crowd.
fn loopback_server() -> TcpNetServer {
    let engine = Oassis::new(figure1_ontology());
    let runtime = SessionRuntime::new(crowd(2));
    let service = OassisService::start(engine, runtime);
    TcpNetServer::bind("127.0.0.1:0", NetServer::new(service)).expect("bind")
}

/// Serve a loopback service on this thread while each of `clients` runs
/// on a spawned thread with the server's address. The service (and its
/// boxed crowd) is not `Send`, so the *server* stays here; the loop exits
/// once every client is done, and a client panic is re-raised here.
fn serve_clients(clients: Vec<Box<dyn FnOnce(String) + Send>>) {
    let mut tcp = loopback_server();
    let addr = tcp.local_addr().expect("bound").to_string();
    let handles: Vec<_> = clients
        .into_iter()
        .map(|client| {
            let addr = addr.clone();
            std::thread::spawn(move || client(addr))
        })
        .collect();
    tcp.serve_until(|| handles.iter().all(|h| h.is_finished()))
        .expect("serve");
    for handle in handles {
        handle.join().expect("client thread");
    }
}

/// Spin up a served loopback service and hand one connected client to
/// `drive`.
fn with_loopback_server(drive: impl FnOnce(&mut NetClient<TcpTransport>) + Send + 'static) {
    serve_clients(vec![Box::new(move |addr| {
        let mut client = NetClient::new(TcpTransport::connect(addr).expect("connect"));
        drive(&mut client);
        client.close();
    })]);
}

/// The valid-MSP set of the in-process run of [`QUERY`].
fn serial_msps() -> Vec<String> {
    let engine = Oassis::new(figure1_ontology());
    let mut members = crowd(2);
    let serial = engine.execute(QUERY, &mut members, &test_config()).unwrap();
    let msps = valid_msp_set(&serial);
    assert!(!msps.is_empty(), "vacuous baseline");
    msps
}

/// Hello, then `Submit` [`QUERY`] under `token`; returns the session id.
fn greet_and_submit(client: &mut NetClient<TcpTransport>, token: u64) -> u64 {
    let hello = Request::Hello {
        version: PROTOCOL_VERSION,
    };
    match call_one(client, &hello) {
        Response::Welcome { .. } => {}
        other => panic!("expected Welcome, got {other:?}"),
    }
    let spec = SessionSpec::builder(QUERY)
        .config(test_config())
        .build()
        .to_admit(Some(token));
    match call_one(client, &Request::Submit { spec }) {
        Response::Admitted { session } => session,
        other => panic!("expected Admitted, got {other:?}"),
    }
}

/// Poll `session` to its terminal `Update`; returns its valid MSPs.
fn poll_to_end(client: &mut NetClient<TcpTransport>, session: u64) -> Vec<String> {
    loop {
        match client.call(&Request::Poll { session }).expect("poll").pop() {
            Some(Response::Update {
                status: WireStatus::Running,
                ..
            }) => {}
            Some(Response::Update { status, msps, .. }) => {
                assert_eq!(status, WireStatus::Completed);
                return msps;
            }
            other => panic!("expected Update, got {other:?}"),
        }
    }
}

/// One round-trip; panics unless exactly one response frame comes back.
fn call_one(client: &mut NetClient<TcpTransport>, req: &Request) -> Response {
    let mut batch = client.call(req).expect("call");
    assert_eq!(batch.len(), 1, "expected a single-frame batch: {batch:?}");
    batch.remove(0)
}

#[test]
fn tcp_loopback_session_matches_in_process_run() {
    let serial_msps = serial_msps();

    with_loopback_server(move |client| {
        match call_one(
            client,
            &Request::Hello {
                version: PROTOCOL_VERSION,
            },
        ) {
            Response::Welcome { version, crowd } => {
                assert_eq!(version, PROTOCOL_VERSION);
                assert_eq!(crowd, 4);
            }
            other => panic!("expected Welcome, got {other:?}"),
        }

        let spec = SessionSpec::builder(QUERY)
            .config(test_config())
            .build()
            .to_admit(Some(17));
        let session = match call_one(client, &Request::Submit { spec: spec.clone() }) {
            Response::Admitted { session } => session,
            other => panic!("expected Admitted, got {other:?}"),
        };

        // Token dedup: retrying the same Submit lands on the same session.
        match call_one(client, &Request::Submit { spec }) {
            Response::Admitted { session: again } => assert_eq!(again, session),
            other => panic!("expected deduplicated Admitted, got {other:?}"),
        }

        // Poll until the terminal update; partial Answer frames stream in
        // ahead of it and must never exceed the final valid set.
        let mut streamed: Vec<String> = Vec::new();
        let final_update = loop {
            let batch = client.call(&Request::Poll { session }).expect("poll");
            let (terminal, partials): (Vec<_>, Vec<_>) =
                batch.into_iter().partition(Response::is_terminal);
            for p in partials {
                match p {
                    Response::Answer {
                        valid, rendered, ..
                    } => {
                        if valid {
                            streamed.push(rendered);
                        }
                    }
                    other => panic!("non-terminal frame must be Answer, got {other:?}"),
                }
            }
            assert_eq!(terminal.len(), 1, "every batch ends in one terminal frame");
            match terminal.into_iter().next().unwrap() {
                Response::Update {
                    status,
                    msps,
                    crowd_questions,
                    ..
                } if status != WireStatus::Running => {
                    assert_eq!(status, WireStatus::Completed);
                    assert!(crowd_questions > 0, "the crowd was never asked");
                    break msps;
                }
                Response::Update { .. } => {} // still running; poll again
                other => panic!("expected Update, got {other:?}"),
            }
        };

        assert_eq!(final_update, serial_msps, "served session diverged");
        streamed.sort();
        streamed.dedup();
        assert!(
            streamed.iter().all(|m| serial_msps.contains(m)),
            "streamed partial outside the final valid set"
        );

        // A finished session's report replays identically on a re-poll.
        let batch = client.call(&Request::Poll { session }).expect("re-poll");
        match batch.last().expect("terminal") {
            Response::Update { status, msps, .. } => {
                assert_eq!(*status, WireStatus::Completed);
                assert_eq!(*msps, serial_msps);
            }
            other => panic!("expected Update, got {other:?}"),
        }

        assert!(matches!(call_one(client, &Request::Close), Response::Bye));
    });
}

#[test]
fn tcp_loopback_rejects_version_and_unknown_sessions() {
    with_loopback_server(|client| {
        match call_one(
            client,
            &Request::Hello {
                version: PROTOCOL_VERSION + 1,
            },
        ) {
            Response::Error { detail } => assert!(detail.contains("version")),
            other => panic!("expected version Error, got {other:?}"),
        }
        // The connection survives a refused Hello.
        match call_one(
            client,
            &Request::Hello {
                version: PROTOCOL_VERSION,
            },
        ) {
            Response::Welcome { .. } => {}
            other => panic!("expected Welcome, got {other:?}"),
        }
        match client
            .call(&Request::Poll { session: 999 })
            .expect("poll")
            .pop()
            .expect("one frame")
        {
            Response::Error { detail } => assert!(detail.contains("unknown session")),
            other => panic!("expected unknown-session Error, got {other:?}"),
        }
        // Submit without a token is refused outright.
        let spec = SessionSpec::builder(QUERY).build().to_admit(None);
        match call_one(client, &Request::Submit { spec }) {
            Response::Error { detail } => assert!(detail.contains("token")),
            other => panic!("expected token Error, got {other:?}"),
        }
    });
}

#[test]
fn concurrent_loopback_clients_are_all_served() {
    let serial = serial_msps();
    let clients: Vec<Box<dyn FnOnce(String) + Send>> = (0..3u64)
        .map(|i| {
            let serial = serial.clone();
            Box::new(move |addr: String| {
                let mut client = NetClient::new(TcpTransport::connect(addr).expect("connect"));
                let session = greet_and_submit(&mut client, 100 + i);
                let msps = poll_to_end(&mut client, session);
                assert_eq!(msps, serial, "client {i} diverged");
                let bye = call_one(&mut client, &Request::Close);
                assert!(matches!(bye, Response::Bye), "got {bye:?}");
            }) as Box<dyn FnOnce(String) + Send>
        })
        .collect();
    serve_clients(clients);
}

#[test]
fn a_vanished_client_does_not_block_the_next() {
    let serial = serial_msps();
    serve_clients(vec![Box::new(move |addr: String| {
        // Submit, then drop the connection without `Close`.
        let mut gone = NetClient::new(TcpTransport::connect(addr.clone()).expect("connect"));
        greet_and_submit(&mut gone, 7);
        drop(gone);
        let mut client = NetClient::new(TcpTransport::connect(addr).expect("connect"));
        let session = greet_and_submit(&mut client, 8);
        assert_eq!(poll_to_end(&mut client, session), serial);
    })]);
}

/// The payload `v1` sealed with its valid FNV-1a checksum: a frame with
/// no sequence number and no kind. It is refused with an error, and the
/// same server then serves a whole session.
#[test]
fn a_short_frame_is_refused_and_the_server_keeps_serving() {
    let serial = serial_msps();
    serve_clients(vec![Box::new(move |addr: String| {
        let mut stream = TcpStream::connect(addr.clone()).expect("connect");
        stream.write_all(b"v1|08cf0b07b5709128\n").expect("write");
        let mut reply = String::new();
        BufReader::new(&stream)
            .read_line(&mut reply)
            .expect("read the refusal");
        match decode_response(reply.trim_end()) {
            Ok((0, 0, Response::Error { detail })) => assert!(detail.contains("fields")),
            other => panic!("expected a field-count Error, got {other:?}"),
        }
        let mut client = NetClient::new(TcpTransport::connect(addr).expect("connect"));
        let session = greet_and_submit(&mut client, 9);
        assert_eq!(poll_to_end(&mut client, session), serial);
    })]);
}

#[test]
fn dropping_the_server_closes_a_live_connection() {
    let mut tcp = loopback_server();
    let addr = tcp.local_addr().expect("bound").to_string();
    let (greeted_tx, greeted) = mpsc::channel();
    let (dropped, dropped_rx) = mpsc::channel::<()>();
    let client = std::thread::spawn(move || {
        let mut client = NetClient::new(TcpTransport::connect(addr).expect("connect"));
        let hello = Request::Hello {
            version: PROTOCOL_VERSION,
        };
        let welcome = call_one(&mut client, &hello);
        assert!(
            matches!(welcome, Response::Welcome { .. }),
            "got {welcome:?}"
        );
        greeted_tx.send(()).expect("main thread waits");
        dropped_rx.recv().expect("main thread drops the server");
        client.call(&hello)
    });
    tcp.serve_until(|| greeted.try_recv().is_ok() || client.is_finished())
        .expect("serve");
    let start = Instant::now();
    drop(tcp);
    let took = start.elapsed();
    dropped.send(()).expect("client waits");
    let after = client.join().expect("client thread");
    assert!(
        took < Duration::from_secs(2),
        "dropping the server took {took:?}"
    );
    assert!(matches!(after, Err(NetError::Closed(_))), "got {after:?}");
}

#[test]
fn requests_after_close_are_never_answered() {
    let mut tcp = loopback_server();
    let addr = tcp.local_addr().expect("bound").to_string();
    // One write carries Hello, Close, and a Hello that would start a
    // fresh sequence: the reader frames all three before the server
    // answers `Close` and drops the connection.
    let client = std::thread::spawn(move || {
        let hello = Request::Hello {
            version: PROTOCOL_VERSION,
        };
        let lines = [
            encode_request(1, &hello),
            encode_request(2, &Request::Close),
            encode_request(1, &hello),
        ];
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream
            .write_all(format!("{}\n", lines.join("\n")).as_bytes())
            .expect("write");
        let mut replies = String::new();
        stream
            .read_to_string(&mut replies)
            .expect("read to the server's close");
        replies
    });
    tcp.serve_until(|| client.is_finished()).expect("serve");
    let replies = client.join().expect("client thread");
    assert_eq!(
        replies.lines().count(),
        2,
        "expected Welcome and Bye only: {replies}"
    );
    assert_eq!(tcp.server().events_processed(), 2);
}

/// A client of an in-process [`NetServer`] on one connection, with the
/// server's log: encodes each request under the next sequence number and
/// decodes the batch.
struct InProcessClient {
    server: NetServer,
    log: Arc<Mutex<InMemory>>,
    seq: u64,
}

impl InProcessClient {
    /// A fresh connection to a durable figure-1 service recovered from
    /// `log` (an empty log starts one).
    fn recover(log: InMemory) -> Self {
        let log = Arc::new(Mutex::new(log));
        let (service, _) = OassisService::recover_with(
            Oassis::new(figure1_ontology()),
            SessionRuntime::new(crowd(2)),
            null_sink(),
            Arc::clone(&log) as SharedPersistence,
        )
        .expect("the log replays");
        InProcessClient {
            server: NetServer::new(service),
            log,
            seq: 0,
        }
    }

    fn call(&mut self, req: &Request) -> Vec<Response> {
        self.seq += 1;
        self.server
            .on_line(1, &encode_request(self.seq, req))
            .iter()
            .map(|line| decode_response(line).expect("the server encodes").2)
            .collect()
    }

    /// Pump `cycles` service cycles, then kill the server with every
    /// append durable and restart it on the crash image. The restarted
    /// server must not have finished `session`.
    fn crash_after(mut self, cycles: usize, session: u64) -> Self {
        for _ in 0..cycles {
            self.server.pump();
        }
        drop(self.server);
        let image = {
            let log = self.log.lock().unwrap();
            log.crashed_at(log.history_len())
        };
        let mut restarted = Self::recover(image);
        match &restarted.call(&Request::Poll { session })[..] {
            [Response::Error { detail }] if detail.contains("awaits Resume") => {}
            other => panic!("the crash did not interrupt session {session}: {other:?}"),
        }
        restarted
    }

    /// Pump and `Poll` `session` until its terminal `Update`, which must
    /// read `Completed`; returns how many `Answer` frames streamed, and
    /// the valid MSPs.
    fn poll_to_end(&mut self, session: u64) -> (usize, Vec<String>) {
        let mut answers = 0;
        for _ in 0..10_000 {
            self.server.pump();
            for response in self.call(&Request::Poll { session }) {
                match response {
                    Response::Answer { .. } => answers += 1,
                    Response::Update {
                        status: WireStatus::Running,
                        ..
                    } => {}
                    Response::Update { status, msps, .. } => {
                        assert_eq!(status, WireStatus::Completed);
                        return (answers, msps);
                    }
                    other => panic!("Poll({session}) answered {other:?}"),
                }
            }
        }
        panic!("session {session} never reached a terminal Update");
    }
}

/// A `Resume` by the original id reaches the live session after any
/// number of restarts. After the second restart the chain's last link is
/// the interrupted resumption: it must be re-admitted, not handed back as
/// it stands, or every `Poll` of it answers "awaits Resume".
#[test]
fn resume_by_the_original_id_survives_two_restarts() {
    let serial = serial_msps();
    let spec = SessionSpec::builder(QUERY)
        .config(test_config())
        .build()
        .to_admit(Some(5));
    let mut client = InProcessClient::recover(InMemory::new());
    let admitted = client.call(&Request::Submit { spec });
    assert_eq!(admitted, [Response::Admitted { session: 0 }]);
    let mut client = client.crash_after(3, 0);
    let resumed = client.call(&Request::Resume { session: 0 });
    assert_eq!(
        resumed,
        [Response::Resumed {
            original: 0,
            session: 1
        }]
    );
    let mut client = client.crash_after(3, 1);

    let session = match &client.call(&Request::Resume { session: 0 })[..] {
        [Response::Resumed { session, .. }] => *session,
        other => panic!("expected Resumed, got {other:?}"),
    };
    assert_eq!(client.poll_to_end(session).1, serial);
}

/// A `Poll` by the original id of a resumed session streams the
/// resumption's answers and ends on its terminal `Update`.
#[test]
fn poll_by_the_original_id_streams_the_resumption() {
    let serial = serial_msps();
    let spec = SessionSpec::builder(QUERY)
        .config(test_config())
        .build()
        .to_admit(Some(6));
    let mut client = InProcessClient::recover(InMemory::new());
    client.call(&Request::Submit { spec });
    let mut client = client.crash_after(3, 0);
    client.call(&Request::Resume { session: 0 });
    let (answers, msps) = client.poll_to_end(0);
    assert!(answers > 0, "no Answer frame reached Poll(0)");
    assert_eq!(msps, serial);
}
