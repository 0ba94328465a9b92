//! The warm-admission probe run by `durable` and `shared`: in a child
//! process, admit each paper multiplicity query (travel `$y+`, culinary
//! `$d+`) against a store that already holds the roster's answers, and
//! kill the child if admission misses a deadline far above a cold
//! admission (~2 ms).

use std::io::{BufRead, BufReader, Write};
use std::process::{Command, Stdio};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use oassis::core::{EngineConfig, Oassis, OassisService, SessionRuntime, SessionSpec};
use oassis::datagen::{culinary_domain, travel_domain};

use crate::inputs::{self, CrowdShape};

/// Admission deadline per probe.
const DEADLINE: Duration = Duration::from_secs(1);
/// Time the child may take to build its domain and warm its store.
const READY_TIMEOUT: Duration = Duration::from_secs(60);
const DOMAINS: [&str; 2] = ["travel", "culinary"];

/// Run both probes; returns `(attempted, missed)`.
pub fn run(seed: u64) -> (u64, u64) {
    let mut missed = 0;
    for domain in DOMAINS {
        let outcome = probe(domain, seed);
        println!("probe {domain}: warm multiplicity admission {outcome}");
        missed += u64::from(outcome != ADMITTED);
    }
    (DOMAINS.len() as u64, missed)
}

const ADMITTED: &str = "returned within the deadline";

/// Run one probe child and say how its admission went.
fn probe(domain: &str, seed: u64) -> &'static str {
    let exe = std::env::current_exe().expect("own executable path");
    let mut child = Command::new(exe)
        .args(["--probe", domain, &seed.to_string()])
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("probe child starts");
    let stdout = child.stdout.take().expect("piped stdout");
    let (tx, rx) = mpsc::channel();
    let reader = std::thread::spawn(move || {
        for line in BufReader::new(stdout).lines() {
            let Ok(line) = line else { break };
            if tx.send(line).is_err() {
                break;
            }
        }
    });
    let outcome = if !rx.recv_timeout(READY_TIMEOUT).is_ok_and(|l| l == "ready") {
        "missed: the store warm-up did not finish (child killed)"
    } else {
        let start = Instant::now();
        if rx.recv_timeout(DEADLINE).is_ok_and(|l| l == "admitted") && start.elapsed() <= DEADLINE {
            ADMITTED
        } else {
            "missed the deadline (child killed)"
        }
    };
    let _ = child.kill();
    let _ = child.wait();
    let _ = reader.join();
    outcome
}

/// Child side: warm the store with one cold run of the domain's query over
/// an 8-member roster, report `ready`, then admit the same query again.
pub fn child(argv: &[String]) -> i32 {
    let (Some(domain), Some(seed)) = (
        argv.first(),
        argv.get(1).and_then(|s| s.parse::<u64>().ok()),
    ) else {
        eprintln!("usage: perfbench --probe <travel|culinary> <seed>");
        return 2;
    };
    let domain = match domain.as_str() {
        "travel" => travel_domain(),
        "culinary" => culinary_domain(),
        _ => return 2,
    };
    let shape = CrowdShape {
        members: 8,
        transactions: 20,
        popular_patterns: 8,
        popularity: 0.7,
        extra_fact: 0.25,
    };
    let vocab = Arc::new(domain.ontology.vocabulary().clone());
    let dbs = inputs::crowd_dbs(&domain, &shape, 0, seed);
    let crowd = inputs::boxed(inputs::members(&dbs, 0, &vocab));
    let mut service = OassisService::start(
        Oassis::new(domain.ontology.clone()),
        SessionRuntime::new(crowd).workers(1),
    );
    let spec = || {
        SessionSpec::builder(domain.query.clone())
            .config(EngineConfig::builder().seed(seed).build())
            .build()
    };
    service.submit(spec()).expect("cold admission");
    service.run();
    let mut out = std::io::stdout();
    let _ = writeln!(out, "ready");
    let _ = out.flush();
    if service.submit(spec()).is_ok() {
        let _ = writeln!(out, "admitted");
        let _ = out.flush();
    }
    0
}
