//! Regenerate every figure of the paper's evaluation (Section 6).
//!
//! ```text
//! cargo run --release -p oassis-bench --bin figures -- all
//! cargo run --release -p oassis-bench --bin figures -- fig4a fig5
//! ```
//!
//! Available experiments: `fig4a fig4b fig4c fig4d fig4e fig4f fig5 shape
//! dist mult crowdmix bounds growth runtime scale service durability
//! crowd-scale net planner mining` (or `all`). Seven of them write a
//! `BENCH_*.json` at the repo root: `scale` (index-layer speedup),
//! `service` (multi-query crowd sharing), `durability` (recovery time
//! versus write-ahead-log length), `crowd-scale` (sharded dispatch +
//! question-wave throughput over crowds up to 100k members), `net`
//! (wire-protocol overhead of serving sessions over TCP loopback versus
//! running them in-process), `planner` (constraint pushdown on a
//! `FILTER`-constrained variant of each canonical query, asserting that
//! the reference evaluator returns the planner's WHERE bindings) and
//! `mining` (mining
//! µs per question per domain, split across the session's
//! `engine.mine.*` spans). With `--smoke` each shrinks to a size CI can
//! check its invariants at in seconds and writes
//! `target/BENCH_*.smoke.json` instead:
//!
//! ```text
//! cargo run --release -p oassis-bench --bin figures -- --smoke scale net
//! ```
//!
//! Alongside the tables, machine-readable telemetry is appended as JSON
//! lines (one event object per line) to `$OASSIS_FIGURES_JSON`, default
//! `target/figures.jsonl`: the raw engine events of the Figure 4a–4c runs
//! plus one `figures.*` summary event per table cell. Set
//! `OASSIS_FIGURES_JSON=-` to disable.

use std::sync::Arc;

use std::time::Duration;

use oassis_bench::experiments::{
    algorithm_comparison, answer_type_effect, complexity_bounds, crowd_growth, crowd_mix,
    crowd_scale, crowd_statistics_observed, distribution_variation, mining_split,
    multiplicity_variation, net_overhead, pace_of_collection, planner_effect, recovery_scaling,
    runtime_speedup, scale_speedup, service_reuse, shape_variation, CrowdScaleOutcome, CurveSeries,
    DurabilityRow, MiningRow, NetRow, PaceResult, PlannerRow, ScaleRow, ServiceRow,
};
use oassis_bench::table::render;
use oassis_simtest::outln;
use oassis_obs::{null_sink, EventSink, JsonLinesSink, SinkExt};
use oassis_datagen::{
    culinary_domain, self_treatment_domain, travel_domain, travel_domain_10x, CrowdGenConfig,
    Domain,
};

const THRESHOLDS: [f64; 4] = [0.2, 0.3, 0.4, 0.5];

/// Crowd configuration emulating the paper's recruited crowd (248 members,
/// ~20 answers each on the queries they contributed to). Per-domain pattern
/// counts reflect the paper's observation that question counts correlate
/// with the number of MSPs: the travel query needed the most questions
/// (1416) and self-treatment the fewest (340).
fn paper_crowd(domain: &Domain, seed: u64) -> CrowdGenConfig {
    let (popular_patterns, popularity, zipf, facts_per_transaction) = match domain.name {
        "travel" => (40, 0.9, 0.3, 3),
        "culinary" => (18, 0.8, 0.6, 2),
        _ => (8, 0.75, 1.0, 1),
    };
    CrowdGenConfig {
        members: 48,
        transactions_per_member: 20,
        popular_patterns,
        popularity,
        zipf,
        facts_per_transaction,
        discretize: false,
        seed,
    }
}

/// Open the JSON-lines telemetry sink (satellite output next to the
/// tables). Returns the no-op sink when disabled or the file can't be
/// created.
fn telemetry_sink() -> Arc<dyn EventSink> {
    let path = std::env::var("OASSIS_FIGURES_JSON").unwrap_or_else(|_| "target/figures.jsonl".into());
    if path == "-" {
        return null_sink();
    }
    if let Some(dir) = std::path::Path::new(&path).parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    match JsonLinesSink::create(&path) {
        Ok(sink) => {
            eprintln!("telemetry: writing JSON lines to {path}");
            Arc::new(sink)
        }
        Err(e) => {
            eprintln!("telemetry: cannot create {path}: {e}; telemetry disabled");
            null_sink()
        }
    }
}

fn fig4_stats(tag: &str, domain: &Domain, seed: u64, sink: &Arc<dyn EventSink>) {
    outln!("== Figure 4{tag}: crowd statistics — {} ==", domain.name);
    let rows = crowd_statistics_observed(domain, &THRESHOLDS, &paper_crowd(domain, seed), sink);
    for r in &rows {
        let label = format!("fig4{tag}:{}:{:.1}", domain.name, r.threshold);
        sink.count_labeled("figures.questions", &label, r.questions as u64);
        sink.count_labeled("figures.msps", &label, r.msps as u64);
        sink.count_labeled("figures.valid_msps", &label, r.valid_msps as u64);
        sink.gauge_labeled("figures.baseline_pct", &label, r.baseline_pct);
    }
    let table_rows: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                format!("{:.1}", r.threshold),
                r.msps.to_string(),
                r.valid_msps.to_string(),
                r.questions.to_string(),
                format!("{:.1}%", r.baseline_pct),
            ]
        })
        .collect();
    outln!(
        "{}",
        render(
            &["threshold", "#MSPs", "#valid", "#questions", "baseline%"],
            &table_rows
        )
    );
}

fn print_pace(tag: &str, pace: &PaceResult) {
    outln!(
        "== Figure 4{tag}: pace of data collection — {} (threshold {:.1}, DAG {} nodes, {} questions total) ==",
        pace.domain, pace.threshold, pace.dag_nodes, pace.total_questions
    );
    let fmt = |v: &Option<usize>| v.map_or("-".to_owned(), |q| q.to_string());
    let rows: Vec<Vec<String>> = pace
        .fractions
        .iter()
        .enumerate()
        .map(|(i, f)| {
            vec![
                format!("{:.0}%", f * 100.0),
                fmt(&pace.classified[i]),
                fmt(&pace.valid_msps[i]),
                fmt(&pace.all_msps[i]),
            ]
        })
        .collect();
    outln!(
        "{}",
        render(
            &[
                "% discovered",
                "classified assign.",
                "valid MSPs",
                "all MSPs"
            ],
            &rows
        )
    );
}

fn print_curves(title: &str, series: &[CurveSeries]) {
    outln!("== {title} ==");
    let mut headers: Vec<String> = vec!["% valid MSPs".to_owned()];
    headers.extend(series.iter().map(|s| s.label.clone()));
    let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
    let n = series.first().map_or(0, |s| s.fractions.len());
    let mut rows = Vec::new();
    for i in 0..n {
        let mut row = vec![format!("{:.0}%", series[0].fractions[i] * 100.0)];
        for s in series {
            row.push(s.questions[i].map_or("-".to_owned(), |q| format!("{q:.0}")));
        }
        rows.push(row);
    }
    let mut total_row = vec!["total".to_owned()];
    for s in series {
        total_row.push(format!("{:.0}", s.total_questions));
    }
    rows.push(total_row);
    outln!("{}", render(&header_refs, &rows));
}

/// Run the index-layer scale benchmark (PR 3) and write `BENCH_scale.json`
/// at the repo root. `--smoke` shrinks the question caps so CI
/// can assert the invariants (identical answers, speedup ≥ 1) in seconds,
/// timing each side as the median of 5 alternating runs so one slow run
/// cannot flip the bound; the full run is the one whose numbers matter.
fn run_scale(sink: &Arc<dyn EventSink>, seed: u64, smoke: bool) {
    let (members, cap_small, cap_large, runs) = if smoke {
        (6, 40, 80, 5)
    } else {
        (24, 400, 400, 1)
    };
    outln!(
        "== scale: index-layer speedup ({}) ==",
        if smoke { "smoke" } else { "full" }
    );
    let rows: Vec<ScaleRow> = [travel_domain(), travel_domain_10x()]
        .iter()
        .enumerate()
        .map(|(i, d)| {
            let cap = if i == 0 { cap_small } else { cap_large };
            let r = scale_speedup(d, members, cap, seed, runs);
            assert!(
                r.answers_match,
                "{}: the indexed walk changed the valid-MSP set or question count",
                r.domain
            );
            assert!(
                r.speedup >= 1.0,
                "{}: indexes slowed the engine down ({:.2}x)",
                r.domain,
                r.speedup
            );
            sink.gauge_labeled("figures.scale.speedup", &r.domain, r.speedup);
            r
        })
        .collect();
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.domain.clone(),
                r.nodes.to_string(),
                r.questions.to_string(),
                format!("{:.2}s", r.unindexed.as_secs_f64()),
                format!("{:.2}s", r.indexed.as_secs_f64()),
                format!("{:.1}", r.unindexed_qps),
                format!("{:.1}", r.indexed_qps),
                format!("{:.2}x", r.speedup),
            ]
        })
        .collect();
    outln!(
        "{}",
        render(
            &[
                "domain",
                "DAG nodes",
                "#questions",
                "un-indexed",
                "indexed",
                "q/s before",
                "q/s after",
                "speedup"
            ],
            &table
        )
    );
    let json_rows: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                concat!(
                    "  {{\"domain\": {:?}, \"nodes\": {}, \"members\": {}, ",
                    "\"questions\": {}, \"unindexed_secs\": {:.6}, ",
                    "\"indexed_secs\": {:.6}, \"unindexed_qps\": {:.3}, ",
                    "\"indexed_qps\": {:.3}, \"speedup\": {:.3}, ",
                    "\"answers_match\": {}}}"
                ),
                r.domain,
                r.nodes,
                r.members,
                r.questions,
                r.unindexed.as_secs_f64(),
                r.indexed.as_secs_f64(),
                r.unindexed_qps,
                r.indexed_qps,
                r.speedup,
                r.answers_match,
            )
        })
        .collect();
    let json = format!(
        "{{\n\"experiment\": \"scale\",\n\"mode\": {:?},\n\"seed\": {},\n\"rows\": [\n{}\n]\n}}\n",
        if smoke { "smoke" } else { "full" },
        seed,
        json_rows.join(",\n")
    );
    write_bench("scale", smoke, &json);
}

/// Run the multi-query service benchmark (PR 5) and write
/// `BENCH_service.json` at the repo root: N overlapping queries through one
/// `OassisService` over one shared crowd versus the same N queries as
/// independent serial runs. The answers must match exactly; the crowd
/// traffic must shrink. `--smoke` shrinks the crowd so CI
/// can assert the invariants in seconds.
fn run_service(sink: &Arc<dyn EventSink>, seed: u64, smoke: bool) {
    let (sessions, members) = if smoke { (2, 8) } else { (4, 24) };
    outln!(
        "== service: multi-query crowd sharing ({}) ==",
        if smoke { "smoke" } else { "full" }
    );
    let domains = if smoke {
        vec![travel_domain()]
    } else {
        vec![travel_domain(), culinary_domain(), self_treatment_domain()]
    };
    let rows: Vec<ServiceRow> = domains
        .iter()
        .map(|d| {
            let r = service_reuse(d, sessions, members, seed);
            assert!(
                r.answers_match,
                "{}: a service session diverged from the serial answer set",
                r.domain
            );
            assert!(
                r.service_questions < r.serial_questions,
                "{}: the service did not save crowd questions ({} vs {} serial)",
                r.domain,
                r.service_questions,
                r.serial_questions
            );
            assert!(
                r.store_hits > 0,
                "{}: overlapping sessions never hit the answer store",
                r.domain
            );
            sink.gauge_labeled("figures.service.saved_pct", &r.domain, r.saved_pct);
            r
        })
        .collect();
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.domain.clone(),
                r.sessions.to_string(),
                r.serial_questions.to_string(),
                r.service_questions.to_string(),
                r.store_hits.to_string(),
                format!("{:.1}%", r.saved_pct),
                format!("{:.2}s", r.serial_time.as_secs_f64()),
                format!("{:.2}s", r.service_time.as_secs_f64()),
            ]
        })
        .collect();
    outln!(
        "{}",
        render(
            &[
                "domain",
                "sessions",
                "serial q",
                "service q",
                "store hits",
                "saved",
                "serial t",
                "service t"
            ],
            &table
        )
    );
    let json_rows: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                concat!(
                    "  {{\"domain\": {:?}, \"sessions\": {}, \"members\": {}, ",
                    "\"serial_questions\": {}, \"service_questions\": {}, ",
                    "\"store_hits\": {}, \"saved_pct\": {:.3}, ",
                    "\"serial_secs\": {:.6}, \"service_secs\": {:.6}, ",
                    "\"answers_match\": {}}}"
                ),
                r.domain,
                r.sessions,
                r.members,
                r.serial_questions,
                r.service_questions,
                r.store_hits,
                r.saved_pct,
                r.serial_time.as_secs_f64(),
                r.service_time.as_secs_f64(),
                r.answers_match,
            )
        })
        .collect();
    let json = format!(
        "{{\n\"experiment\": \"service\",\n\"mode\": {:?},\n\"seed\": {},\n\"rows\": [\n{}\n]\n}}\n",
        if smoke { "smoke" } else { "full" },
        seed,
        json_rows.join(",\n")
    );
    write_bench("service", smoke, &json);
}

/// Run the durability benchmark (PR 7) and write `BENCH_durability.json`
/// at the repo root: the cost of `OassisService::recover` as the
/// write-ahead log grows, with and without snapshot compaction.
/// Compaction must keep cold-start recovery cheap even for long-lived
/// services; uncompacted recovery grows with the log.
/// `--smoke` shrinks the log sizes so CI can assert the
/// invariants in seconds.
fn run_durability(sink: &Arc<dyn EventSink>, seed: u64, smoke: bool) {
    let sizes: &[usize] = if smoke {
        &[256, 1024]
    } else {
        &[1000, 4000, 16000, 64000]
    };
    outln!(
        "== durability: recovery time vs WAL length ({}) ==",
        if smoke { "smoke" } else { "full" }
    );
    let mut rows: Vec<DurabilityRow> = Vec::new();
    for &records in sizes {
        for snapshot_every in [None, Some(1024)] {
            let row = recovery_scaling(records, snapshot_every, seed);
            assert_eq!(
                row.recovered_answers, row.records,
                "recovery lost answers ({} of {})",
                row.recovered_answers, row.records
            );
            assert_eq!(
                row.recovered_sessions, 1,
                "the open session must be recovered exactly once"
            );
            sink.gauge_labeled(
                "figures.durability.recover_secs",
                &format!(
                    "{records}{}",
                    if snapshot_every.is_some() { "+snap" } else { "" }
                ),
                row.recover_time.as_secs_f64(),
            );
            rows.push(row);
        }
    }
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.records.to_string(),
                r.snapshot_every
                    .map_or("never".to_string(), |e| e.to_string()),
                format!("{:.1}ms", r.append_time.as_secs_f64() * 1e3),
                format!("{:.1}ms", r.recover_time.as_secs_f64() * 1e3),
                r.recovered_answers.to_string(),
            ]
        })
        .collect();
    outln!(
        "{}",
        render(
            &["records", "snapshot every", "append", "recover", "answers"],
            &table
        )
    );
    let json_rows: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                concat!(
                    "  {{\"records\": {}, \"snapshot_every\": {}, ",
                    "\"append_secs\": {:.6}, \"recover_secs\": {:.6}, ",
                    "\"recovered_answers\": {}, \"recovered_sessions\": {}}}"
                ),
                r.records,
                r.snapshot_every
                    .map_or("null".to_string(), |e| e.to_string()),
                r.append_time.as_secs_f64(),
                r.recover_time.as_secs_f64(),
                r.recovered_answers,
                r.recovered_sessions,
            )
        })
        .collect();
    let json = format!(
        "{{\n\"experiment\": \"durability\",\n\"mode\": {:?},\n\"seed\": {},\n\"rows\": [\n{}\n]\n}}\n",
        if smoke { "smoke" } else { "full" },
        seed,
        json_rows.join(",\n")
    );
    write_bench("durability", smoke, &json);
}

/// Run the crowd-scale benchmark (PR 8) and write `BENCH_crowdscale.json`
/// at the repo root: a members × sessions grid through one service with
/// sharded dispatch (8 member shards, each with its own queue and worker
/// team) and 16-question waves, verified cell-by-cell against the 1-shard,
/// one-question-at-a-time reference, plus a shard sweep {1, 2, 4, 8} at
/// the largest crowd. Throughput must grow near-linearly in the shard
/// count while answers stay identical. `--smoke`
/// shrinks the grid so CI can assert the invariants in seconds.
fn run_crowd_scale(sink: &Arc<dyn EventSink>, seed: u64, smoke: bool) {
    outln!(
        "== crowd-scale: sharded dispatch + question waves ({}) ==",
        if smoke { "smoke" } else { "full" }
    );
    let domain = self_treatment_domain();
    let (grid_members, grid_sessions, sweep_shards, shards, wave): (
        Vec<usize>,
        Vec<usize>,
        Vec<usize>,
        usize,
        usize,
    ) = if smoke {
        (vec![200], vec![4], vec![1, 2], 2, 4)
    } else {
        (
            vec![1_000, 10_000, 100_000],
            vec![16, 256, 1024],
            vec![1, 2, 4, 8],
            8,
            16,
        )
    };
    // (outcome, answers_match) — every configuration of a (members,
    // sessions) cell is verified against the cell's 1-shard, wave-1
    // reference: identical per-session valid-MSP sets and stage-time
    // question counts, every session completed.
    let mut rows: Vec<(CrowdScaleOutcome, bool)> = Vec::new();
    let push = |rows: &mut Vec<(CrowdScaleOutcome, bool)>,
                    outcome: CrowdScaleOutcome,
                    reference: &CrowdScaleOutcome| {
        let ok = outcome.outcomes == reference.outcomes
            && outcome.outcomes.iter().all(|(_, _, completed)| *completed);
        assert!(
            ok,
            "crowd-scale {}x{} at {} shards / wave {} diverged from the reference",
            outcome.members, outcome.sessions, outcome.shards, outcome.wave
        );
        sink.gauge_labeled(
            "figures.crowdscale.qps",
            &format!(
                "m{}-s{}-sh{}-w{}",
                outcome.members, outcome.sessions, outcome.shards, outcome.wave
            ),
            outcome.qps,
        );
        rows.push((outcome, ok));
    };

    let sweep_members = *grid_members.last().expect("grid has members");
    let sweep_sessions = grid_sessions[grid_sessions.len() / 2];
    for &m in &grid_members {
        for &s in &grid_sessions {
            let reference = crowd_scale(&domain, m, s, 1, 1, seed);
            let fast = crowd_scale(&domain, m, s, shards, wave, seed);
            push(&mut rows, fast, &reference);
            if m == sweep_members && s == sweep_sessions {
                // The shard sweep rides on this cell: same wave, growing
                // shard counts, so the qps column isolates the sharding
                // gain.
                for &sh in &sweep_shards {
                    if sh == shards {
                        continue;
                    }
                    let swept = crowd_scale(&domain, m, s, sh, wave, seed);
                    push(&mut rows, swept, &reference);
                }
            }
            push(&mut rows, reference.clone(), &reference);
        }
    }

    let sweep_qps = |sh: usize| {
        rows.iter()
            .find(|(o, _)| {
                o.members == sweep_members
                    && o.sessions == sweep_sessions
                    && o.shards == sh
                    && o.wave == wave
            })
            .map(|(o, _)| o.qps)
    };
    let mut shard_gain = 1.0;
    if let (Some(one), Some(most)) = (sweep_qps(1), sweep_qps(*sweep_shards.last().unwrap())) {
        shard_gain = most / one.max(f64::EPSILON);
        outln!(
            "shard sweep at {sweep_members} members / {sweep_sessions} sessions: \
             {one:.0} -> {most:.0} q/s ({shard_gain:.2}x from 1 -> {} shards)",
            sweep_shards.last().unwrap()
        );
        if !smoke {
            assert!(
                shard_gain >= 3.0,
                "sharding must buy at least 3x throughput at scale, got {shard_gain:.2}x"
            );
        }
    }

    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|(o, ok)| {
            vec![
                o.members.to_string(),
                o.sessions.to_string(),
                o.shards.to_string(),
                o.wave.to_string(),
                o.workers.to_string(),
                o.crowd_questions.to_string(),
                format!("{:.2}s", o.wall.as_secs_f64()),
                format!("{:.0}", o.qps),
                ok.to_string(),
            ]
        })
        .collect();
    outln!(
        "{}",
        render(
            &[
                "members", "sessions", "shards", "wave", "workers", "crowd q", "wall", "q/s",
                "match"
            ],
            &table
        )
    );
    let json_rows: Vec<String> = rows
        .iter()
        .map(|(o, ok)| {
            format!(
                concat!(
                    "  {{\"members\": {}, \"sessions\": {}, \"shards\": {}, ",
                    "\"wave\": {}, \"workers\": {}, \"crowd_questions\": {}, ",
                    "\"store_hits\": {}, \"secs\": {:.6}, \"qps\": {:.3}, ",
                    "\"answers_match\": {}}}"
                ),
                o.members,
                o.sessions,
                o.shards,
                o.wave,
                o.workers,
                o.crowd_questions,
                o.store_hits,
                o.wall.as_secs_f64(),
                o.qps,
                ok,
            )
        })
        .collect();
    let json = format!(
        "{{\n\"experiment\": \"crowdscale\",\n\"mode\": {:?},\n\"seed\": {},\n\"shard_gain\": {:.3},\n\"rows\": [\n{}\n]\n}}\n",
        if smoke { "smoke" } else { "full" },
        seed,
        shard_gain,
        json_rows.join(",\n")
    );
    write_bench("crowdscale", smoke, &json);
}

/// Run the wire-protocol benchmark (PR 9) and write `BENCH_net.json` at
/// the repo root: the figure-1 workload served over TCP loopback through
/// `oassis-net` versus the identical sessions run in-process, plus the
/// mean round-trip of an idle-server `Hello` (pure framing + socket
/// cost). Served answers must match in-process exactly — the protocol is
/// an observability-preserving front-end, and this pins the price of the
/// indirection. `--smoke` shrinks the grid so CI can assert
/// the invariants in seconds.
fn run_net(sink: &Arc<dyn EventSink>, seed: u64, smoke: bool) {
    let grid: &[(usize, u32)] = if smoke {
        &[(1, 2), (4, 2)]
    } else {
        &[(1, 2), (4, 2), (16, 2), (16, 8)]
    };
    let rtt_probes = if smoke { 64 } else { 512 };
    outln!(
        "== net: served (TCP loopback) vs in-process sessions ({}) ==",
        if smoke { "smoke" } else { "full" }
    );
    let mut rows: Vec<NetRow> = Vec::new();
    for &(sessions, pairs) in grid {
        let row = net_overhead(sessions, pairs, rtt_probes, seed);
        assert!(
            row.answers_match,
            "served sessions diverged from the in-process run \
             ({sessions} sessions, {} members)",
            row.members
        );
        sink.gauge_labeled(
            "figures.net.overhead_pct",
            &format!("{sessions}x{}", row.members),
            row.overhead_pct,
        );
        sink.gauge_labeled(
            "figures.net.rtt_usecs",
            &format!("{sessions}x{}", row.members),
            row.rtt_mean.as_secs_f64() * 1e6,
        );
        rows.push(row);
    }
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.sessions.to_string(),
                r.members.to_string(),
                r.requests.to_string(),
                format!("{:.1}ms", r.inproc_time.as_secs_f64() * 1e3),
                format!("{:.1}ms", r.served_time.as_secs_f64() * 1e3),
                format!("{:+.1}%", r.overhead_pct),
                format!("{:.1}us", r.rtt_mean.as_secs_f64() * 1e6),
            ]
        })
        .collect();
    outln!(
        "{}",
        render(
            &["sessions", "members", "requests", "in-process", "served", "overhead", "hello rtt"],
            &table
        )
    );
    let json_rows: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                concat!(
                    "  {{\"sessions\": {}, \"members\": {}, \"requests\": {}, ",
                    "\"inproc_secs\": {:.6}, \"served_secs\": {:.6}, ",
                    "\"overhead_pct\": {:.3}, \"hello_rtt_usecs\": {:.3}, ",
                    "\"answers_match\": {}}}"
                ),
                r.sessions,
                r.members,
                r.requests,
                r.inproc_time.as_secs_f64(),
                r.served_time.as_secs_f64(),
                r.overhead_pct,
                r.rtt_mean.as_secs_f64() * 1e6,
                r.answers_match,
            )
        })
        .collect();
    let json = format!(
        "{{\n\"experiment\": \"net\",\n\"mode\": {:?},\n\"seed\": {},\n\"rows\": [\n{}\n]\n}}\n",
        if smoke { "smoke" } else { "full" },
        seed,
        json_rows.join(",\n")
    );
    write_bench("net", smoke, &json);
}

/// Run the query-planner benchmark (PR 10) and write `BENCH_planner.json`
/// at the repo root: each domain's canonical query plus a
/// `FILTER`-constrained variant. The reference evaluator must return the
/// planner's WHERE bindings, in order, for both clauses, and the
/// pushed-down constraint must shrink both the seed space and the crowd
/// traffic. `--smoke` shrinks the crowd so CI can assert
/// the invariants in seconds.
fn run_planner(sink: &Arc<dyn EventSink>, seed: u64, smoke: bool) {
    let members = if smoke { 6 } else { 24 };
    outln!(
        "== planner: constraint pushdown ({}) ==",
        if smoke { "smoke" } else { "full" }
    );
    let cases: [(Domain, &str); 3] = [
        (
            travel_domain(),
            "FILTER($x IN (<Venue-0-0>, <Venue-0-1>, <Venue-1-0>, <Venue-1-1>))",
        ),
        (culinary_domain(), "FILTER($d IN (<Dish-0>, <Dish-1>))"),
        (
            self_treatment_domain(),
            "FILTER($r IN (<Remedy-0>, <Remedy-1>))",
        ),
    ];
    let rows: Vec<PlannerRow> = cases
        .iter()
        .map(|(d, filter)| {
            let r = planner_effect(d, filter, members, 1_000_000, seed);
            assert!(
                r.answers_match,
                "{}: the planned and reference WHERE bindings differ",
                r.domain
            );
            assert!(
                r.pushdowns >= 1,
                "{}: the FILTER was not pushed into a scan",
                r.domain
            );
            assert!(
                r.filtered_seeds > 0 && r.filtered_seeds < r.base_seeds,
                "{}: pushdown did not narrow the seed space ({} vs {})",
                r.domain,
                r.filtered_seeds,
                r.base_seeds
            );
            assert!(
                r.filtered_questions < r.base_questions,
                "{}: pushdown did not reduce crowd questions ({} vs {})",
                r.domain,
                r.filtered_questions,
                r.base_questions
            );
            sink.gauge_labeled("figures.planner.eval_speedup", &r.domain, r.eval_speedup);
            r
        })
        .collect();
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.domain.clone(),
                r.base_seeds.to_string(),
                r.filtered_seeds.to_string(),
                r.base_questions.to_string(),
                r.filtered_questions.to_string(),
                format!("{}/{}/{}", r.pushdowns, r.unfolds, r.pruned),
                format!("{:.1}us", r.eval_planned.as_secs_f64() * 1e6),
                format!("{:.1}us", r.eval_reference.as_secs_f64() * 1e6),
                format!("{:.2}x", r.eval_speedup),
            ]
        })
        .collect();
    outln!(
        "{}",
        render(
            &[
                "domain",
                "seeds",
                "seeds+FILTER",
                "questions",
                "questions+FILTER",
                "push/unfold/prune",
                "eval planned",
                "eval reference",
                "eval speedup"
            ],
            &table
        )
    );
    let json_rows: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                concat!(
                    "  {{\"domain\": {:?}, \"members\": {}, \"filter\": {:?}, ",
                    "\"base_seeds\": {}, \"filtered_seeds\": {}, ",
                    "\"base_questions\": {}, \"filtered_questions\": {}, ",
                    "\"pushdowns\": {}, \"unfolds\": {}, \"pruned\": {}, ",
                    "\"eval_planned_secs\": {:.9}, \"eval_reference_secs\": {:.9}, ",
                    "\"eval_speedup\": {:.3}, \"answers_match\": {}}}"
                ),
                r.domain,
                r.members,
                r.filter,
                r.base_seeds,
                r.filtered_seeds,
                r.base_questions,
                r.filtered_questions,
                r.pushdowns,
                r.unfolds,
                r.pruned,
                r.eval_planned.as_secs_f64(),
                r.eval_reference.as_secs_f64(),
                r.eval_speedup,
                r.answers_match,
            )
        })
        .collect();
    let json = format!(
        "{{\n\"experiment\": \"planner\",\n\"mode\": {:?},\n\"seed\": {},\n\"rows\": [\n{}\n]\n}}\n",
        if smoke { "smoke" } else { "full" },
        seed,
        json_rows.join(",\n")
    );
    write_bench("planner", smoke, &json);
}

/// Run the mining-cost benchmark and write `BENCH_mining.json` at the
/// repo root: per domain, one cold `Oassis::execute` with 24 members, its
/// untraced µs per question (median of 5 runs) and the share of a traced
/// run spent in each `engine.mine.*` span. `--smoke` mines
/// self-treatment once with a small crowd, asserting that tracing leaves
/// the run unchanged and that the spans account for mining time.
fn run_mining(seed: u64, smoke: bool) {
    let (members, runs) = if smoke { (8, 1) } else { (24, 5) };
    let mode = if smoke { "smoke" } else { "full" };
    outln!("== mining: µs per question and its split by session span ({mode}) ==");
    // A traced run counts the whole DAG first (`engine.dag.count`), which
    // takes minutes on the two multiplicity domains: the smoke run keeps
    // to self-treatment.
    let domains = if smoke {
        vec![self_treatment_domain()]
    } else {
        vec![travel_domain(), culinary_domain(), self_treatment_domain()]
    };
    let rows: Vec<MiningRow> = domains
        .iter()
        .map(|d| mining_split(d, members, seed, runs))
        .collect();
    for r in &rows {
        let covered: f64 = r.span_shares.iter().map(|&(_, s)| s).sum();
        assert!(
            r.questions > 0 && covered > 0.0 && covered <= 1.0 + 1e-9,
            "{}: spans cover {covered:.3} of the traced run",
            r.domain
        );
    }
    let mut headers = vec![
        "domain",
        "#questions",
        "nodes",
        "µs/question",
        "trace overhead",
        "DAG count",
    ];
    let short: Vec<String> = rows[0]
        .span_shares
        .iter()
        .map(|(name, _)| name.trim_start_matches("engine.mine.").to_owned())
        .collect();
    headers.extend(short.iter().map(String::as_str));
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            let mut row = vec![
                r.domain.clone(),
                r.questions.to_string(),
                r.nodes_generated.to_string(),
                format!("{:.1}", r.us_per_question),
                format!("{:.1}%", r.trace_overhead * 100.0),
                format!("{:.2}s", r.dag_count_secs),
            ];
            row.extend(
                r.span_shares
                    .iter()
                    .map(|(_, s)| format!("{:.1}%", s * 100.0)),
            );
            row
        })
        .collect();
    outln!("{}", render(&headers, &table));
    let json_rows: Vec<String> = rows
        .iter()
        .map(|r| {
            let shares: Vec<String> = r
                .span_shares
                .iter()
                .map(|(name, s)| format!("{name:?}: {s:.4}"))
                .collect();
            format!(
                concat!(
                    "  {{\"domain\": {:?}, \"members\": {}, \"questions\": {}, ",
                    "\"nodes_generated\": {}, \"us_per_question\": {:.2}, ",
                    "\"trace_overhead\": {:.3}, \"dag_count_secs\": {:.3}, ",
                    "\"span_shares\": {{{}}}}}"
                ),
                r.domain,
                r.members,
                r.questions,
                r.nodes_generated,
                r.us_per_question,
                r.trace_overhead,
                r.dag_count_secs,
                shares.join(", "),
            )
        })
        .collect();
    let json = format!(
        "{{\n\"experiment\": \"mining\",\n\"mode\": {mode:?},\n\"seed\": {seed},\n\"runs\": {runs},\n\"rows\": [\n{}\n]\n}}\n",
        json_rows.join(",\n")
    );
    write_bench("mining", smoke, &json);
}

/// Write an experiment's JSON: `BENCH_<name>.json` at the repo root, or,
/// for a smoke run, `target/BENCH_<name>.smoke.json`, so CI never clobbers
/// the checked-in full-mode numbers.
fn write_bench(name: &str, smoke: bool, json: &str) {
    let path = if smoke {
        format!("target/BENCH_{name}.smoke.json")
    } else {
        format!("BENCH_{name}.json")
    };
    match std::fs::write(&path, json) {
        Ok(()) => outln!("wrote {path}"),
        Err(e) => eprintln!("cannot write {path}: {e}"),
    }
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    args.retain(|a| a != "--smoke");
    let wanted: Vec<&str> = if args.is_empty() || args.iter().any(|a| a == "all") {
        vec![
            "fig4a",
            "fig4b",
            "fig4c",
            "fig4d",
            "fig4e",
            "fig4f",
            "fig5",
            "shape",
            "dist",
            "mult",
            "crowdmix",
            "bounds",
            "growth",
            "runtime",
            "scale",
            "service",
            "durability",
            "crowd-scale",
            "net",
            "planner",
            "mining",
        ]
    } else {
        args.iter().map(String::as_str).collect()
    };
    let seed = 2014;
    let sink = telemetry_sink();

    for w in wanted {
        match w {
            "fig4a" => fig4_stats("a", &travel_domain(), seed, &sink),
            "fig4b" => fig4_stats("b", &culinary_domain(), seed, &sink),
            "fig4c" => fig4_stats("c", &self_treatment_domain(), seed, &sink),
            "fig4d" => {
                let d = travel_domain();
                let crowd = paper_crowd(&d, seed);
                print_pace("d", &pace_of_collection(&d, 0.2, &crowd));
            }
            "fig4e" => {
                let d = self_treatment_domain();
                let crowd = paper_crowd(&d, seed);
                print_pace("e", &pace_of_collection(&d, 0.2, &crowd));
            }
            "fig4f" => print_curves(
                "Figure 4f: effect of answer types (synthetic, width 500 depth 7)",
                &answer_type_effect(seed),
            ),
            "fig5" => {
                for (tag, pct) in [("a", 0.02), ("b", 0.05), ("c", 0.10)] {
                    print_curves(
                        &format!(
                            "Figure 5{tag}: {:.0}% total MSPs (avg of 6 trials)",
                            pct * 100.0
                        ),
                        &algorithm_comparison(pct, 6, seed),
                    );
                }
            }
            "shape" => {
                outln!("== §6.4: varying the DAG shape (5% MSPs) ==");
                let rows: Vec<Vec<String>> = shape_variation(0.05, seed)
                    .iter()
                    .map(|r| {
                        vec![
                            r.label.clone(),
                            r.dag_nodes.to_string(),
                            r.planted.to_string(),
                            r.questions.to_string(),
                            r.to_all_targets.map_or("-".into(), |q| q.to_string()),
                        ]
                    })
                    .collect();
                outln!(
                    "{}",
                    render(
                        &[
                            "shape",
                            "DAG nodes",
                            "planted MSPs",
                            "#questions",
                            "to 100% MSPs"
                        ],
                        &rows
                    )
                );
            }
            "dist" => {
                outln!("== §6.4: varying the MSP distribution (5% MSPs, width 500 depth 7) ==");
                let rows: Vec<Vec<String>> = distribution_variation(0.05, seed)
                    .iter()
                    .map(|r| {
                        vec![
                            r.label.clone(),
                            r.planted.to_string(),
                            r.questions.to_string(),
                            r.to_all_targets.map_or("-".into(), |q| q.to_string()),
                        ]
                    })
                    .collect();
                outln!(
                    "{}",
                    render(
                        &["distribution", "planted MSPs", "#questions", "to 100% MSPs"],
                        &rows
                    )
                );
            }
            "mult" => {
                outln!("== §6.4: multiplicities and lazy generation ==");
                let rows: Vec<Vec<String>> = multiplicity_variation(seed)
                    .iter()
                    .map(|r| {
                        vec![
                            format!("{:.0}%", r.mult_pct * 100.0),
                            r.size.to_string(),
                            r.questions.to_string(),
                            r.lazy_nodes.to_string(),
                            r.eager_nodes.to_string(),
                            format!("{:.4}%", r.lazy_pct),
                        ]
                    })
                    .collect();
                outln!(
                    "{}",
                    render(
                        &[
                            "mult MSPs",
                            "size",
                            "#questions",
                            "lazy nodes",
                            "eager nodes",
                            "lazy%"
                        ],
                        &rows
                    )
                );
            }
            "crowdmix" => {
                outln!("== §6.3: answer-type mix (travel domain) ==");
                let d = travel_domain();
                let m = crowd_mix(&d, &paper_crowd(&d, seed));
                outln!(
                    "{}",
                    render(
                        &[
                            "#questions",
                            "concrete%",
                            "special.%",
                            "none-of-these%",
                            "pruning%"
                        ],
                        &[vec![
                            m.questions.to_string(),
                            format!("{:.1}%", m.concrete_pct),
                            format!("{:.1}%", m.specialization_pct),
                            format!("{:.1}%", m.none_of_these_pct),
                            format!("{:.1}%", m.pruning_pct),
                        ]]
                    )
                );
            }
            "bounds" => {
                outln!("== Propositions 4.7/4.8: crowd-complexity bounds (2% MSPs) ==");
                let b = complexity_bounds(0.02, seed);
                outln!(
                    "{}",
                    render(
                        &[
                            "unique questions",
                            "(|E|+|R|)·|msp|+|msp⁻|",
                            "|msp_valid|+|msp⁻|"
                        ],
                        &[vec![
                            b.unique_questions.to_string(),
                            b.upper_bound_arg.to_string(),
                            b.lower_bound_arg.to_string(),
                        ]]
                    )
                );
            }
            "growth" => {
                outln!("== §6.3: crowd growth and the first MSP ==");
                let rows: Vec<Vec<String>> =
                    crowd_growth(&self_treatment_domain(), &[6, 12, 24, 48, 96], seed)
                        .iter()
                        .map(|r| {
                            vec![
                                r.members.to_string(),
                                r.to_first_msp.map_or("-".into(), |q| q.to_string()),
                                r.rounds_to_first_msp.map_or("-".into(), |q| q.to_string()),
                                r.total_questions.to_string(),
                            ]
                        })
                        .collect();
                outln!(
                    "{}",
                    render(
                        &[
                            "members",
                            "to 1st MSP (questions)",
                            "to 1st MSP (rounds)",
                            "#questions"
                        ],
                        &rows
                    )
                );
            }
            "runtime" => {
                outln!("== concurrent crowd-session runtime: wall-clock speedup ==");
                let d = self_treatment_domain();
                let per_answer = Duration::from_millis(25);
                let rows: Vec<Vec<String>> = [1usize, 2, 4, 8]
                    .iter()
                    .map(|&workers| {
                        let r = runtime_speedup(&d, 64, workers, per_answer, seed);
                        assert!(r.answers_match, "concurrent run changed the answers");
                        let label = format!("runtime:{workers}w");
                        sink.gauge_labeled("figures.speedup", &label, r.speedup);
                        vec![
                            r.members.to_string(),
                            r.workers.to_string(),
                            format!("{:.0}ms", r.per_answer.as_secs_f64() * 1e3),
                            format!("{:.2}s", r.sequential.as_secs_f64()),
                            format!("{:.2}s", r.concurrent.as_secs_f64()),
                            format!("{:.2}x", r.speedup),
                            r.questions.to_string(),
                        ]
                    })
                    .collect();
                outln!(
                    "{}",
                    render(
                        &[
                            "members",
                            "workers",
                            "per-answer",
                            "sequential",
                            "concurrent",
                            "speedup",
                            "#questions"
                        ],
                        &rows
                    )
                );
            }
            "scale" => run_scale(&sink, seed, smoke),
            "service" => run_service(&sink, seed, smoke),
            "durability" => run_durability(&sink, seed, smoke),
            "crowd-scale" => run_crowd_scale(&sink, seed, smoke),
            "net" => run_net(&sink, seed, smoke),
            "planner" => run_planner(&sink, seed, smoke),
            "mining" => run_mining(seed, smoke),
            other => eprintln!("unknown experiment {other:?} (try: all)"),
        }
    }
}
