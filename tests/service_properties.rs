//! Property tests for the multi-query service layer, run on the
//! deterministic simulation executor (see `crates/simtest`): whatever the
//! seed-driven arrival schedule does, no admitted session starves, and
//! sessions over disjoint crowds behave byte-for-byte as if they ran
//! alone. Reproduce any failing seed with
//! `cargo run --release -p oassis-simtest --bin sim -- repro <seed>`.

use proptest::prelude::*;

use oassis_simtest::{
    check_service_seed, disjoint_plans, max_dispatch_gap, run, service_plans, RunOutcome, Scenario,
    ServicePlan, STARVATION_BOUND,
};

fn simulate(seed: u64, plans: &[ServicePlan], latency: bool) -> RunOutcome {
    run(&Scenario::service(seed, plans, latency)).unwrap_or_else(|f| panic!("{f}"))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// No admitted session starves: with 2–4 concurrent sessions over an
    /// instant shared crowd, the round-robin scheduler keeps every
    /// session's dispatch cadence within the fairness bound — between two
    /// crowd questions of one session, the others get at most
    /// `STARVATION_BOUND` questions in.
    #[test]
    fn no_admitted_session_starves(
        seed in 0u64..10_000,
        n_sessions in 2usize..5,
    ) {
        let outcome = simulate(seed, &service_plans(n_sessions), false);
        for i in 0..n_sessions {
            prop_assert_eq!(
                outcome.session(i).status.as_str(), "Completed",
                "seed {}: session {} did not complete", seed, i
            );
        }
        let gap = max_dispatch_gap(&outcome);
        prop_assert!(
            gap <= STARVATION_BOUND,
            "seed {}: dispatch gap {} exceeds bound {} with {} sessions",
            seed, gap, STARVATION_BOUND, n_sessions
        );
    }

    /// Concurrent sessions over disjoint crowds are perfectly isolated:
    /// the combined run's per-session outcomes (MSP sets, question counts,
    /// store traffic, status) are byte-identical to running each session
    /// alone — across seed-varied latency schedules.
    #[test]
    fn disjoint_rosters_equal_isolated_runs(seed in 0u64..10_000) {
        let (plan_a, plan_b) = disjoint_plans();
        let combined = simulate(seed, &[plan_a.clone(), plan_b.clone()], true);
        let alone_a = simulate(seed, &[plan_a], true);
        let alone_b = simulate(seed, &[plan_b], true);
        prop_assert_eq!(combined.session(0), alone_a.session(0), "seed {}", seed);
        prop_assert_eq!(combined.session(1), alone_b.session(0), "seed {}", seed);
    }

    /// The full service oracle suite (replay, single-session differential,
    /// starvation, isolation) holds for arbitrary seeds, not just the
    /// `0..N` sweep range.
    #[test]
    fn service_oracles_hold_for_arbitrary_seeds(seed in 0u64..1_000_000) {
        if let Err(failure) = check_service_seed(seed) {
            prop_assert!(false, "{}", failure);
        }
    }
}
