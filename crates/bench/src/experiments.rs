//! The experiment implementations behind every figure of Section 6.

use std::sync::Arc;
use std::time::{Duration, Instant};

use oassis_core::{
    baseline_question_count, AssignSpace, Assignment, EngineConfig, HorizontalMiner, MinerConfig,
    MinerOutcome, NaiveMiner, Oassis, OassisService, SessionRuntime, SessionSpec, SessionStatus,
    VerticalMiner,
};
use oassis_crowd::{CrowdMember, MemberId, ResponseModel, UnreliableMember};
use oassis_datagen::{
    generate_crowd, plant::plant_multiplicity_msps, plant_msps, CrowdGenConfig, Domain,
    MspDistribution, PlantedOracle, SynthConfig, SynthInstance,
};
use oassis_obs::{names, null_sink, EventSink, InMemorySink};
use oassis_ql::parse_query;
use oassis_simtest::{run_reference, run_sequential};
use oassis_sparql::{plan, MatchMode};

use crate::antichains::count_antichains_up_to;

/// One row of the Figure 4a–4c crowd-statistics tables.
#[derive(Debug, Clone)]
pub struct ThresholdRow {
    /// Support threshold.
    pub threshold: f64,
    /// Total MSPs discovered.
    pub msps: usize,
    /// Valid MSPs.
    pub valid_msps: usize,
    /// Total questions asked (including repetitions across members).
    pub questions: usize,
    /// Our questions as % of the baseline (5 questions per valid
    /// assignment, no traversal order) — the paper's `baseline%`.
    pub baseline_pct: f64,
}

/// Build the assignment space for a domain's canonical query.
pub fn domain_space(domain: &Domain) -> AssignSpace {
    let query = parse_query(&domain.query, &domain.ontology).expect("domain query parses");
    AssignSpace::build(
        Arc::new(domain.ontology.clone()),
        &query,
        MatchMode::Semantic,
        Vec::new(),
    )
    .expect("domain space builds")
}

/// Figures 4a–4c: run the multi-user engine over a generated crowd at each
/// threshold and report the crowd statistics.
pub fn crowd_statistics(
    domain: &Domain,
    thresholds: &[f64],
    crowd_cfg: &CrowdGenConfig,
) -> Vec<ThresholdRow> {
    crowd_statistics_observed(domain, thresholds, crowd_cfg, &null_sink())
}

/// [`crowd_statistics`] with engine telemetry: every execution streams its
/// events (questions, border updates, cache traffic, spans, ...) to `sink`,
/// e.g. a [`oassis_obs::JsonLinesSink`] for machine-readable figure runs.
pub fn crowd_statistics_observed(
    domain: &Domain,
    thresholds: &[f64],
    crowd_cfg: &CrowdGenConfig,
    sink: &Arc<dyn EventSink>,
) -> Vec<ThresholdRow> {
    let engine = Oassis::new(domain.ontology.clone());
    let query = engine.parse(&domain.query).expect("query parses");
    let space = domain_space(domain);
    let valid_count = space
        .enumerate_single_valued(2_000_000)
        .expect("domain query is bound-only")
        .iter()
        .filter(|a| space.is_valid(a))
        .count();
    let baseline = baseline_question_count(valid_count, 5);

    thresholds
        .iter()
        .map(|&th| {
            // Fresh crowd per threshold: deterministic per seed, so this is
            // the paper's replay methodology with exact answer coverage
            // ("count only the answers used by the algorithm").
            let crowd = generate_crowd(domain, crowd_cfg);
            let mut members: Vec<Box<dyn CrowdMember>> = crowd
                .members
                .into_iter()
                .map(|m| Box::new(m) as Box<dyn CrowdMember>)
                .collect();
            let cfg = EngineConfig::builder().sink(Arc::clone(sink)).build();
            let result = engine
                .execute_parsed(&query, th, &mut members, &cfg)
                .expect("execution succeeds");
            ThresholdRow {
                threshold: th,
                msps: result.answers.len(),
                valid_msps: result.answers.iter().filter(|a| a.valid).count(),
                questions: result.stats.total_questions,
                baseline_pct: 100.0 * result.stats.total_questions as f64 / baseline as f64,
            }
        })
        .collect()
}

/// A sampled discovery curve: questions needed to reach each fraction.
#[derive(Debug, Clone)]
pub struct PaceResult {
    /// Domain name.
    pub domain: String,
    /// Threshold used.
    pub threshold: f64,
    /// Fractions sampled (0.1 ..= 1.0).
    pub fractions: Vec<f64>,
    /// Questions to classify the fraction of all DAG assignments.
    pub classified: Vec<Option<usize>>,
    /// Questions to discover the fraction of all MSPs.
    pub all_msps: Vec<Option<usize>>,
    /// Questions to discover the fraction of *valid* MSPs.
    pub valid_msps: Vec<Option<usize>>,
    /// Total questions asked.
    pub total_questions: usize,
    /// DAG size (number of assignments tracked).
    pub dag_nodes: usize,
}

/// Figures 4d–4e: the pace of data collection at one threshold.
pub fn pace_of_collection(
    domain: &Domain,
    threshold: f64,
    crowd_cfg: &CrowdGenConfig,
) -> PaceResult {
    let engine = Oassis::new(domain.ontology.clone());
    let query = engine.parse(&domain.query).expect("query parses");
    let space = domain_space(domain);
    let universe = space
        .enumerate_single_valued(2_000_000)
        .expect("domain query is bound-only");
    let dag_nodes = universe.len();

    let crowd = generate_crowd(domain, crowd_cfg);
    let mut members: Vec<Box<dyn CrowdMember>> = crowd
        .members
        .into_iter()
        .map(|m| Box::new(m) as Box<dyn CrowdMember>)
        .collect();
    let cfg = EngineConfig::builder()
        .track_curve(true)
        .curve_universe(universe)
        .build();
    let result = engine
        .execute_parsed(&query, threshold, &mut members, &cfg)
        .expect("execution succeeds");

    let fractions: Vec<f64> = (1..=10).map(|i| i as f64 / 10.0).collect();
    let final_classified = result.stats.curve.last().map(|p| p.classified).unwrap_or(0);
    let classified = fractions
        .iter()
        .map(|&f| {
            let needed = (f * final_classified as f64).ceil() as usize;
            result
                .stats
                .curve
                .iter()
                .find(|p| p.classified >= needed)
                .map(|p| p.questions)
        })
        .collect();
    let all_msps = fractions
        .iter()
        .map(|&f| result.stats.questions_to_msp_fraction(f))
        .collect();
    let valid_msps = fractions
        .iter()
        .map(|&f| result.stats.questions_to_valid_msp_fraction(f))
        .collect();
    PaceResult {
        domain: domain.name.to_owned(),
        threshold,
        fractions,
        classified,
        all_msps,
        valid_msps,
        total_questions: result.stats.total_questions,
        dag_nodes,
    }
}

/// One curve of Figure 4f / Figure 5: questions to discover each fraction
/// of the planted valid MSPs.
#[derive(Debug, Clone)]
pub struct CurveSeries {
    /// Series label (e.g. "Vertical", "50% special.").
    pub label: String,
    /// Fractions 0.1 ..= 1.0.
    pub fractions: Vec<f64>,
    /// Questions needed per fraction (`None` = never reached).
    pub questions: Vec<Option<f64>>,
    /// Total questions to completion.
    pub total_questions: f64,
}

fn target_curve(label: &str, outcome: &MinerOutcome, targets: usize) -> CurveSeries {
    let fractions: Vec<f64> = (1..=10).map(|i| i as f64 / 10.0).collect();
    let questions = fractions
        .iter()
        .map(|&f| {
            outcome
                .stats
                .questions_to_target_fraction(f, targets)
                .map(|q| q as f64)
        })
        .collect();
    CurveSeries {
        label: label.to_owned(),
        fractions,
        questions,
        total_questions: outcome.stats.total_questions as f64,
    }
}

/// The standard synthetic setup of §6.4: a two-variable (travel-like)
/// product DAG of width 500 and depth 7.
pub fn standard_synth(seed: u64) -> SynthInstance {
    SynthInstance::generate(&SynthConfig {
        width: 500,
        depth: 7,
        two_vars: true,
        threshold: 0.2,
        seed,
        ..Default::default()
    })
}

/// Figure 4f: effect of the specialization / pruning answer-type ratios on
/// the vertical algorithm (single simulated user, planted MSPs ≈ 1.2% of
/// the DAG, matching the crowd experiments).
pub fn answer_type_effect(seed: u64) -> Vec<CurveSeries> {
    let inst = standard_synth(seed);
    let n_msps = ((inst.valid_nodes.len() as f64) * 0.012).round().max(4.0) as usize;
    let planted = plant_msps(
        &inst.space,
        &inst.valid_nodes,
        n_msps,
        MspDistribution::Uniform,
        seed,
    );
    let variants: &[(&str, f64, f64)] = &[
        ("100% closed", 0.0, 0.0),
        ("10% special.", 0.1, 0.0),
        ("50% special.", 0.5, 0.0),
        ("100% special.", 1.0, 0.0),
        ("25% pruning", 0.0, 0.25),
        ("50% pruning", 0.0, 0.5),
    ];
    variants
        .iter()
        .map(|&(label, spec, prune)| {
            let mut oracle = PlantedOracle::new(MemberId(0), &inst.space, &planted, 0.5);
            let cfg = MinerConfig {
                specialization_ratio: spec,
                pruning_ratio: prune,
                seed,
                track_curve: true,
                targets: Some(planted.clone()),
                ..MinerConfig::new(0.2)
            };
            let out = VerticalMiner::run(&inst.space, &mut oracle, &cfg);
            target_curve(label, &out, planted.len())
        })
        .collect()
}

/// Figure 5: Vertical vs Horizontal vs Naive at a given planted-MSP
/// percentage, averaged over `trials` instances.
pub fn algorithm_comparison(pct: f64, trials: u64, seed: u64) -> Vec<CurveSeries> {
    let fractions: Vec<f64> = (1..=10).map(|i| i as f64 / 10.0).collect();
    let mut sums: Vec<Vec<f64>> = vec![vec![0.0; fractions.len()]; 3];
    let mut counts: Vec<Vec<usize>> = vec![vec![0; fractions.len()]; 3];
    let mut totals = [0.0f64; 3];

    for t in 0..trials {
        let inst = standard_synth(seed.wrapping_add(t));
        let n_msps = ((inst.valid_nodes.len() as f64) * pct).round().max(1.0) as usize;
        let planted = plant_msps(
            &inst.space,
            &inst.valid_nodes,
            n_msps,
            MspDistribution::Uniform,
            seed.wrapping_add(t),
        );
        let mk_cfg = || MinerConfig {
            seed: seed.wrapping_add(t),
            track_curve: true,
            targets: Some(planted.clone()),
            ..MinerConfig::new(0.2)
        };
        let outs = [
            {
                let mut oracle = PlantedOracle::new(MemberId(0), &inst.space, &planted, 0.5);
                VerticalMiner::run(&inst.space, &mut oracle, &mk_cfg())
            },
            {
                let mut oracle = PlantedOracle::new(MemberId(0), &inst.space, &planted, 0.5);
                HorizontalMiner::run(&inst.space, &mut oracle, &mk_cfg())
            },
            {
                let mut oracle = PlantedOracle::new(MemberId(0), &inst.space, &planted, 0.5);
                NaiveMiner::run(&inst.space, &mut oracle, &mk_cfg(), &inst.valid_nodes)
            },
        ];
        for (a, out) in outs.iter().enumerate() {
            totals[a] += out.stats.total_questions as f64;
            for (i, &f) in fractions.iter().enumerate() {
                if let Some(q) = out.stats.questions_to_target_fraction(f, planted.len()) {
                    sums[a][i] += q as f64;
                    counts[a][i] += 1;
                }
            }
        }
    }

    ["Vertical", "Horizontal", "Naive"]
        .iter()
        .enumerate()
        .map(|(a, label)| CurveSeries {
            label: (*label).to_owned(),
            fractions: fractions.clone(),
            questions: (0..fractions.len())
                .map(|i| {
                    if counts[a][i] == 0 {
                        None
                    } else {
                        Some(sums[a][i] / counts[a][i] as f64)
                    }
                })
                .collect(),
            total_questions: totals[a] / trials as f64,
        })
        .collect()
}

/// One row of the §6.4 in-text variation experiments.
#[derive(Debug, Clone)]
pub struct VariationRow {
    /// Variation label.
    pub label: String,
    /// DAG node count.
    pub dag_nodes: usize,
    /// Planted MSPs.
    pub planted: usize,
    /// Total questions to completion (vertical algorithm).
    pub questions: usize,
    /// Questions to find all planted MSPs.
    pub to_all_targets: Option<usize>,
}

fn run_planted_vertical(inst: &SynthInstance, planted: &[Assignment], seed: u64) -> MinerOutcome {
    let mut oracle = PlantedOracle::new(MemberId(0), &inst.space, planted, 0.5);
    let cfg = MinerConfig {
        seed,
        track_curve: true,
        targets: Some(planted.to_vec()),
        ..MinerConfig::new(0.2)
    };
    VerticalMiner::run(&inst.space, &mut oracle, &cfg)
}

/// §6.4 in-text: varying the DAG's width and depth has no significant
/// effect on the trends.
pub fn shape_variation(pct: f64, seed: u64) -> Vec<VariationRow> {
    let mut rows = Vec::new();
    for &(w, d) in &[(500usize, 4usize), (500, 7), (1000, 7), (2000, 7)] {
        let inst = SynthInstance::generate(&SynthConfig {
            width: w,
            depth: d,
            two_vars: true,
            threshold: 0.2,
            seed,
            ..Default::default()
        });
        let n = ((inst.valid_nodes.len() as f64) * pct).round().max(1.0) as usize;
        let planted = plant_msps(
            &inst.space,
            &inst.valid_nodes,
            n,
            MspDistribution::Uniform,
            seed,
        );
        let out = run_planted_vertical(&inst, &planted, seed);
        rows.push(VariationRow {
            label: format!("width {w}, depth {d}"),
            dag_nodes: inst.node_count(),
            planted: planted.len(),
            questions: out.stats.total_questions,
            to_all_targets: out.stats.questions_to_target_fraction(1.0, planted.len()),
        });
    }
    rows
}

/// §6.4 in-text: varying how the planted MSPs are distributed over the DAG.
pub fn distribution_variation(pct: f64, seed: u64) -> Vec<VariationRow> {
    let inst = standard_synth(seed);
    let n = ((inst.valid_nodes.len() as f64) * pct).round().max(1.0) as usize;
    [
        (MspDistribution::Uniform, "uniform"),
        (MspDistribution::Nearby, "nearby (≤4 apart)"),
        (MspDistribution::Far, "far (≥6 apart)"),
    ]
    .into_iter()
    .map(|(dist, label)| {
        let planted = plant_msps(&inst.space, &inst.valid_nodes, n, dist, seed);
        let out = run_planted_vertical(&inst, &planted, seed);
        VariationRow {
            label: label.to_owned(),
            dag_nodes: inst.node_count(),
            planted: planted.len(),
            questions: out.stats.total_questions,
            to_all_targets: out.stats.questions_to_target_fraction(1.0, planted.len()),
        }
    })
    .collect()
}

/// One row of the multiplicity experiment.
#[derive(Debug, Clone)]
pub struct MultiplicityRow {
    /// Share of nodes planted as multiplicity MSPs.
    pub mult_pct: f64,
    /// Size of the multiplicity MSPs.
    pub size: usize,
    /// Total questions.
    pub questions: usize,
    /// Nodes the lazy generator materialized.
    pub lazy_nodes: usize,
    /// Nodes an eager generator (all assignments up to the same
    /// multiplicity) would materialize.
    pub eager_nodes: u128,
    /// `lazy_nodes / eager_nodes`, in percent.
    pub lazy_pct: f64,
}

/// §6.4 in-text: multiplicities — question counts track the MSP percentage
/// (not the multiplicities), and lazy generation materializes ≪ 1% of the
/// eager node count.
pub fn multiplicity_variation(seed: u64) -> Vec<MultiplicityRow> {
    let inst = SynthInstance::generate(&SynthConfig {
        width: 200,
        depth: 5,
        multiplicities: true,
        two_vars: false,
        threshold: 0.2,
        seed,
    });
    let root = inst
        .ontology
        .vocabulary()
        .element("Pattern")
        .expect("root exists");
    let mut rows = Vec::new();
    for &(mult_pct, size) in &[(0.0, 1usize), (0.01, 2), (0.02, 3), (0.05, 4)] {
        let base_n = ((inst.valid_nodes.len() as f64) * 0.02).round().max(1.0) as usize;
        let mut planted = plant_msps(
            &inst.space,
            &inst.valid_nodes,
            base_n,
            MspDistribution::Uniform,
            seed,
        );
        if mult_pct > 0.0 {
            let extra_n = ((inst.valid_nodes.len() as f64) * mult_pct)
                .round()
                .max(1.0) as usize;
            let extra = plant_multiplicity_msps(
                &inst.space,
                &inst.valid_nodes,
                &planted,
                extra_n,
                size,
                seed,
            );
            planted.extend(extra);
        }
        let out = run_planted_vertical(&inst, &planted, seed);
        let max_size = planted.iter().map(Assignment::weight).max().unwrap_or(1);
        let eager =
            count_antichains_up_to(inst.ontology.vocabulary().elements_order(), root, max_size);
        let lazy = out.stats.nodes_generated;
        rows.push(MultiplicityRow {
            mult_pct,
            size,
            questions: out.stats.total_questions,
            lazy_nodes: lazy,
            eager_nodes: eager,
            lazy_pct: 100.0 * lazy as f64 / eager as f64,
        });
    }
    rows
}

/// The answer-type mix of one execution (§6.3 in-text: 12% specialization,
/// half of those "none of these", 13% pruning).
#[derive(Debug, Clone)]
pub struct CrowdMix {
    /// Total questions.
    pub questions: usize,
    /// % concrete questions.
    pub concrete_pct: f64,
    /// % specialization questions answered with a choice.
    pub specialization_pct: f64,
    /// % specialization questions answered "none of these".
    pub none_of_these_pct: f64,
    /// % pruning interactions.
    pub pruning_pct: f64,
}

/// §6.3 in-text: reproduce the answer-type mix with the engine's
/// question-policy ratios set to the observed crowd behaviour.
pub fn crowd_mix(domain: &Domain, crowd_cfg: &CrowdGenConfig) -> CrowdMix {
    let engine = Oassis::new(domain.ontology.clone());
    let query = engine.parse(&domain.query).expect("query parses");
    let crowd = generate_crowd(domain, crowd_cfg);
    let mut members: Vec<Box<dyn CrowdMember>> = crowd
        .members
        .into_iter()
        .map(|m| Box::new(m) as Box<dyn CrowdMember>)
        .collect();
    let cfg = EngineConfig::builder()
        .specialization_ratio(0.35)
        .pruning_ratio(0.6)
        .build();
    let result = engine
        .execute_parsed(&query, 0.2, &mut members, &cfg)
        .expect("execution succeeds");
    let s = &result.stats;
    let total = s.total_questions.max(1) as f64;
    CrowdMix {
        questions: s.total_questions,
        concrete_pct: 100.0 * s.concrete as f64 / total,
        specialization_pct: 100.0 * s.specialization as f64 / total,
        none_of_these_pct: 100.0 * s.none_of_these as f64 / total,
        pruning_pct: 100.0 * s.pruning as f64 / total,
    }
}

/// Crowd-complexity bound check (Propositions 4.7/4.8).
#[derive(Debug, Clone)]
pub struct BoundsCheck {
    /// Unique questions asked by the vertical algorithm.
    pub unique_questions: usize,
    /// `(|E| + |R|) · |msp| + |msp⁻|`, the Proposition 4.7 bound argument.
    pub upper_bound_arg: usize,
    /// `|msp_valid| + |msp⁻_valid|`, the Proposition 4.8 lower-bound arg.
    pub lower_bound_arg: usize,
}

/// Measure the vertical algorithm's unique questions against the
/// Proposition 4.7 bound argument on a standard synthetic instance.
pub fn complexity_bounds(pct: f64, seed: u64) -> BoundsCheck {
    let inst = standard_synth(seed);
    let n = ((inst.valid_nodes.len() as f64) * pct).round().max(1.0) as usize;
    let planted = plant_msps(
        &inst.space,
        &inst.valid_nodes,
        n,
        MspDistribution::Uniform,
        seed,
    );
    let out = run_planted_vertical(&inst, &planted, seed);
    let vocab = inst.ontology.vocabulary();
    let e_plus_r = vocab.num_elements() + vocab.num_relations();
    let msp = out.msps.len();
    let neg_border = out.state.insignificant_border().len();
    BoundsCheck {
        unique_questions: out.stats.unique_questions,
        upper_bound_arg: e_plus_r * msp + neg_border,
        lower_bound_arg: out.valid_msps.len() + neg_border,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oassis_datagen::self_treatment_domain;

    fn small_crowd() -> CrowdGenConfig {
        CrowdGenConfig {
            members: 12,
            transactions_per_member: 12,
            popular_patterns: 6,
            popularity: 0.8,
            zipf: 1.0,
            facts_per_transaction: 1,
            discretize: false,
            seed: 1,
        }
    }

    #[test]
    fn crowd_statistics_trends_match_figure4() {
        let domain = self_treatment_domain();
        let rows = crowd_statistics(&domain, &[0.2, 0.4], &small_crowd());
        assert_eq!(rows.len(), 2);
        // More permissive thresholds need at least as many questions and
        // find at least as many MSPs (the paper's general trend).
        assert!(rows[0].questions >= rows[1].questions);
        assert!(rows[0].msps >= rows[1].msps);
        // Far fewer questions than the exhaustive baseline.
        assert!(
            rows[0].baseline_pct < 100.0,
            "baseline% = {}",
            rows[0].baseline_pct
        );
    }

    #[test]
    fn pace_curves_are_monotone() {
        let domain = self_treatment_domain();
        let pace = pace_of_collection(&domain, 0.2, &small_crowd());
        assert!(pace.total_questions > 0);
        let defined: Vec<usize> = pace.classified.iter().flatten().copied().collect();
        for w in defined.windows(2) {
            assert!(w[0] <= w[1]);
        }
        assert!(pace.dag_nodes > 1000);
    }

    #[test]
    fn answer_types_help() {
        let series = answer_type_effect(3);
        assert_eq!(series.len(), 6);
        let closed = series.iter().find(|s| s.label == "100% closed").unwrap();
        let spec = series.iter().find(|s| s.label == "100% special.").unwrap();
        // The paper: more specialization/pruning improves (or at least does
        // not noticeably hurt) the question count.
        assert!(spec.total_questions <= closed.total_questions * 1.05);
    }

    #[test]
    fn vertical_beats_horizontal_early() {
        let series = algorithm_comparison(0.05, 2, 7);
        let vertical = &series[0];
        let horizontal = &series[1];
        // Figure 5: to discover 20% of the MSPs the vertical algorithm asks
        // well under the horizontal algorithm's count.
        let f20 = 1; // index of fraction 0.2
        let (Some(v), Some(h)) = (vertical.questions[f20], horizontal.questions[f20]) else {
            panic!("curves incomplete");
        };
        assert!(v < h, "vertical {v} vs horizontal {h}");
    }

    #[test]
    fn multiplicity_rows_show_lazy_savings() {
        let rows = multiplicity_variation(5);
        for r in &rows {
            if r.size >= 2 {
                assert!(
                    r.lazy_pct < 1.0,
                    "lazy% = {} at size {}",
                    r.lazy_pct,
                    r.size
                );
            }
        }
    }

    #[test]
    fn bounds_hold() {
        let b = complexity_bounds(0.02, 9);
        assert!(
            b.unique_questions <= b.upper_bound_arg,
            "{} > {}",
            b.unique_questions,
            b.upper_bound_arg
        );
        assert!(b.lower_bound_arg <= b.upper_bound_arg);
    }
}

/// One row of the crowd-growth experiment (§6.3 in-text).
#[derive(Debug, Clone)]
pub struct GrowthRow {
    /// Crowd size.
    pub members: usize,
    /// Questions until the first MSP was confirmed.
    pub to_first_msp: Option<usize>,
    /// Questions to completion.
    pub total_questions: usize,
    /// Rounds of member interaction (a proxy for wall-clock time with a
    /// parallel crowd: each member answers at most one question per round).
    pub rounds_to_first_msp: Option<usize>,
}

/// §6.3 in-text: "as our user base kept growing ... a speedup was observed
/// in finding the first MSP, which dropped from 28 minutes to less than 4".
/// With more members answering in parallel, the aggregator reaches its
/// sample size in fewer *rounds* (the wall-clock proxy), even though the
/// question *count* to the first MSP stays in the same range.
pub fn crowd_growth(domain: &Domain, sizes: &[usize], seed: u64) -> Vec<GrowthRow> {
    let engine = Oassis::new(domain.ontology.clone());
    let query = engine.parse(&domain.query).expect("query parses");
    sizes
        .iter()
        .map(|&members| {
            let crowd = generate_crowd(
                domain,
                &CrowdGenConfig {
                    members,
                    transactions_per_member: 20,
                    popular_patterns: 8,
                    popularity: 0.8,
                    zipf: 1.0,
                    facts_per_transaction: 1,
                    discretize: false,
                    seed,
                },
            );
            let mut boxed: Vec<Box<dyn CrowdMember>> = crowd
                .members
                .into_iter()
                .map(|m| Box::new(m) as Box<dyn CrowdMember>)
                .collect();
            let cfg = EngineConfig::default();
            let result = engine
                .execute_parsed(&query, 0.2, &mut boxed, &cfg)
                .expect("execution succeeds");
            let to_first = result.stats.msp_events.first().copied();
            GrowthRow {
                members,
                to_first_msp: to_first,
                total_questions: result.stats.total_questions,
                // Round-robin schedule: each round every willing member
                // answers one question, so rounds ≈ questions / members.
                rounds_to_first_msp: to_first.map(|q| q.div_ceil(members)),
            }
        })
        .collect()
}

#[cfg(test)]
mod growth_tests {
    use super::*;
    use oassis_datagen::self_treatment_domain;

    #[test]
    fn bigger_crowds_reach_the_first_msp_in_fewer_rounds() {
        let domain = self_treatment_domain();
        let rows = crowd_growth(&domain, &[6, 48], 3);
        let small = &rows[0];
        let large = &rows[1];
        let (Some(rs), Some(rl)) = (small.rounds_to_first_msp, large.rounds_to_first_msp) else {
            panic!("both runs must find an MSP");
        };
        assert!(
            rl < rs,
            "48 members should need fewer rounds ({rl}) than 6 ({rs})"
        );
    }
}

/// Result of the concurrent-runtime speedup experiment.
#[derive(Debug, Clone)]
pub struct SpeedupRow {
    /// Crowd size.
    pub members: usize,
    /// Worker threads in the concurrent run.
    pub workers: usize,
    /// Simulated per-answer crowd latency.
    pub per_answer: Duration,
    /// Wall-clock of the sequential (slice) run, latency waited in-line.
    pub sequential: Duration,
    /// Wall-clock of the concurrent (session-runtime) run.
    pub concurrent: Duration,
    /// `sequential / concurrent`.
    pub speedup: f64,
    /// Questions asked (identical across both runs by construction).
    pub questions: usize,
    /// Whether the two runs produced the same valid-MSP set (must be true).
    pub answers_match: bool,
}

/// Wall-clock effect of the concurrent crowd-session runtime: the same
/// scripted crowd is mined twice — sequentially, waiting out each member's
/// simulated answer latency in-line, and through the worker pool, where
/// speculative prefetch overlaps the waits. Answers are checked identical;
/// the interesting output is the speedup.
pub fn runtime_speedup(
    domain: &Domain,
    members: usize,
    workers: usize,
    per_answer: Duration,
    seed: u64,
) -> SpeedupRow {
    let engine = Oassis::new(domain.ontology.clone());
    let query = engine.parse(&domain.query).expect("query parses");
    let cfg = EngineConfig::builder().seed(seed).build();
    let crowd_cfg = CrowdGenConfig {
        members,
        transactions_per_member: 20,
        popular_patterns: 8,
        popularity: 0.8,
        zipf: 1.0,
        facts_per_transaction: 1,
        discretize: false,
        seed,
    };
    let model = ResponseModel::latency(per_answer);
    // Two identical crowds (same generator seed): one consumed by each run.
    let make_crowd = || -> Vec<Box<dyn CrowdMember>> {
        generate_crowd(domain, &crowd_cfg)
            .members
            .into_iter()
            .enumerate()
            .map(|(i, m)| {
                Box::new(UnreliableMember::new(Box::new(m), model, seed ^ i as u64))
                    as Box<dyn CrowdMember>
            })
            .collect()
    };

    let mut sequential_members = make_crowd();
    let start = Instant::now();
    let seq = engine
        .execute_parsed(&query, 0.2, &mut sequential_members, &cfg)
        .expect("sequential run succeeds");
    let sequential = start.elapsed();

    let runtime = SessionRuntime::new(make_crowd()).workers(workers);
    let start = Instant::now();
    let conc = engine
        .execute_parsed_with_runtime(&query, 0.2, runtime, &cfg)
        .expect("concurrent run succeeds");
    let concurrent = start.elapsed();

    let valid = |r: &oassis_core::QueryResult| {
        let mut v: Vec<&str> = r
            .answers
            .iter()
            .filter(|a| a.valid)
            .map(|a| a.rendered.as_str())
            .collect();
        v.sort_unstable();
        v.join("\n")
    };
    SpeedupRow {
        members,
        workers,
        per_answer,
        sequential,
        concurrent,
        speedup: sequential.as_secs_f64() / concurrent.as_secs_f64().max(f64::EPSILON),
        questions: seq.stats.total_questions,
        answers_match: valid(&seq) == valid(&conc)
            && seq.stats.total_questions == conc.stats.total_questions,
    }
}

/// Result of the index-layer scale experiment for one domain.
#[derive(Debug, Clone)]
pub struct ScaleRow {
    /// Domain name ("travel", "travel-10x").
    pub domain: String,
    /// Assignment-DAG node count (single-valued assignments).
    pub nodes: usize,
    /// Crowd size.
    pub members: usize,
    /// Questions asked (identical across both runs by construction).
    pub questions: usize,
    /// Wall-clock of the un-indexed run (reference linear scans, no space
    /// memoization, transaction-scan support counting).
    pub unindexed: Duration,
    /// Wall-clock of the indexed run (interned [`SpaceCache`], indexed
    /// border, tid-list support counting).
    pub indexed: Duration,
    /// `unindexed / indexed`.
    pub speedup: f64,
    /// Questions per second, un-indexed run.
    pub unindexed_qps: f64,
    /// Questions per second, indexed run.
    pub indexed_qps: f64,
    /// Whether both runs produced the same valid-MSP set and question
    /// count (must be true — the index layer is observationally invisible).
    pub answers_match: bool,
}

/// End-to-end wall-clock effect of PR 3's index layer: mine the same
/// generated crowd on the un-indexed reference walk
/// ([`run_reference`]: linear-scan border, direct space derivations,
/// transaction-scan support) and on the indexed walk ([`run_sequential`])
/// — `runs` times each, alternating, each side timed as the median of its
/// runs — and report wall-clock, questions/sec and the speedup. One loop
/// drives both sides, so the ratio isolates the index layer. The
/// observable output (valid MSPs, question counts) is asserted identical
/// across every run; all runs are capped at `max_questions` so the
/// benchmark measures per-question cost on large DAGs rather than mining
/// the 10× domain to exhaustion.
pub fn scale_speedup(
    domain: &Domain,
    members: usize,
    max_questions: usize,
    seed: u64,
    runs: usize,
) -> ScaleRow {
    let engine = Oassis::new(domain.ontology.clone());
    let crowd_cfg = CrowdGenConfig {
        members,
        transactions_per_member: 20,
        popular_patterns: 8,
        popularity: 0.8,
        zipf: 1.0,
        facts_per_transaction: 1,
        discretize: false,
        seed,
    };
    let cfg = EngineConfig::builder()
        .seed(seed)
        .max_questions(max_questions)
        .build();
    let run = |indexed: bool| {
        // Same generator seed ⇒ identical crowds; the baseline crowd also
        // counts support by transaction scan instead of tid-lists.
        let mut crowd: Vec<Box<dyn CrowdMember>> = generate_crowd(domain, &crowd_cfg)
            .members
            .into_iter()
            .map(|m| if indexed { m } else { m.with_scan_counting() })
            .map(|m| Box::new(m) as Box<dyn CrowdMember>)
            .collect();
        let mine = if indexed {
            run_sequential
        } else {
            run_reference
        };
        let start = Instant::now();
        let result = mine(&engine, &domain.query, &mut crowd, &cfg);
        (result, start.elapsed())
    };
    let valid = |r: &oassis_core::QueryResult| {
        let mut v: Vec<&str> = r
            .answers
            .iter()
            .filter(|a| a.valid)
            .map(|a| a.rendered.as_str())
            .collect();
        v.sort_unstable();
        (v.join("\n"), r.stats.total_questions)
    };
    let (base, first_unindexed) = run(false);
    let (idx, first_indexed) = run(true);
    let expected = valid(&base);
    let mut answers_match = valid(&idx) == expected;
    let (mut unindexed, mut indexed) = (vec![first_unindexed], vec![first_indexed]);
    for _ in 1..runs {
        for (walk, times) in [(false, &mut unindexed), (true, &mut indexed)] {
            let (result, elapsed) = run(walk);
            answers_match &= valid(&result) == expected;
            times.push(elapsed);
        }
    }
    let median = |mut times: Vec<Duration>| {
        times.sort_unstable();
        times[times.len() / 2]
    };
    let (unindexed, indexed) = (median(unindexed), median(indexed));
    let questions = base.stats.total_questions;
    // The paper's "without multiplicities" node count (the full DAG with
    // multi-valued assignments is astronomically larger).
    let nodes = domain_space(domain)
        .enumerate_single_valued(1_000_000)
        .map_or(0, |v| v.len());
    let qps = |q: usize, t: Duration| q as f64 / t.as_secs_f64().max(f64::EPSILON);
    ScaleRow {
        domain: domain.name.to_owned(),
        nodes,
        members,
        questions,
        unindexed,
        indexed,
        speedup: unindexed.as_secs_f64() / indexed.as_secs_f64().max(f64::EPSILON),
        unindexed_qps: qps(questions, unindexed),
        indexed_qps: qps(idx.stats.total_questions, indexed),
        answers_match,
    }
}

/// One row of the multi-query service benchmark (PR 5): `sessions`
/// overlapping queries through one [`OassisService`] versus the same
/// queries as independent serial runs.
#[derive(Debug, Clone)]
pub struct ServiceRow {
    /// Domain name.
    pub domain: String,
    /// Number of overlapping sessions.
    pub sessions: usize,
    /// Crowd size.
    pub members: usize,
    /// Total crowd questions across the independent serial runs.
    pub serial_questions: usize,
    /// Total questions actually dispatched to the crowd by the service.
    pub service_questions: usize,
    /// Dispatch-time answer-store hits plus admission-seeded classifications
    /// avoided re-asking the crowd; this counts the former.
    pub store_hits: usize,
    /// Crowd questions saved by the service, as a percentage of serial.
    pub saved_pct: f64,
    /// Wall-clock of the serial runs.
    pub serial_time: Duration,
    /// Wall-clock of the service run.
    pub service_time: Duration,
    /// Every session reported exactly the serial valid-MSP set.
    pub answers_match: bool,
}

/// Run the domain's canonical query `sessions` times — first as
/// independent serial engine runs (each over its own copy of the crowd),
/// then as overlapping sessions of one service over one shared crowd —
/// and compare answers and crowd traffic. The service must reproduce the
/// serial answers exactly while the `AnswerStore` absorbs the overlap.
pub fn service_reuse(domain: &Domain, sessions: usize, members: usize, seed: u64) -> ServiceRow {
    let crowd_cfg = CrowdGenConfig {
        members,
        transactions_per_member: 20,
        popular_patterns: 8,
        popularity: 0.8,
        zipf: 1.0,
        facts_per_transaction: 1,
        discretize: false,
        seed,
    };
    let fresh_crowd = || -> Vec<Box<dyn CrowdMember>> {
        generate_crowd(domain, &crowd_cfg)
            .members
            .into_iter()
            .map(|m| Box::new(m) as Box<dyn CrowdMember>)
            .collect()
    };
    let cfg = EngineConfig::builder().seed(seed).build();
    let valid = |r: &oassis_core::QueryResult| {
        let mut v: Vec<&str> = r
            .answers
            .iter()
            .filter(|a| a.valid)
            .map(|a| a.rendered.as_str())
            .collect();
        v.sort_unstable();
        v.join("\n")
    };

    let engine = Oassis::new(domain.ontology.clone());
    let serial_start = Instant::now();
    let mut serial_questions = 0;
    let mut serial_valid = String::new();
    for _ in 0..sessions {
        let mut crowd = fresh_crowd();
        let result = engine
            .execute(&domain.query, &mut crowd, &cfg)
            .expect("serial execution succeeds");
        serial_questions += result.stats.total_questions;
        serial_valid = valid(&result);
    }
    let serial_time = serial_start.elapsed();

    let engine = Oassis::new(domain.ontology.clone());
    let service_start = Instant::now();
    let mut service = OassisService::start(engine, SessionRuntime::new(fresh_crowd()));
    for _ in 0..sessions {
        let spec = SessionSpec::builder(&domain.query)
            .config(cfg.clone())
            .build();
        service.submit(spec).expect("service admits the query");
    }
    let reports = service.run();
    let service_time = service_start.elapsed();

    let mut service_questions = 0;
    let mut store_hits = 0;
    let mut answers_match = true;
    for report in &reports {
        service_questions += report.crowd_questions;
        store_hits += report.store_hits;
        answers_match &=
            report.status == SessionStatus::Completed && valid(&report.result) == serial_valid;
    }
    ServiceRow {
        domain: domain.name.to_owned(),
        sessions,
        members,
        serial_questions,
        service_questions,
        store_hits,
        saved_pct: 100.0 * (serial_questions.saturating_sub(service_questions)) as f64
            / (serial_questions as f64).max(f64::EPSILON),
        serial_time,
        service_time,
        answers_match,
    }
}

/// One row of the durability benchmark (PR 7): the cost of recovering a
/// file-backed service as a function of write-ahead-log length, with and
/// without snapshot compaction.
#[derive(Debug, Clone)]
pub struct DurabilityRow {
    /// Crowd-answer records appended to the log.
    pub records: usize,
    /// Snapshot interval (`None` = the log is never compacted).
    pub snapshot_every: Option<u64>,
    /// Wall-clock of appending (durable writes, fsync-free appends).
    pub append_time: Duration,
    /// Wall-clock of [`OassisService::recover`]: open, checksum-verify,
    /// replay, rebuild the answer store, fold session lifecycles.
    pub recover_time: Duration,
    /// Answers in the recovered store (must equal `records`).
    pub recovered_answers: usize,
    /// Interrupted sessions the recovery surfaced (must be 1).
    pub recovered_sessions: usize,
}

/// Append a WAL of `records` crowd answers (one open session, distinct
/// fact-sets, rotating members) through the real [`AnswerStore`] +
/// [`FileBacked`] pipeline — compacting exactly like the service would —
/// then measure a cold [`OassisService::recover`] over the directory.
pub fn recovery_scaling(records: usize, snapshot_every: Option<u64>, seed: u64) -> DurabilityRow {
    use oassis_crowd::transaction::table3_dbs;
    use oassis_crowd::{AnswerStore, DbMember};
    use oassis_store::ontology::figure1_ontology;
    use oassis_store_durable::{shared, AdmitSpec, FileBacked, WalRecord};
    use oassis_vocab::{ElementId, Fact, FactSet, RelationId};

    let dir = std::env::temp_dir().join(format!(
        "oassis-bench-durability-{}-{records}-{}",
        std::process::id(),
        snapshot_every.map_or(0, |e| e)
    ));
    let _ = std::fs::remove_dir_all(&dir);

    let mut file = FileBacked::open(&dir).expect("bench WAL opens");
    if let Some(every) = snapshot_every {
        file = file.with_snapshot_every(every);
    }
    let persistence = shared(file);

    let admit = WalRecord::Admit {
        session: 0,
        resumes: None,
        spec: AdmitSpec {
            query: "SELECT FACT-SETS WHERE $y subClassOf* Activity \
                    SATISFYING $y doAt <Central Park> WITH SUPPORT = 0.3"
                .to_string(),
            threshold: None,
            roster: None,
            priority: 0,
            budget: None,
            seed,
            aggregator_sample: 4,
            specialization_ratio: 0.0,
            pruning_ratio: 0.0,
            max_questions: 1_000_000,
            top_k: None,
            token: None,
        },
    };
    let mut store = AnswerStore::new().with_persistence(Arc::clone(&persistence));
    let append_start = Instant::now();
    persistence
        .lock()
        .unwrap()
        .append(&admit)
        .expect("admit appends");
    for i in 0..records {
        let fs = FactSet::from_facts([Fact::new(
            ElementId((i % 503) as u32),
            RelationId((i / 503 % 7) as u32),
            ElementId((i / 3521) as u32),
        )]);
        let support = (i % 11) as f64 / 10.0;
        store.record_tagged(&fs, MemberId((i % 4) as u32), support, Some(0));
        let mut p = persistence.lock().unwrap();
        if p.wants_snapshot() {
            // As in the service: every change is already logged, so the
            // checkpoint is handed no records.
            p.snapshot(&[]).expect("compaction succeeds");
        }
    }
    let append_time = append_start.elapsed();
    drop(store);
    drop(persistence);

    let o = figure1_ontology();
    let vocab = Arc::new(o.vocabulary().clone());
    let (d1, d2) = table3_dbs(&vocab);
    let members: Vec<Box<dyn CrowdMember>> = vec![
        Box::new(DbMember::new(MemberId(0), d1, Arc::clone(&vocab))),
        Box::new(DbMember::new(MemberId(1), d2, vocab)),
    ];
    let engine = Oassis::new(figure1_ontology());
    let runtime = SessionRuntime::new(members);
    let recover_start = Instant::now();
    let (service, recovered) =
        OassisService::recover(engine, runtime, &dir).expect("the bench WAL recovers");
    let recover_time = recover_start.elapsed();
    let recovered_answers = service.store().len();
    let _ = std::fs::remove_dir_all(&dir);

    DurabilityRow {
        records,
        snapshot_every,
        append_time,
        recover_time,
        recovered_answers,
        recovered_sessions: recovered.len(),
    }
}

/// Workers spawned per member shard by [`crowd_scale`]: each shard brings
/// its own dispatch queue *and* its own worker team, so throughput should
/// grow near-linearly in the shard count while the crowd latency dominates.
pub const CROWDSCALE_WORKERS_PER_SHARD: usize = 4;

/// One run of the crowd-scale benchmark (PR 8): `sessions` concurrent
/// queries over an `members`-strong crowd through one service, with
/// `shards` member shards and `wave`-question batched dispatch.
#[derive(Debug, Clone)]
pub struct CrowdScaleOutcome {
    /// Crowd size.
    pub members: usize,
    /// Concurrent sessions.
    pub sessions: usize,
    /// Member shards (each with its own queue + worker team).
    pub shards: usize,
    /// Questions staged per session per service cycle.
    pub wave: usize,
    /// Total worker threads (`shards * CROWDSCALE_WORKERS_PER_SHARD`).
    pub workers: usize,
    /// Questions dispatched to the crowd (wave hits included — they are
    /// paid for exactly like dispatches).
    pub crowd_questions: usize,
    /// Dispatch-time answer-store hits (non-zero only when rosters wrap).
    pub store_hits: usize,
    /// Wall-clock of the service run (admission excluded).
    pub wall: Duration,
    /// Crowd questions per second.
    pub qps: f64,
    /// Per-session `(sorted valid MSPs, stage-time question count,
    /// completed)` in admission order — the verification key compared
    /// across shard/wave configurations. Stage-time counts are invariant
    /// to transport, so they must match even when rosters overlap; the
    /// crowd/store split may differ.
    pub outcomes: Vec<(String, usize, bool)>,
}

/// Roster for session `s` of `sessions`: a contiguous slice of at least 4
/// seats (so the aggregator sample of 3 can always fill). Slices are
/// disjoint whenever `members / sessions >= 4` and wrap otherwise.
fn crowd_scale_roster(s: usize, sessions: usize, members: usize) -> Vec<usize> {
    let slice = (members / sessions).max(4).min(members);
    (0..slice).map(|j| (s * slice + j) % members).collect()
}

/// Run the crowd-scale configuration once. Answers are verified by the
/// caller: because every member's answer is a pure function of the asked
/// fact set (honest DB-backed members behind drop-free channels) and
/// sessions are sequential decision processes, the per-session MSP sets
/// and stage-time question counts must be identical across every
/// `(shards, wave)` configuration of the same `(members, sessions, seed)`
/// cell.
pub fn crowd_scale(
    domain: &Domain,
    members: usize,
    sessions: usize,
    shards: usize,
    wave: usize,
    seed: u64,
) -> CrowdScaleOutcome {
    let crowd = oassis_datagen::members(domain, members, seed);
    let workers = shards * CROWDSCALE_WORKERS_PER_SHARD;
    let runtime = SessionRuntime::new(crowd).workers(workers).shards(shards);
    let engine = Oassis::new(domain.ontology.clone());
    let mut service = OassisService::start(engine, runtime).with_wave_size(wave);
    let cfg = EngineConfig::builder()
        .seed(seed)
        .aggregator_sample(3)
        .build();
    for s in 0..sessions {
        let spec = SessionSpec::builder(&domain.query)
            .config(cfg.clone())
            .roster(crowd_scale_roster(s, sessions, members))
            .build();
        service.submit(spec).expect("crowd-scale session admits");
    }
    let start = Instant::now();
    let reports = service.run();
    let wall = start.elapsed();

    let valid = |r: &oassis_core::QueryResult| {
        let mut v: Vec<&str> = r
            .answers
            .iter()
            .filter(|a| a.valid)
            .map(|a| a.rendered.as_str())
            .collect();
        v.sort_unstable();
        v.join("\n")
    };
    let mut crowd_questions = 0;
    let mut store_hits = 0;
    let outcomes = reports
        .iter()
        .map(|r| {
            crowd_questions += r.crowd_questions;
            store_hits += r.store_hits;
            (
                valid(&r.result),
                r.result.stats.total_questions,
                r.status == SessionStatus::Completed,
            )
        })
        .collect();
    CrowdScaleOutcome {
        members,
        sessions,
        shards,
        wave,
        workers,
        crowd_questions,
        store_hits,
        wall,
        qps: crowd_questions as f64 / wall.as_secs_f64().max(f64::EPSILON),
        outcomes,
    }
}

/// One row of the wire-protocol benchmark (PR 9): the figure-1 workload
/// run through one in-process [`OassisService`] versus the same sessions
/// driven as protocol clients of a TCP-loopback [`oassis_net::TcpNetServer`].
#[derive(Debug, Clone)]
pub struct NetRow {
    /// Concurrent sessions submitted.
    pub sessions: usize,
    /// Crowd size (figure-1 answer-database pairs × 2).
    pub members: usize,
    /// Protocol round-trips the served run needed (Hello + Submits + Polls).
    pub requests: usize,
    /// Wall-clock of the in-process run (submit + run).
    pub inproc_time: Duration,
    /// Wall-clock of the served run (connect through last terminal Update).
    pub served_time: Duration,
    /// Served wall-clock as a percentage over in-process.
    pub overhead_pct: f64,
    /// Mean round-trip of an idle-server `Hello` (frame + socket cost only).
    pub rtt_mean: Duration,
    /// Every served session reported exactly the in-process valid-MSP set.
    pub answers_match: bool,
}

/// Run `sessions` figure-1 queries twice — through [`OassisService::run`]
/// in-process, then over real TCP loopback via the line-framed protocol
/// (Hello, tokened Submit per session, Poll round-robin to the terminal
/// Update) — and compare outcomes and wall-clock. The service is not
/// `Send`, so the *server* stays on the calling thread and the client
/// drives from a spawned one (the same inversion `tests/net.rs` uses).
/// After the sessions finish, `rtt_probes` extra `Hello` round-trips
/// against the idle server isolate pure framing + socket cost.
pub fn net_overhead(sessions: usize, crowd_pairs: u32, rtt_probes: usize, seed: u64) -> NetRow {
    use std::sync::atomic::{AtomicBool, Ordering};

    use oassis_crowd::transaction::table3_dbs;
    use oassis_crowd::DbMember;
    use oassis_net::{
        NetClient, NetServer, Request, Response, TcpNetServer, TcpTransport, WireStatus,
        PROTOCOL_VERSION,
    };
    use oassis_store::ontology::figure1_ontology;

    const QUERY: &str = "SELECT FACT-SETS WHERE \
          $x instanceOf $w. $w subClassOf* Attraction. \
          $y subClassOf* Activity \
        SATISFYING $y doAt $x WITH SUPPORT = 0.4";

    let crowd = || -> Vec<Box<dyn CrowdMember>> {
        let o = figure1_ontology();
        let vocab = Arc::new(o.vocabulary().clone());
        let (d1, d2) = table3_dbs(&vocab);
        (0..crowd_pairs)
            .flat_map(|i| {
                [
                    Box::new(DbMember::new(
                        MemberId(2 * i),
                        d1.clone(),
                        Arc::clone(&vocab),
                    )) as Box<dyn CrowdMember>,
                    Box::new(DbMember::new(
                        MemberId(2 * i + 1),
                        d2.clone(),
                        Arc::clone(&vocab),
                    )),
                ]
            })
            .collect()
    };
    // Each session gets one saturated d1+d2 pair as its roster (sample 2 =
    // roster size): every roster member answers every question, so the
    // outcome is a pure function of the spec — invariant to how admission
    // interleaves with engine progress, which differs between the served
    // run (the server pumps the service between Submits) and the
    // submit-all-then-run baseline. A two-member average also keeps the
    // figure-1 valid-MSP set non-empty (the whole-crowd default averages
    // the two databases below threshold).
    let cfg = EngineConfig::builder()
        .seed(seed)
        .aggregator_sample(2)
        .build();
    let pair_roster = |i: usize| -> Vec<usize> {
        let pair = i % crowd_pairs as usize;
        vec![2 * pair, 2 * pair + 1]
    };

    // In-process leg.
    let mut service = OassisService::start(
        Oassis::new(figure1_ontology()),
        SessionRuntime::new(crowd()),
    );
    let inproc_start = Instant::now();
    for i in 0..sessions {
        let spec = SessionSpec::builder(QUERY)
            .config(cfg.clone())
            .roster(pair_roster(i))
            .build();
        service.submit(spec).expect("in-process session admits");
    }
    let reports = service.run();
    let inproc_time = inproc_start.elapsed();
    let mut inproc: Vec<Vec<String>> = reports
        .iter()
        .map(|r| {
            assert_eq!(r.status, SessionStatus::Completed, "in-process leg failed");
            let mut v: Vec<String> = r
                .result
                .answers
                .iter()
                .filter(|a| a.valid)
                .map(|a| a.rendered.clone())
                .collect();
            v.sort();
            v
        })
        .collect();
    inproc.sort();
    assert!(
        inproc.iter().all(|m| !m.is_empty()),
        "vacuous baseline: the in-process run mined no valid MSPs"
    );

    // Served leg: server on this thread, protocol client on a spawned one.
    let service = OassisService::start(
        Oassis::new(figure1_ontology()),
        SessionRuntime::new(crowd()),
    );
    let mut tcp =
        TcpNetServer::bind("127.0.0.1:0", NetServer::new(service)).expect("bind loopback");
    let addr = tcp.local_addr().expect("bound").to_string();
    let done = Arc::new(AtomicBool::new(false));
    let done_flag = Arc::clone(&done);
    let cfg2 = cfg.clone();
    let pairs = crowd_pairs as usize;
    let handle = std::thread::spawn(move || {
        let mut client = NetClient::new(TcpTransport::connect(addr).expect("connect"));
        let mut requests = 0usize;
        let served_start = Instant::now();
        let hello = client
            .call(&Request::Hello {
                version: PROTOCOL_VERSION,
            })
            .expect("hello");
        requests += 1;
        assert!(matches!(hello.last(), Some(Response::Welcome { .. })));
        let mut ids = Vec::with_capacity(sessions);
        for i in 0..sessions {
            let pair = i % pairs;
            let spec = SessionSpec::builder(QUERY)
                .config(cfg2.clone())
                .roster(vec![2 * pair, 2 * pair + 1])
                .build()
                .to_admit(Some(0xBE9C_0000 + i as u64));
            match client
                .call(&Request::Submit { spec })
                .expect("submit")
                .pop()
            {
                Some(Response::Admitted { session }) => ids.push(session),
                other => panic!("expected Admitted, got {other:?}"),
            }
            requests += 1;
        }
        let mut outcomes: Vec<Option<Vec<String>>> = vec![None; sessions];
        while outcomes.iter().any(Option::is_none) {
            for (i, &session) in ids.iter().enumerate() {
                if outcomes[i].is_some() {
                    continue;
                }
                let batch = client.call(&Request::Poll { session }).expect("poll");
                requests += 1;
                match batch.into_iter().last() {
                    Some(Response::Update { status, msps, .. }) => {
                        if status != WireStatus::Running {
                            assert_eq!(status, WireStatus::Completed, "served leg failed");
                            outcomes[i] = Some(msps);
                        }
                    }
                    other => panic!("expected a terminal Update frame, got {other:?}"),
                }
            }
        }
        let served_time = served_start.elapsed();
        let probe_start = Instant::now();
        for _ in 0..rtt_probes {
            client
                .call(&Request::Hello {
                    version: PROTOCOL_VERSION,
                })
                .expect("rtt probe");
        }
        let probe_time = probe_start.elapsed();
        let _ = client.call(&Request::Close);
        client.close();
        done_flag.store(true, Ordering::Relaxed);
        let served: Vec<Vec<String>> = outcomes.into_iter().map(Option::unwrap).collect();
        (requests, served_time, probe_time, served)
    });
    tcp.serve_until(|| done.load(Ordering::Relaxed) || handle.is_finished())
        .expect("serve");
    let (requests, served_time, probe_time, mut served) = handle.join().expect("client thread");
    served.sort();

    NetRow {
        sessions,
        members: 2 * crowd_pairs as usize,
        requests,
        inproc_time,
        served_time,
        overhead_pct: 100.0 * (served_time.as_secs_f64() - inproc_time.as_secs_f64())
            / inproc_time.as_secs_f64().max(f64::EPSILON),
        rtt_mean: probe_time / (rtt_probes.max(1) as u32),
        answers_match: served == inproc,
    }
}

#[cfg(test)]
mod net_tests {
    use super::*;

    /// Cheap smoke (the full grid lives in the figures binary's `net`
    /// experiment): a served loopback run reproduces the in-process
    /// outcomes and actually exchanged protocol frames.
    #[test]
    fn served_loopback_matches_in_process() {
        let row = net_overhead(2, 2, 8, 7);
        assert!(row.answers_match, "served run changed the answers");
        // Hello + one Submit per session + at least one Poll each.
        assert!(row.requests > 2 * row.sessions, "too few round-trips");
        assert!(row.rtt_mean > Duration::ZERO);
    }
}

#[cfg(test)]
mod crowd_scale_tests {
    use super::*;
    use oassis_datagen::self_treatment_domain;

    /// Cheap smoke (the full 100k-member benchmark lives in the figures
    /// binary's `crowd-scale` experiment): a sharded, waved run reproduces
    /// the 1-shard, 1-question-at-a-time outcomes exactly.
    #[test]
    fn sharded_waved_run_matches_reference() {
        let domain = self_treatment_domain();
        let reference = crowd_scale(&domain, 64, 4, 1, 1, 9);
        let fast = crowd_scale(&domain, 64, 4, 4, 8, 9);
        assert_eq!(reference.outcomes, fast.outcomes);
        assert!(reference.crowd_questions > 0);
        assert!(fast.outcomes.iter().all(|(_, _, completed)| *completed));
    }
}

#[cfg(test)]
mod scale_tests {
    use super::*;
    use oassis_datagen::travel_domain;

    /// Cheap smoke (the full travel/travel-10x benchmark lives in the
    /// figures binary's `scale` experiment): the indexed and un-indexed
    /// engine paths produce identical observable output.
    #[test]
    fn indexed_and_unindexed_runs_agree() {
        let domain = travel_domain();
        let row = scale_speedup(&domain, 6, 40, 11, 1);
        assert!(row.answers_match, "index layer changed observable output");
        assert!(row.questions > 0);
        assert!(row.nodes > 0);
        assert!(row.speedup > 0.0);
    }
}

#[cfg(test)]
mod speedup_tests {
    use super::*;
    use oassis_datagen::self_treatment_domain;

    /// Cheap smoke (the full 64-member benchmark lives in the figures
    /// binary): concurrent and sequential agree, and hiding even a small
    /// latency beats waiting it out in-line.
    #[test]
    fn concurrent_runtime_beats_sequential_waiting() {
        let domain = self_treatment_domain();
        let row = runtime_speedup(&domain, 8, 8, Duration::from_millis(25), 5);
        assert!(row.answers_match, "concurrent run changed the answers");
        assert!(row.questions > 0);
        assert!(
            row.speedup > 1.2,
            "expected a speedup from latency hiding, got {:.2}x",
            row.speedup
        );
    }
}

/// One row of the query-planner benchmark (PR 10): the canonical query and
/// a `FILTER`-constrained variant, each run with the planner on and off.
#[derive(Debug, Clone)]
pub struct PlannerRow {
    /// Domain name.
    pub domain: String,
    /// Crowd size.
    pub members: usize,
    /// The injected constraint, as OASSIS-QL source.
    pub filter: String,
    /// WHERE seed assignments (space base tuples) of the canonical query.
    pub base_seeds: usize,
    /// Seed assignments after the `FILTER` is pushed into the scans.
    pub filtered_seeds: usize,
    /// Crowd questions mining the canonical query.
    pub base_questions: usize,
    /// Crowd questions mining the constrained variant.
    pub filtered_questions: usize,
    /// Scans that received a pushed-down restriction (constrained query).
    pub pushdowns: usize,
    /// Path scans switched to taxonomy reachability.
    pub unfolds: usize,
    /// Plan subtrees pruned as provably empty.
    pub pruned: usize,
    /// Mean WHERE-evaluation time through the optimized plan.
    pub eval_planned: Duration,
    /// Mean WHERE-evaluation time through the reference evaluator.
    pub eval_reference: Duration,
    /// `eval_reference / eval_planned`.
    pub eval_speedup: f64,
    /// The optimized plan and the reference evaluator return equal
    /// bindings, in order, for both the canonical and the constrained
    /// WHERE clause. The assignment space is a function of those
    /// bindings, so the planner cannot change what is mined.
    pub answers_match: bool,
}

/// Inject `filter` as the last item of the query's WHERE clause.
fn with_filter(query: &str, filter: &str) -> String {
    query.replacen(
        "SATISFYING",
        &format!(".\n          {filter}\n        SATISFYING"),
        1,
    )
}

/// Run the query-planner benchmark on one domain: mine the canonical query
/// and a `FILTER`-constrained variant (the WHERE clause compiled, pushed
/// down, unfolded, pruned, reordered and interpreted), and check that the
/// naive reference evaluator returns the planner's bindings for both
/// clauses. The constrained variant must seed fewer assignments and ask
/// fewer crowd questions because the restriction is pushed into the scans.
pub fn planner_effect(
    domain: &Domain,
    filter: &str,
    members: usize,
    max_questions: usize,
    seed: u64,
) -> PlannerRow {
    let engine = Oassis::new(domain.ontology.clone());
    let base = engine.parse(&domain.query).expect("canonical query parses");
    let filtered_src = with_filter(&domain.query, filter);
    let filtered = engine
        .parse(&filtered_src)
        .expect("constrained query parses");

    let crowd_cfg = CrowdGenConfig {
        members,
        transactions_per_member: 20,
        popular_patterns: 8,
        popularity: 0.8,
        zipf: 1.0,
        facts_per_transaction: 1,
        discretize: false,
        seed,
    };
    let cfg = EngineConfig::builder()
        .seed(seed)
        .max_questions(max_questions)
        .build();
    let questions = |query: &oassis_ql::Query| {
        let mut crowd: Vec<Box<dyn CrowdMember>> = generate_crowd(domain, &crowd_cfg)
            .members
            .into_iter()
            .map(|m| Box::new(m) as Box<dyn CrowdMember>)
            .collect();
        engine
            .execute_parsed(query, 0.2, &mut crowd, &cfg)
            .expect("execution succeeds")
            .stats
            .total_questions
    };
    let evaluators_agree = |query: &oassis_ql::Query| {
        let (o, clause, vars) = (&domain.ontology, &query.where_clause, &query.vars);
        oassis_sparql::evaluate_where(o, clause, vars, MatchMode::Semantic)
            == oassis_sparql::evaluate_reference(o, clause, vars, MatchMode::Semantic)
    };

    let seeds = |query: &oassis_ql::Query| {
        AssignSpace::build(
            Arc::new(domain.ontology.clone()),
            query,
            MatchMode::Semantic,
            Vec::new(),
        )
        .expect("space builds")
        .base_count()
    };

    // What the optimizer did to the constrained clause.
    let compiled = plan::compile(
        &domain.ontology,
        &filtered.where_clause,
        MatchMode::Semantic,
    );
    let (_, report) = plan::optimize_report(&domain.ontology, compiled, MatchMode::Semantic);

    // Pure WHERE-evaluation cost, optimized plan vs reference recursion,
    // on the constrained clause (the engine runs are dominated by crowd
    // mining, not evaluation).
    let timed = |f: &dyn Fn() -> usize| {
        let reps = 20;
        let start = Instant::now();
        for _ in 0..reps {
            std::hint::black_box(f());
        }
        start.elapsed() / reps
    };
    let eval_planned = timed(&|| {
        oassis_sparql::evaluate_where(
            &domain.ontology,
            &filtered.where_clause,
            &filtered.vars,
            MatchMode::Semantic,
        )
        .len()
    });
    let eval_reference = timed(&|| {
        oassis_sparql::evaluate_reference(
            &domain.ontology,
            &filtered.where_clause,
            &filtered.vars,
            MatchMode::Semantic,
        )
        .len()
    });

    PlannerRow {
        domain: domain.name.to_owned(),
        members,
        filter: filter.to_owned(),
        base_seeds: seeds(&base),
        filtered_seeds: seeds(&filtered),
        base_questions: questions(&base),
        filtered_questions: questions(&filtered),
        pushdowns: report.pushdowns,
        unfolds: report.unfolds,
        pruned: report.pruned,
        eval_planned,
        eval_reference,
        eval_speedup: eval_reference.as_secs_f64() / eval_planned.as_secs_f64().max(f64::EPSILON),
        answers_match: evaluators_agree(&base) && evaluators_agree(&filtered),
    }
}

#[cfg(test)]
mod planner_tests {
    use super::*;
    use oassis_datagen::self_treatment_domain;

    /// Cheap smoke (the full three-domain benchmark lives in the figures
    /// binary's `planner` experiment): the planner changes nothing
    /// observable, and the pushed-down `FILTER` shrinks the seed space and
    /// the crowd traffic.
    #[test]
    fn pushdown_narrows_seeds_and_questions() {
        let domain = self_treatment_domain();
        let row = planner_effect(
            &domain,
            "FILTER($r IN (<Remedy-0>, <Remedy-1>))",
            6,
            100_000,
            13,
        );
        assert!(row.answers_match, "planner changed observable output");
        assert!(row.pushdowns >= 1, "FILTER was not pushed into a scan");
        assert!(row.filtered_seeds > 0, "constrained query seeds nothing");
        assert!(
            row.filtered_seeds < row.base_seeds,
            "pushdown did not narrow the seed space ({} vs {})",
            row.filtered_seeds,
            row.base_seeds
        );
        assert!(
            row.filtered_questions < row.base_questions,
            "pushdown did not reduce crowd questions ({} vs {})",
            row.filtered_questions,
            row.base_questions
        );
    }
}

/// The `MiningSession` spans the `mining` experiment splits a run into.
pub const MINING_SPANS: [&str; 6] = [
    names::SPAN_MINE_SEARCH,
    names::SPAN_MINE_CURSOR,
    names::SPAN_MINE_ABSORB,
    names::SPAN_MINE_PREDICT,
    names::SPAN_MINE_CLASSIFY,
    names::SPAN_MINE_END_TURN,
];

/// One row of the mining-cost benchmark: one cold `Oassis::execute` of a
/// domain's query, timed untraced, then split by the session's spans.
#[derive(Debug, Clone)]
pub struct MiningRow {
    /// Domain name.
    pub domain: String,
    /// Crowd size.
    pub members: usize,
    /// Questions asked (identical in every run).
    pub questions: usize,
    /// Lazily generated DAG nodes (identical in every run).
    pub nodes_generated: usize,
    /// Wall-clock µs per question, the median over the untraced runs.
    pub us_per_question: f64,
    /// The traced run's wall-clock over the untraced median, minus 1.
    /// The traced run's DAG count (`engine.dag.count`) is left out.
    pub trace_overhead: f64,
    /// Seconds the traced run spent in `engine.dag.count`: the exhaustive
    /// count behind the `engine.dag.nodes_total` gauge, which only a run
    /// with an enabled sink pays.
    pub dag_count_secs: f64,
    /// Each of [`MINING_SPANS`]' share of the traced run's wall-clock,
    /// without its DAG count.
    pub span_shares: Vec<(&'static str, f64)>,
}

/// Mine `domain` cold with `members` generated members: `runs` untraced
/// executions (the median wall-clock per question is the row's cost),
/// then one traced execution whose `engine.mine.*` spans split the run
/// (less the DAG count an enabled sink adds, reported on its own).
/// Uses only the public engine API, so it runs on any revision that has
/// `Oassis::execute`; a revision without the spans reports zero shares.
pub fn mining_split(domain: &Domain, members: usize, seed: u64, runs: usize) -> MiningRow {
    let engine = Oassis::new(domain.ontology.clone());
    let crowd_cfg = CrowdGenConfig {
        members,
        transactions_per_member: 20,
        popular_patterns: 8,
        popularity: 0.8,
        zipf: 1.0,
        facts_per_transaction: 2,
        discretize: false,
        seed,
    };
    let run = |sink: Arc<dyn EventSink>| {
        let cfg = EngineConfig::builder().seed(seed).sink(sink).build();
        let mut crowd: Vec<Box<dyn CrowdMember>> = generate_crowd(domain, &crowd_cfg)
            .members
            .into_iter()
            .map(|m| Box::new(m) as Box<dyn CrowdMember>)
            .collect();
        let start = Instant::now();
        let result = engine
            .execute(&domain.query, &mut crowd, &cfg)
            .expect("execution succeeds");
        (result, start.elapsed())
    };
    let (first, elapsed) = run(null_sink());
    let (questions, nodes) = (first.stats.total_questions, first.stats.nodes_generated);
    let mut times = vec![elapsed];
    for _ in 1..runs {
        let (result, elapsed) = run(null_sink());
        assert_eq!(result.stats.total_questions, questions, "{}", domain.name);
        times.push(elapsed);
    }
    times.sort_unstable();
    let median = times[times.len() / 2];

    let sink = Arc::new(InMemorySink::new());
    let (traced, traced_elapsed) = run(Arc::clone(&sink) as Arc<dyn EventSink>);
    assert_eq!(
        (traced.stats.total_questions, traced.stats.nodes_generated),
        (questions, nodes),
        "{}: tracing changed the run",
        domain.name
    );
    let snapshot = sink.snapshot();
    let dag_count_secs = snapshot
        .span(names::SPAN_DAG_COUNT)
        .map_or(0.0, |s| s.total_nanos as f64 / 1e9);
    let wall = (traced_elapsed.as_secs_f64() - dag_count_secs).max(f64::EPSILON);
    let span_shares = MINING_SPANS
        .iter()
        .map(|&name| {
            let nanos = snapshot.span(name).map_or(0, |s| s.total_nanos);
            (name, nanos as f64 / 1e9 / wall)
        })
        .collect();
    MiningRow {
        domain: domain.name.to_owned(),
        members,
        questions,
        nodes_generated: nodes,
        us_per_question: median.as_secs_f64() * 1e6 / questions.max(1) as f64,
        trace_overhead: wall / median.as_secs_f64().max(f64::EPSILON) - 1.0,
        dag_count_secs,
        span_shares,
    }
}
