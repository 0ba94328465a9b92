//! Engine configuration and its fluent builder.
//!
//! [`EngineConfig`] keeps public fields (struct-literal construction and
//! `..Default::default()` updates stay valid), but the preferred way to
//! assemble one is [`EngineConfig::builder()`] — thirteen fields are past
//! the point where positional literals read well.

use std::sync::Arc;

use oassis_crowd::Aggregator;
use oassis_obs::{null_sink, EventSink};
use oassis_sparql::MatchMode;
use oassis_vocab::Fact;

use crate::assignment::Assignment;

/// Engine-level configuration.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// SPARQL matching mode for the WHERE clause.
    pub mode: MatchMode,
    /// Answers required before the aggregator decides (the paper uses 5).
    pub aggregator_sample: usize,
    /// Probability of a specialization question at a descend step.
    pub specialization_ratio: f64,
    /// Probability of a user-guided-pruning interaction per question.
    pub pruning_ratio: f64,
    /// RNG seed for question-type choices and scheduling.
    pub seed: u64,
    /// Safety cap on total questions.
    pub max_questions: usize,
    /// Record the per-question discovery curve.
    pub track_curve: bool,
    /// Universe for the "% classified" curve series.
    pub curve_universe: Option<Vec<Assignment>>,
    /// Ground-truth MSPs for target curves (synthetic runs).
    pub targets: Option<Vec<Assignment>>,
    /// Candidate facts for the `MORE` clause.
    pub more_domain: Vec<Fact>,
    /// Stop as soon as this many *valid* MSPs are confirmed (the paper's
    /// §8 top-k extension). `None` = mine to completion.
    pub top_k: Option<usize>,
    /// Instrumentation sink receiving the engine's event stream (see
    /// `docs/observability.md`). Defaults to the no-op [`null_sink`], whose
    /// `enabled() == false` lets hot paths skip event construction.
    pub sink: Arc<dyn EventSink>,
    /// The aggregation black-box deciding overall significance from the
    /// collected answers. `None` (the default) is the paper's rule, a
    /// [`FixedSampleAggregator`](oassis_crowd::FixedSampleAggregator) over
    /// [`aggregator_sample`](Self::aggregator_sample) answers. Like `sink`,
    /// it is runtime-only: a durable service does not persist it.
    pub aggregator: Option<Arc<dyn Aggregator>>,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            mode: MatchMode::Semantic,
            aggregator_sample: 5,
            specialization_ratio: 0.0,
            pruning_ratio: 0.0,
            seed: 0,
            max_questions: 1_000_000,
            track_curve: false,
            curve_universe: None,
            targets: None,
            more_domain: Vec::new(),
            top_k: None,
            sink: null_sink(),
            aggregator: None,
        }
    }
}

impl EngineConfig {
    /// Start a fluent builder from the defaults.
    ///
    /// ```
    /// use oassis_core::EngineConfig;
    ///
    /// let config = EngineConfig::builder()
    ///     .aggregator_sample(2)
    ///     .seed(42)
    ///     .top_k(3)
    ///     .build();
    /// assert_eq!(config.aggregator_sample, 2);
    /// assert_eq!(config.top_k, Some(3));
    /// ```
    pub fn builder() -> EngineConfigBuilder {
        EngineConfigBuilder {
            config: EngineConfig::default(),
        }
    }
}

/// Fluent builder for [`EngineConfig`], created by
/// [`EngineConfig::builder()`]. Every setter overrides one default; `build`
/// returns the finished configuration.
#[derive(Debug, Clone)]
pub struct EngineConfigBuilder {
    config: EngineConfig,
}

impl EngineConfigBuilder {
    /// SPARQL matching mode for the WHERE clause.
    pub fn mode(mut self, mode: MatchMode) -> Self {
        self.config.mode = mode;
        self
    }

    /// Answers required before the aggregator decides.
    pub fn aggregator_sample(mut self, sample: usize) -> Self {
        self.config.aggregator_sample = sample;
        self
    }

    /// Probability of a specialization question at a descend step.
    pub fn specialization_ratio(mut self, ratio: f64) -> Self {
        self.config.specialization_ratio = ratio;
        self
    }

    /// Probability of a user-guided-pruning interaction per question.
    pub fn pruning_ratio(mut self, ratio: f64) -> Self {
        self.config.pruning_ratio = ratio;
        self
    }

    /// RNG seed for question-type choices and scheduling.
    pub fn seed(mut self, seed: u64) -> Self {
        self.config.seed = seed;
        self
    }

    /// Safety cap on total questions.
    pub fn max_questions(mut self, cap: usize) -> Self {
        self.config.max_questions = cap;
        self
    }

    /// Record the per-question discovery curve.
    pub fn track_curve(mut self, on: bool) -> Self {
        self.config.track_curve = on;
        self
    }

    /// Universe for the "% classified" curve series.
    pub fn curve_universe(mut self, universe: Vec<Assignment>) -> Self {
        self.config.curve_universe = Some(universe);
        self
    }

    /// Ground-truth MSPs for target curves (synthetic runs).
    pub fn targets(mut self, targets: Vec<Assignment>) -> Self {
        self.config.targets = Some(targets);
        self
    }

    /// Candidate facts for the `MORE` clause.
    pub fn more_domain(mut self, domain: Vec<Fact>) -> Self {
        self.config.more_domain = domain;
        self
    }

    /// Stop after this many valid MSPs are confirmed.
    pub fn top_k(mut self, k: usize) -> Self {
        self.config.top_k = Some(k);
        self
    }

    /// Instrumentation sink receiving the engine's event stream.
    pub fn sink(mut self, sink: Arc<dyn EventSink>) -> Self {
        self.config.sink = sink;
        self
    }

    /// Replace the paper's fixed-sample aggregation rule.
    pub fn aggregator(mut self, aggregator: Arc<dyn Aggregator>) -> Self {
        self.config.aggregator = Some(aggregator);
        self
    }

    /// Finish, yielding the configuration.
    pub fn build(self) -> EngineConfig {
        self.config
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_defaults_match_default_impl() {
        let built = EngineConfig::builder().build();
        let def = EngineConfig::default();
        assert_eq!(built.mode, def.mode);
        assert_eq!(built.aggregator_sample, def.aggregator_sample);
        assert_eq!(built.specialization_ratio, def.specialization_ratio);
        assert_eq!(built.pruning_ratio, def.pruning_ratio);
        assert_eq!(built.seed, def.seed);
        assert_eq!(built.max_questions, def.max_questions);
        assert_eq!(built.track_curve, def.track_curve);
        assert_eq!(built.curve_universe, def.curve_universe);
        assert_eq!(built.targets, def.targets);
        assert_eq!(built.more_domain, def.more_domain);
        assert_eq!(built.top_k, def.top_k);
        assert!(built.aggregator.is_none(), "the paper's rule by default");
    }

    #[test]
    fn every_setter_sticks() {
        let config = EngineConfig::builder()
            .aggregator_sample(1)
            .specialization_ratio(0.25)
            .pruning_ratio(0.5)
            .seed(7)
            .max_questions(99)
            .track_curve(true)
            .curve_universe(Vec::new())
            .targets(Vec::new())
            .more_domain(Vec::new())
            .top_k(2)
            .aggregator(Arc::new(oassis_crowd::MajorityVoteAggregator { sample_size: 3 }))
            .build();
        assert_eq!(config.aggregator_sample, 1);
        assert_eq!(config.specialization_ratio, 0.25);
        assert_eq!(config.pruning_ratio, 0.5);
        assert_eq!(config.seed, 7);
        assert_eq!(config.max_questions, 99);
        assert!(config.track_curve);
        assert_eq!(config.curve_universe, Some(Vec::new()));
        assert_eq!(config.targets, Some(Vec::new()));
        assert_eq!(config.top_k, Some(2));
        assert!(config.aggregator.is_some());
    }

    #[test]
    fn literal_update_syntax_still_works() {
        let config = EngineConfig {
            aggregator_sample: 3,
            ..EngineConfig::default()
        };
        assert_eq!(config.aggregator_sample, 3);
    }
}
