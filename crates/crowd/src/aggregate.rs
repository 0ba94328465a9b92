//! The answer-aggregation black-box of Section 4.2.
//!
//! Given the answers collected so far for one assignment, an [`Aggregator`]
//! decides whether (i) enough answers have been gathered and (ii) the
//! assignment is overall significant. The paper's real-crowd experiments use
//! the simple rule implemented by [`FixedSampleAggregator`]: require five
//! answers, then compare the average against the threshold.

/// The aggregator's verdict for one assignment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Decision {
    /// Enough answers, average support ≥ threshold.
    Significant,
    /// Enough answers, average support < threshold.
    Insignificant,
    /// Not enough answers yet — keep asking.
    Undecided,
}

/// Decides overall significance from collected answers.
///
/// Implementations may also weight answers by trust, detect outliers, bound
/// error probability etc.; the engine treats this as a black-box. `Send +
/// Sync + Debug` so an engine configuration can share one across sessions
/// and keep deriving `Debug`.
pub trait Aggregator: Send + Sync + std::fmt::Debug {
    /// Decide from `answers` (one entry per distinct member asked) at
    /// `threshold`.
    fn decide(&self, answers: &[f64], threshold: f64) -> Decision;

    /// The aggregated support estimate (used for reporting), if decidable.
    fn estimate(&self, answers: &[f64]) -> Option<f64> {
        if answers.is_empty() {
            None
        } else {
            Some(answers.iter().sum::<f64>() / answers.len() as f64)
        }
    }
}

/// The paper's rule: `sample_size` answers, then average vs. threshold.
#[derive(Debug, Clone, Copy)]
pub struct FixedSampleAggregator {
    /// Number of answers required before deciding (the paper uses 5).
    pub sample_size: usize,
}

impl FixedSampleAggregator {
    /// The configuration used in the paper's real-crowd experiments.
    pub fn paper_default() -> Self {
        FixedSampleAggregator { sample_size: 5 }
    }
}

impl Aggregator for FixedSampleAggregator {
    fn decide(&self, answers: &[f64], threshold: f64) -> Decision {
        if answers.len() < self.sample_size {
            return Decision::Undecided;
        }
        let avg = answers.iter().sum::<f64>() / answers.len() as f64;
        // Supports are ratios of small integers (k-of-n transactions, scale
        // clicks); compare with a tolerance so that float summation order
        // cannot flip an exactly-at-threshold average.
        if avg + 1e-9 >= threshold {
            Decision::Significant
        } else {
            Decision::Insignificant
        }
    }
}

/// Majority vote: each answer votes significant iff it meets the threshold
/// individually; decide once `sample_size` votes are in. More robust than
/// averaging when a few members report extreme supports (one spammer's 1.0
/// cannot drag four honest 0.05s over the line).
#[derive(Debug, Clone, Copy)]
pub struct MajorityVoteAggregator {
    /// Votes required before deciding.
    pub sample_size: usize,
}

impl Aggregator for MajorityVoteAggregator {
    fn decide(&self, answers: &[f64], threshold: f64) -> Decision {
        if answers.len() < self.sample_size {
            return Decision::Undecided;
        }
        let yes = answers.iter().filter(|&&s| s >= threshold).count();
        if 2 * yes >= answers.len() {
            Decision::Significant
        } else {
            Decision::Insignificant
        }
    }
}

/// Sequential aggregation with early stopping — one realization of the
/// paper's "black-box designed to bound error probability": after
/// `min_samples` answers, decide as soon as the running mean is more than
/// `z` standard errors away from the threshold; otherwise keep collecting
/// until `max_samples` and fall back to the plain average. Saves answers on
/// clear-cut assignments while spending more on borderline ones.
#[derive(Debug, Clone, Copy)]
pub struct SequentialAggregator {
    /// Minimum answers before an early decision is allowed.
    pub min_samples: usize,
    /// Answers at which the average decides unconditionally.
    pub max_samples: usize,
    /// Confidence width in standard errors (e.g. 1.96 ≈ 95%).
    pub z: f64,
}

impl Aggregator for SequentialAggregator {
    fn decide(&self, answers: &[f64], threshold: f64) -> Decision {
        let n = answers.len();
        if n < self.min_samples {
            return Decision::Undecided;
        }
        let mean = answers.iter().sum::<f64>() / n as f64;
        if n >= self.max_samples {
            return if mean + 1e-9 >= threshold {
                Decision::Significant
            } else {
                Decision::Insignificant
            };
        }
        let var = answers.iter().map(|s| (s - mean) * (s - mean)).sum::<f64>()
            / (n as f64 - 1.0).max(1.0);
        let stderr = (var / n as f64).sqrt();
        if mean - self.z * stderr > threshold {
            Decision::Significant
        } else if mean + self.z * stderr < threshold {
            Decision::Insignificant
        } else {
            Decision::Undecided
        }
    }
}

/// Single-user evaluation (Section 4.1): one answer decides.
#[derive(Debug, Clone, Copy, Default)]
pub struct SingleUserAggregator;

impl Aggregator for SingleUserAggregator {
    fn decide(&self, answers: &[f64], threshold: f64) -> Decision {
        match answers.last() {
            None => Decision::Undecided,
            Some(&s) if s >= threshold => Decision::Significant,
            Some(_) => Decision::Insignificant,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_sample_waits_for_enough_answers() {
        let agg = FixedSampleAggregator::paper_default();
        assert_eq!(agg.decide(&[0.5; 4], 0.2), Decision::Undecided);
        assert_eq!(agg.decide(&[0.5; 5], 0.2), Decision::Significant);
        assert_eq!(agg.decide(&[0.1; 5], 0.2), Decision::Insignificant);
    }

    #[test]
    fn threshold_is_inclusive() {
        let agg = FixedSampleAggregator { sample_size: 2 };
        assert_eq!(agg.decide(&[0.2, 0.2], 0.2), Decision::Significant);
    }

    #[test]
    fn example_3_1_averages() {
        // φ16: avg(1/3, 1/2) = 5/12 ≥ 0.4 → significant;
        // φ20: avg(1/6, 1/2) = 1/3 < 0.4 → insignificant.
        let agg = FixedSampleAggregator { sample_size: 2 };
        assert_eq!(agg.decide(&[1.0 / 3.0, 0.5], 0.4), Decision::Significant);
        assert_eq!(agg.decide(&[1.0 / 6.0, 0.5], 0.4), Decision::Insignificant);
    }

    #[test]
    fn estimate_is_average() {
        let agg = FixedSampleAggregator::paper_default();
        assert_eq!(agg.estimate(&[]), None);
        assert!((agg.estimate(&[0.25, 0.75]).unwrap() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn single_user_decides_immediately() {
        let agg = SingleUserAggregator;
        assert_eq!(agg.decide(&[], 0.4), Decision::Undecided);
        assert_eq!(agg.decide(&[0.4], 0.4), Decision::Significant);
        assert_eq!(agg.decide(&[0.39], 0.4), Decision::Insignificant);
    }
}

#[cfg(test)]
mod variant_tests {
    use super::*;

    #[test]
    fn majority_vote_counts_votes_not_magnitudes() {
        let agg = MajorityVoteAggregator { sample_size: 5 };
        assert_eq!(agg.decide(&[0.5; 4], 0.2), Decision::Undecided);
        // One extreme 1.0 among four below-threshold answers: the average
        // would pass (avg 0.232 >= 0.2) but the vote correctly rejects.
        let answers = [1.0, 0.04, 0.04, 0.04, 0.04];
        assert_eq!(
            FixedSampleAggregator { sample_size: 5 }.decide(&answers, 0.2),
            Decision::Significant,
            "averaging is fooled"
        );
        assert_eq!(
            agg.decide(&answers, 0.2),
            Decision::Insignificant,
            "majority vote is not"
        );
        assert_eq!(
            agg.decide(&[0.5, 0.5, 0.5, 0.0, 0.0], 0.2),
            Decision::Significant
        );
    }

    #[test]
    fn sequential_decides_clear_cases_early() {
        let agg = SequentialAggregator {
            min_samples: 3,
            max_samples: 10,
            z: 1.96,
        };
        // Unanimous high supports: decided at 3 answers.
        assert_eq!(agg.decide(&[0.9, 0.92, 0.88], 0.2), Decision::Significant);
        // Unanimous zeros: decided at 3 answers.
        assert_eq!(agg.decide(&[0.0, 0.0, 0.0], 0.2), Decision::Insignificant);
        // Borderline: stays undecided until max_samples.
        let borderline = [0.1, 0.3, 0.2, 0.25, 0.15];
        assert_eq!(agg.decide(&borderline, 0.2), Decision::Undecided);
        let ten: Vec<f64> = (0..10)
            .map(|i| if i % 2 == 0 { 0.1 } else { 0.3 })
            .collect();
        assert_ne!(
            agg.decide(&ten, 0.2),
            Decision::Undecided,
            "max_samples forces"
        );
    }

    #[test]
    fn sequential_requires_min_samples() {
        let agg = SequentialAggregator {
            min_samples: 3,
            max_samples: 10,
            z: 1.96,
        };
        assert_eq!(agg.decide(&[1.0, 1.0], 0.2), Decision::Undecided);
    }
}
