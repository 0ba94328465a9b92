//! A latency-and-reliability wrapper for simulated crowd members.
//!
//! Real crowd answers arrive over a high-latency, lossy channel: a worker
//! may take seconds to respond, or never respond at all (RDF-Hunter, Acosta
//! et al. 2015, makes the same observation for crowdsourced SPARQL). The
//! [`UnreliableMember`] wrapper gives any [`CrowdMember`] a seeded
//! [`ResponseModel`] so the concurrent session runtime's timeout / retry /
//! exclusion machinery can be exercised deterministically in simulation.

use std::collections::VecDeque;
use std::time::Duration;

use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};

use oassis_vocab::{ElementId, Fact, FactSet};

use crate::member::{CrowdMember, MemberId};

/// Simulated delivery characteristics of one member's crowd channel.
///
/// Each answer draws, in order, one drop decision and (if delivered) one
/// jitter sample from the wrapper's seeded generator, so a given
/// `(model, seed)` pair produces a reproducible delay sequence.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ResponseModel {
    /// Minimum time an answer takes to come back.
    pub base_delay: Duration,
    /// Extra uniformly-random latency added on top of `base_delay`.
    pub jitter: Duration,
    /// Probability in `[0, 1]` that an answer is never delivered at all
    /// (the runtime's per-question timeout fires instead).
    pub drop_probability: f64,
}

impl Default for ResponseModel {
    fn default() -> Self {
        ResponseModel {
            base_delay: Duration::ZERO,
            jitter: Duration::ZERO,
            drop_probability: 0.0,
        }
    }
}

impl ResponseModel {
    /// A perfectly reliable, instant channel (the trait default).
    pub fn instant() -> Self {
        Self::default()
    }

    /// A reliable channel with fixed latency `delay` and no jitter.
    pub fn latency(delay: Duration) -> Self {
        ResponseModel {
            base_delay: delay,
            ..Self::default()
        }
    }

    /// Set the uniform jitter added on top of the base delay.
    pub fn with_jitter(mut self, jitter: Duration) -> Self {
        self.jitter = jitter;
        self
    }

    /// Set the probability that an answer is dropped entirely.
    pub fn with_drop_probability(mut self, p: f64) -> Self {
        self.drop_probability = p.clamp(0.0, 1.0);
        self
    }
}

/// A [`CrowdMember`] wrapper that delivers the inner member's answers
/// through a simulated unreliable channel.
///
/// Question semantics are delegated verbatim to the inner member — only
/// [`answer_delay`](CrowdMember::answer_delay) is overridden, using a
/// dedicated seeded generator so the channel model never perturbs the
/// inner member's own randomness (noise, spam).
pub struct UnreliableMember {
    inner: Box<dyn CrowdMember>,
    model: ResponseModel,
    rng: SmallRng,
    script: VecDeque<Option<Duration>>,
}

impl std::fmt::Debug for UnreliableMember {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("UnreliableMember")
            .field("id", &self.inner.id())
            .field("model", &self.model)
            .finish_non_exhaustive()
    }
}

impl UnreliableMember {
    /// Wrap `inner` with `model`, seeding the channel's generator from
    /// `seed` (mix the member id in for per-member variety).
    pub fn new(inner: Box<dyn CrowdMember>, model: ResponseModel, seed: u64) -> Self {
        UnreliableMember {
            inner,
            model,
            rng: SmallRng::seed_from_u64(seed),
            script: VecDeque::new(),
        }
    }

    /// Script the first delay draws explicitly: each queued entry is
    /// returned (and consumed) by [`answer_delay`](CrowdMember::answer_delay)
    /// before the model takes over. `None` entries simulate drops. Lets a
    /// test pin an exact delay — e.g. an answer landing precisely on the
    /// runtime's deadline — without searching seed space.
    pub fn with_delay_script(mut self, delays: impl IntoIterator<Item = Option<Duration>>) -> Self {
        self.script.extend(delays);
        self
    }

    /// The channel model in effect.
    pub fn model(&self) -> ResponseModel {
        self.model
    }

    /// Unwrap, returning the inner member.
    pub fn into_inner(self) -> Box<dyn CrowdMember> {
        self.inner
    }
}

impl CrowdMember for UnreliableMember {
    fn id(&self) -> MemberId {
        self.inner.id()
    }

    fn ask_concrete(&mut self, a: &FactSet) -> f64 {
        self.inner.ask_concrete(a)
    }

    fn ask_specialization(
        &mut self,
        base: &FactSet,
        candidates: &[FactSet],
    ) -> Option<(usize, f64)> {
        self.inner.ask_specialization(base, candidates)
    }

    fn irrelevant_elements(&mut self, a: &FactSet) -> Vec<ElementId> {
        self.inner.irrelevant_elements(a)
    }

    fn willing(&self) -> bool {
        self.inner.willing()
    }

    fn can_answer(&self, a: &FactSet) -> bool {
        self.inner.can_answer(a)
    }

    fn suggest_more(&mut self, base: &FactSet) -> Vec<Fact> {
        self.inner.suggest_more(base)
    }

    fn answer_delay(&mut self) -> Option<Duration> {
        if let Some(scripted) = self.script.pop_front() {
            return scripted;
        }
        if self.model.drop_probability > 0.0
            && self.rng.random_range(0.0..1.0) < self.model.drop_probability
        {
            return None;
        }
        let jitter = if self.model.jitter.is_zero() {
            Duration::ZERO
        } else {
            let nanos = self.model.jitter.as_nanos() as u64;
            Duration::from_nanos(self.rng.random_range(0..=nanos))
        };
        Some(self.model.base_delay + jitter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::member::ScriptedMember;

    fn scripted(id: u32) -> Box<dyn CrowdMember> {
        Box::new(ScriptedMember::new(
            MemberId(id),
            std::collections::HashMap::new(),
            0.5,
        ))
    }

    #[test]
    fn instant_model_is_transparent() {
        let mut m = UnreliableMember::new(scripted(1), ResponseModel::instant(), 7);
        assert_eq!(m.id(), MemberId(1));
        assert_eq!(m.answer_delay(), Some(Duration::ZERO));
        assert_eq!(m.ask_concrete(&FactSet::new()), 0.5);
    }

    #[test]
    fn latency_model_delays_within_bounds() {
        let model =
            ResponseModel::latency(Duration::from_millis(2)).with_jitter(Duration::from_millis(3));
        let mut m = UnreliableMember::new(scripted(1), model, 7);
        for _ in 0..50 {
            let d = m.answer_delay().expect("no drops configured");
            assert!(d >= Duration::from_millis(2));
            assert!(d <= Duration::from_millis(5));
        }
    }

    #[test]
    fn drop_probability_one_always_drops() {
        let model = ResponseModel::instant().with_drop_probability(1.0);
        let mut m = UnreliableMember::new(scripted(1), model, 7);
        for _ in 0..10 {
            assert_eq!(m.answer_delay(), None);
        }
    }

    #[test]
    fn delay_sequence_is_seed_deterministic() {
        let model = ResponseModel::latency(Duration::from_millis(1))
            .with_jitter(Duration::from_millis(4))
            .with_drop_probability(0.3);
        let mut a = UnreliableMember::new(scripted(1), model, 42);
        let mut b = UnreliableMember::new(scripted(1), model, 42);
        let seq_a: Vec<_> = (0..32).map(|_| a.answer_delay()).collect();
        let seq_b: Vec<_> = (0..32).map(|_| b.answer_delay()).collect();
        assert_eq!(seq_a, seq_b);
        assert!(seq_a.iter().any(Option::is_none), "some drops at p=0.3");
        assert!(
            seq_a.iter().any(Option::is_some),
            "some deliveries at p=0.3"
        );
    }

    #[test]
    fn delay_script_takes_precedence_then_model_resumes() {
        let model = ResponseModel::latency(Duration::from_millis(1));
        let mut m = UnreliableMember::new(scripted(1), model, 7)
            .with_delay_script([Some(Duration::from_millis(250)), None]);
        assert_eq!(m.answer_delay(), Some(Duration::from_millis(250)));
        assert_eq!(m.answer_delay(), None, "scripted drop");
        assert_eq!(
            m.answer_delay(),
            Some(Duration::from_millis(1)),
            "model resumes past the script"
        );
    }

    #[test]
    fn channel_rng_does_not_touch_inner_member() {
        let model = ResponseModel::instant().with_drop_probability(0.5);
        let mut m = UnreliableMember::new(scripted(1), model, 9);
        let before = m.ask_concrete(&FactSet::new());
        for _ in 0..16 {
            let _ = m.answer_delay();
        }
        assert_eq!(m.ask_concrete(&FactSet::new()), before);
    }
}
