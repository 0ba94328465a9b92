#![warn(missing_docs)]

//! # oassis-crowd
//!
//! The crowd model of Section 2 and the crowd-interaction machinery of
//! Sections 4 and 6:
//!
//! * [`Transaction`]s and [`PersonalDb`]s — each crowd member's *virtual*
//!   database of past occasions, with the personal support function
//!   `supp_u(A) = |{T ∈ D_u : A ≤ T}| / |D_u|`,
//! * the [`CrowdMember`] trait — the only way the engine may interact with a
//!   member is by asking *concrete* and *specialization* questions (plus the
//!   UI's user-guided pruning); the personal DB itself is never readable,
//! * simulated members: [`DbMember`] (backed by a personal DB, with the
//!   paper's five-level frequency scale and optional noise),
//!   [`ScriptedMember`] (fixed answers, for tests), [`SpammerMember`]
//!   (random answers, for quality-control experiments) and
//!   [`UnreliableMember`] (a seeded latency/drop channel model around any
//!   member, for the concurrent session runtime),
//! * the answer [`Aggregator`] black-box of Section 4.2 (default: the
//!   paper's five-answers-then-average rule),
//! * the [`CrowdCache`] — per-assignment answer storage enabling the
//!   threshold-replay methodology of Section 6.3,
//! * the [`AnswerStore`] — a cross-query answer log the multi-query service
//!   layer uses to serve repeated questions without re-asking the crowd;
//!   it wraps one [`CrowdCache`], also holds the service's prefetched
//!   answers as unpaid entries, and is encoded only as WAL records,
//! * [`quality`] — the Section 4.2 consistency check (support monotonicity
//!   across a member's own answers) used to filter spammers.

pub mod aggregate;
pub mod answerstore;
pub mod cache;
pub mod frequency;
pub mod member;
pub mod placement;
pub mod profile;
pub mod quality;
pub mod transaction;
pub mod unreliable;

pub use aggregate::{
    Aggregator, Decision, FixedSampleAggregator, MajorityVoteAggregator, SequentialAggregator,
    SingleUserAggregator,
};
pub use answerstore::AnswerStore;
pub use cache::CrowdCache;
pub use frequency::FrequencyScale;
pub use member::{CrowdMember, DbMember, MemberId, ScriptedMember, SpammerMember};
pub use profile::{select_members, ProfiledMember};
pub use transaction::{PersonalDb, SupportIndex, Transaction};
pub use unreliable::{ResponseModel, UnreliableMember};
