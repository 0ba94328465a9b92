//! Consistent placement: the hash that pins each member to one shard of
//! the runtime's sharded dispatch.
//!
//! A member's shard never changes while the roster is stable, and every
//! pool built with the same shard count places a member identically.
//! Hashes use [`DefaultHasher`] seeded identically everywhere; indices are
//! reduced modulo the shard count. Counts need not be powers of two.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

use crate::member::MemberId;

/// Stable hash of a member id, used for member-shard placement.
pub fn hash_member(member: MemberId) -> u64 {
    let mut h = DefaultHasher::new();
    member.0.hash(&mut h);
    h.finish()
}

/// Reduce a hash to an index in `0..count`. `count` must be non-zero.
pub fn index_for(hash: u64, count: usize) -> usize {
    debug_assert!(count > 0, "placement over zero shards");
    (hash as usize) % count
}

/// The shard a member is pinned to, for a pool with `count` shards.
/// Consistent: the same member always lands on the same shard for a given
/// shard count.
pub fn member_shard(member: MemberId, count: usize) -> usize {
    index_for(hash_member(member), count)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn placement_is_stable() {
        for n in 0..32 {
            assert_eq!(member_shard(MemberId(n), 8), member_shard(MemberId(n), 8));
        }
    }

    #[test]
    fn placement_stays_in_range() {
        for count in [1, 2, 3, 8, 16, 100] {
            for n in 0..64 {
                assert!(member_shard(MemberId(n), count) < count);
            }
        }
    }

    #[test]
    fn single_shard_maps_everything_to_zero() {
        for n in 0..16 {
            assert_eq!(member_shard(MemberId(n), 1), 0);
        }
    }

    #[test]
    fn members_spread_across_shards() {
        let mut seen = [false; 8];
        for n in 0..1000 {
            seen[member_shard(MemberId(n), 8)] = true;
        }
        assert!(seen.iter().all(|&s| s), "1000 members miss a shard of 8");
    }
}
