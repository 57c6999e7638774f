//! Vocabulary shard planning: how a model too big for one worker pool is
//! split across several.
//!
//! The paper's central move (§3.1) is partitioning LDA state so each piece
//! streams through a bounded memory budget; [`ShardPlan`] applies the same
//! idea to serving. The vocabulary `0..V` is cut into contiguous word-id
//! ranges sized by the core memory estimator
//! ([`saber_core::memory::snapshot_bytes`]), each range becomes an
//! [`InferenceSnapshot::shard`](crate::InferenceSnapshot::shard) served by
//! its own [`TopicServer`](crate::TopicServer), and a
//! [`ShardRouter`](crate::ShardRouter) splits documents across them.
//!
//! A plan is pure data with three invariants the property tests pin down:
//! ranges are **disjoint**, **cover** `0..V` exactly, and (for
//! [`ShardPlan::by_budget`]) each range's snapshot **fits the byte
//! budget**.

use std::ops::Range;

use saber_core::memory::snapshot_bytes;

use crate::snapshot::SnapshotSampler;
use crate::ServeError;

/// Derives the RNG seed shard `shard` uses for a request-level `seed`.
///
/// Shard 0 keeps the raw request seed, so a single-shard router replays a
/// direct [`TopicServer`](crate::TopicServer) bit-for-bit; later shards get
/// decorrelated streams via a golden-ratio multiply (the SplitMix64
/// increment constant). Deterministic, so sharded answers replay exactly
/// like unsharded ones.
pub fn derive_shard_seed(seed: u64, shard: usize) -> u64 {
    seed ^ (shard as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// Derives which of `n_replicas` serves shard `shard` for a request-level
/// `seed` — the seed-deterministic replica selector behind replicated plan
/// ranges. Replicas of a shard serve identical snapshot slices with
/// identical shard-derived seeds, so the *answer* never depends on the
/// choice; determinism here is about making request → replica routing
/// replayable (and spreading load evenly, via a SplitMix64-style mix of
/// the already-derived shard seed).
pub fn derive_replica_choice(seed: u64, shard: usize, n_replicas: usize) -> usize {
    if n_replicas <= 1 {
        return 0;
    }
    let mut mixed = derive_shard_seed(seed, shard);
    mixed ^= mixed >> 30;
    mixed = mixed.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    mixed ^= mixed >> 27;
    (mixed % n_replicas as u64) as usize
}

/// A partition of the vocabulary `0..V` into contiguous word-id ranges,
/// one per shard.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardPlan {
    /// Ascending cut points: shard `s` owns `bounds[s]..bounds[s + 1]`.
    /// `bounds[0] == 0`, `bounds.last() == V`, strictly increasing — which
    /// is exactly "disjoint and covering".
    bounds: Vec<u32>,
}

impl ShardPlan {
    /// A single shard owning the whole vocabulary — the degenerate plan a
    /// router uses to serve un-split models through the same code path.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::InvalidConfig`] when `vocab_size` is 0.
    pub fn single(vocab_size: usize) -> Result<Self, ServeError> {
        ShardPlan::uniform(vocab_size, 1)
    }

    /// Splits `0..vocab_size` into `n_shards` contiguous ranges of
    /// near-equal length (the first `vocab_size % n_shards` ranges are one
    /// word longer).
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::InvalidConfig`] when `vocab_size` is 0,
    /// `n_shards` is 0, or there are more shards than words (an empty
    /// shard serves nothing and can only hide bugs).
    pub fn uniform(vocab_size: usize, n_shards: usize) -> Result<Self, ServeError> {
        if vocab_size == 0 || n_shards == 0 || n_shards > vocab_size {
            return Err(ServeError::InvalidConfig {
                detail: format!(
                    "cannot split a vocabulary of {vocab_size} words into {n_shards} \
                     non-empty shards"
                ),
            });
        }
        let base = vocab_size / n_shards;
        let extra = vocab_size % n_shards;
        let mut bounds = Vec::new();
        let mut at = 0usize;
        bounds.push(0);
        for s in 0..n_shards {
            at += base + usize::from(s < extra);
            bounds.push(at as u32);
        }
        Ok(ShardPlan { bounds })
    }

    /// Cuts the vocabulary into the fewest contiguous shards whose
    /// per-shard snapshot footprint — `B̂` rows plus the pre-processed
    /// per-word structures, as estimated by [`snapshot_bytes`] — stays
    /// within `max_shard_bytes`.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::InvalidConfig`] when `vocab_size` or
    /// `n_topics` is 0, or when the budget cannot hold even a single
    /// word's rows.
    pub fn by_budget(
        vocab_size: usize,
        n_topics: usize,
        sampler: SnapshotSampler,
        max_shard_bytes: u64,
    ) -> Result<Self, ServeError> {
        if vocab_size == 0 || n_topics == 0 {
            return Err(ServeError::InvalidConfig {
                detail: "vocab_size and n_topics must be at least 1".into(),
            });
        }
        // The estimator is linear in V, so the budget translates to a
        // per-shard word capacity.
        let per_word = snapshot_bytes(1, n_topics, sampler.preprocess());
        let capacity = (max_shard_bytes / per_word) as usize;
        if capacity == 0 {
            return Err(ServeError::InvalidConfig {
                detail: format!(
                    "budget of {max_shard_bytes} bytes cannot hold one word's {per_word} \
                     bytes at K = {n_topics}"
                ),
            });
        }
        let n_shards = vocab_size.div_ceil(capacity);
        ShardPlan::uniform(vocab_size, n_shards)
    }

    /// Number of shards.
    pub fn n_shards(&self) -> usize {
        self.bounds.len() - 1
    }

    /// Vocabulary size `V` the plan covers.
    pub fn vocab_size(&self) -> usize {
        // `bounds` always holds `n_shards + 1 ≥ 1` entries (every
        // constructor pushes bound 0 first); an empty plan covers V = 0.
        self.bounds.last().copied().unwrap_or(0) as usize
    }

    /// The word-id range shard `s` owns.
    ///
    /// # Panics
    ///
    /// Panics if `s >= n_shards`.
    pub fn range(&self, s: usize) -> Range<u32> {
        assert!(s < self.n_shards(), "shard {s} out of range");
        self.bounds[s]..self.bounds[s + 1]
    }

    /// All shard ranges in order.
    pub fn ranges(&self) -> impl Iterator<Item = Range<u32>> + '_ {
        (0..self.n_shards()).map(|s| self.range(s))
    }

    /// The wire-visible trace span name for shard `s`'s fan-out leg —
    /// the name [`ShardRouter`](crate::ShardRouter) gives the span that
    /// wraps shard `s`'s submit/collect round trip, and the name clients
    /// of `GET /trace/recent` key on (see `docs/OBSERVABILITY.md`).
    /// Defined next to the plan so the span taxonomy and the partition it
    /// describes stay in one place.
    #[must_use]
    pub fn span_name(s: usize) -> impl std::fmt::Display {
        std::fmt::from_fn(move |f| write!(f, "shard {s}"))
    }

    /// The shard owning `word`, or `None` when `word >= V`.
    pub fn shard_of(&self, word: u32) -> Option<usize> {
        if (word as usize) >= self.vocab_size() {
            return None;
        }
        // partition_point: first bound > word, minus the leading 0 bound.
        Some(self.bounds.partition_point(|&b| b <= word) - 1)
    }

    /// Splits a document into per-shard word lists with ids re-based to
    /// each shard's range (`global - range.start`), preserving document
    /// order within each shard.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::BadRequest`] when a word id is outside the
    /// vocabulary — the router-level analogue of
    /// [`TopicServer`](crate::TopicServer)'s admission check.
    pub fn split(&self, words: &[u32]) -> Result<Vec<Vec<u32>>, ServeError> {
        let mut per_shard: Vec<Vec<u32>> = (0..self.n_shards()).map(|_| Vec::new()).collect();
        for &w in words {
            let Some(s) = self.shard_of(w) else {
                return Err(ServeError::BadRequest {
                    detail: format!(
                        "word id {w} out of vocabulary range (V = {})",
                        self.vocab_size()
                    ),
                });
            };
            per_shard[s].push(w - self.bounds[s]);
        }
        Ok(per_shard)
    }

    /// Estimated snapshot footprint of shard `s` in bytes, via
    /// [`snapshot_bytes`].
    ///
    /// # Panics
    ///
    /// Panics if `s >= n_shards`.
    pub fn shard_bytes(&self, s: usize, n_topics: usize, sampler: SnapshotSampler) -> u64 {
        let range = self.range(s);
        snapshot_bytes(
            (range.end - range.start) as u64,
            n_topics,
            sampler.preprocess(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn uniform_covers_the_vocabulary_without_gaps() {
        let plan = ShardPlan::uniform(10, 3).unwrap();
        assert_eq!(plan.n_shards(), 3);
        assert_eq!(plan.vocab_size(), 10);
        let ranges: Vec<_> = plan.ranges().collect();
        assert_eq!(ranges, vec![0..4, 4..7, 7..10]);
        assert_eq!(plan.shard_of(0), Some(0));
        assert_eq!(plan.shard_of(3), Some(0));
        assert_eq!(plan.shard_of(4), Some(1));
        assert_eq!(plan.shard_of(9), Some(2));
        assert_eq!(plan.shard_of(10), None);
    }

    #[test]
    fn degenerate_plans_are_rejected() {
        assert!(matches!(
            ShardPlan::uniform(0, 1),
            Err(ServeError::InvalidConfig { .. })
        ));
        assert!(matches!(
            ShardPlan::uniform(4, 0),
            Err(ServeError::InvalidConfig { .. })
        ));
        assert!(matches!(
            ShardPlan::uniform(4, 5),
            Err(ServeError::InvalidConfig { .. })
        ));
        assert!(matches!(
            ShardPlan::by_budget(100, 64, SnapshotSampler::WaryTree, 16),
            Err(ServeError::InvalidConfig { .. })
        ));
    }

    #[test]
    fn split_rebases_word_ids_and_preserves_order() {
        let plan = ShardPlan::uniform(12, 3).unwrap();
        let split = plan.split(&[0, 5, 11, 1, 6, 0, 8]).unwrap();
        assert_eq!(split[0], vec![0, 1, 0]);
        assert_eq!(split[1], vec![1, 2]);
        assert_eq!(split[2], vec![3, 0]);
        assert!(matches!(
            plan.split(&[12]),
            Err(ServeError::BadRequest { .. })
        ));
    }

    #[test]
    fn derive_shard_seed_keeps_shard_zero_raw() {
        assert_eq!(derive_shard_seed(1234, 0), 1234);
        let derived: Vec<u64> = (0..8).map(|s| derive_shard_seed(1234, s)).collect();
        let mut unique = derived.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), derived.len(), "shard seeds must differ");
    }

    #[test]
    fn derive_replica_choice_is_deterministic_and_in_range() {
        for n in 1..5usize {
            for seed in [0u64, 1, 42, u64::MAX] {
                for shard in 0..4 {
                    let choice = derive_replica_choice(seed, shard, n);
                    assert!(choice < n);
                    assert_eq!(choice, derive_replica_choice(seed, shard, n));
                }
            }
        }
        // The selector actually spreads: across many seeds every replica of
        // a 3-replica set sees traffic.
        let mut hit = [false; 3];
        for seed in 0..64u64 {
            hit[derive_replica_choice(seed, 1, 3)] = true;
        }
        assert_eq!(hit, [true; 3]);
    }

    #[test]
    fn by_budget_matches_manual_arithmetic() {
        // 1000 words at K = 64 with alias tables: 64·4 B̂ + 64·8 alias
        // = 768 bytes/word; a 100 kB budget holds 130 words → 8 shards.
        let plan = ShardPlan::by_budget(1000, 64, SnapshotSampler::AliasTable, 100_000).unwrap();
        assert_eq!(plan.n_shards(), 8);
        for s in 0..plan.n_shards() {
            assert!(plan.shard_bytes(s, 64, SnapshotSampler::AliasTable) <= 100_000);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Uniform plans partition 0..V: disjoint, covering, every word
        /// owned by exactly the shard whose range contains it.
        #[test]
        fn plans_partition_the_vocabulary(
            vocab in 1usize..5000,
            shards in 1usize..64,
        ) {
            let shards = shards.min(vocab);
            let plan = ShardPlan::uniform(vocab, shards).unwrap();
            prop_assert_eq!(plan.n_shards(), shards);
            prop_assert_eq!(plan.vocab_size(), vocab);
            // Contiguity + coverage: ranges chain from 0 to V.
            let mut expected_start = 0u32;
            for range in plan.ranges() {
                prop_assert_eq!(range.start, expected_start);
                prop_assert!(range.start < range.end, "empty shard");
                expected_start = range.end;
            }
            prop_assert_eq!(expected_start as usize, vocab);
            // Balance: uniform ranges differ by at most one word.
            let lens: Vec<u32> = plan.ranges().map(|r| r.end - r.start).collect();
            let (min, max) = (lens.iter().min().unwrap(), lens.iter().max().unwrap());
            prop_assert!(max - min <= 1);
            // Membership agrees with the ranges.
            for probe in [0u32, (vocab as u32 - 1) / 2, vocab as u32 - 1] {
                let s = plan.shard_of(probe).unwrap();
                prop_assert!(plan.range(s).contains(&probe));
            }
            prop_assert_eq!(plan.shard_of(vocab as u32), None);
        }

        /// Budgeted plans respect the byte budget on every shard and use a
        /// minimal shard count (one fewer shard would overflow somewhere).
        #[test]
        fn budgeted_plans_respect_the_budget(
            vocab in 1usize..3000,
            k in 1usize..256,
            budget_words in 1u64..500,
        ) {
            let sampler = SnapshotSampler::WaryTree;
            let per_word = snapshot_bytes(1, k, sampler.preprocess());
            let budget = per_word * budget_words;
            let plan = ShardPlan::by_budget(vocab, k, sampler, budget).unwrap();
            for s in 0..plan.n_shards() {
                prop_assert!(
                    plan.shard_bytes(s, k, sampler) <= budget,
                    "shard {} of {} exceeds the budget", s, plan.n_shards()
                );
            }
            if plan.n_shards() > 1 {
                // Minimality: the same vocabulary in one fewer shard would
                // put > capacity words somewhere.
                let fewer = ShardPlan::uniform(vocab, plan.n_shards() - 1).unwrap();
                let widest = fewer.ranges().map(|r| r.end - r.start).max().unwrap();
                prop_assert!(
                    u64::from(widest) * per_word > budget,
                    "plan used more shards than the budget requires"
                );
            }
        }

        /// Splitting a document never loses or invents words, and local
        /// ids stay within their shard's width.
        #[test]
        fn split_is_lossless(
            vocab in 1usize..2000,
            shards in 1usize..16,
            words in proptest::collection::vec(0u32..2000, 0..64),
        ) {
            let shards = shards.min(vocab);
            let plan = ShardPlan::uniform(vocab, shards).unwrap();
            let words: Vec<u32> = words.into_iter().filter(|&w| (w as usize) < vocab).collect();
            let split = plan.split(&words).unwrap();
            let total: usize = split.iter().map(Vec::len).sum();
            prop_assert_eq!(total, words.len());
            let mut reassembled: Vec<u32> = Vec::new();
            for (s, local_words) in split.iter().enumerate() {
                let range = plan.range(s);
                for &local in local_words {
                    prop_assert!(local < range.end - range.start);
                    reassembled.push(local + range.start);
                }
            }
            reassembled.sort_unstable();
            let mut sorted = words.clone();
            sorted.sort_unstable();
            prop_assert_eq!(reassembled, sorted);
        }
    }
}
