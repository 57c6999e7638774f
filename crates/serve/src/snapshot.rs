//! Immutable inference snapshots exported from a trained [`LdaModel`].
//!
//! A snapshot is everything inference needs and nothing the trainer can
//! touch afterwards: per word, its row of the normalised topic–word matrix
//! `B̂` plus one pre-processed sampling structure ([`SnapshotSampler`] picks
//! the W-ary tree / alias table trade-off of the paper's §3.2.4). Being
//! plain immutable data with no epoch of their own, snapshots are shared
//! behind `Arc` across worker threads and publications without
//! synchronisation on the read path; the server that serves one records
//! the epoch it serves it as ([`crate::TopicServer::commit`]).
//!
//! Each word's row is itself an immutable `Arc`, so snapshots that agree on
//! a word share it: cloning, [`InferenceSnapshot::shard`] and
//! [`InferenceSnapshot::apply_delta`] copy pointers for the unchanged words
//! and build only the changed ones, and a delta epoch costs
//! `O(changed · K)`, not `O(V · K)`.

use std::io::{Read, Write};
use std::ops::Range;
use std::path::Path;
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::SeedableRng;
use saber_core::config::PreprocessKind;
use saber_core::infer::{
    em_accumulate, fold_in_em, fold_in_esca, fold_in_esca_partial, PartialFoldIn, SampledRows,
    TopicRows,
};
use saber_core::memory::snapshot_bytes;
use saber_core::model::LdaModel;
use saber_core::model_io;
use saber_core::trees::WordSampler;
use saber_core::SaberError;

/// Which pre-processed per-word structure a snapshot builds for the dense
/// sub-problem `p₂(k) ∝ B̂_vk`.
///
/// Serving exposes the same trade-off the paper studies for training
/// (§3.2.4): the W-ary tree is cheap to build (every publication rebuilds
/// the changed rows) while the alias table answers queries in `O(1)`. Fenwick
/// trees lose on both axes, so serving does not offer them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SnapshotSampler {
    /// The paper's 32-ary sampling tree: `O(K)` build, `O(log₃₂ K)` query.
    #[default]
    WaryTree,
    /// Walker's alias table: sequential `O(K)` build with a larger constant,
    /// `O(1)` query — worth it for long-lived snapshots under heavy load.
    AliasTable,
}

impl SnapshotSampler {
    /// The corresponding training-side configuration value.
    pub fn preprocess(self) -> PreprocessKind {
        match self {
            SnapshotSampler::WaryTree => PreprocessKind::WaryTree,
            SnapshotSampler::AliasTable => PreprocessKind::AliasTable,
        }
    }

    /// The on-disk/wire discriminant used by [`InferenceSnapshot::save`].
    pub(crate) fn code(self) -> u8 {
        match self {
            SnapshotSampler::WaryTree => 0,
            SnapshotSampler::AliasTable => 1,
        }
    }

    pub(crate) fn from_code(code: u8) -> Option<Self> {
        match code {
            0 => Some(SnapshotSampler::WaryTree),
            1 => Some(SnapshotSampler::AliasTable),
            _ => None,
        }
    }
}

/// Which fold-in estimator serves a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum FoldInKind {
    /// Sparsity-aware collapsed Gibbs (`O(K_d)` per token) — the fast
    /// default. Seeded, so equal seeds replay bit-identically; under a
    /// sharded router the per-shard chains are independent, making the
    /// merged θ a (statistically consistent) approximation of the
    /// unsharded one.
    #[default]
    Esca,
    /// Deterministic soft-EM fold-in (`O(K)` per token per iteration; see
    /// [`saber_core::infer::fold_in_em`]). Seed-independent, and — because
    /// each iteration's sufficient statistic is a sum over words — a
    /// sharded router reproduces the unsharded answer *exactly* (up to
    /// floating-point summation order). This is the mode the differential
    /// test suite pins to 1e-5 L∞ across shard counts.
    Em,
}

/// Fold-in quality knobs for serving.
///
/// `burn_in` and `samples` are Gibbs-sweep counts under
/// [`FoldInKind::Esca`]; under [`FoldInKind::Em`] their sum is the EM
/// iteration count (EM has no burn-in, the whole budget refines θ).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FoldInParams {
    /// Gibbs sweeps discarded before measuring.
    pub burn_in: usize,
    /// Gibbs sweeps averaged into the returned `θ`.
    pub samples: usize,
    /// Which estimator runs.
    pub kind: FoldInKind,
}

impl FoldInParams {
    /// Total sweep/iteration budget (`burn_in + samples`).
    pub fn total_sweeps(&self) -> usize {
        self.burn_in + self.samples
    }
}

impl Default for FoldInParams {
    fn default() -> Self {
        FoldInParams {
            burn_in: 5,
            samples: 8,
            kind: FoldInKind::Esca,
        }
    }
}

/// `V`, `K` and α: what a publication must share with what serves it.
pub(crate) type Shape = (usize, usize, f32);

/// The publication fit rule, the one comparison behind every refusal of a
/// snapshot, slice, delta or trainer cut for another model: `ours` (named
/// `what`) fits `theirs` (named `whom`, what serves it) when `V`, `K` and
/// the bits of α agree. A shard sampling with another α than the router finishes θ
/// with would answer wrongly without failing.
pub(crate) fn check_fit(what: &str, ours: Shape, whom: &str, theirs: Shape) -> Result<(), String> {
    let bits = |(v, k, alpha): Shape| (v, k, alpha.to_bits());
    if bits(ours) == bits(theirs) {
        return Ok(());
    }
    let ((v, k, a), (sv, sk, sa)) = (ours, theirs);
    Err(format!(
        "{what} is {v}x{k} at alpha {a} but {whom} serves {sv}x{sk} at alpha {sa}"
    ))
}

/// One word's immutable share of a snapshot: its `B̂` row and the sampler
/// built from it.
#[derive(Debug)]
struct WordRow {
    probs: Box<[f32]>,
    sampler: WordSampler,
}

impl WordRow {
    fn build(kind: SnapshotSampler, probs: Box<[f32]>) -> Arc<WordRow> {
        let sampler = WordSampler::build(kind.preprocess(), &probs);
        Arc::new(WordRow { probs, sampler })
    }

    /// [`WordRow::build`] for row `v` of a publication: the samplers assert
    /// that their weights are finite and non-negative, so a row that is not
    /// (a -0.0 included) is refused here instead. Branch-free, so the scan
    /// vectorises: a float's bits, or its bits plus the lowest exponent,
    /// reach the sign bit exactly when it is negative, infinite or NaN.
    fn decoded(kind: SnapshotSampler, v: usize, row: Box<[f32]>) -> Result<Arc<Self>, SaberError> {
        let bad = |acc: u32, p: &f32| acc | p.to_bits() | p.to_bits().wrapping_add(0x0080_0000);
        if row.iter().fold(0, bad) >> 31 == 0 {
            return Ok(WordRow::build(kind, row));
        }
        Err(SaberError::InvalidConfig {
            detail: format!("row {v} holds a probability that is negative or not finite"),
        })
    }
}

/// An immutable, self-contained view of a trained model, ready to serve
/// topic inference: per word, its normalised `B̂` row plus one
/// pre-processed sampling structure.
///
/// Snapshots are plain data — cheap to share behind an [`std::sync::Arc`],
/// never mutated after construction, and independent of the trainer that
/// produced them, so training can continue (or the model be dropped) while
/// requests are in flight. A clone shares every word's row.
#[derive(Debug, Clone)]
pub struct InferenceSnapshot {
    rows: Vec<Arc<WordRow>>,
    n_topics: usize,
    alpha: f32,
    sampler_kind: SnapshotSampler,
}

impl InferenceSnapshot {
    /// Exports a snapshot from `model`, building one `kind` structure per
    /// vocabulary word from the current `B̂`.
    ///
    /// The model's probabilities must be fresh (the trainer refreshes them
    /// every iteration; call [`LdaModel::refresh_probabilities`] after manual
    /// count edits).
    pub fn from_model(model: &LdaModel, kind: SnapshotSampler) -> Self {
        let bhat = model.word_topic_prob();
        InferenceSnapshot {
            rows: bhat
                .iter_rows()
                .map(|row| WordRow::build(kind, row.into()))
                .collect(),
            n_topics: bhat.cols(),
            alpha: model.alpha(),
            sampler_kind: kind,
        }
    }

    /// The snapshot [`InferenceSnapshot::from_model`] exports from `model`,
    /// derived from this one by rebuilding only the `changed` rows and
    /// sharing the rest. Exact when every other `B̂` row of `model` is
    /// bit-identical to this snapshot's — the invariant the trainer's
    /// touched-row tracking keeps between two exports.
    ///
    /// # Errors
    ///
    /// Returns [`SaberError::InvalidConfig`] when `model`'s dimensions or α
    /// differ from this snapshot's, or a changed row is out of range.
    pub fn refreshed(
        &self,
        model: &LdaModel,
        changed: &[u32],
    ) -> Result<InferenceSnapshot, SaberError> {
        let ours = (model.vocab_size(), model.n_topics(), model.alpha());
        check_fit("the model", ours, "the snapshot", self.shape())
            .map_err(|detail| SaberError::InvalidConfig { detail })?;
        let bhat = model.word_topic_prob();
        if let Some(v) = changed.iter().find(|&&v| v as usize >= bhat.rows()) {
            return Err(SaberError::InvalidConfig {
                detail: format!("changed row {v} is out of range for V = {}", bhat.rows()),
            });
        }
        self.with_rows(changed.iter().map(|&v| (v as usize, bhat.row(v as usize))))
    }

    /// This snapshot with each `(word, row)` of `replacements` rebuilt from
    /// `row` (taken when owned, copied when borrowed) and every other word's
    /// row shared: the one place rows change. A shard that decoded a delta
    /// and put its header to [`InferenceSnapshot::check_delta`] stages it
    /// through here, moving the rows.
    pub(crate) fn with_rows<P: AsRef<[f32]> + Into<Box<[f32]>>>(
        &self,
        replacements: impl IntoIterator<Item = (usize, P)>,
    ) -> Result<InferenceSnapshot, SaberError> {
        let mut rows = self.rows.clone();
        for (v, probs) in replacements {
            match rows.get_mut(v) {
                Some(row) if probs.as_ref().len() == self.n_topics => {
                    *row = WordRow::decoded(self.sampler_kind, v, probs.into())?;
                }
                _ => {
                    return Err(SaberError::InvalidConfig {
                        detail: format!(
                            "row {v} invalid for a {} x {} snapshot",
                            self.vocab_size(),
                            self.n_topics
                        ),
                    })
                }
            }
        }
        Ok(InferenceSnapshot {
            rows,
            n_topics: self.n_topics,
            alpha: self.alpha,
            sampler_kind: self.sampler_kind,
        })
    }

    /// Number of topics `K`.
    pub fn n_topics(&self) -> usize {
        self.n_topics
    }

    /// Vocabulary size `V`.
    pub fn vocab_size(&self) -> usize {
        self.rows.len()
    }

    /// Document–topic smoothing α inherited from the model.
    pub fn alpha(&self) -> f32 {
        self.alpha
    }

    /// The sampling structure this snapshot was built with.
    pub fn sampler_kind(&self) -> SnapshotSampler {
        self.sampler_kind
    }

    /// Estimated resident footprint in bytes, via the core memory estimator
    /// ([`snapshot_bytes`]).
    pub fn memory_bytes(&self) -> u64 {
        snapshot_bytes(
            self.vocab_size() as u64,
            self.n_topics(),
            self.sampler_kind.preprocess(),
        )
    }

    /// Infers the topic distribution `θ` of an unseen document by
    /// sparsity-aware ESCA fold-in (`O(K_d)` per token; see
    /// [`saber_core::infer`]).
    ///
    /// Deterministic: equal `(words, seed, snapshot contents, params)` give
    /// bit-identical results, independent of the worker thread that runs
    /// them.
    ///
    /// # Panics
    ///
    /// Panics if a word id is out of vocabulary range.
    pub fn infer_topics(&self, words: &[u32], seed: u64, params: FoldInParams) -> Vec<f32> {
        match params.kind {
            FoldInKind::Esca => {
                let mut rng = StdRng::seed_from_u64(seed);
                fold_in_esca(
                    words,
                    self,
                    self.alpha,
                    params.burn_in,
                    params.samples,
                    &mut rng,
                )
            }
            FoldInKind::Em => fold_in_em(words, self, self.alpha, params.total_sweeps()),
        }
        .into_iter()
        .map(|p| p as f32)
        .collect()
    }

    /// The chain half of an ESCA fold-in over a word subset: raw measured
    /// counts, not θ. A sharded router merges these across shards and
    /// finishes with [`saber_core::infer::esca_theta`]; with the full word
    /// list this is exactly the computation inside
    /// [`InferenceSnapshot::infer_topics`].
    ///
    /// # Panics
    ///
    /// Panics if a word id is out of vocabulary range.
    pub fn partial_fold_in(&self, words: &[u32], seed: u64, params: FoldInParams) -> PartialFoldIn {
        let mut rng = StdRng::seed_from_u64(seed);
        fold_in_esca_partial(
            words,
            self,
            self.alpha,
            params.burn_in,
            params.samples,
            &mut rng,
        )
    }

    /// One EM fold-in round over a word subset: the responsibility-count
    /// partial for the current `theta`. Deterministic, and exactly additive
    /// across disjoint word subsets (see [`saber_core::infer::em_accumulate`]).
    ///
    /// # Panics
    ///
    /// Panics if a word id is out of vocabulary range or `theta` is shorter
    /// than `K`.
    pub fn em_round(&self, words: &[u32], theta: &[f64]) -> PartialFoldIn {
        let mut partial = PartialFoldIn::empty(self.n_topics());
        em_accumulate(words, self, theta, &mut partial.counts);
        partial.n_words = words.len();
        partial
    }

    /// Slices the snapshot down to the contiguous word-id range `range`:
    /// the `B̂` rows and per-word samplers of those words, with word ids
    /// re-based to `0..range.len()`. The slice shares those words' rows with
    /// this snapshot, so a shard answers its words' likelihood terms exactly
    /// as the full snapshot would.
    ///
    /// The slice keeps `alpha`, the sampler kind and `K`.
    ///
    /// # Panics
    ///
    /// Panics if `range` is empty, reversed or out of vocabulary bounds.
    pub fn shard(&self, range: Range<u32>) -> InferenceSnapshot {
        assert!(
            range.start < range.end && (range.end as usize) <= self.vocab_size(),
            "shard range {range:?} invalid for V = {}",
            self.vocab_size()
        );
        InferenceSnapshot {
            rows: self.rows[range.start as usize..range.end as usize].to_vec(),
            n_topics: self.n_topics,
            alpha: self.alpha,
            sampler_kind: self.sampler_kind,
        }
    }

    /// Builds the `SABRDELTA` payload that upgrades this snapshot's
    /// `range` shard from `base_version` to `target_version`: the `B̂` rows
    /// of every changed word falling inside `range`, re-based to shard-local
    /// ids, copied bit-for-bit from the full snapshot. `changed_rows` must
    /// be sorted ascending and deduplicated (as
    /// `SaberLda::take_touched_rows` returns them) so the payload is
    /// canonical for [`saber_core::model_io::save_delta`].
    ///
    /// # Panics
    ///
    /// Panics if `range` is empty, reversed or out of vocabulary bounds.
    pub fn shard_delta(
        &self,
        range: Range<u32>,
        changed_rows: &[u32],
        base_version: u64,
        target_version: u64,
    ) -> model_io::DeltaPayload {
        assert!(
            range.start < range.end && (range.end as usize) <= self.vocab_size(),
            "shard range {range:?} invalid for V = {}",
            self.vocab_size()
        );
        let rows = changed_rows
            .iter()
            .filter(|&&v| range.contains(&v))
            .map(|&v| (v - range.start, self.rows[v as usize].probs.to_vec()))
            .collect();
        model_io::DeltaPayload {
            base_version,
            target_version,
            vocab_size: (range.end - range.start) as usize,
            n_topics: self.n_topics(),
            alpha: self.alpha,
            sampler_code: self.sampler_kind.code(),
            rows,
        }
    }

    /// Applies a `SABRDELTA` on top of this snapshot: the changed `B̂` rows
    /// are replaced bit-for-bit with *only their* per-word samplers rebuilt,
    /// and every other row is shared with this snapshot — `O(changed·K)`,
    /// which is what makes continuous publication affordable. The result
    /// carries no epoch: a shard that stages it serves it as the delta's
    /// target epoch.
    ///
    /// Version bookkeeping (does `base_version` match what is being
    /// served?) belongs to the caller — the publish seams reject or fall
    /// back on mismatch before applying.
    ///
    /// # Errors
    ///
    /// Returns [`SaberError::InvalidConfig`] when the delta's dimensions,
    /// sampler kind or α do not match this snapshot, or a row is out of
    /// range or ragged.
    pub fn apply_delta(
        &self,
        delta: &model_io::DeltaPayload,
    ) -> Result<InferenceSnapshot, SaberError> {
        let shape = (delta.vocab_size, delta.n_topics, delta.alpha);
        self.check_delta(shape, delta.sampler_code)?;
        self.with_rows(
            delta
                .rows
                .iter()
                .map(|(row, values)| (*row as usize, values.as_slice())),
        )
    }

    /// Whether a delta of `shape` with `sampler_code` was cut for a snapshot
    /// of this one's shape, α and sampler kind: the one delta-fit check.
    pub(crate) fn check_delta(&self, shape: Shape, sampler_code: u8) -> Result<(), SaberError> {
        check_fit("the delta", shape, "the snapshot", self.shape())
            .map_err(|detail| SaberError::InvalidConfig { detail })?;
        let ours = self.sampler_kind.code();
        if sampler_code != ours {
            return Err(SaberError::InvalidConfig {
                detail: format!(
                    "delta sampler code {sampler_code} does not match the snapshot's {ours}"
                ),
            });
        }
        Ok(())
    }

    /// This snapshot's `V`, `K` and α, as [`check_fit`] compares them.
    pub(crate) fn shape(&self) -> Shape {
        (self.vocab_size(), self.n_topics, self.alpha)
    }

    /// Writes the snapshot in the versioned `SABRSNAP` binary format of
    /// [`saber_core::model_io`]: header (dimensions, α, sampler kind) plus
    /// the normalised `B̂` bits, little-endian and bit-exact. A process that
    /// [`InferenceSnapshot::load`]s the result serves **identical** answers
    /// — the per-word samplers are rebuilt deterministically from the same
    /// `B̂` rows — so a remote shard can boot from disk (or from a wire
    /// publication) instead of retraining.
    ///
    /// No epoch is persisted, since a snapshot carries none: the server
    /// that stages a loaded one serves it as the epoch it is published at.
    ///
    /// # Errors
    ///
    /// Returns [`SaberError::Io`] on write failures.
    pub fn save<W: Write>(&self, writer: W) -> Result<(), SaberError> {
        // Stream straight from the resident rows: cloning B̂ into an owned
        // payload would double peak memory for exactly the large snapshots
        // persistence exists for.
        model_io::save_snapshot_parts(
            self.vocab_size(),
            self.n_topics(),
            self.alpha,
            self.sampler_kind.code(),
            self.rows.iter().map(|row| &*row.probs),
            writer,
        )
    }

    /// Reads a snapshot previously written by [`InferenceSnapshot::save`]
    /// and rebuilds its per-word sampling structures.
    ///
    /// # Errors
    ///
    /// Returns [`SaberError::Io`] for truncated input and
    /// [`SaberError::InvalidConfig`] for a bad magic number, unsupported
    /// format version, implausible dimensions or unknown sampler kind.
    pub fn load<R: Read>(reader: R) -> Result<InferenceSnapshot, SaberError> {
        let payload = model_io::load_snapshot(reader)?;
        let sampler_kind = SnapshotSampler::from_code(payload.sampler_code).ok_or_else(|| {
            SaberError::InvalidConfig {
                detail: format!("unknown snapshot sampler code {}", payload.sampler_code),
            }
        })?;
        Ok(InferenceSnapshot {
            rows: payload
                .rows
                .into_iter()
                .enumerate()
                .map(|(v, probs)| WordRow::decoded(sampler_kind, v, probs.into()))
                .collect::<Result<_, _>>()?,
            n_topics: payload.n_topics,
            alpha: payload.alpha,
            sampler_kind,
        })
    }

    /// [`InferenceSnapshot::save`] to a file at `path`.
    ///
    /// # Errors
    ///
    /// Returns [`SaberError::Io`] on failure to create or write the file.
    pub fn save_file<P: AsRef<Path>>(&self, path: P) -> Result<(), SaberError> {
        let file = std::fs::File::create(path)?;
        self.save(std::io::BufWriter::new(file))
    }

    /// [`InferenceSnapshot::load`] from a file at `path`, pre-validating
    /// the header-declared dimensions against the file length: a truncated
    /// (or padded) shard file fails fast with a clear error *before* the
    /// multi-gigabyte `B̂` body is read, instead of as a short read
    /// mid-matrix.
    ///
    /// # Errors
    ///
    /// Returns [`SaberError::InvalidConfig`] when the file length does not
    /// match what the header declares; otherwise see
    /// [`InferenceSnapshot::load`].
    pub fn load_file<P: AsRef<Path>>(path: P) -> Result<InferenceSnapshot, SaberError> {
        use std::io::Seek;
        let file = std::fs::File::open(path.as_ref())?;
        let actual = file.metadata()?.len();
        let mut reader = std::io::BufReader::new(file);
        let header = model_io::read_snapshot_header(&mut reader)?;
        let expected = header
            .encoded_bytes()
            .ok_or_else(|| SaberError::InvalidConfig {
                detail: format!(
                    "snapshot dimensions {} x {} overflow the encodable size",
                    header.vocab_size, header.n_topics
                ),
            })?;
        if actual != expected {
            return Err(SaberError::InvalidConfig {
                detail: format!(
                    "snapshot file {} is {actual} bytes but its header (V = {}, K = {}) declares {expected}",
                    path.as_ref().display(),
                    header.vocab_size,
                    header.n_topics
                ),
            });
        }
        reader.rewind()?;
        InferenceSnapshot::load(reader)
    }
}

impl TopicRows for InferenceSnapshot {
    fn n_topics(&self) -> usize {
        self.n_topics
    }

    fn topic_row(&self, v: usize) -> &[f32] {
        &self.rows[v].probs
    }
}

impl SampledRows for InferenceSnapshot {
    type Sampler = WordSampler;

    fn sampled_row(&self, v: usize) -> (&[f32], &WordSampler) {
        let row = &*self.rows[v];
        (&row.probs, &row.sampler)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    fn bits(values: &[f32]) -> Vec<u32> {
        values.iter().map(|x| x.to_bits()).collect()
    }

    /// Whether word `v` of `a` and word `w` of `b` are one shared row.
    fn shared(a: &InferenceSnapshot, v: usize, b: &InferenceSnapshot, w: usize) -> bool {
        Arc::ptr_eq(&a.rows[v], &b.rows[w])
    }

    pub(crate) fn planted_model(vocab: usize, k: usize) -> LdaModel {
        let mut model = LdaModel::new(vocab, k, 0.05, 0.01).unwrap();
        for v in 0..vocab {
            model.word_topic_mut()[(v, v % k)] = 50;
        }
        model.refresh_probabilities();
        model
    }

    #[test]
    fn snapshot_reflects_model_dimensions() {
        let model = planted_model(12, 3);
        let snap = InferenceSnapshot::from_model(&model, SnapshotSampler::WaryTree);
        assert_eq!(snap.n_topics(), 3);
        assert_eq!(snap.vocab_size(), 12);
        assert_eq!(snap.alpha(), 0.05);
        assert!(snap.memory_bytes() > (12 * 3 * 4) as u64);
    }

    #[test]
    fn infer_recovers_planted_topic_for_both_sampler_kinds() {
        let model = planted_model(12, 3);
        for kind in [SnapshotSampler::WaryTree, SnapshotSampler::AliasTable] {
            let snap = InferenceSnapshot::from_model(&model, kind);
            let theta = snap.infer_topics(&[2, 5, 8, 11, 2, 5], 7, FoldInParams::default());
            let argmax = theta
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
                .unwrap()
                .0;
            assert_eq!(argmax, 2, "{kind:?}: theta = {theta:?}");
        }
    }

    #[test]
    fn infer_is_bit_identical_for_equal_seeds() {
        let model = planted_model(20, 4);
        let snap = InferenceSnapshot::from_model(&model, SnapshotSampler::WaryTree);
        let words = [1u32, 5, 9, 13, 17, 1];
        let a = snap.infer_topics(&words, 99, FoldInParams::default());
        let b = snap.infer_topics(&words, 99, FoldInParams::default());
        assert_eq!(
            a.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
            b.iter().map(|x| x.to_bits()).collect::<Vec<_>>()
        );
        // A soft model (every word shared between two topics) exposes
        // seed-dependent sampling noise; the planted one pins every token
        // and converges identically for any seed.
        let mut soft = LdaModel::new(20, 4, 0.5, 0.01).unwrap();
        for v in 0..20 {
            soft.word_topic_mut()[(v, v % 4)] = 3;
            soft.word_topic_mut()[(v, (v + 1) % 4)] = 2;
        }
        soft.refresh_probabilities();
        let soft_snap = InferenceSnapshot::from_model(&soft, SnapshotSampler::WaryTree);
        let mixed = [1u32, 2, 5, 9, 6, 3, 0, 7];
        let c = soft_snap.infer_topics(&mixed, 100, FoldInParams::default());
        let d = soft_snap.infer_topics(&mixed, 101, FoldInParams::default());
        assert_ne!(c, d);
    }

    #[test]
    fn em_kind_is_deterministic_and_seed_independent() {
        let model = planted_model(12, 3);
        let snap = InferenceSnapshot::from_model(&model, SnapshotSampler::WaryTree);
        let params = FoldInParams {
            kind: FoldInKind::Em,
            ..FoldInParams::default()
        };
        let words = [2u32, 5, 8, 11, 2, 5];
        let a = snap.infer_topics(&words, 1, params);
        let b = snap.infer_topics(&words, 999, params);
        assert_eq!(
            a.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
            b.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
            "EM fold-in must not depend on the seed"
        );
        let argmax = a
            .iter()
            .enumerate()
            .max_by(|x, y| x.1.partial_cmp(y.1).unwrap())
            .unwrap()
            .0;
        assert_eq!(argmax, 2, "theta = {a:?}");
    }

    #[test]
    fn shard_slices_rows_bit_for_bit() {
        let model = planted_model(20, 4);
        let snap = InferenceSnapshot::from_model(&model, SnapshotSampler::AliasTable);
        let shard = snap.shard(5..13);
        assert_eq!(shard.vocab_size(), 8);
        assert_eq!(shard.n_topics(), 4);
        assert_eq!(shard.alpha(), snap.alpha());
        assert_eq!(shard.sampler_kind(), snap.sampler_kind());
        for local in 0..8usize {
            let global = local + 5;
            assert_eq!(
                bits(shard.topic_row(local)),
                bits(snap.topic_row(global)),
                "row {global} must slice exactly"
            );
            assert!(shared(&shard, local, &snap, global));
        }
        // A shard's partial fold-in over a local word equals the full
        // snapshot's over the global word: same rows, same samplers.
        let params = FoldInParams::default();
        let from_shard = shard.partial_fold_in(&[2, 7, 2], 42, params);
        let from_full = snap.partial_fold_in(&[7, 12, 7], 42, params);
        assert_eq!(from_shard, from_full);
    }

    #[test]
    fn save_load_roundtrip_serves_identical_inference() {
        // The persistence satellite's contract: a snapshot that went
        // through disk answers bit-identically — B̂ bits are preserved and
        // the samplers rebuild deterministically from them.
        let model = planted_model(20, 4);
        for kind in [SnapshotSampler::WaryTree, SnapshotSampler::AliasTable] {
            let original = InferenceSnapshot::from_model(&model, kind);
            let mut buf = Vec::new();
            original.save(&mut buf).unwrap();
            let loaded = InferenceSnapshot::load(buf.as_slice()).unwrap();
            assert_eq!(loaded.vocab_size(), 20);
            assert_eq!(loaded.n_topics(), 4);
            assert_eq!(loaded.alpha().to_bits(), original.alpha().to_bits());
            assert_eq!(loaded.sampler_kind(), kind);
            let words = [1u32, 5, 9, 13, 17, 1, 2, 19];
            for seed in [0u64, 7, 99] {
                for fold_kind in [FoldInKind::Esca, FoldInKind::Em] {
                    let params = FoldInParams {
                        kind: fold_kind,
                        ..FoldInParams::default()
                    };
                    let a = original.infer_topics(&words, seed, params);
                    let b = loaded.infer_topics(&words, seed, params);
                    assert_eq!(
                        a.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                        b.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                        "{kind:?}/{fold_kind:?}/seed {seed} diverged after a round trip"
                    );
                }
            }
        }
    }

    #[test]
    fn apply_delta_reconstructs_a_full_publication_bit_for_bit() {
        let base = InferenceSnapshot::from_model(&planted_model(16, 4), SnapshotSampler::WaryTree);
        // The "next epoch" model: perturb a few rows, then refresh only
        // those rows against the cached topic totals — the trainer's lazy
        // path, which keeps every untouched B̂ row bit-identical.
        let mut model = planted_model(16, 4);
        for v in [2usize, 7, 11] {
            model.word_topic_mut()[(v, (v + 1) % 4)] += 9;
        }
        model.refresh_probability_rows(&[2, 7, 11]);
        let next = InferenceSnapshot::from_model(&model, SnapshotSampler::WaryTree);
        let changed: Vec<u32> = (0..16u32)
            .filter(|&v| base.topic_row(v as usize) != next.topic_row(v as usize))
            .collect();
        assert!(!changed.is_empty() && changed.len() < 16);
        let delta = next.shard_delta(0..16, &changed, 3, 4);
        assert_eq!(delta.rows.len(), changed.len());
        let patched = base.apply_delta(&delta).unwrap();
        for v in 0..16usize {
            assert_eq!(
                bits(patched.topic_row(v)),
                bits(next.topic_row(v)),
                "row {v} differs after applying the delta"
            );
        }
        let words = [1u32, 2, 7, 11, 15, 2];
        for seed in [0u64, 9] {
            assert_eq!(
                patched.infer_topics(&words, seed, FoldInParams::default()),
                next.infer_topics(&words, seed, FoldInParams::default()),
                "patched snapshot must answer as the full one"
            );
        }
        // The delta survives its wire format and still applies exactly.
        let mut wire = Vec::new();
        saber_core::model_io::save_delta(&delta, &mut wire).unwrap();
        let decoded = saber_core::model_io::load_delta(wire.as_slice()).unwrap();
        let repatched = base.apply_delta(&decoded).unwrap();
        for v in 0..16usize {
            assert_eq!(bits(repatched.topic_row(v)), bits(next.topic_row(v)));
        }
    }

    #[test]
    fn apply_delta_shares_unchanged_rows_and_equals_a_full_load() {
        for kind in [SnapshotSampler::WaryTree, SnapshotSampler::AliasTable] {
            let base = InferenceSnapshot::from_model(&planted_model(16, 4), kind);
            let mut model = planted_model(16, 4);
            let changed = [0u32, 5, 6, 15];
            for &v in &changed {
                model.word_topic_mut()[(v as usize, (v as usize + 2) % 4)] += 7;
            }
            model.refresh_probability_rows(&changed);
            let next = InferenceSnapshot::from_model(&model, kind);
            let words = [0u32, 3, 5, 6, 9, 15, 5];
            let params = FoldInParams::default();
            let before = base.infer_topics(&words, 11, params);

            let delta = next.shard_delta(0..16, &changed, 1, 2);
            let mut full = Vec::new();
            next.save(&mut full).unwrap();
            let loaded = InferenceSnapshot::load(full.as_slice()).unwrap();
            // Borrowed or owned (as a shard stages them), the delta's rows
            // apply the same way.
            let owned_rows = delta.rows.iter().map(|(v, row)| (*v as usize, row.clone()));
            for patched in [
                base.apply_delta(&delta).unwrap(),
                base.with_rows(owned_rows.clone()).unwrap(),
            ] {
                for v in 0..16 {
                    let rebuilt = changed.contains(&(v as u32));
                    assert_eq!(!shared(&patched, v, &base, v), rebuilt, "row {v}");
                }
                // Bit for bit what a full SABRSNAP of the same rows loads
                // as: every B̂ row and every sampler.
                let mut saved = Vec::new();
                patched.save(&mut saved).unwrap();
                assert_eq!(saved, full);
                for v in 0..16 {
                    assert_eq!(
                        patched.sampled_row(v).1,
                        loaded.sampled_row(v).1,
                        "{kind:?}: sampler {v}"
                    );
                }
                assert_eq!(
                    bits(&patched.infer_topics(&words, 11, params)),
                    bits(&loaded.infer_topics(&words, 11, params))
                );
            }
            // The base is untouched: it answers as it did before the apply.
            assert_eq!(bits(&base.infer_topics(&words, 11, params)), bits(&before));
        }
    }

    #[test]
    fn shard_delta_rebases_rows_to_local_ids() {
        let snap = InferenceSnapshot::from_model(&planted_model(20, 4), SnapshotSampler::WaryTree);
        let delta = snap.shard_delta(5..13, &[1, 5, 6, 12, 13, 19], 1, 2);
        assert_eq!(delta.vocab_size, 8);
        let ids: Vec<u32> = delta.rows.iter().map(|(v, _)| *v).collect();
        assert_eq!(ids, vec![0, 1, 7], "global 5, 6, 12 re-based into 5..13");
        for (local, values) in &delta.rows {
            let global = *local as usize + 5;
            assert_eq!(values.as_slice(), snap.topic_row(global));
        }
    }

    #[test]
    fn apply_delta_rejects_mismatched_shapes() {
        let snap = InferenceSnapshot::from_model(&planted_model(8, 2), SnapshotSampler::WaryTree);
        let other = InferenceSnapshot::from_model(&planted_model(6, 2), SnapshotSampler::WaryTree);
        let delta = other.shard_delta(0..6, &[0, 3], 1, 2);
        assert!(matches!(
            snap.apply_delta(&delta),
            Err(SaberError::InvalidConfig { .. })
        ));
        let alias =
            InferenceSnapshot::from_model(&planted_model(8, 2), SnapshotSampler::AliasTable);
        let delta = alias.shard_delta(0..8, &[1], 1, 2);
        assert!(matches!(
            snap.apply_delta(&delta),
            Err(SaberError::InvalidConfig { .. })
        ));
        // A refresh from another model's shape, or of a row past V.
        assert!(snap.refreshed(&planted_model(6, 2), &[0]).is_err());
        assert!(snap.refreshed(&planted_model(8, 2), &[8]).is_err());
        assert!(snap.refreshed(&planted_model(8, 2), &[7]).is_ok());
    }

    #[test]
    fn load_file_rejects_truncated_and_padded_files_before_reading_the_body() {
        let dir = std::env::temp_dir().join("saberlda_snapshot_trunc_test");
        std::fs::create_dir_all(&dir).unwrap();
        let snap = InferenceSnapshot::from_model(&planted_model(10, 3), SnapshotSampler::WaryTree);
        let mut bytes = Vec::new();
        snap.save(&mut bytes).unwrap();

        let truncated = dir.join("truncated.bin");
        std::fs::write(&truncated, &bytes[..bytes.len() - 7]).unwrap();
        let err = InferenceSnapshot::load_file(&truncated).unwrap_err();
        assert!(
            matches!(err, SaberError::InvalidConfig { ref detail } if detail.contains("bytes")),
            "want a length-mismatch error, got {err:?}"
        );

        let padded = dir.join("padded.bin");
        let mut long = bytes.clone();
        long.extend_from_slice(&[0u8; 3]);
        std::fs::write(&padded, &long).unwrap();
        assert!(InferenceSnapshot::load_file(&padded).is_err());

        let intact = dir.join("intact.bin");
        std::fs::write(&intact, &bytes).unwrap();
        assert_eq!(
            InferenceSnapshot::load_file(&intact).unwrap().vocab_size(),
            10
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn load_rejects_unknown_sampler_code() {
        let model = planted_model(6, 2);
        let snap = InferenceSnapshot::from_model(&model, SnapshotSampler::WaryTree);
        let mut buf = Vec::new();
        snap.save(&mut buf).unwrap();
        // Byte 32 is the sampler code (8 magic + 4 version + 8 V + 8 K +
        // 4 alpha).
        buf[32] = 7;
        assert!(matches!(
            InferenceSnapshot::load(buf.as_slice()),
            Err(SaberError::InvalidConfig { .. })
        ));
    }

    #[test]
    fn file_roundtrip_via_tempdir() {
        let dir = std::env::temp_dir().join("saberlda_snapshot_io_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("snap.bin");
        let snap = InferenceSnapshot::from_model(&planted_model(8, 2), SnapshotSampler::AliasTable);
        snap.save_file(&path).unwrap();
        let loaded = InferenceSnapshot::load_file(&path).unwrap();
        assert_eq!(loaded.vocab_size(), 8);
        assert_eq!(loaded.sampler_kind(), SnapshotSampler::AliasTable);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    #[should_panic(expected = "invalid")]
    fn shard_rejects_out_of_bounds_ranges() {
        let model = planted_model(6, 2);
        InferenceSnapshot::from_model(&model, SnapshotSampler::WaryTree).shard(2..9);
    }
}
