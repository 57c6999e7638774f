//! Model and snapshot persistence.
//!
//! Trained models are saved in a small self-describing binary format so that
//! the examples can train once and reuse the model, and so that downstream
//! users can export topics without retraining. The format is deliberately
//! simple (magic, version, dimensions, hyper-parameters, then the raw `B`
//! counts); `B̂` is recomputed on load.
//!
//! The same style of format exists for *inference snapshots*
//! ([`SnapshotPayload`]): the normalised `B̂` probabilities plus the sampler
//! kind, without the raw counts. This is what a serving shard process loads
//! from disk (or receives over the wire on an epoch publication) to boot
//! without retraining — the serving crate wraps it as
//! `InferenceSnapshot::{save,load}`.

use std::io::{Read, Write};
use std::path::Path;

use crate::model::{valid_smoothing, LdaModel};
use crate::{Result, SaberError};

const MAGIC: &[u8; 8] = b"SABERLDA";
const VERSION: u32 = 1;

const SNAPSHOT_MAGIC: &[u8; 8] = b"SABRSNAP";
const SNAPSHOT_VERSION: u32 = 1;

const DELTA_MAGIC: &[u8; 8] = b"SABRDELT";
const DELTA_VERSION: u32 = 1;

/// Size in bytes of a `SABRSNAP` header (magic + version + dims + α +
/// sampler code), ahead of the raw `B̂` bits.
pub(crate) const SNAPSHOT_HEADER_BYTES: u64 = 8 + 4 + 8 + 8 + 4 + 1;

/// Size in bytes of a `SABRDELTA` header (magic + version + base/target
/// epochs + dims + α + sampler code + row count), ahead of the rows.
pub(crate) const DELTA_HEADER_BYTES: u64 = 8 + 4 + 8 + 8 + 8 + 8 + 4 + 1 + 8;

/// Exact encoded size of a `SABRSNAP` snapshot with the given dimensions,
/// or `None` on overflow — what [`load_snapshot`] will consume, and the
/// full-slice cost a delta publication is compared against.
pub fn snapshot_encoded_bytes(vocab_size: u64, n_topics: u64) -> Option<u64> {
    vocab_size
        .checked_mul(n_topics)?
        .checked_mul(4)?
        .checked_add(SNAPSHOT_HEADER_BYTES)
}

/// Exact encoded size of a `SABRDELTA` carrying `n_rows` changed rows of
/// `n_topics` probabilities each, or `None` on overflow.
pub fn delta_encoded_bytes(n_rows: u64, n_topics: u64) -> Option<u64> {
    n_topics
        .checked_mul(4)?
        .checked_add(4)?
        .checked_mul(n_rows)?
        .checked_add(DELTA_HEADER_BYTES)
}

/// Writes `model` to `writer`.
///
/// # Errors
///
/// Returns [`SaberError::Io`] on write failures.
pub fn save_model<W: Write>(model: &LdaModel, mut writer: W) -> Result<()> {
    writer.write_all(MAGIC)?;
    writer.write_all(&VERSION.to_le_bytes())?;
    writer.write_all(&(model.vocab_size() as u64).to_le_bytes())?;
    writer.write_all(&(model.n_topics() as u64).to_le_bytes())?;
    writer.write_all(&model.alpha().to_le_bytes())?;
    writer.write_all(&model.beta().to_le_bytes())?;
    for v in 0..model.vocab_size() {
        for &count in model.word_topic().row(v) {
            writer.write_all(&count.to_le_bytes())?;
        }
    }
    Ok(())
}

/// Writes `model` to a file at `path`.
///
/// # Errors
///
/// Returns [`SaberError::Io`] on failure to create or write the file.
pub fn save_model_file<P: AsRef<Path>>(model: &LdaModel, path: P) -> Result<()> {
    let file = std::fs::File::create(path)?;
    save_model(model, std::io::BufWriter::new(file))
}

/// Reads a model previously written by [`save_model`].
///
/// # Errors
///
/// Returns [`SaberError::Io`] for truncated input and
/// [`SaberError::InvalidConfig`] for a bad magic number, version or
/// dimensions.
pub fn load_model<R: Read>(mut reader: R) -> Result<LdaModel> {
    read_preamble(&mut reader, MAGIC, VERSION, "model file")?;
    let (vocab_size, n_topics) = read_dims(&mut reader, "model")?;
    let alpha = read_f32(&mut reader)?;
    let beta = read_f32(&mut reader)?;
    // Read the counts as they arrive and build the model only after the
    // last one, as `load_snapshot` does: dimensions within the bounds above
    // can still describe petabytes, and allocating them from the header
    // alone would abort the process.
    let mut counts = Vec::new();
    for _ in 0..vocab_size * n_topics {
        counts.push(read_u32(&mut reader)?);
    }
    let mut model = LdaModel::new(vocab_size, n_topics, alpha, beta)?;
    model
        .word_topic_mut()
        .as_mut_slice()
        .copy_from_slice(&counts);
    model.refresh_probabilities();
    Ok(model)
}

/// Reads a model from a file at `path`.
///
/// # Errors
///
/// See [`load_model`].
pub fn load_model_file<P: AsRef<Path>>(path: P) -> Result<LdaModel> {
    let file = std::fs::File::open(path)?;
    load_model(std::io::BufReader::new(file))
}

/// The serialisable content of an inference snapshot: normalised `B̂`
/// probabilities (one row per word, `vocab_size × n_topics`) plus the scalar
/// metadata a serving process needs to rebuild its per-word samplers.
///
/// This type is deliberately free of serving-crate types so the binary
/// codec can live next to [`save_model`]/[`load_model`]; the serving crate
/// converts to and from its `InferenceSnapshot`.
#[derive(Debug, Clone, PartialEq)]
pub struct SnapshotPayload {
    /// Vocabulary size `V` (number of `B̂` rows).
    pub vocab_size: usize,
    /// Topic count `K` (number of `B̂` columns).
    pub n_topics: usize,
    /// Document–topic smoothing α.
    pub alpha: f32,
    /// Sampler-kind discriminant, opaque to this module (the serving crate
    /// maps it to its sampler enum; unknown codes fail the load there).
    pub sampler_code: u8,
    /// `B̂`'s rows: `vocab_size` of them, each `n_topics` long.
    pub rows: Vec<Vec<f32>>,
}

/// Writes a snapshot to `writer` in the versioned `SABRSNAP` format: magic,
/// format version, dimensions, α, sampler code, then the raw little-endian
/// `B̂` bits row after row (so a round trip through [`load_snapshot`] is
/// bit-exact). It takes borrowed rows, so a caller that holds `B̂` row by
/// row (a serving snapshot) streams it out without first copying the matrix
/// into a [`SnapshotPayload`].
///
/// # Errors
///
/// Returns [`SaberError::Io`] on write failures and
/// [`SaberError::InvalidConfig`] when `rows` is not `vocab_size` rows of
/// `n_topics` probabilities.
pub fn save_snapshot_parts<'a, W: Write>(
    vocab_size: usize,
    n_topics: usize,
    alpha: f32,
    sampler_code: u8,
    rows: impl IntoIterator<Item = &'a [f32]>,
    mut writer: W,
) -> Result<()> {
    let rows: Vec<&[f32]> = rows.into_iter().collect();
    if rows.len() != vocab_size || rows.iter().any(|row| row.len() != n_topics) {
        return Err(SaberError::InvalidConfig {
            detail: format!(
                "snapshot payload carries {} probabilities for {vocab_size} x {n_topics}",
                rows.iter().map(|row| row.len()).sum::<usize>(),
            ),
        });
    }
    writer.write_all(SNAPSHOT_MAGIC)?;
    writer.write_all(&SNAPSHOT_VERSION.to_le_bytes())?;
    writer.write_all(&(vocab_size as u64).to_le_bytes())?;
    writer.write_all(&(n_topics as u64).to_le_bytes())?;
    writer.write_all(&alpha.to_le_bytes())?;
    writer.write_all(&[sampler_code])?;
    let mut bytes = Vec::new();
    for row in rows {
        write_row(row, &mut bytes, &mut writer)?;
    }
    Ok(())
}

/// A parsed `SABRSNAP` header: the dimensions and scalar metadata ahead of
/// the raw `B̂` bits. Splitting the header read from the body read lets a
/// booting shard validate the header-declared size against the file length
/// *before* consuming (or allocating for) a multi-GB body. A `SABRDELTA`
/// header carries the same block ([`DeltaHeader::shape`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SnapshotHeader {
    /// Vocabulary size `V` (number of `B̂` rows).
    pub vocab_size: usize,
    /// Topic count `K` (number of `B̂` columns).
    pub n_topics: usize,
    /// Document–topic smoothing α.
    pub alpha: f32,
    /// Sampler-kind discriminant, opaque to this module.
    pub sampler_code: u8,
}

impl SnapshotHeader {
    /// The total encoded size (header + body) a snapshot with this header
    /// must have, or `None` on overflow.
    pub fn encoded_bytes(&self) -> Option<u64> {
        snapshot_encoded_bytes(self.vocab_size as u64, self.n_topics as u64)
    }
}

/// Reads and validates a `SABRSNAP` header, leaving `reader` positioned at
/// the first `B̂` byte.
///
/// # Errors
///
/// Returns [`SaberError::Io`] for truncated input and
/// [`SaberError::InvalidConfig`] for a bad magic number, unsupported format
/// version, implausible dimensions or an α that is not finite and positive.
pub fn read_snapshot_header<R: Read>(reader: &mut R) -> Result<SnapshotHeader> {
    read_preamble(reader, SNAPSHOT_MAGIC, SNAPSHOT_VERSION, "snapshot file")?;
    read_shape(reader, "snapshot")
}

/// Reads the `(V, K, α, sampler code)` block both the `SABRSNAP` and the
/// `SABRDELTA` header carry, and checks it as [`read_snapshot_header`]
/// documents.
fn read_shape<R: Read>(reader: &mut R, what: &str) -> Result<SnapshotHeader> {
    let (vocab_size, n_topics) = read_dims(reader, what)?;
    let alpha = read_f32(reader)?;
    let mut sampler_code = [0u8; 1];
    reader.read_exact(&mut sampler_code)?;
    if !valid_smoothing(alpha) {
        return Err(SaberError::InvalidConfig {
            detail: format!("{what} alpha {alpha} is not finite and positive"),
        });
    }
    Ok(SnapshotHeader {
        vocab_size,
        n_topics,
        alpha,
        sampler_code: sampler_code[0],
    })
}

/// Reads `V` and `K` and refuses dimensions no model has: every format's
/// first check of a header, before any of its body is read.
fn read_dims<R: Read>(reader: &mut R, what: &str) -> Result<(usize, usize)> {
    let vocab_size = read_u64(reader)? as usize;
    let n_topics = read_u64(reader)? as usize;
    if vocab_size == 0
        || n_topics == 0
        || vocab_size > (1 << 32)
        || n_topics > (1 << 20)
        || vocab_size.checked_mul(n_topics).is_none()
    {
        return Err(SaberError::InvalidConfig {
            detail: format!("implausible {what} dimensions {vocab_size} x {n_topics}"),
        });
    }
    Ok((vocab_size, n_topics))
}

/// Reads and checks the magic number and format version every format opens
/// with.
fn read_preamble<R: Read>(reader: &mut R, magic: &[u8; 8], version: u32, what: &str) -> Result<()> {
    let mut found = [0u8; 8];
    reader.read_exact(&mut found)?;
    if &found != magic {
        return Err(SaberError::InvalidConfig {
            detail: format!("not a SaberLDA {what} (bad magic)"),
        });
    }
    let found = read_u32(reader)?;
    if found != version {
        return Err(SaberError::InvalidConfig {
            detail: format!("unsupported {what} version {found}"),
        });
    }
    Ok(())
}

/// Reads a snapshot payload previously written by [`save_snapshot_parts`].
///
/// # Errors
///
/// Returns [`SaberError::Io`] for truncated input and
/// [`SaberError::InvalidConfig`] for a bad magic number, unsupported format
/// version or implausible dimensions.
pub fn load_snapshot<R: Read>(mut reader: R) -> Result<SnapshotPayload> {
    let header = read_snapshot_header(&mut reader)?;
    // Grow the matrix as data actually arrives instead of pre-allocating
    // from the (untrusted) header: dimensions within the plausibility
    // bounds can still describe petabytes, and an up-front allocation of
    // that size would abort the process. A short body fails with a
    // truncated-input I/O error long before memory becomes a concern.
    let mut rows = Vec::new();
    let mut bytes = Vec::new();
    for _ in 0..header.vocab_size {
        rows.push(read_row(&mut reader, header.n_topics, &mut bytes)?);
    }
    Ok(SnapshotPayload {
        vocab_size: header.vocab_size,
        n_topics: header.n_topics,
        alpha: header.alpha,
        sampler_code: header.sampler_code,
        rows,
    })
}

/// An incremental snapshot update in the versioned `SABRDELTA` format: the
/// `B̂` rows that changed between two publication epochs, plus everything a
/// shard needs to check the delta applies to what it is serving. Applying a
/// delta whose `base_version` matches the served snapshot, row by row, must
/// reconstruct exactly the bytes a full `SABRSNAP` publication of the
/// target epoch would have delivered — the trainer's lazy-denominator row
/// refresh ([`crate::LdaModel::refresh_probability_rows`]) is what makes
/// the changed-row set exact.
#[derive(Debug, Clone, PartialEq)]
pub struct DeltaPayload {
    /// The snapshot version this delta applies on top of.
    pub base_version: u64,
    /// The snapshot version the patched snapshot serves as
    /// (must be greater than `base_version`).
    pub target_version: u64,
    /// Vocabulary size `V` of the snapshot being patched.
    pub vocab_size: usize,
    /// Topic count `K`.
    pub n_topics: usize,
    /// Document–topic smoothing α.
    pub alpha: f32,
    /// Sampler-kind discriminant, opaque to this module.
    pub sampler_code: u8,
    /// Changed rows as `(row id, new B̂ row)` pairs, with strictly
    /// increasing in-range row ids and each row `n_topics` long — the
    /// canonical encoding, so a save/load round trip is byte-exact.
    pub rows: Vec<(u32, Vec<f32>)>,
}

impl DeltaPayload {
    /// The exact number of bytes [`save_delta`] writes for this payload,
    /// or `None` on overflow.
    pub fn encoded_bytes(&self) -> Option<u64> {
        delta_encoded_bytes(self.rows.len() as u64, self.n_topics as u64)
    }
}

/// Writes a delta payload to `writer` in the versioned `SABRDELTA` format:
/// magic, format version, base and target epochs, dimensions, α, sampler
/// code, row count, then each changed row as its id plus raw little-endian
/// `B̂` bits (so a round trip is bit-exact).
///
/// # Errors
///
/// Returns [`SaberError::Io`] on write failures and
/// [`SaberError::InvalidConfig`] when the payload is not canonical: target
/// epoch not ahead of the base, a row of the wrong length, an
/// out-of-range row id, or row ids not strictly increasing.
pub fn save_delta<W: Write>(delta: &DeltaPayload, mut writer: W) -> Result<()> {
    if delta.target_version <= delta.base_version {
        return Err(SaberError::InvalidConfig {
            detail: format!(
                "delta target epoch {} is not ahead of its base {}",
                delta.target_version, delta.base_version
            ),
        });
    }
    if delta.rows.len() > delta.vocab_size {
        return Err(SaberError::InvalidConfig {
            detail: format!(
                "delta carries {} rows for a {}-word vocabulary",
                delta.rows.len(),
                delta.vocab_size
            ),
        });
    }
    let mut previous: Option<u32> = None;
    for (row, probs) in &delta.rows {
        if *row as usize >= delta.vocab_size || previous.is_some_and(|p| p >= *row) {
            return Err(SaberError::InvalidConfig {
                detail: format!(
                    "delta row ids must be strictly increasing and < {}",
                    delta.vocab_size
                ),
            });
        }
        if probs.len() != delta.n_topics {
            return Err(SaberError::InvalidConfig {
                detail: format!(
                    "delta row {row} carries {} probabilities for K = {}",
                    probs.len(),
                    delta.n_topics
                ),
            });
        }
        previous = Some(*row);
    }
    writer.write_all(DELTA_MAGIC)?;
    writer.write_all(&DELTA_VERSION.to_le_bytes())?;
    writer.write_all(&delta.base_version.to_le_bytes())?;
    writer.write_all(&delta.target_version.to_le_bytes())?;
    writer.write_all(&(delta.vocab_size as u64).to_le_bytes())?;
    writer.write_all(&(delta.n_topics as u64).to_le_bytes())?;
    writer.write_all(&delta.alpha.to_le_bytes())?;
    writer.write_all(&[delta.sampler_code])?;
    writer.write_all(&(delta.rows.len() as u64).to_le_bytes())?;
    let mut bytes = Vec::new();
    for (row, probs) in &delta.rows {
        writer.write_all(&row.to_le_bytes())?;
        write_row(probs, &mut bytes, &mut writer)?;
    }
    Ok(())
}

/// A parsed `SABRDELTA` header: the epochs, the shape block a `SABRSNAP`
/// header also carries, and the row count, ahead of the rows. A shard
/// judges a delta by it before decoding a row.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeltaHeader {
    /// The snapshot version the delta applies on top of.
    pub base_version: u64,
    /// The snapshot version the patched snapshot serves as (ahead of the
    /// base).
    pub target_version: u64,
    /// `V`, `K`, α and sampler code of the snapshot being patched.
    pub shape: SnapshotHeader,
    /// How many rows follow (at most `V`).
    pub n_rows: usize,
}

/// Reads and validates a `SABRDELTA` header, leaving `reader` positioned at
/// the first row.
///
/// # Errors
///
/// Returns [`SaberError::Io`] for truncated input and
/// [`SaberError::InvalidConfig`] for a bad magic number, unsupported format
/// version, a target epoch not ahead of the base, implausible dimensions,
/// an α that is not finite and positive, or a row count exceeding the
/// vocabulary.
pub fn read_delta_header<R: Read>(reader: &mut R) -> Result<DeltaHeader> {
    read_preamble(reader, DELTA_MAGIC, DELTA_VERSION, "snapshot delta")?;
    let base_version = read_u64(reader)?;
    let target_version = read_u64(reader)?;
    if target_version <= base_version {
        return Err(SaberError::InvalidConfig {
            detail: format!(
                "delta target epoch {target_version} is not ahead of its base {base_version}"
            ),
        });
    }
    let shape = read_shape(reader, "delta")?;
    let n_rows = read_u64(reader)? as usize;
    if n_rows > shape.vocab_size {
        return Err(SaberError::InvalidConfig {
            detail: format!(
                "delta claims {n_rows} rows for a {}-word vocabulary",
                shape.vocab_size
            ),
        });
    }
    Ok(DeltaHeader {
        base_version,
        target_version,
        shape,
        n_rows,
    })
}

/// Reads a delta payload previously written by [`save_delta`]. Strict: a
/// malformed input of any kind is an error, never a panic, and the decoder
/// consumes exactly the encoded bytes — trailing garbage is rejected, so a
/// framing bug upstream cannot be silently half-parsed.
///
/// # Errors
///
/// As [`read_delta_header`], plus [`SaberError::Io`] for truncated rows and
/// [`SaberError::InvalidConfig`] for out-of-range or non-increasing row
/// ids or trailing bytes after the last row.
pub fn load_delta<R: Read>(mut reader: R) -> Result<DeltaPayload> {
    let header = read_delta_header(&mut reader)?;
    let (vocab_size, n_topics) = (header.shape.vocab_size, header.shape.n_topics);
    // Rows grow as data arrives — same hostile-header defence as
    // `load_snapshot`: a plausible header can still describe far more data
    // than the body carries, and pre-allocating from it would abort.
    let mut rows: Vec<(u32, Vec<f32>)> = Vec::new();
    let mut bytes = Vec::new();
    let mut previous: Option<u32> = None;
    for _ in 0..header.n_rows {
        let row = read_u32(&mut reader)?;
        if row as usize >= vocab_size || previous.is_some_and(|p| p >= row) {
            return Err(SaberError::InvalidConfig {
                detail: format!("delta row ids must be strictly increasing and < {vocab_size}"),
            });
        }
        previous = Some(row);
        rows.push((row, read_row(&mut reader, n_topics, &mut bytes)?));
    }
    // The encoding is length-prefixed, not terminator-framed: exactly one
    // delta per message. A single successfully read extra byte means the
    // framing upstream is wrong; reject it rather than ignore it.
    let mut trailing = [0u8; 1];
    if reader.read(&mut trailing)? != 0 {
        return Err(SaberError::InvalidConfig {
            detail: "trailing bytes after the last delta row".into(),
        });
    }
    Ok(DeltaPayload {
        base_version: header.base_version,
        target_version: header.target_version,
        vocab_size,
        n_topics,
        alpha: header.shape.alpha,
        sampler_code: header.shape.sampler_code,
        rows,
    })
}

/// Writes one `B̂` row as raw little-endian bits with a single `write_all`,
/// encoding through `bytes` (a buffer reused across rows).
fn write_row<W: Write>(row: &[f32], bytes: &mut Vec<u8>, writer: &mut W) -> Result<()> {
    bytes.resize(4 * row.len(), 0);
    for (b, p) in bytes.chunks_exact_mut(4).zip(row) {
        b.copy_from_slice(&p.to_le_bytes());
    }
    writer.write_all(bytes)?;
    Ok(())
}

/// Reads one `B̂` row of `n_topics` little-endian `f32`s through `bytes` (a
/// buffer reused across rows). The buffer grows only as data arrives, so a
/// header claiming a huge `K` over a short body fails with a truncated-input
/// error instead of allocating what it claims.
fn read_row<R: Read>(reader: &mut R, n_topics: usize, bytes: &mut Vec<u8>) -> Result<Vec<f32>> {
    // The header checks bound `n_topics` to 2^20, so this cannot overflow.
    let want = 4 * n_topics;
    bytes.clear();
    reader.take(want as u64).read_to_end(bytes)?;
    if bytes.len() != want {
        return Err(std::io::Error::from(std::io::ErrorKind::UnexpectedEof).into());
    }
    Ok(bytes
        .chunks_exact(4)
        .map(|b| f32::from_le_bytes([b[0], b[1], b[2], b[3]]))
        .collect())
}

fn read_u32<R: Read>(reader: &mut R) -> Result<u32> {
    let mut buf = [0u8; 4];
    reader.read_exact(&mut buf)?;
    Ok(u32::from_le_bytes(buf))
}

fn read_u64<R: Read>(reader: &mut R) -> Result<u64> {
    let mut buf = [0u8; 8];
    reader.read_exact(&mut buf)?;
    Ok(u64::from_le_bytes(buf))
}

fn read_f32<R: Read>(reader: &mut R) -> Result<f32> {
    let mut buf = [0u8; 4];
    reader.read_exact(&mut buf)?;
    Ok(f32::from_le_bytes(buf))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_model() -> LdaModel {
        let mut m = LdaModel::new(6, 3, 0.2, 0.05).unwrap();
        m.rebuild_from_assignments(vec![(0u32, 0u32), (0, 0), (3, 1), (5, 2), (5, 2), (2, 1)]);
        m
    }

    #[test]
    fn roundtrip_preserves_model() {
        let model = sample_model();
        let mut buf = Vec::new();
        save_model(&model, &mut buf).unwrap();
        let loaded = load_model(buf.as_slice()).unwrap();
        assert_eq!(loaded.vocab_size(), model.vocab_size());
        assert_eq!(loaded.n_topics(), model.n_topics());
        assert!((loaded.alpha() - model.alpha()).abs() < 1e-7);
        assert!((loaded.beta() - model.beta()).abs() < 1e-7);
        for v in 0..model.vocab_size() {
            assert_eq!(loaded.word_topic().row(v), model.word_topic().row(v));
            for k in 0..model.n_topics() {
                assert!(
                    (loaded.word_topic_prob()[(v, k)] - model.word_topic_prob()[(v, k)]).abs()
                        < 1e-7
                );
            }
        }
    }

    #[test]
    fn rejects_bad_magic_and_truncation() {
        assert!(load_model(&b"NOTALDAX rest"[..]).is_err());
        let model = sample_model();
        let mut buf = Vec::new();
        save_model(&model, &mut buf).unwrap();
        assert!(load_model(&buf[..buf.len() - 3]).is_err());
        assert!(load_model(&buf[..10]).is_err());
    }

    #[test]
    fn rejects_wrong_version() {
        let model = sample_model();
        let mut buf = Vec::new();
        save_model(&model, &mut buf).unwrap();
        buf[8] = 99; // corrupt the version field
        assert!(load_model(buf.as_slice()).is_err());
    }

    #[test]
    fn snapshot_payload_roundtrip_is_bit_exact() {
        let payload = SnapshotPayload {
            vocab_size: 3,
            n_topics: 2,
            alpha: 0.05,
            sampler_code: 1,
            rows: vec![vec![0.1, 0.9], vec![0.5, 0.5], vec![1.0 / 3.0, 2.0 / 3.0]],
        };
        let mut buf = Vec::new();
        let rows = payload.rows.iter().map(Vec::as_slice);
        save_snapshot_parts(3, 2, payload.alpha, 1, rows, &mut buf).unwrap();
        let loaded = load_snapshot(buf.as_slice()).unwrap();
        assert_eq!(loaded.vocab_size, 3);
        assert_eq!(loaded.n_topics, 2);
        assert_eq!(loaded.alpha.to_bits(), payload.alpha.to_bits());
        assert_eq!(loaded.sampler_code, 1);
        let bits = |rows: &[Vec<f32>]| {
            rows.iter()
                .flatten()
                .map(|x| x.to_bits())
                .collect::<Vec<_>>()
        };
        assert_eq!(bits(&loaded.rows), bits(&payload.rows));
        // Malformed inputs are rejected, not mis-parsed.
        assert!(load_snapshot(&b"WRONGMAG rest"[..]).is_err());
        assert!(load_snapshot(&buf[..buf.len() - 2]).is_err());
        let mut wrong_version = buf.clone();
        wrong_version[8] = 9;
        assert!(load_snapshot(wrong_version.as_slice()).is_err());
        // α sits after the magic, the version and the two u64 dimensions.
        for alpha in [f32::NAN, f32::INFINITY, 0.0, -0.05] {
            let mut bad_alpha = buf.clone();
            bad_alpha[28..32].copy_from_slice(&alpha.to_le_bytes());
            assert!(
                matches!(
                    load_snapshot(bad_alpha.as_slice()),
                    Err(SaberError::InvalidConfig { .. })
                ),
                "alpha {alpha} loaded"
            );
        }
        // A matrix that disagrees with its dimensions won't save.
        let short: [&[f32]; 3] = [&[0.5; 2], &[0.5; 2], &[0.5; 1]];
        assert!(save_snapshot_parts(3, 2, 0.05, 1, short, &mut Vec::new()).is_err());
        assert!(save_snapshot_parts(3, 2, 0.05, 1, [&[0.5; 2][..]; 2], &mut Vec::new()).is_err());
    }

    #[test]
    fn model_load_survives_a_hostile_header() {
        // A 36-byte header claiming the maximum plausible dimensions
        // (2^32 × 2^20 counts) and no body must fail with a truncated-input
        // error, not allocate the model up front and abort the process.
        let mut hostile = Vec::new();
        hostile.extend_from_slice(MAGIC);
        hostile.extend_from_slice(&VERSION.to_le_bytes());
        hostile.extend_from_slice(&(1u64 << 32).to_le_bytes());
        hostile.extend_from_slice(&(1u64 << 20).to_le_bytes());
        hostile.extend_from_slice(&0.1f32.to_le_bytes());
        hostile.extend_from_slice(&0.01f32.to_le_bytes());
        assert!(matches!(
            load_model(hostile.as_slice()),
            Err(SaberError::Io(_))
        ));
    }

    #[test]
    fn snapshot_load_survives_a_hostile_header() {
        // A 33-byte body whose header claims the maximum "plausible"
        // dimensions (2^32 × 2^20 ≈ 16 PiB of f32s) must fail with a
        // truncated-input error — not pre-allocate and abort the process.
        let mut hostile = Vec::new();
        hostile.extend_from_slice(b"SABRSNAP");
        hostile.extend_from_slice(&1u32.to_le_bytes());
        hostile.extend_from_slice(&(1u64 << 32).to_le_bytes());
        hostile.extend_from_slice(&(1u64 << 20).to_le_bytes());
        hostile.extend_from_slice(&0.1f32.to_le_bytes());
        hostile.push(0);
        assert!(matches!(
            load_snapshot(hostile.as_slice()),
            Err(SaberError::Io(_))
        ));
    }

    fn sample_delta() -> DeltaPayload {
        DeltaPayload {
            base_version: 3,
            target_version: 4,
            vocab_size: 6,
            n_topics: 2,
            alpha: 0.1,
            sampler_code: 0,
            rows: vec![(1, vec![0.25, 0.75]), (4, vec![0.5, 0.5])],
        }
    }

    #[test]
    fn delta_roundtrip_is_bit_exact() {
        let delta = sample_delta();
        let mut buf = Vec::new();
        save_delta(&delta, &mut buf).unwrap();
        assert_eq!(buf.len() as u64, delta.encoded_bytes().unwrap());
        let loaded = load_delta(buf.as_slice()).unwrap();
        assert_eq!(loaded, delta);
        // And re-encoding the decoded payload reproduces the bytes.
        let mut again = Vec::new();
        save_delta(&loaded, &mut again).unwrap();
        assert_eq!(again, buf);
    }

    #[test]
    fn delta_decoder_rejects_malformed_inputs() {
        let delta = sample_delta();
        let mut buf = Vec::new();
        save_delta(&delta, &mut buf).unwrap();
        // Bad magic, wrong version, truncation, trailing bytes.
        assert!(load_delta(&b"WRONGMAG rest"[..]).is_err());
        let mut wrong_version = buf.clone();
        wrong_version[8] = 9;
        assert!(load_delta(wrong_version.as_slice()).is_err());
        for cut in 1..buf.len() {
            assert!(load_delta(&buf[..cut]).is_err(), "prefix of {cut} bytes");
        }
        let mut trailing = buf.clone();
        trailing.push(0);
        assert!(matches!(
            load_delta(trailing.as_slice()),
            Err(SaberError::InvalidConfig { .. })
        ));
        // Target epoch must be ahead of the base.
        let stale = DeltaPayload {
            target_version: 3,
            ..sample_delta()
        };
        assert!(save_delta(&stale, &mut Vec::new()).is_err());
        // Row ids must be strictly increasing and in range.
        let out_of_range = DeltaPayload {
            rows: vec![(6, vec![0.5, 0.5])],
            ..sample_delta()
        };
        assert!(save_delta(&out_of_range, &mut Vec::new()).is_err());
        let unsorted = DeltaPayload {
            rows: vec![(4, vec![0.5, 0.5]), (1, vec![0.25, 0.75])],
            ..sample_delta()
        };
        assert!(save_delta(&unsorted, &mut Vec::new()).is_err());
        let ragged = DeltaPayload {
            rows: vec![(1, vec![0.5])],
            ..sample_delta()
        };
        assert!(save_delta(&ragged, &mut Vec::new()).is_err());
    }

    #[test]
    fn delta_load_survives_a_hostile_header() {
        // Maximum "plausible" dimensions and a row count of V, with no
        // body: must fail with a truncated-input error, not pre-allocate.
        let mut hostile = Vec::new();
        hostile.extend_from_slice(b"SABRDELT");
        hostile.extend_from_slice(&1u32.to_le_bytes());
        hostile.extend_from_slice(&1u64.to_le_bytes());
        hostile.extend_from_slice(&2u64.to_le_bytes());
        hostile.extend_from_slice(&(1u64 << 32).to_le_bytes());
        hostile.extend_from_slice(&(1u64 << 20).to_le_bytes());
        hostile.extend_from_slice(&0.1f32.to_le_bytes());
        hostile.push(0);
        hostile.extend_from_slice(&(1u64 << 32).to_le_bytes());
        assert!(matches!(
            load_delta(hostile.as_slice()),
            Err(SaberError::Io(_))
        ));
    }

    #[test]
    fn a_row_cut_short_is_a_truncated_input_error() {
        let rows = [&[0.25f32, 0.5, 0.75][..], &[0.125, 0.375, 0.625]];
        let mut snapshot = Vec::new();
        save_snapshot_parts(2, 3, 0.05, 0, rows, &mut snapshot).unwrap();
        let mut delta = Vec::new();
        let payload = DeltaPayload {
            n_topics: 3,
            rows: vec![(1, rows[0].to_vec()), (4, rows[1].to_vec())],
            ..sample_delta()
        };
        save_delta(&payload, &mut delta).unwrap();
        // Cut both encodings one float and a half into their last row.
        let cut = |bytes: &[u8]| bytes.len() - 3 * 4 + 6;
        assert!(matches!(
            load_snapshot(&snapshot[..cut(&snapshot)]),
            Err(SaberError::Io(_))
        ));
        assert!(matches!(
            load_delta(&delta[..cut(&delta)]),
            Err(SaberError::Io(_))
        ));
    }

    #[test]
    fn a_header_claiming_a_huge_k_over_a_tiny_body_is_refused() {
        // K = 2^20 claims 4 MiB per row; the body carries 12 bytes. The row
        // buffer grows with what arrives, then the short row is an error.
        let body = [0u8; 12];
        let mut snapshot = Vec::new();
        snapshot.extend_from_slice(SNAPSHOT_MAGIC);
        snapshot.extend_from_slice(&SNAPSHOT_VERSION.to_le_bytes());
        snapshot.extend_from_slice(&1u64.to_le_bytes());
        snapshot.extend_from_slice(&(1u64 << 20).to_le_bytes());
        snapshot.extend_from_slice(&0.1f32.to_le_bytes());
        snapshot.push(0);
        snapshot.extend_from_slice(&body);
        assert!(matches!(
            load_snapshot(snapshot.as_slice()),
            Err(SaberError::Io(_))
        ));
        let mut delta = Vec::new();
        delta.extend_from_slice(DELTA_MAGIC);
        delta.extend_from_slice(&DELTA_VERSION.to_le_bytes());
        delta.extend_from_slice(&1u64.to_le_bytes());
        delta.extend_from_slice(&2u64.to_le_bytes());
        delta.extend_from_slice(&1u64.to_le_bytes());
        delta.extend_from_slice(&(1u64 << 20).to_le_bytes());
        delta.extend_from_slice(&0.1f32.to_le_bytes());
        delta.push(0);
        delta.extend_from_slice(&1u64.to_le_bytes());
        delta.extend_from_slice(&0u32.to_le_bytes());
        delta.extend_from_slice(&body);
        assert!(matches!(
            load_delta(delta.as_slice()),
            Err(SaberError::Io(_))
        ));
    }

    #[test]
    fn snapshot_header_reports_its_encoded_size() {
        let mut buf = Vec::new();
        save_snapshot_parts(3, 2, 0.05, 1, [&[0.5; 2][..]; 3], &mut buf).unwrap();
        let header = read_snapshot_header(&mut buf.as_slice()).unwrap();
        assert_eq!(header.vocab_size, 3);
        assert_eq!(header.n_topics, 2);
        assert_eq!(header.encoded_bytes().unwrap(), buf.len() as u64);
        assert_eq!(
            snapshot_encoded_bytes(3, 2).unwrap(),
            SNAPSHOT_HEADER_BYTES + 6 * 4
        );
        assert!(snapshot_encoded_bytes(u64::MAX, 2).is_none());
        assert!(delta_encoded_bytes(u64::MAX, u64::MAX).is_none());
    }

    #[test]
    fn file_roundtrip() {
        let dir = std::env::temp_dir().join("saberlda_model_io_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.bin");
        let model = sample_model();
        save_model_file(&model, &path).unwrap();
        let loaded = load_model_file(&path).unwrap();
        assert_eq!(loaded.n_topics(), 3);
        std::fs::remove_file(&path).ok();
    }
}
