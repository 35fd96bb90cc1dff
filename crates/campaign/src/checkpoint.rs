//! Crash-safe session checkpoints.
//!
//! A [`CampaignCheckpoint`] is everything a killed process needs to
//! resume a [`Campaign`](crate::Campaign) bit-identically: the scenario
//! fingerprint + seed (to validate the resume target), the budget meter
//! ([`BudgetMeter`](crate::BudgetMeter)), the chunk cursor, and the
//! accumulated released-score corpus. It serializes to a self-checking
//! binary blob — magic, version byte, little-endian fields, raw
//! IEEE-754 matrix bits, trailing FNV-1a checksum — so a torn or stale
//! file surfaces as a typed [`CheckpointError`], never a corrupt
//! resume.
//!
//! **Delta frames.** A blob's matrix may hold only the *last* `rows`
//! corpus rows, `[rows_done − rows, rows_done)`; a full snapshot is the
//! case `rows == rows_done`. The daemon (`fia-campaignd`) appends one
//! such frame per chunk to its write-ahead job log, holding just the
//! rows released since the previous frame
//! ([`Campaign::delta_blob`](crate::Campaign::delta_blob)), so a
//! checkpoint costs O(chunk) rather than O(corpus).
//! [`CampaignCheckpoint::fold`] rebuilds the full checkpoint from a
//! log's frames in order: each must continue the one before — same
//! fingerprint, seed, chunk size and class width, first row equal to the
//! previous `rows_done` — and the first frame that does not ends the
//! fold with a typed error. [`Campaign::restore`](crate::Campaign::restore)
//! accepts only full checkpoints.

use crate::budget::{BudgetMeter, QueryBudget};
use fia_core::{fnv, QueryCost};
use fia_linalg::bytes::{ByteReader, ByteWriter, Truncated};
use fia_linalg::Matrix;

/// Blob magic: `0xF1A_C4B01` truncated to 32 bits, little-endian on the
/// wire.
const MAGIC: u32 = 0xF1AC_4B01;
/// Current checkpoint format version.
const VERSION: u8 = 1;
/// Sanity cap on the fingerprint field (hex fingerprints are 16 bytes).
const MAX_FINGERPRINT_LEN: usize = 128;
/// Sanity cap on the embedded budget-meter blob.
const MAX_METER_LEN: usize = 1024;

/// A typed checkpoint decode/restore failure. Every way a blob can be
/// wrong — torn write, version skew, wrong scenario — maps to a
/// variant; restoring never panics on bad bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckpointError {
    /// The blob ended before the encoded structure did.
    Truncated,
    /// The blob does not start with the checkpoint magic.
    BadMagic,
    /// The blob's format version is newer than this build understands.
    UnsupportedVersion(u8),
    /// The blob is structurally invalid (checksum mismatch, impossible
    /// field, trailing bytes).
    Corrupt(&'static str),
    /// The checkpoint belongs to a different scenario than the one it
    /// is being restored into (or folded onto).
    FingerprintMismatch {
        /// The scenario fingerprint the restore target has.
        expected: String,
        /// The fingerprint the checkpoint carries.
        found: String,
    },
    /// A delta frame does not start where the fold's corpus ends: a gap
    /// (rows missing) or an overlap (rows repeated).
    Discontinuous {
        /// The row the next frame had to start at.
        expected: usize,
        /// The row the frame starts at.
        found: usize,
    },
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::Truncated => write!(f, "checkpoint blob is truncated"),
            CheckpointError::BadMagic => write!(f, "not a checkpoint blob (bad magic)"),
            CheckpointError::UnsupportedVersion(v) => {
                write!(f, "unsupported checkpoint version {v}")
            }
            CheckpointError::Corrupt(why) => write!(f, "corrupt checkpoint: {why}"),
            CheckpointError::FingerprintMismatch { expected, found } => write!(
                f,
                "checkpoint fingerprint {found} does not match scenario {expected}"
            ),
            CheckpointError::Discontinuous { expected, found } => write!(
                f,
                "checkpoint frame starts at row {found}, expected row {expected}"
            ),
        }
    }
}

impl std::error::Error for CheckpointError {}

impl From<Truncated> for CheckpointError {
    fn from(_: Truncated) -> Self {
        CheckpointError::Truncated
    }
}

/// The resumable state of a [`Campaign`](crate::Campaign) session,
/// captured between chunks — in full, or as a delta frame holding only
/// the newest corpus rows. See the module docs for the blob format and
/// the fold, and [`Campaign::restore`](crate::Campaign::restore) for the
/// validated resume path.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignCheckpoint {
    /// Scenario fingerprint the session was attacking — restore
    /// validates it against the target scenario.
    pub fingerprint: String,
    /// Scenario seed (redundant with the fingerprint, kept for
    /// human-auditable job logs).
    pub seed: u64,
    /// The session's budget.
    pub budget: QueryBudget,
    /// What the session had spent when the checkpoint was taken.
    pub spent: QueryCost,
    /// Rows accumulated so far.
    pub rows_done: usize,
    /// Chunks issued so far.
    pub chunks_issued: usize,
    /// The configured accumulation chunk size.
    pub chunk: usize,
    /// Released-score corpus rows `[rows_done − rows, rows_done)` as the
    /// deployment released them (`rows × c`; every row for a full
    /// checkpoint) — raw IEEE-754 bits in the blob, so a resume
    /// reproduces downstream attacks to the last ulp.
    pub confidences: Matrix,
}

/// A checkpoint's scalar fields, borrowed: the part of a blob that
/// [`CampaignCheckpoint::to_blob`] and
/// [`Campaign::delta_blob`](crate::Campaign::delta_blob) share, so a
/// delta frame encodes straight from the session's corpus.
pub(crate) struct BlobHeader<'a> {
    pub(crate) fingerprint: &'a str,
    pub(crate) seed: u64,
    pub(crate) meter: BudgetMeter,
    pub(crate) rows_done: usize,
    pub(crate) chunks_issued: usize,
    pub(crate) chunk: usize,
}

impl BlobHeader<'_> {
    /// Encodes the blob whose matrix is `rows × cols` row-major `cells`.
    pub(crate) fn encode(&self, rows: usize, cols: usize, cells: &[f64]) -> Vec<u8> {
        debug_assert_eq!(cells.len(), rows * cols);
        let meter = self.meter.to_blob();
        let fp = self.fingerprint.as_bytes();
        let mut out = Vec::with_capacity(64 + meter.len() + fp.len() + cells.len() * 8);
        out.put_u32(MAGIC);
        out.push(VERSION);
        out.put_u16(fp.len() as u16);
        out.extend_from_slice(fp);
        out.put_u64(self.seed);
        out.put_u32(meter.len() as u32);
        out.extend_from_slice(&meter);
        out.put_u64(self.rows_done as u64);
        out.put_u64(self.chunks_issued as u64);
        out.put_u64(self.chunk as u64);
        out.put_u64(rows as u64);
        out.put_u64(cols as u64);
        out.put_f64s(cells);
        let sum = fnv(0, &out);
        out.put_u64(sum);
        out
    }
}

/// What [`CampaignCheckpoint::fold`] made of a log's frames.
#[derive(Debug, Clone, PartialEq)]
pub struct Folded {
    /// The full checkpoint as of the last frame accepted; `None` when
    /// the fold accepted no frame.
    pub checkpoint: Option<CampaignCheckpoint>,
    /// How many leading frames the fold accepted.
    pub accepted: usize,
    /// Why the fold stopped before the last frame; `None` when it
    /// accepted every frame.
    pub stopped: Option<CheckpointError>,
}

impl CampaignCheckpoint {
    /// Serializes the checkpoint to its self-checking binary blob.
    pub fn to_blob(&self) -> Vec<u8> {
        let (rows, cols) = self.confidences.shape();
        BlobHeader {
            fingerprint: &self.fingerprint,
            seed: self.seed,
            meter: BudgetMeter {
                budget: self.budget,
                spent: self.spent,
            },
            rows_done: self.rows_done,
            chunks_issued: self.chunks_issued,
            chunk: self.chunk,
        }
        .encode(rows, cols, self.confidences.as_slice())
    }

    /// The corpus row this checkpoint's matrix starts at: `0` for a full
    /// checkpoint, the previous frame's `rows_done` for a delta frame.
    fn first_row(&self) -> Result<usize, CheckpointError> {
        self.rows_done
            .checked_sub(self.confidences.rows())
            .ok_or(CheckpointError::Corrupt("corpus rows exceed the cursor"))
    }

    /// Folds the next delta frame onto this checkpoint: on success the
    /// checkpoint takes `next`'s cursor and meter and gains its rows. A
    /// frame from another session (fingerprint, seed, chunk size or
    /// class width differ) or one that does not start at this
    /// checkpoint's `rows_done` is a typed error and leaves this
    /// checkpoint unchanged.
    fn extend(&mut self, next: &CampaignCheckpoint) -> Result<(), CheckpointError> {
        if next.fingerprint != self.fingerprint {
            return Err(CheckpointError::FingerprintMismatch {
                expected: self.fingerprint.clone(),
                found: next.fingerprint.clone(),
            });
        }
        if next.seed != self.seed {
            return Err(CheckpointError::Corrupt(
                "frame seed disagrees with the log",
            ));
        }
        if next.chunk != self.chunk {
            return Err(CheckpointError::Corrupt(
                "frame chunk size disagrees with the log",
            ));
        }
        let start = next.first_row()?;
        if start != self.rows_done {
            return Err(CheckpointError::Discontinuous {
                expected: self.rows_done,
                found: start,
            });
        }
        self.confidences
            .append_rows(&next.confidences)
            .map_err(|_| CheckpointError::Corrupt("frame class width disagrees with the log"))?;
        self.budget = next.budget;
        self.spent = next.spent;
        self.rows_done = next.rows_done;
        self.chunks_issued = next.chunks_issued;
        Ok(())
    }

    /// Folds a job log's frames, in order, into the full checkpoint
    /// they describe. The first frame must start at row 0, and each
    /// later one must continue the fold: same fingerprint, seed, chunk
    /// size and class width, first row equal to the fold's `rows_done`.
    /// The first frame that fails to decode or to continue the fold ends
    /// it there, and [`Folded::stopped`] says why.
    pub fn fold<'a>(frames: impl IntoIterator<Item = &'a [u8]>) -> Folded {
        let mut folded = Folded {
            checkpoint: None,
            accepted: 0,
            stopped: None,
        };
        for frame in frames {
            let step = CampaignCheckpoint::from_blob(frame).and_then(|next| {
                match folded.checkpoint.as_mut() {
                    Some(state) => state.extend(&next),
                    None => match next.first_row()? {
                        0 => {
                            folded.checkpoint = Some(next);
                            Ok(())
                        }
                        found => Err(CheckpointError::Discontinuous { expected: 0, found }),
                    },
                }
            });
            if let Err(e) = step {
                folded.stopped = Some(e);
                break;
            }
            folded.accepted += 1;
        }
        folded
    }

    /// Decodes a blob produced by [`CampaignCheckpoint::to_blob`] or
    /// [`Campaign::delta_blob`](crate::Campaign::delta_blob), rejecting
    /// torn, corrupted or version-skewed bytes with a typed
    /// [`CheckpointError`].
    pub fn from_blob(blob: &[u8]) -> Result<Self, CheckpointError> {
        if blob.len() < 8 {
            return Err(CheckpointError::Truncated);
        }
        // The FNV-1a trailer seals the body.
        let (body, trailer) = blob.split_at(blob.len() - 8);
        if ByteReader::new(trailer).u64()? != fnv(0, body) {
            return Err(CheckpointError::Corrupt("checksum mismatch"));
        }
        let mut c = ByteReader::new(body);
        if c.u32()? != MAGIC {
            return Err(CheckpointError::BadMagic);
        }
        let version = c.u8()?;
        if version != VERSION {
            return Err(CheckpointError::UnsupportedVersion(version));
        }
        let fp_len = c.u16()? as usize;
        if fp_len > MAX_FINGERPRINT_LEN {
            return Err(CheckpointError::Corrupt("fingerprint over length cap"));
        }
        let fingerprint = std::str::from_utf8(c.take(fp_len)?)
            .map_err(|_| CheckpointError::Corrupt("fingerprint is not utf-8"))?
            .to_string();
        let seed = c.u64()?;
        let meter_len = c.u32()? as usize;
        if meter_len > MAX_METER_LEN {
            return Err(CheckpointError::Corrupt("budget meter over length cap"));
        }
        let meter = BudgetMeter::from_blob(c.take(meter_len)?)?;
        let rows_done = c.u64()? as usize;
        let chunks_issued = c.u64()? as usize;
        let chunk = c.u64()? as usize;
        let rows = c.u64()? as usize;
        let cols = c.u64()? as usize;
        let cells = rows
            .checked_mul(cols)
            .ok_or(CheckpointError::Corrupt("matrix shape overflows"))?;
        // The matrix is the rest of the body, exactly.
        let data = c
            .f64s(cells)
            .ok()
            .filter(|_| c.remaining() == 0)
            .ok_or(CheckpointError::Corrupt("matrix payload length mismatch"))?;
        if rows > rows_done {
            return Err(CheckpointError::Corrupt("corpus rows exceed the cursor"));
        }
        let confidences = Matrix::from_vec(rows, cols, data)
            .map_err(|_| CheckpointError::Corrupt("matrix shape rejected"))?;
        Ok(CampaignCheckpoint {
            fingerprint,
            seed,
            budget: meter.budget,
            spent: meter.spent,
            rows_done,
            chunks_issued,
            chunk,
            confidences,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CampaignCheckpoint {
        CampaignCheckpoint {
            fingerprint: "deadbeefcafef00d".to_string(),
            seed: 42,
            budget: QueryBudget::queries(7).with_rows(500),
            spent: QueryCost {
                queries: 3,
                rows: 96,
                cached_rows: 5,
            },
            rows_done: 3,
            chunks_issued: 3,
            chunk: 32,
            confidences: Matrix::from_fn(3, 4, |i, j| (i as f64 + 0.125) / (j as f64 + 1.0)),
        }
    }

    /// Pins the blob byte for byte, FNV-1a trailer included: a layout or
    /// checksum change must show up here as a deliberate edit.
    #[test]
    fn blob_bytes_are_golden() {
        let hex: String = sample()
            .to_blob()
            .iter()
            .map(|b| format!("{b:02x}"))
            .collect();
        let golden = concat!(
            "014bacf1",                                             // magic
            "01",                                                   // version
            "1000",                                                 // fingerprint length
            "64656164626565666361666566303064",                     // fingerprint
            "2a00000000000000",                                     // seed
            "2a000000",                                             // meter length
            "01030700000000000000f4010000000000000300000000000000", // meter
            "60000000000000000500000000000000",
            "0300000000000000", // rows_done
            "0300000000000000", // chunks_issued
            "2000000000000000", // chunk
            "0300000000000000", // rows
            "0400000000000000", // cols
            "000000000000c03f000000000000b03f555555555555a53f000000000000a03f", // cells
            "000000000000f23f000000000000e23f000000000000d83f000000000000d23f",
            "0000000000000140000000000000f13fabaaaaaaaaaae63f000000000000e13f",
            "ed1a45ea556d7e53", // FNV-1a
        );
        assert_eq!(hex, golden);
    }

    #[test]
    fn blob_round_trips_bit_exactly() {
        let cp = sample();
        let blob = cp.to_blob();
        let back = CampaignCheckpoint::from_blob(&blob).unwrap();
        assert_eq!(back, cp);
        // The matrix survives as raw bits, not formatted text.
        assert_eq!(
            back.confidences.as_slice()[5].to_bits(),
            cp.confidences.as_slice()[5].to_bits()
        );
        // Zero-row checkpoints (pre-first-chunk) round-trip too.
        let empty = CampaignCheckpoint {
            rows_done: 0,
            chunks_issued: 0,
            confidences: Matrix::zeros(0, 4),
            ..cp
        };
        assert_eq!(
            CampaignCheckpoint::from_blob(&empty.to_blob()).unwrap(),
            empty
        );
    }

    #[test]
    fn every_truncation_is_a_typed_error() {
        let blob = sample().to_blob();
        for cut in 0..blob.len() {
            let err = CampaignCheckpoint::from_blob(&blob[..cut]).unwrap_err();
            assert!(
                matches!(
                    err,
                    CheckpointError::Truncated | CheckpointError::Corrupt(_)
                ),
                "cut at {cut}: unexpected {err:?}"
            );
        }
    }

    #[test]
    fn every_single_bit_flip_is_rejected() {
        let blob = sample().to_blob();
        // Flipping any single bit anywhere (including inside the
        // checksum itself) must fail the integrity check.
        for byte in 0..blob.len() {
            let mut bad = blob.clone();
            bad[byte] ^= 0x10;
            assert!(
                CampaignCheckpoint::from_blob(&bad).is_err(),
                "flip at byte {byte} accepted"
            );
        }
    }

    #[test]
    fn version_skew_and_bad_magic_are_typed() {
        let cp = sample();
        let mut blob = cp.to_blob();
        // Bump the version byte and re-seal the checksum: decode must
        // report version skew, not a checksum error.
        blob[4] = 9;
        let body_len = blob.len() - 8;
        let sum = fnv(0, &blob[..body_len]);
        blob[body_len..].copy_from_slice(&sum.to_le_bytes());
        assert_eq!(
            CampaignCheckpoint::from_blob(&blob),
            Err(CheckpointError::UnsupportedVersion(9))
        );

        let mut blob = cp.to_blob();
        blob[0] ^= 0xFF;
        let body_len = blob.len() - 8;
        let sum = fnv(0, &blob[..body_len]);
        blob[body_len..].copy_from_slice(&sum.to_le_bytes());
        assert_eq!(
            CampaignCheckpoint::from_blob(&blob),
            Err(CheckpointError::BadMagic)
        );
    }

    #[test]
    fn errors_display_their_context() {
        let e = CheckpointError::FingerprintMismatch {
            expected: "aaaa".into(),
            found: "bbbb".into(),
        };
        assert!(e.to_string().contains("aaaa") && e.to_string().contains("bbbb"));
        assert!(CheckpointError::UnsupportedVersion(3)
            .to_string()
            .contains('3'));
        let e = CheckpointError::Discontinuous {
            expected: 48,
            found: 24,
        };
        assert!(e.to_string().contains("48") && e.to_string().contains("24"));
    }

    #[test]
    fn delta_frames_round_trip_and_rows_past_the_cursor_are_rejected() {
        // A delta frame: rows [7, 10) of a 10-row corpus.
        let delta = CampaignCheckpoint {
            rows_done: 10,
            ..sample()
        };
        assert_eq!(
            CampaignCheckpoint::from_blob(&delta.to_blob()).unwrap(),
            delta
        );
        let over = CampaignCheckpoint {
            rows_done: 2,
            ..sample()
        };
        assert_eq!(
            CampaignCheckpoint::from_blob(&over.to_blob()),
            Err(CheckpointError::Corrupt("corpus rows exceed the cursor"))
        );
        // A sealed blob whose 2^61 × 1 matrix would need 2^64 bytes (and
        // whose cursor covers its rows) carries no cells: a typed error,
        // not an overflow in the length arithmetic.
        let mut blob = CampaignCheckpoint {
            rows_done: 0,
            confidences: Matrix::zeros(0, 4),
            ..sample()
        }
        .to_blob();
        let body_len = blob.len() - 8;
        blob[body_len - 40..body_len - 32].copy_from_slice(&(1u64 << 62).to_le_bytes());
        blob[body_len - 16..body_len - 8].copy_from_slice(&(1u64 << 61).to_le_bytes());
        blob[body_len - 8..body_len].copy_from_slice(&1u64.to_le_bytes());
        let sum = fnv(0, &blob[..body_len]);
        blob[body_len..].copy_from_slice(&sum.to_le_bytes());
        assert_eq!(
            CampaignCheckpoint::from_blob(&blob),
            Err(CheckpointError::Corrupt("matrix payload length mismatch"))
        );
    }

    #[test]
    fn folding_a_runs_delta_frames_reproduces_every_checkpoint() {
        use crate::{AttackSpec, Campaign, NullObserver, PartitionSpec, ScenarioSpec, StepOutcome};
        use fia_data::PaperDataset;

        let scenario = ScenarioSpec::paper(PaperDataset::DriveDiagnosis)
            .with_scale(0.005)
            .with_partition(PartitionSpec::two_block_random(0.2))
            .with_seed(37)
            .build();
        let mut campaign = Campaign::new(scenario)
            .with_attack(AttackSpec::esa())
            .with_chunk(24);
        campaign.begin(&mut NullObserver).unwrap();
        let mut frames: Vec<Vec<u8>> = Vec::new();
        let mut logged = 0;
        loop {
            let outcome = campaign.step(&mut NullObserver).unwrap();
            frames.push(campaign.delta_blob(logged));
            logged = campaign.rows_done();
            let folded = CampaignCheckpoint::fold(frames.iter().map(Vec::as_slice));
            assert_eq!(folded.accepted, frames.len());
            assert_eq!(folded.stopped, None);
            assert_eq!(folded.checkpoint, Some(campaign.checkpoint()));
            if outcome != StepOutcome::Chunk {
                break;
            }
        }
        assert!(frames.len() >= 4, "want several frames to fold");
        assert_eq!(campaign.delta_blob(0), campaign.checkpoint().to_blob());

        let fold = |picked: &[&[u8]]| CampaignCheckpoint::fold(picked.iter().copied());
        let prefix = |k: usize| fold(&frames[..k].iter().map(Vec::as_slice).collect::<Vec<_>>());
        let (f0, f1, f2) = (&frames[0][..], &frames[1][..], &frames[2][..]);

        // A gap (frame 1 missing) ends the fold after frame 0.
        let gap = fold(&[f0, f2]);
        assert_eq!(
            gap.stopped,
            Some(CheckpointError::Discontinuous {
                expected: 24,
                found: 48
            })
        );
        assert_eq!((gap.accepted, &gap.checkpoint), (1, &prefix(1).checkpoint));

        // An overlap (frame 1 twice) ends it after the first copy.
        let overlap = fold(&[f0, f1, f1, f2]);
        assert_eq!(
            overlap.stopped,
            Some(CheckpointError::Discontinuous {
                expected: 48,
                found: 24
            })
        );
        assert_eq!(
            (overlap.accepted, &overlap.checkpoint),
            (2, &prefix(2).checkpoint)
        );

        // A log must open at row 0.
        let headless = fold(&[f1, f2]);
        assert_eq!(
            headless.stopped,
            Some(CheckpointError::Discontinuous {
                expected: 0,
                found: 24
            })
        );
        assert_eq!((headless.accepted, headless.checkpoint), (0, None));

        // A frame of another session ends the fold, typed, whichever
        // identifying field differs.
        let base = CampaignCheckpoint::from_blob(f1).unwrap();
        let fingerprint = CampaignCheckpoint {
            fingerprint: "0123456789abcdef".to_string(),
            ..base.clone()
        };
        let seed = CampaignCheckpoint {
            seed: base.seed + 1,
            ..base.clone()
        };
        let chunk = CampaignCheckpoint {
            chunk: 25,
            ..base.clone()
        };
        let width = CampaignCheckpoint {
            confidences: Matrix::zeros(base.confidences.rows(), base.confidences.cols() + 1),
            ..base.clone()
        };
        for (alien, err) in [
            (
                fingerprint,
                CheckpointError::FingerprintMismatch {
                    expected: base.fingerprint.clone(),
                    found: "0123456789abcdef".to_string(),
                },
            ),
            (
                seed,
                CheckpointError::Corrupt("frame seed disagrees with the log"),
            ),
            (
                chunk,
                CheckpointError::Corrupt("frame chunk size disagrees with the log"),
            ),
            (
                width,
                CheckpointError::Corrupt("frame class width disagrees with the log"),
            ),
        ] {
            let folded = fold(&[f0, &alien.to_blob(), f2]);
            assert_eq!(folded.stopped, Some(err));
            assert_eq!(
                (folded.accepted, &folded.checkpoint),
                (1, &prefix(1).checkpoint)
            );
        }

        // A torn frame ends the fold like any other bad frame.
        let torn = fold(&[f0, &f1[..f1.len() - 1]]);
        assert_eq!(
            torn.stopped,
            Some(CheckpointError::Corrupt("checksum mismatch"))
        );
        assert_eq!(torn.accepted, 1);
    }
}
