//! The durable result of a finished job.
//!
//! A [`JobOutcome`] is the bit-exact essence of a
//! [`fia_campaign::CampaignReport`]: scenario fingerprint, budget
//! outcome, the metered [`QueryCost`], and each attack's error figures
//! with `f64` payloads carried as raw bits. It is what the daemon
//! writes to `outcome.bin` (atomically, before the job turns terminal)
//! and what `JOB_REPORT` returns over the wire — and because the
//! encoding is bit-exact, two runs of the same job can be compared for
//! identity by comparing blobs, which is exactly what the
//! kill-and-restart tests do.

use crate::codec::{finish, get_str, put_str, BlobError};
use fia_campaign::CampaignReport;
use fia_core::bytes::{ByteReader, ByteWriter};
use fia_core::QueryCost;

/// Outcome blob format version.
pub const OUTCOME_VERSION: u8 = 1;

const MAX_ATTACKS: usize = 16;
const MAX_FEATURES: usize = 1 << 16;

/// One attack's durable result.
#[derive(Debug, Clone, PartialEq)]
pub struct AttackOutcome {
    /// Attack identifier (`"esa"`, `"pra"`, `"grna"`).
    pub attack: String,
    /// Rows the attack reconstructed.
    pub rows: u64,
    /// Rows on which the equation system degraded.
    pub degraded_rows: u64,
    /// Mean squared error over target features.
    pub mse: f64,
    /// Per-feature MSE, one entry per target feature.
    pub per_feature_mse: Vec<f64>,
}

/// The durable result of one finished campaign job.
#[derive(Debug, Clone, PartialEq)]
pub struct JobOutcome {
    /// Scenario fingerprint the campaign ran under.
    pub fingerprint: String,
    /// Master scenario seed.
    pub seed: u64,
    /// Whether the corpus plan completed (vs. budget exhaustion).
    pub complete: bool,
    /// Corpus rows actually released.
    pub rows_done: u64,
    /// Corpus rows the plan called for.
    pub rows_planned: u64,
    /// The session's query cost as the deployment metered it.
    pub cost: QueryCost,
    /// Per-attack results, in mount order.
    pub attacks: Vec<AttackOutcome>,
}

impl JobOutcome {
    /// Extracts the durable outcome from a finished campaign report.
    pub fn from_report(report: &CampaignReport) -> JobOutcome {
        JobOutcome {
            fingerprint: report.fingerprint.clone(),
            seed: report.seed,
            complete: report.outcome.is_complete(),
            rows_done: report.rows_done as u64,
            rows_planned: report.rows_planned as u64,
            cost: report.cost,
            attacks: report
                .attacks
                .iter()
                .map(|a| AttackOutcome {
                    attack: a.attack.to_string(),
                    rows: a.rows as u64,
                    degraded_rows: a.degraded_rows as u64,
                    mse: a.mse,
                    per_feature_mse: a.per_feature_mse.clone(),
                })
                .collect(),
        }
    }

    /// Serializes the outcome as a versioned blob with bit-exact `f64`
    /// payloads.
    pub fn to_blob(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(128);
        out.push(OUTCOME_VERSION);
        put_str(&mut out, &self.fingerprint);
        out.put_u64(self.seed);
        out.push(u8::from(self.complete));
        out.put_u64(self.rows_done);
        out.put_u64(self.rows_planned);
        out.put_u64(self.cost.queries);
        out.put_u64(self.cost.rows);
        out.put_u64(self.cost.cached_rows);
        out.push(self.attacks.len() as u8);
        for a in &self.attacks {
            put_str(&mut out, &a.attack);
            out.put_u64(a.rows);
            out.put_u64(a.degraded_rows);
            out.put_f64(a.mse);
            out.put_u32(a.per_feature_mse.len() as u32);
            out.put_f64s(&a.per_feature_mse);
        }
        out
    }

    /// Decodes an outcome blob; every failure is a typed [`BlobError`].
    pub fn from_blob(blob: &[u8]) -> Result<JobOutcome, BlobError> {
        let mut c = ByteReader::new(blob);
        let version = c.u8()?;
        if version != OUTCOME_VERSION {
            return Err(BlobError::UnsupportedVersion(version));
        }
        let fingerprint = get_str(&mut c, 128)?;
        let seed = c.u64()?;
        let complete = match c.u8()? {
            0 => false,
            1 => true,
            _ => return Err(BlobError::Invalid("bad completion flag")),
        };
        let rows_done = c.u64()?;
        let rows_planned = c.u64()?;
        let cost = QueryCost {
            queries: c.u64()?,
            rows: c.u64()?,
            cached_rows: c.u64()?,
        };
        let n_attacks = c.u8()? as usize;
        if n_attacks > MAX_ATTACKS {
            return Err(BlobError::Invalid("too many attacks"));
        }
        let mut attacks = Vec::with_capacity(n_attacks);
        for _ in 0..n_attacks {
            let attack = get_str(&mut c, 32)?;
            let rows = c.u64()?;
            let degraded_rows = c.u64()?;
            let mse = c.f64()?;
            let n_feats = c.u32()? as usize;
            if n_feats > MAX_FEATURES {
                return Err(BlobError::Invalid("too many features"));
            }
            let per_feature_mse = c.f64s(n_feats)?;
            attacks.push(AttackOutcome {
                attack,
                rows,
                degraded_rows,
                mse,
                per_feature_mse,
            });
        }
        finish(&c)?;
        Ok(JobOutcome {
            fingerprint,
            seed,
            complete,
            rows_done,
            rows_planned,
            cost,
            attacks,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> JobOutcome {
        JobOutcome {
            fingerprint: "00deadbeef00".into(),
            seed: 29,
            complete: false,
            rows_done: 96,
            rows_planned: 128,
            cost: QueryCost {
                queries: 3,
                rows: 96,
                cached_rows: 0,
            },
            attacks: vec![
                AttackOutcome {
                    attack: "esa".into(),
                    rows: 96,
                    degraded_rows: 2,
                    mse: 0.012345678901234567,
                    per_feature_mse: vec![0.1, f64::MIN_POSITIVE, 3.5e300],
                },
                AttackOutcome {
                    attack: "pra".into(),
                    rows: 96,
                    degraded_rows: 0,
                    mse: 0.25,
                    per_feature_mse: vec![],
                },
            ],
        }
    }

    #[test]
    fn outcome_round_trips_bit_exactly() {
        let o = sample();
        let blob = o.to_blob();
        let back = JobOutcome::from_blob(&blob).unwrap();
        assert_eq!(back, o);
        // Bit-exactness: re-encoding is byte-identical.
        assert_eq!(back.to_blob(), blob);
    }

    /// Pins the blob byte for byte (spaces only separate fields): a
    /// layout change must show up here as a deliberate edit.
    #[test]
    fn blob_bytes_are_golden() {
        let hex: String = sample()
            .to_blob()
            .iter()
            .map(|b| format!("{b:02x}"))
            .collect();
        let golden = concat!(
            "01 0c00 303064656164626565663030 ",  // version, fingerprint
            "1d00000000000000 00 ",               // seed, incomplete
            "6000000000000000 8000000000000000 ", // rows_done, rows_planned
            "0300000000000000 6000000000000000 0000000000000000 ", // cost
            "02 ",                                // attacks
            "0300 657361 6000000000000000 0200000000000000 ", // esa, rows, degraded
            "e59105f9b048893f 03000000 ",         // mse, 3 per-feature figures
            "9a9999999999b93f 0000000000001000 e86600f7b4e7547e ",
            "0300 707261 6000000000000000 0000000000000000 ", // pra, rows, degraded
            "000000000000d03f 00000000",                      // mse, no per-feature figures
        );
        assert_eq!(hex, golden.replace(' ', ""));
    }

    #[test]
    fn every_truncation_is_typed() {
        let blob = sample().to_blob();
        for cut in 0..blob.len() {
            assert!(JobOutcome::from_blob(&blob[..cut]).is_err(), "cut {cut}");
        }
        // Every single-bit flip decodes to `Ok` or a typed error, never
        // a panic.
        let mut flipped = blob.clone();
        for bit in 0..blob.len() * 8 {
            flipped[bit / 8] ^= 1 << (bit % 8);
            let _ = JobOutcome::from_blob(&flipped);
            flipped[bit / 8] ^= 1 << (bit % 8);
        }
        let mut blob = sample().to_blob();
        blob.push(7);
        assert_eq!(
            JobOutcome::from_blob(&blob),
            Err(BlobError::Invalid("trailing bytes"))
        );
        let mut blob = sample().to_blob();
        blob[0] = 3;
        assert_eq!(
            JobOutcome::from_blob(&blob),
            Err(BlobError::UnsupportedVersion(3))
        );
    }
}
