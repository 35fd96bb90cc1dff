//! The daemon's job description: what a submitted campaign should run.
//!
//! A [`JobSpec`] is the payload of a `JOB_SUBMIT` wire frame and the
//! `spec.bin` file in a job's state directory. It is deliberately a
//! *restriction* of the full [`ScenarioSpec`] surface: every knob it
//! exposes keeps the campaign deterministic under kill-and-restart
//! resume (so no noise defenses, whose released scores depend on chunk
//! boundaries), and everything in it is covered by the scenario
//! fingerprint, which is what lets the daemon share one deployment
//! between jobs that describe the same scenario.

use crate::codec::{finish, BlobError};
use fia_campaign::{
    AttackSpec, ModelSpec, OracleSpec, PartitionSpec, QueryBudget, ScenarioSpec, ServedConfig,
};
use fia_core::bytes::{ByteReader, ByteWriter};
use fia_data::PaperDataset;
use fia_defense::{DefensePipeline, RoundingDefense};

/// Job-spec blob format version.
pub const SPEC_VERSION: u8 = 1;

/// Model family a job trains.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobModel {
    /// Multinomial logistic regression.
    Logistic,
    /// CART decision tree.
    DecisionTree,
}

/// Score-release defense a job deploys. Only defenses whose released
/// scores are a pure per-row function are offered: resume correctness
/// requires the corpus prefix to be independent of chunk boundaries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobDefense {
    /// Release raw confidences.
    None,
    /// Round released confidences to 1e-3.
    RoundingFine,
    /// Round released confidences to 1e-1.
    RoundingCoarse,
}

/// Attack a job mounts over its corpus.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobAttack {
    /// Equality-solving attack.
    Esa,
    /// Path-restriction attack.
    Pra,
}

/// The oracle the job's campaign queries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobOracle {
    /// Query the deployment in-process inside the daemon.
    InProcess,
    /// Query a real `fia-serve` prediction server the daemon spawns —
    /// and shares with every other job whose fingerprint matches.
    Shared {
        /// Backend replicas behind the shared server.
        replicas: u32,
        /// Released-score cache capacity in rows (`0` disables; keep it
        /// `0` when bit-identical resume across restarts matters, since
        /// cache hits depend on query arrival order across jobs).
        cache_capacity: u32,
    },
}

/// A submitted campaign: scenario knobs, budget, and pacing.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    /// Paper dataset the scenario generates.
    pub dataset: PaperDataset,
    /// Fraction of the paper-scale sample count to generate.
    pub scale: f64,
    /// Fraction of features held by the target (passive) party.
    pub target_fraction: f64,
    /// Master scenario seed.
    pub seed: u64,
    /// Model family.
    pub model: JobModel,
    /// Score-release defense.
    pub defense: JobDefense,
    /// Attacks to mount, in order.
    pub attacks: Vec<JobAttack>,
    /// Query-budget cap on oracle rounds, if any.
    pub max_queries: Option<u64>,
    /// Query-budget cap on confidence rows, if any.
    pub max_rows: Option<u64>,
    /// Corpus chunk size in rows (checkpoint granularity).
    pub chunk: u32,
    /// Oracle kind.
    pub oracle: JobOracle,
    /// Artificial pause after each chunk, in milliseconds. A test knob:
    /// it widens the window in which a `SIGKILL` lands mid-campaign.
    pub throttle_ms: u32,
}

impl Default for JobSpec {
    fn default() -> Self {
        JobSpec {
            dataset: PaperDataset::CreditCard,
            scale: 0.02,
            target_fraction: 0.3,
            seed: 7,
            model: JobModel::Logistic,
            defense: JobDefense::None,
            attacks: vec![JobAttack::Esa],
            max_queries: None,
            max_rows: None,
            chunk: 32,
            oracle: JobOracle::InProcess,
            throttle_ms: 0,
        }
    }
}

fn dataset_code(d: PaperDataset) -> u8 {
    match d {
        PaperDataset::BankMarketing => 0,
        PaperDataset::CreditCard => 1,
        PaperDataset::DriveDiagnosis => 2,
        PaperDataset::NewsPopularity => 3,
        PaperDataset::Synthetic1 => 4,
        PaperDataset::Synthetic2 => 5,
    }
}

fn dataset_from_code(code: u8) -> Result<PaperDataset, BlobError> {
    Ok(match code {
        0 => PaperDataset::BankMarketing,
        1 => PaperDataset::CreditCard,
        2 => PaperDataset::DriveDiagnosis,
        3 => PaperDataset::NewsPopularity,
        4 => PaperDataset::Synthetic1,
        5 => PaperDataset::Synthetic2,
        _ => return Err(BlobError::Invalid("unknown dataset code")),
    })
}

impl JobSpec {
    /// Checks the spec's invariants; every decoded blob passes through
    /// this, so a daemon never runs a structurally bad job.
    pub fn validate(&self) -> Result<(), BlobError> {
        if !self.scale.is_finite() || self.scale <= 0.0 || self.scale > 1.0 {
            return Err(BlobError::Invalid("scale must be in (0, 1]"));
        }
        if !self.target_fraction.is_finite()
            || self.target_fraction <= 0.0
            || self.target_fraction >= 1.0
        {
            return Err(BlobError::Invalid("target_fraction must be in (0, 1)"));
        }
        if self.chunk == 0 {
            return Err(BlobError::Invalid("chunk must be at least 1"));
        }
        if self.attacks.is_empty() {
            return Err(BlobError::Invalid("at least one attack is required"));
        }
        if let JobOracle::Shared { replicas, .. } = self.oracle {
            if replicas == 0 {
                return Err(BlobError::Invalid("shared oracle needs a replica"));
            }
        }
        Ok(())
    }

    /// Serializes the spec as a versioned blob.
    pub fn to_blob(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(64);
        out.push(SPEC_VERSION);
        out.push(dataset_code(self.dataset));
        out.put_f64(self.scale);
        out.put_f64(self.target_fraction);
        out.put_u64(self.seed);
        out.push(match self.model {
            JobModel::Logistic => 0,
            JobModel::DecisionTree => 1,
        });
        out.push(match self.defense {
            JobDefense::None => 0,
            JobDefense::RoundingFine => 1,
            JobDefense::RoundingCoarse => 2,
        });
        out.push(self.attacks.len() as u8);
        for a in &self.attacks {
            out.push(match a {
                JobAttack::Esa => 0,
                JobAttack::Pra => 1,
            });
        }
        let flags = u8::from(self.max_queries.is_some()) | (u8::from(self.max_rows.is_some()) << 1);
        out.push(flags);
        if let Some(q) = self.max_queries {
            out.put_u64(q);
        }
        if let Some(r) = self.max_rows {
            out.put_u64(r);
        }
        out.put_u32(self.chunk);
        match self.oracle {
            JobOracle::InProcess => out.push(0),
            JobOracle::Shared {
                replicas,
                cache_capacity,
            } => {
                out.push(1);
                out.put_u32(replicas);
                out.put_u32(cache_capacity);
            }
        }
        out.put_u32(self.throttle_ms);
        out
    }

    /// Decodes and validates a spec blob.
    pub fn from_blob(blob: &[u8]) -> Result<JobSpec, BlobError> {
        let mut c = ByteReader::new(blob);
        let version = c.u8()?;
        if version != SPEC_VERSION {
            return Err(BlobError::UnsupportedVersion(version));
        }
        let dataset = dataset_from_code(c.u8()?)?;
        let scale = c.f64()?;
        let target_fraction = c.f64()?;
        let seed = c.u64()?;
        let model = match c.u8()? {
            0 => JobModel::Logistic,
            1 => JobModel::DecisionTree,
            _ => return Err(BlobError::Invalid("unknown model code")),
        };
        let defense = match c.u8()? {
            0 => JobDefense::None,
            1 => JobDefense::RoundingFine,
            2 => JobDefense::RoundingCoarse,
            _ => return Err(BlobError::Invalid("unknown defense code")),
        };
        let n_attacks = c.u8()? as usize;
        if n_attacks > 8 {
            return Err(BlobError::Invalid("too many attacks"));
        }
        let mut attacks = Vec::with_capacity(n_attacks);
        for _ in 0..n_attacks {
            attacks.push(match c.u8()? {
                0 => JobAttack::Esa,
                1 => JobAttack::Pra,
                _ => return Err(BlobError::Invalid("unknown attack code")),
            });
        }
        let flags = c.u8()?;
        if flags > 3 {
            return Err(BlobError::Invalid("unknown budget flags"));
        }
        let max_queries = if flags & 1 != 0 { Some(c.u64()?) } else { None };
        let max_rows = if flags & 2 != 0 { Some(c.u64()?) } else { None };
        let chunk = c.u32()?;
        let oracle = match c.u8()? {
            0 => JobOracle::InProcess,
            1 => JobOracle::Shared {
                replicas: c.u32()?,
                cache_capacity: c.u32()?,
            },
            _ => return Err(BlobError::Invalid("unknown oracle code")),
        };
        let throttle_ms = c.u32()?;
        finish(&c)?;
        let spec = JobSpec {
            dataset,
            scale,
            target_fraction,
            seed,
            model,
            defense,
            attacks,
            max_queries,
            max_rows,
            chunk,
            oracle,
            throttle_ms,
        };
        spec.validate()?;
        Ok(spec)
    }

    /// Lowers the job to the campaign layer's scenario builder.
    pub fn to_scenario(&self) -> ScenarioSpec {
        let mut spec = ScenarioSpec::paper(self.dataset)
            .with_scale(self.scale)
            .with_partition(PartitionSpec::two_block_random(self.target_fraction))
            .with_seed(self.seed)
            .with_model(match self.model {
                JobModel::Logistic => ModelSpec::logistic(),
                JobModel::DecisionTree => ModelSpec::decision_tree(),
            });
        spec = match self.defense {
            JobDefense::None => spec,
            JobDefense::RoundingFine => {
                spec.with_defense(DefensePipeline::new().then(RoundingDefense::fine()))
            }
            JobDefense::RoundingCoarse => {
                spec.with_defense(DefensePipeline::new().then(RoundingDefense::coarse()))
            }
        };
        if let JobOracle::Shared {
            replicas,
            cache_capacity,
        } = self.oracle
        {
            spec = spec.with_oracle(OracleSpec::Served(ServedConfig {
                replicas: replicas as usize,
                cache_capacity: cache_capacity as usize,
                ..ServedConfig::default()
            }));
        }
        spec
    }

    /// The scenario fingerprint this job resolves to — the daemon's
    /// deployment-sharing and resume-validation key.
    pub fn fingerprint(&self) -> String {
        self.to_scenario().fingerprint()
    }

    /// The campaign query budget this job runs under.
    pub fn budget(&self) -> QueryBudget {
        QueryBudget {
            max_queries: self.max_queries,
            max_rows: self.max_rows,
        }
    }

    /// The attack list lowered to campaign [`AttackSpec`]s.
    pub fn attack_specs(&self) -> Vec<AttackSpec> {
        self.attacks
            .iter()
            .map(|a| match a {
                JobAttack::Esa => AttackSpec::esa(),
                JobAttack::Pra => AttackSpec::pra(),
            })
            .collect()
    }
}

/// Human-oriented one-liner for tables and logs.
pub fn describe_spec(spec: &JobSpec) -> String {
    format!(
        "{} scale={} seed={} attacks={} oracle={:?}",
        spec.dataset.name(),
        spec.scale,
        spec.seed,
        spec.attacks.len(),
        spec.oracle
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> JobSpec {
        JobSpec {
            dataset: PaperDataset::DriveDiagnosis,
            scale: 0.005,
            target_fraction: 0.4,
            seed: 41,
            model: JobModel::DecisionTree,
            defense: JobDefense::RoundingCoarse,
            attacks: vec![JobAttack::Pra, JobAttack::Esa],
            max_queries: Some(12),
            max_rows: None,
            chunk: 16,
            oracle: JobOracle::Shared {
                replicas: 2,
                cache_capacity: 0,
            },
            throttle_ms: 5,
        }
    }

    #[test]
    fn spec_round_trips_through_blob() {
        let spec = sample();
        assert_eq!(JobSpec::from_blob(&spec.to_blob()).unwrap(), spec);
        let spec = JobSpec::default();
        assert_eq!(JobSpec::from_blob(&spec.to_blob()).unwrap(), spec);
    }

    /// Pins both blobs byte for byte (spaces only separate fields): a
    /// layout change must show up here as a deliberate edit.
    #[test]
    fn blob_bytes_are_golden() {
        let hex = |spec: &JobSpec| -> String {
            spec.to_blob().iter().map(|b| format!("{b:02x}")).collect()
        };
        let sample_hex = concat!(
            "01 02 ",                             // version, DriveDiagnosis
            "7b14ae47e17a743f 9a9999999999d93f ", // scale 0.005, target 0.4
            "2900000000000000 01 02 ",            // seed, tree, coarse rounding
            "02 01 00 ",                          // attacks: PRA, ESA
            "01 0c00000000000000 10000000 ",      // max_queries 12, chunk 16
            "01 02000000 00000000 05000000",      // shared ×2, no cache, throttle
        );
        assert_eq!(hex(&sample()), sample_hex.replace(' ', ""));
        let default_hex = concat!(
            "01 01 ",                             // version, CreditCard
            "7b14ae47e17a943f 333333333333d33f ", // scale 0.02, target 0.3
            "0700000000000000 00 00 ",            // seed, logistic, no defense
            "01 00 ",                             // attacks: ESA
            "00 20000000 ",                       // no budget caps, chunk 32
            "00 00000000",                        // in-process, no throttle
        );
        assert_eq!(hex(&JobSpec::default()), default_hex.replace(' ', ""));
    }

    #[test]
    fn every_truncation_is_typed() {
        let blob = sample().to_blob();
        for cut in 0..blob.len() {
            match JobSpec::from_blob(&blob[..cut]) {
                Err(_) => {}
                Ok(_) => panic!("cut {cut} decoded"),
            }
        }
        // Every single-bit flip decodes to `Ok` or a typed error, never
        // a panic.
        let mut flipped = blob.clone();
        for bit in 0..blob.len() * 8 {
            flipped[bit / 8] ^= 1 << (bit % 8);
            let _ = JobSpec::from_blob(&flipped);
            flipped[bit / 8] ^= 1 << (bit % 8);
        }
    }

    #[test]
    fn bad_fields_are_rejected() {
        let mut blob = sample().to_blob();
        blob[0] = 9;
        assert_eq!(
            JobSpec::from_blob(&blob),
            Err(BlobError::UnsupportedVersion(9))
        );
        let mut blob = sample().to_blob();
        blob[1] = 200;
        assert_eq!(
            JobSpec::from_blob(&blob),
            Err(BlobError::Invalid("unknown dataset code"))
        );
        let mut blob = sample().to_blob();
        blob.push(0);
        assert_eq!(
            JobSpec::from_blob(&blob),
            Err(BlobError::Invalid("trailing bytes"))
        );
        let mut bad = sample();
        bad.scale = 1.5;
        assert!(bad.validate().is_err());
        bad = sample();
        bad.chunk = 0;
        assert!(bad.validate().is_err());
        bad = sample();
        bad.attacks.clear();
        assert!(bad.validate().is_err());
    }

    #[test]
    fn fingerprint_is_oracle_and_seed_sensitive() {
        let a = sample();
        let mut b = sample();
        b.seed = 42;
        assert_ne!(a.fingerprint(), b.fingerprint());
        let mut c = sample();
        c.oracle = JobOracle::InProcess;
        assert_ne!(a.fingerprint(), c.fingerprint());
        // throttle is pacing, not scenario: it must NOT change the key.
        let mut d = sample();
        d.throttle_ms = 500;
        assert_eq!(a.fingerprint(), d.fingerprint());
    }
}
