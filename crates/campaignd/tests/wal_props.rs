//! Property pin for the write-ahead job log of delta checkpoint frames:
//! truncating the log at *any* byte — the disk state a crash mid-append
//! can leave — and folding what recovery returns yields exactly the
//! campaign's checkpoint as of the last whole frame, or nothing. Random
//! corruption never panics either: the fold yields a state the campaign
//! actually passed through, or nothing, and appending the frames that
//! follow that state (after cutting the log back to it) recovers the
//! final checkpoint.

use fia_campaign::{Campaign, CampaignCheckpoint, NullObserver, StepOutcome};
use fia_campaignd::wal::JobLog;
use fia_campaignd::{JobAttack, JobDefense, JobModel, JobOracle, JobSpec};
use fia_data::PaperDataset;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::path::{Path, PathBuf};

fn tmp(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "fia-wal-props-{tag}-{}-{}",
        std::process::id(),
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .unwrap()
            .as_nanos()
    ));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A real campaign's per-chunk delta frames, written to a job log
/// exactly as a daemon worker writes them, with the checkpoint the
/// campaign had after each one.
struct Logged {
    path: PathBuf,
    frames: Vec<Vec<u8>>,
    checkpoints: Vec<CampaignCheckpoint>,
}

fn checkpoint_log(dir: &Path) -> Logged {
    let spec = JobSpec {
        dataset: PaperDataset::CreditCard,
        scale: 0.005,
        target_fraction: 0.3,
        seed: 23,
        model: JobModel::Logistic,
        defense: JobDefense::None,
        attacks: vec![JobAttack::Esa],
        max_queries: None,
        max_rows: None,
        chunk: 8,
        oracle: JobOracle::InProcess,
        throttle_ms: 0,
    };
    let mut campaign = Campaign::new(spec.to_scenario().build())
        .with_attacks(spec.attack_specs())
        .with_chunk(spec.chunk as usize);
    let path = dir.join("job.log");
    let mut log = JobLog::open(&path).unwrap();
    let (mut frames, mut checkpoints) = (Vec::new(), Vec::new());
    let mut logged = 0;
    campaign.begin(&mut NullObserver).unwrap();
    loop {
        let outcome = campaign.step(&mut NullObserver).unwrap();
        let frame = campaign.delta_blob(logged);
        logged = campaign.rows_done();
        log.append(&frame).unwrap();
        frames.push(frame);
        checkpoints.push(campaign.checkpoint());
        if outcome != StepOutcome::Chunk {
            break;
        }
    }
    assert!(frames.len() >= 3, "want several frames to truncate");
    Logged {
        path,
        frames,
        checkpoints,
    }
}

/// Recovers the log and folds its intact frames, as a restarting
/// daemon does; returns the fold and the log length it keeps.
fn recover(path: &Path) -> (Option<CampaignCheckpoint>, u64) {
    let frames = JobLog::recover(path).unwrap();
    let folded = CampaignCheckpoint::fold(frames.iter().map(|f| f.payload.as_slice()));
    let keep = folded.accepted.checked_sub(1).map_or(0, |i| frames[i].end);
    (folded.checkpoint, keep)
}

#[test]
fn truncation_at_every_byte_folds_to_the_last_whole_frame_or_none() {
    let dir = tmp("trunc");
    let logged = checkpoint_log(&dir);
    let full = std::fs::read(&logged.path).unwrap();

    // Frame sizes are payload + 16 bytes of header/checksum; compute
    // each record's end offset to know which checkpoint a cut exposes.
    let mut ends = Vec::new();
    let mut pos = 0usize;
    for frame in &logged.frames {
        pos += frame.len() + 16;
        ends.push(pos);
    }
    assert_eq!(pos, full.len());

    for cut in 0..=full.len() {
        std::fs::write(&logged.path, &full[..cut]).unwrap();
        let (folded, keep) = recover(&logged.path);
        let intact = ends.iter().filter(|&&e| e <= cut).count();
        match intact {
            0 => assert_eq!(folded, None, "cut {cut}: invented a checkpoint"),
            k => {
                assert_eq!(
                    folded.as_ref(),
                    Some(&logged.checkpoints[k - 1]),
                    "cut {cut}: wrong checkpoint surfaced"
                );
                assert_eq!(keep, ends[k - 1] as u64, "cut {cut}: wrong length kept");
            }
        }
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn random_corruption_folds_to_a_passed_state_and_resumes() {
    let dir = tmp("corrupt");
    let logged = checkpoint_log(&dir);
    let last = logged.checkpoints.last().unwrap();
    let full = std::fs::read(&logged.path).unwrap();
    let mut rng = StdRng::seed_from_u64(0xBAD_CAFE);
    for round in 0..400 {
        let mut bytes = full.clone();
        let flips = 1 + rng.gen::<usize>() % 4;
        for _ in 0..flips {
            let at = rng.gen::<usize>() % bytes.len();
            bytes[at] ^= 1 << (rng.gen::<u32>() % 8);
        }
        std::fs::write(&logged.path, &bytes).unwrap();
        // A frame that passes the log's checksum is *usually* one that
        // was written — but not always: the checkpoint blob ends in its
        // own FNV-1a trailer (the same function the frame uses), so a
        // flip that shrinks a length field by exactly 8 makes the
        // payload's embedded trailer verify as the frame checksum. The
        // log layer cannot tell; the fold must stop there — typed,
        // never a panic.
        let (folded, keep) = recover(&logged.path);
        let resume_at = match &folded {
            None => 0,
            Some(cp) => {
                let k = logged
                    .checkpoints
                    .iter()
                    .position(|c| c == cp)
                    .unwrap_or_else(|| panic!("round {round}: folded a state never passed"));
                k + 1
            }
        };

        // Resume: cut the log back to the fold, append the frames that
        // follow, and recovery must reach the final checkpoint.
        let mut log = JobLog::open(&logged.path).unwrap();
        log.truncate(keep).unwrap();
        for frame in &logged.frames[resume_at..] {
            log.append(frame).unwrap();
        }
        assert_eq!(
            recover(&logged.path).0.as_ref(),
            Some(last),
            "round {round}: frames appended after the resume are lost"
        );
    }
    std::fs::remove_dir_all(&dir).unwrap();
}
