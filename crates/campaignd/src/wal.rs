//! Durability primitives: atomic file replacement and the per-job
//! write-ahead log.
//!
//! Two disciplines cover every byte the daemon persists:
//!
//! - **Atomic replace** ([`write_atomic`]): write to a temp file in the
//!   same directory, `fsync` it, `rename` over the destination, then
//!   `fsync` the directory so the rename itself is durable. Readers see
//!   either the old contents or the new, never a torn mix. Used for
//!   small whole-file state: job specs, terminal markers, outcomes, the
//!   endpoint file.
//! - **Append-only framed log** ([`JobLog`]): each record is
//!   `magic ∥ len ∥ payload ∥ fnv64(payload)`, appended with
//!   `fdatasync` before the daemon acts on the state it describes.
//!   Recovery scans forward and hands back every intact frame, stopping
//!   at the first one that is incomplete or fails its checksum, so a
//!   crash mid-append loses only the frame being written — never yields
//!   garbage. Used for campaign checkpoints: one delta frame per corpus
//!   chunk, holding just that chunk's rows, so an append costs O(chunk)
//!   and the daemon folds the frames back into the full checkpoint
//!   (`CampaignCheckpoint::fold`). Before appending again the daemon
//!   [truncates](JobLog::truncate) the log to the end of the last frame
//!   the fold accepted; otherwise new frames would land behind a torn
//!   tail, where recovery never reaches them.

use fia_core::bytes::{ByteReader, ByteWriter};
use fia_core::fnv;
use std::fs::{File, OpenOptions};
use std::io::{self, Read, Write};
use std::path::Path;

/// Frame marker for job-log records ("FJL" + version 1).
pub const LOG_MAGIC: u32 = 0x464A_4C01;

/// Upper bound on a single log record; a campaign checkpoint for the
/// largest in-tree scenario is well under this.
pub const MAX_RECORD_LEN: usize = 1 << 24;

/// Writes `bytes` to `path` atomically: temp file in the same
/// directory, fsync, rename over the destination, fsync the directory.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let dir = path
        .parent()
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "path has no parent"))?;
    let name = path
        .file_name()
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "path has no file name"))?;
    let tmp = dir.join(format!(".{}.tmp", name.to_string_lossy()));
    {
        let mut f = File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
    }
    std::fs::rename(&tmp, path)?;
    // Durability of the rename itself requires syncing the directory.
    File::open(dir)?.sync_all()?;
    Ok(())
}

/// An append-only checkpoint log for one job.
pub struct JobLog {
    file: File,
}

/// One intact record [`JobLog::recover`] found.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// The record's payload.
    pub payload: Vec<u8>,
    /// The log's length up to the end of this record: what
    /// [`JobLog::truncate`] keeps to drop everything after it.
    pub end: u64,
}

impl JobLog {
    /// Opens (creating if absent) the log at `path` for appending.
    pub fn open(path: &Path) -> io::Result<JobLog> {
        let file = OpenOptions::new().create(true).append(true).open(path)?;
        Ok(JobLog { file })
    }

    /// Cuts the log back to its first `len` bytes and syncs the cut, so
    /// the next [`append`](JobLog::append) lands at `len`. A resuming
    /// daemon passes the [`Frame::end`] of the last frame its fold
    /// accepted (0 for none), dropping a torn or rejected tail. A `len`
    /// past the end is an error.
    pub fn truncate(&mut self, len: u64) -> io::Result<()> {
        let size = self.file.metadata()?.len();
        if len > size {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "job log is shorter than the length to keep",
            ));
        }
        if len < size {
            self.file.set_len(len)?;
            self.file.sync_data()?;
        }
        Ok(())
    }

    /// Appends one framed record and syncs it to disk before returning.
    /// The record is only considered written once this returns `Ok`.
    pub fn append(&mut self, payload: &[u8]) -> io::Result<()> {
        if payload.len() > MAX_RECORD_LEN {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "job log record too large",
            ));
        }
        let mut frame = Vec::with_capacity(payload.len() + 16);
        frame.put_u32(LOG_MAGIC);
        frame.put_u32(payload.len() as u32);
        frame.extend_from_slice(payload);
        frame.put_u64(fnv(0, payload));
        self.file.write_all(&frame)?;
        self.file.sync_data()
    }

    /// Scans the log at `path` and returns every intact record in order
    /// — none when the log is absent. The scan stops at the first frame
    /// whose magic, length or checksum fails to verify (a torn or
    /// corrupt tail), so the records returned are exactly what the
    /// daemon had made durable before the crash. The file is left as it
    /// is; [`JobLog::truncate`] drops the tail.
    pub fn recover(path: &Path) -> io::Result<Vec<Frame>> {
        let mut bytes = Vec::new();
        match File::open(path) {
            Ok(mut f) => {
                f.read_to_end(&mut bytes)?;
            }
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(Vec::new()),
            Err(e) => return Err(e),
        }
        let mut r = ByteReader::new(&bytes);
        let mut frames = Vec::new();
        while let Some(payload) = next_record(&mut r) {
            frames.push(Frame {
                payload: payload.to_vec(),
                end: (bytes.len() - r.remaining()) as u64,
            });
        }
        Ok(frames)
    }
}

/// Reads the record at `r`, or `None` when its magic, length or checksum
/// fails to verify or the bytes end inside it.
fn next_record<'a>(r: &mut ByteReader<'a>) -> Option<&'a [u8]> {
    if r.u32().ok()? != LOG_MAGIC {
        return None;
    }
    let len = r.u32().ok()? as usize;
    if len > MAX_RECORD_LEN {
        return None;
    }
    let payload = r.take(len).ok()?;
    (r.u64().ok()? == fnv(0, payload)).then_some(payload)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "fia-wal-{tag}-{}",
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .unwrap()
                .as_nanos()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn write_atomic_replaces_whole_file() {
        let dir = tmp_dir("atomic");
        let path = dir.join("state");
        write_atomic(&path, b"first").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"first");
        write_atomic(&path, b"second, longer").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"second, longer");
        // No temp litter left behind.
        let names: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .collect();
        assert_eq!(names.len(), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    fn payloads(path: &Path) -> Vec<Vec<u8>> {
        JobLog::recover(path)
            .unwrap()
            .into_iter()
            .map(|f| f.payload)
            .collect()
    }

    fn tear(path: &Path) {
        let mut f = OpenOptions::new().append(true).open(path).unwrap();
        f.write_all(&LOG_MAGIC.to_le_bytes()).unwrap();
        f.write_all(&100u32.to_le_bytes()).unwrap();
        f.write_all(b"only-part-of-the-payload").unwrap();
    }

    #[test]
    fn recover_returns_every_record_and_survives_torn_tail() {
        let dir = tmp_dir("log");
        let path = dir.join("job.log");
        assert!(JobLog::recover(&path).unwrap().is_empty());
        {
            let mut log = JobLog::open(&path).unwrap();
            log.append(b"one").unwrap();
            log.append(b"two-two").unwrap();
        }
        let frames = JobLog::recover(&path).unwrap();
        assert_eq!(payloads(&path), [&b"one"[..], b"two-two"]);
        assert_eq!(frames[0].end, 16 + 3);
        // The first frame byte for byte: magic, length, payload, FNV-1a.
        assert_eq!(
            std::fs::read(&path).unwrap()[..19],
            [
                0x01, 0x4C, 0x4A, 0x46, 3, 0, 0, 0, b'o', b'n', b'e', 0xAF, 0x5C, 0xCA, 0x21, 0x19,
                0xAA, 0x08, 0x1A
            ]
        );
        assert_eq!(frames[1].end, std::fs::metadata(&path).unwrap().len());
        // A torn append (partial frame) must not hide the good records.
        tear(&path);
        assert_eq!(payloads(&path), [&b"one"[..], b"two-two"]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn frames_appended_after_a_truncated_torn_tail_are_recovered() {
        let dir = tmp_dir("torn");
        let path = dir.join("job.log");
        JobLog::open(&path).unwrap().append(b"before").unwrap();
        tear(&path);
        let frames = JobLog::recover(&path).unwrap();
        assert_eq!(frames.len(), 1);
        let mut log = JobLog::open(&path).unwrap();
        log.truncate(frames[0].end).unwrap();
        log.append(b"after-1").unwrap();
        log.append(b"after-2").unwrap();
        assert_eq!(
            payloads(&path),
            [&b"before"[..], b"after-1", b"after-2"],
            "frames written after the crash must be reachable"
        );
        // Keeping everything is a no-op; keeping more than exists fails.
        let len = std::fs::metadata(&path).unwrap().len();
        log.truncate(len).unwrap();
        assert!(log.truncate(len + 1).is_err());
        assert_eq!(std::fs::metadata(&path).unwrap().len(), len);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn truncation_at_every_byte_yields_the_whole_frames_before_the_cut() {
        let dir = tmp_dir("trunc");
        let path = dir.join("job.log");
        {
            let mut log = JobLog::open(&path).unwrap();
            log.append(b"alpha").unwrap();
            log.append(b"beta-beta").unwrap();
        }
        let full = std::fs::read(&path).unwrap();
        let first_len = 16 + 5;
        for cut in 0..=full.len() {
            std::fs::write(&path, &full[..cut]).unwrap();
            let want: &[&[u8]] = if cut < first_len {
                &[]
            } else if cut < full.len() {
                &[b"alpha"]
            } else {
                &[b"alpha", b"beta-beta"]
            };
            assert_eq!(payloads(&path), want, "cut {cut}");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
