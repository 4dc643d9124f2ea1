//! Durable checkpoint store for crash-safe campaign sweeps.
//!
//! A long sweep (`fig5b`, `remote_campaign`, …) periodically hands this
//! store an opaque payload — the encoded prefix of completed grid points
//! — and the store makes it survive `kill -9` at any instant:
//!
//! - **Atomic write-rename.** The payload is written to a staging file,
//!   `fsync`ed, and renamed over the current checkpoint. A crash mid-save
//!   leaves either the old generation or the new one, never a torn file.
//! - **Versioned header + CRC.** Every file carries a magic, a format
//!   version, a monotonically increasing generation counter, the payload
//!   length, and a CRC-32 of the payload. Corruption and truncation are
//!   both *detected*, never silently loaded.
//! - **Generation rollback.** Before the rename, the previous checkpoint
//!   is kept as `<name>.ckpt.prev`. If the current file fails validation
//!   (torn write, bit rot), [`CheckpointStore::load`] falls back to the
//!   previous good generation and reports the rollback.
//!
//! Every durable save emits [`trace::Event::CheckpointFsync`] so the
//! golden-trace layer can audit checkpoint cadence.
//!
//! The [`wire`] module is the repository's one little-endian codec: the
//! sweep-slice checkpoint payloads, the UART's command/response messages
//! and the attack-scheme file all encode through it, and [`crc32`] is its
//! one checksum.

use std::fs::{self, File, OpenOptions};
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};

pub mod wire;

/// File magic: "DSCKPT" + 2-byte pad, fixed for all format versions.
const MAGIC: [u8; 8] = *b"DSCKPT\0\0";

/// Current on-disk format version.
const VERSION: u32 = 1;

/// Header: magic (8) + version (4) + generation (8) + payload_len (8) +
/// payload CRC-32 (4).
const HEADER_LEN: usize = 8 + 4 + 8 + 8 + 4;

/// Checkpoint-store failure: an I/O error, or a checkpoint file that
/// failed validation with no good generation to fall back to.
#[derive(Debug)]
pub enum CkptError {
    /// The underlying filesystem operation failed.
    Io(io::Error),
    /// Every on-disk generation failed validation.
    Corrupt {
        /// The checkpoint path that was probed last.
        path: PathBuf,
        /// Human-readable validation failure (bad magic, CRC mismatch, …).
        reason: String,
    },
}

impl std::fmt::Display for CkptError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CkptError::Io(e) => write!(f, "checkpoint I/O error: {e}"),
            CkptError::Corrupt { path, reason } => {
                write!(f, "checkpoint {} is corrupt: {reason}", path.display())
            }
        }
    }
}

impl std::error::Error for CkptError {}

impl From<io::Error> for CkptError {
    fn from(e: io::Error) -> Self {
        CkptError::Io(e)
    }
}

/// A successfully loaded checkpoint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Loaded {
    /// The payload exactly as it was saved.
    pub payload: Vec<u8>,
    /// The generation counter of the file that validated.
    pub generation: u64,
    /// True when the current file failed validation and the previous
    /// generation was loaded instead.
    pub rolled_back: bool,
}

/// CRC-32 (IEEE 802.3, reflected) over `data` — the same polynomial zlib
/// and PNG use, implemented locally because the workspace vendors no
/// checksum crate. It is the repository's one checksum: checkpoint files
/// and the UART's frame check and whole-scheme upload check all use it.
pub fn crc32(data: &[u8]) -> u32 {
    !data.iter().fold(!0u32, |crc, &byte| CRC32_TABLE[usize::from(crc as u8 ^ byte)] ^ (crc >> 8))
}

/// Byte-at-a-time table for [`crc32`]: entry `i` is the register after
/// shifting the byte `i` through the eight bitwise steps of the
/// reflected polynomial `0xEDB8_8320`.
static CRC32_TABLE: [u32; 256] = crc32_table();

const fn crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = (crc >> 1) ^ (0xEDB8_8320 & (crc & 1).wrapping_neg());
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
}

/// Durable checkpoint store: one named checkpoint slot in a directory,
/// with atomic saves and a one-generation rollback history.
#[derive(Debug)]
pub struct CheckpointStore {
    current: PathBuf,
    prev: PathBuf,
    staging: PathBuf,
    generation: u64,
}

impl CheckpointStore {
    /// Opens (creating the directory if needed) the checkpoint slot
    /// `<dir>/<name>.ckpt`. The generation counter resumes from whatever
    /// is on disk.
    pub fn new(dir: impl AsRef<Path>, name: &str) -> io::Result<Self> {
        let dir = dir.as_ref();
        fs::create_dir_all(dir)?;
        let current = dir.join(format!("{name}.ckpt"));
        let prev = dir.join(format!("{name}.ckpt.prev"));
        let staging = dir.join(format!("{name}.ckpt.new"));
        let generation = [&current, &prev]
            .iter()
            .filter_map(|p| read_validated(p).ok().map(|(generation, _)| generation))
            .max()
            .unwrap_or(0);
        Ok(CheckpointStore { current, prev, staging, generation })
    }

    /// The path of the current checkpoint file.
    pub fn path(&self) -> &Path {
        &self.current
    }

    /// The generation counter of the most recent save (0 if none yet).
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Durably saves `payload` as the next generation and returns the
    /// generation number. The sequence is: write staging + fsync, demote
    /// the current file to `.prev`, rename staging over current. A crash
    /// at any point leaves at least one validating generation on disk.
    pub fn save(&mut self, payload: &[u8]) -> io::Result<u64> {
        let generation = self.generation + 1;
        let mut bytes = Vec::with_capacity(HEADER_LEN + payload.len());
        bytes.extend_from_slice(&MAGIC);
        bytes.extend_from_slice(&VERSION.to_le_bytes());
        bytes.extend_from_slice(&generation.to_le_bytes());
        bytes.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        bytes.extend_from_slice(&crc32(payload).to_le_bytes());
        bytes.extend_from_slice(payload);

        let mut file =
            OpenOptions::new().write(true).create(true).truncate(true).open(&self.staging)?;
        file.write_all(&bytes)?;
        file.sync_all()?;
        drop(file);

        if self.current.exists() {
            fs::rename(&self.current, &self.prev)?;
        }
        fs::rename(&self.staging, &self.current)?;
        // Fsync the directory so both renames are durable before we
        // report the generation as committed (best-effort on filesystems
        // that reject directory fsync).
        if let Some(dir) = self.current.parent() {
            if let Ok(d) = File::open(dir) {
                let _ = d.sync_all();
            }
        }
        self.generation = generation;
        trace::emit(|| trace::Event::CheckpointFsync { generation, bytes: bytes.len() as u64 });
        Ok(generation)
    }

    /// Loads the newest validating generation.
    ///
    /// - `Ok(Some(loaded))` — a file validated; `loaded.rolled_back` is
    ///   true when the current file was corrupt/truncated and the
    ///   previous generation was used.
    /// - `Ok(None)` — no checkpoint exists yet (fresh start).
    /// - `Err(CkptError::Corrupt)` — files exist but none validates.
    pub fn load(&self) -> Result<Option<Loaded>, CkptError> {
        // `None` = current file absent (a crash between `save`'s two
        // renames can leave only `.prev` on disk), `Some(reason)` =
        // present but failed validation.
        let current_failure = match probe(&self.current)? {
            Probe::Valid(generation, payload) => {
                return Ok(Some(Loaded { payload, generation, rolled_back: false }));
            }
            Probe::Missing => None,
            Probe::Invalid(reason) => Some(reason),
        };
        match probe(&self.prev)? {
            Probe::Valid(generation, payload) => {
                Ok(Some(Loaded { payload, generation, rolled_back: true }))
            }
            Probe::Missing => match current_failure {
                None => Ok(None),
                Some(reason) => Err(CkptError::Corrupt { path: self.current.clone(), reason }),
            },
            Probe::Invalid(prev_reason) => Err(CkptError::Corrupt {
                path: self.current.clone(),
                reason: format!(
                    "{}; previous generation: {prev_reason}",
                    current_failure.unwrap_or_else(|| "missing".to_string())
                ),
            }),
        }
    }

    /// Removes every on-disk generation (used after a sweep completes so
    /// a later run starts fresh).
    pub fn clear(&mut self) -> io::Result<()> {
        for path in [&self.staging, &self.current, &self.prev] {
            match fs::remove_file(path) {
                Ok(()) => {}
                Err(e) if e.kind() == io::ErrorKind::NotFound => {}
                Err(e) => return Err(e),
            }
        }
        self.generation = 0;
        Ok(())
    }
}

enum Probe {
    Valid(u64, Vec<u8>),
    Invalid(String),
    Missing,
}

fn probe(path: &Path) -> Result<Probe, CkptError> {
    match read_validated(path) {
        Ok((generation, payload)) => Ok(Probe::Valid(generation, payload)),
        Err(ReadError::Missing) => Ok(Probe::Missing),
        Err(ReadError::Io(e)) => Err(CkptError::Io(e)),
        Err(ReadError::Invalid(reason)) => Ok(Probe::Invalid(reason)),
    }
}

enum ReadError {
    Missing,
    Io(io::Error),
    Invalid(String),
}

fn read_validated(path: &Path) -> Result<(u64, Vec<u8>), ReadError> {
    let mut file = match File::open(path) {
        Ok(f) => f,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Err(ReadError::Missing),
        Err(e) => return Err(ReadError::Io(e)),
    };
    let mut bytes = Vec::new();
    file.read_to_end(&mut bytes).map_err(ReadError::Io)?;
    if bytes.len() < HEADER_LEN {
        return Err(ReadError::Invalid(format!(
            "truncated header ({} of {HEADER_LEN} bytes)",
            bytes.len()
        )));
    }
    if bytes[..8] != MAGIC {
        return Err(ReadError::Invalid("bad magic".to_string()));
    }
    let version = u32::from_le_bytes([bytes[8], bytes[9], bytes[10], bytes[11]]);
    if version != VERSION {
        return Err(ReadError::Invalid(format!("unsupported version {version}")));
    }
    let generation = u64::from_le_bytes([
        bytes[12], bytes[13], bytes[14], bytes[15], bytes[16], bytes[17], bytes[18], bytes[19],
    ]);
    let payload_len = u64::from_le_bytes([
        bytes[20], bytes[21], bytes[22], bytes[23], bytes[24], bytes[25], bytes[26], bytes[27],
    ]) as usize;
    let stored_crc = u32::from_le_bytes([bytes[28], bytes[29], bytes[30], bytes[31]]);
    let payload = &bytes[HEADER_LEN..];
    if payload.len() != payload_len {
        return Err(ReadError::Invalid(format!(
            "truncated payload ({} of {payload_len} bytes)",
            payload.len()
        )));
    }
    let actual_crc = crc32(payload);
    if actual_crc != stored_crc {
        return Err(ReadError::Invalid(format!(
            "CRC mismatch (stored {stored_crc:#010x}, computed {actual_crc:#010x})"
        )));
    }
    Ok((generation, payload.to_vec()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("deepstrike-ckpt-{tag}-{}", std::process::id()));
        // Start from a clean slot even if a previous run left debris.
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard IEEE CRC-32 check values.
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn table_driven_crc32_equals_the_bitwise_definition() {
        fn bitwise(data: &[u8]) -> u32 {
            let mut crc = !0u32;
            for &byte in data {
                crc ^= u32::from(byte);
                for _ in 0..8 {
                    crc = (crc >> 1) ^ (0xEDB8_8320 & (crc & 1).wrapping_neg());
                }
            }
            !crc
        }
        let mut rng = StdRng::seed_from_u64(0xC4C3_2000);
        for len in 0..=300 {
            let data: Vec<u8> = (0..len).map(|_| rng.gen()).collect();
            assert_eq!(crc32(&data), bitwise(&data), "length {len}");
        }
    }

    #[test]
    fn save_then_load_roundtrips() {
        let dir = temp_dir("roundtrip");
        let mut store = CheckpointStore::new(&dir, "sweep").expect("store opens");
        assert_eq!(store.load().expect("load"), None);
        let g1 = store.save(b"alpha").expect("save");
        assert_eq!(g1, 1);
        let loaded = store.load().expect("load").expect("present");
        assert_eq!(loaded.payload, b"alpha");
        assert_eq!(loaded.generation, 1);
        assert!(!loaded.rolled_back);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn generations_increase_and_survive_reopen() {
        let dir = temp_dir("generations");
        let mut store = CheckpointStore::new(&dir, "sweep").expect("store opens");
        store.save(b"g1").expect("save");
        store.save(b"g2").expect("save");
        drop(store);
        let mut reopened = CheckpointStore::new(&dir, "sweep").expect("store reopens");
        assert_eq!(reopened.generation(), 2);
        let g3 = reopened.save(b"g3").expect("save");
        assert_eq!(g3, 3);
        let loaded = reopened.load().expect("load").expect("present");
        assert_eq!(loaded.payload, b"g3");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_current_rolls_back_to_previous_generation() {
        let dir = temp_dir("rollback");
        let mut store = CheckpointStore::new(&dir, "sweep").expect("store opens");
        store.save(b"good-gen-1").expect("save");
        store.save(b"good-gen-2").expect("save");
        // Flip a payload byte in the current file.
        let path = store.path().to_path_buf();
        let mut bytes = fs::read(&path).expect("read");
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        fs::write(&path, &bytes).expect("write corruption");
        let loaded = store.load().expect("load").expect("present");
        assert!(loaded.rolled_back);
        assert_eq!(loaded.generation, 1);
        assert_eq!(loaded.payload, b"good-gen-1");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncated_current_is_detected_and_rolled_back() {
        let dir = temp_dir("truncate");
        let mut store = CheckpointStore::new(&dir, "sweep").expect("store opens");
        store.save(b"gen-one-payload").expect("save");
        store.save(b"gen-two-payload").expect("save");
        let path = store.path().to_path_buf();
        let bytes = fs::read(&path).expect("read");
        fs::write(&path, &bytes[..bytes.len() - 4]).expect("truncate");
        let loaded = store.load().expect("load").expect("present");
        assert!(loaded.rolled_back);
        assert_eq!(loaded.payload, b"gen-one-payload");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn both_generations_corrupt_is_an_error_never_a_silent_load() {
        let dir = temp_dir("both-corrupt");
        let mut store = CheckpointStore::new(&dir, "sweep").expect("store opens");
        store.save(b"one").expect("save");
        store.save(b"two").expect("save");
        for name in ["sweep.ckpt", "sweep.ckpt.prev"] {
            let path = dir.join(name);
            let mut bytes = fs::read(&path).expect("read");
            bytes[0] ^= 0xFF; // break the magic
            fs::write(&path, &bytes).expect("write corruption");
        }
        match store.load() {
            Err(CkptError::Corrupt { .. }) => {}
            other => panic!("expected Corrupt, got {other:?}"),
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn save_emits_checkpoint_fsync_event() {
        let dir = temp_dir("fsync-event");
        let mut store = CheckpointStore::new(&dir, "sweep").expect("store opens");
        let ((), log) = trace::capture(64, || {
            store.save(b"payload").expect("save");
        });
        let rendered = log.to_jsonl();
        assert!(
            rendered.contains(r#""ev":"checkpoint_fsync","stage":"supervisor","generation":1"#),
            "missing fsync event:\n{rendered}"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn clear_removes_all_generations() {
        let dir = temp_dir("clear");
        let mut store = CheckpointStore::new(&dir, "sweep").expect("store opens");
        store.save(b"one").expect("save");
        store.save(b"two").expect("save");
        store.clear().expect("clear");
        assert_eq!(store.load().expect("load"), None);
        let _ = fs::remove_dir_all(&dir);
    }
}
