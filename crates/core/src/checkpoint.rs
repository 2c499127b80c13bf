//! Epoch-boundary checkpointing for the distributed trainer.
//!
//! A checkpoint captures *everything* the BSP loop needs to continue
//! bit-identically from the next epoch: every host's replica layers, the
//! per-host training RNG states, the per-host progress counters that
//! drive the learning-rate schedule, the liveness map, the accumulated
//! communication statistics and the virtual clocks. Checkpoints are
//! written at epoch boundaries, where delta trackers are empty by
//! construction (the closing synchronization cleared them), so no
//! tracker state needs to be captured.
//!
//! # File format
//!
//! A single little-endian binary blob:
//!
//! ```text
//! magic        8 B   "GW2VCKP1"
//! fingerprint  u64   crc32(params)·2³² | crc32(config) — see
//!                    [`Checkpoint::fingerprint_of`]
//! epoch        u64   last *completed* epoch (resume starts at epoch+1)
//! pairs        u64   positive pairs trained so far
//! compute      u64   f64 bits: virtual compute time so far
//! comm         u64   f64 bits: virtual communication time so far
//! n_hosts      u64
//! n_layers     u64
//! n_nodes      u64
//! dim          u64
//! processed    n_hosts × u64     per-host tokens processed
//! alive        n_hosts × u8      liveness map (1 = alive)
//! rng_states   n_hosts × 4 × u64 Xoshiro256 states (a dead host's slot
//!                                holds its adopter's recovery stream)
//! stats        5 × u64           CommStats fields
//! layers       n_hosts × n_layers × n_nodes × dim × f32
//! crc          u32    CRC-32 of every preceding byte
//! ```
//!
//! Writes go to a sibling temp file followed by an atomic rename, so a
//! kill mid-write can never leave a half-written file under the final
//! name; the CRC-32 trailer rejects torn or bit-rotted files on load.

use crate::distributed::DistConfig;
use crate::params::Hyperparams;
use gw2v_gluon::liveness::Liveness;
use gw2v_gluon::volume::CommStats;
use gw2v_util::crc32::crc32;
use gw2v_util::fvec::FlatMatrix;
use std::fmt;
use std::path::{Path, PathBuf};

/// Magic bytes opening every checkpoint file (format version 1).
pub(crate) const CHECKPOINT_MAGIC: &[u8; 8] = b"GW2VCKP1";

/// Why a checkpoint could not be written or read back.
#[derive(Debug)]
pub enum CheckpointError {
    /// Filesystem-level failure.
    Io(std::io::Error),
    /// The file does not start with `CHECKPOINT_MAGIC`.
    BadMagic,
    /// The CRC-32 trailer does not match the file contents.
    Corrupt {
        /// Checksum stored in the trailer.
        expected: u32,
        /// Checksum computed over the file body.
        computed: u32,
    },
    /// The checkpoint was written by a run with different hyperparameters
    /// or cluster configuration.
    FingerprintMismatch {
        /// Fingerprint of the resuming run.
        expected: u64,
        /// Fingerprint stored in the checkpoint.
        found: u64,
    },
    /// Structurally invalid contents (truncated body, impossible sizes).
    Malformed(String),
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "checkpoint I/O: {e}"),
            CheckpointError::BadMagic => write!(f, "not a GW2VCKP1 checkpoint file"),
            CheckpointError::Corrupt { expected, computed } => write!(
                f,
                "checkpoint CRC mismatch: trailer {expected:#010x}, computed {computed:#010x}"
            ),
            CheckpointError::FingerprintMismatch { expected, found } => write!(
                f,
                "checkpoint belongs to a different run: fingerprint {found:#018x}, this run is {expected:#018x}"
            ),
            CheckpointError::Malformed(m) => write!(f, "malformed checkpoint: {m}"),
        }
    }
}

impl std::error::Error for CheckpointError {}

impl From<std::io::Error> for CheckpointError {
    fn from(e: std::io::Error) -> Self {
        CheckpointError::Io(e)
    }
}

/// A complete snapshot of distributed-training state at an epoch
/// boundary.
#[derive(Clone, Debug)]
pub struct Checkpoint {
    /// Run identity — see [`Checkpoint::fingerprint_of`].
    pub fingerprint: u64,
    /// Last epoch fully trained and synchronized (0-based); resume
    /// continues at `epoch + 1`.
    pub epoch: usize,
    /// Positive pairs trained so far.
    pub pairs_trained: u64,
    /// Virtual compute time accumulated so far.
    pub compute_time: f64,
    /// Virtual communication time accumulated so far.
    pub comm_time: f64,
    /// Per-host tokens processed (drives the lr schedule).
    pub processed: Vec<u64>,
    /// Per-host liveness at the boundary.
    pub alive: Vec<bool>,
    /// Per-host Xoshiro256 states; a dead host's slot carries the
    /// recovery stream its adopter is consuming.
    pub rng_states: Vec<[u64; 4]>,
    /// Accumulated communication counters.
    pub stats: CommStats,
    /// Per-host replica layers, `layers[host][layer]`.
    pub layers: Vec<Vec<FlatMatrix>>,
}

impl Checkpoint {
    /// Identity of a run for resume-compatibility purposes: CRC-32 of
    /// the hyperparameters' debug form in the high half, CRC-32 of the
    /// cluster configuration's debug form in the low half. Any change to
    /// either (seed, dim, host count, plan, combiner, cost model, …)
    /// changes the fingerprint and makes old checkpoints unusable.
    pub fn fingerprint_of(params: &Hyperparams, config: &DistConfig) -> u64 {
        let p = crc32(format!("{params:?}").as_bytes()) as u64;
        let c = crc32(format!("{config:?}").as_bytes()) as u64;
        (p << 32) | c
    }

    /// The liveness view [`Checkpoint::alive`] records. Panics if no
    /// host is alive.
    pub fn liveness(&self) -> Liveness {
        let mut live = Liveness::all(self.alive.len());
        (0..self.alive.len())
            .filter(|&h| !self.alive[h])
            .for_each(|h| live.mark_dead(h));
        live
    }

    /// The canonical file name for the checkpoint of `epoch` inside a
    /// checkpoint directory.
    pub fn file_name(epoch: usize) -> String {
        format!("epoch-{epoch:05}.gw2vckp")
    }

    /// The checkpoint file in `dir` with the highest epoch, if any.
    /// Non-checkpoint files are ignored; a missing directory is `None`.
    pub fn latest_in(dir: &Path) -> Result<Option<PathBuf>, CheckpointError> {
        let entries = match std::fs::read_dir(dir) {
            Ok(e) => e,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(e.into()),
        };
        let mut best: Option<(usize, PathBuf)> = None;
        for entry in entries {
            let entry = entry?;
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            let Some(epoch) = name
                .strip_prefix("epoch-")
                .and_then(|r| r.strip_suffix(".gw2vckp"))
                .and_then(|e| e.parse::<usize>().ok())
            else {
                continue;
            };
            if best.as_ref().is_none_or(|(b, _)| epoch > *b) {
                best = Some((epoch, entry.path()));
            }
        }
        Ok(best.map(|(_, p)| p))
    }

    /// Where a run with `fingerprint` resumes from: the newest checkpoint
    /// in `dir`, loaded and validated, or `None` when `dir` holds none.
    /// A checkpoint some other run wrote is
    /// [`CheckpointError::FingerprintMismatch`].
    pub fn resume_point(dir: &Path, fingerprint: u64) -> Result<Option<Self>, CheckpointError> {
        let Some(path) = Self::latest_in(dir)? else {
            return Ok(None);
        };
        let ckpt = Self::load(&path)?;
        if ckpt.fingerprint != fingerprint {
            return Err(CheckpointError::FingerprintMismatch {
                expected: fingerprint,
                found: ckpt.fingerprint,
            });
        }
        Ok(Some(ckpt))
    }

    /// Serializes to the on-disk format (including the CRC trailer).
    pub fn to_bytes(&self) -> Vec<u8> {
        let n_hosts = self.layers.len();
        let n_layers = self.layers.first().map_or(0, Vec::len);
        let n_nodes = self
            .layers
            .first()
            .and_then(|h| h.first())
            .map_or(0, FlatMatrix::rows);
        let dim = self
            .layers
            .first()
            .and_then(|h| h.first())
            .map_or(0, FlatMatrix::dim);
        let mut out = Vec::with_capacity(
            128 + n_hosts * (8 + 1 + 32) + n_hosts * n_layers * n_nodes * dim * 4,
        );
        out.extend_from_slice(CHECKPOINT_MAGIC);
        for word in [
            self.fingerprint,
            self.epoch as u64,
            self.pairs_trained,
            self.compute_time.to_bits(),
            self.comm_time.to_bits(),
            n_hosts as u64,
            n_layers as u64,
            n_nodes as u64,
            dim as u64,
        ] {
            out.extend_from_slice(&word.to_le_bytes());
        }
        for &p in &self.processed {
            out.extend_from_slice(&p.to_le_bytes());
        }
        for &a in &self.alive {
            out.push(a as u8);
        }
        for state in &self.rng_states {
            for &w in state {
                out.extend_from_slice(&w.to_le_bytes());
            }
        }
        for word in [
            self.stats.rounds,
            self.stats.reduce_bytes,
            self.stats.broadcast_bytes,
            self.stats.reduce_msgs,
            self.stats.broadcast_msgs,
        ] {
            out.extend_from_slice(&word.to_le_bytes());
        }
        for host in &self.layers {
            for layer in host {
                for &x in layer.as_slice() {
                    out.extend_from_slice(&x.to_le_bytes());
                }
            }
        }
        let crc = crc32(&out);
        out.extend_from_slice(&crc.to_le_bytes());
        out
    }

    /// Parses the on-disk format, verifying magic and the CRC trailer.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, CheckpointError> {
        if bytes.len() < CHECKPOINT_MAGIC.len() + 4 {
            return Err(CheckpointError::Malformed(format!(
                "{} bytes is too short for a checkpoint",
                bytes.len()
            )));
        }
        if &bytes[..CHECKPOINT_MAGIC.len()] != CHECKPOINT_MAGIC {
            return Err(CheckpointError::BadMagic);
        }
        let (body, trailer) = bytes.split_at(bytes.len() - 4);
        let expected = u32::from_le_bytes(trailer.try_into().expect("4-byte trailer"));
        let computed = crc32(body);
        if computed != expected {
            return Err(CheckpointError::Corrupt { expected, computed });
        }
        let mut cur = Cursor::new(&body[CHECKPOINT_MAGIC.len()..]);
        let fingerprint = cur.u64()?;
        let epoch = cur.u64()? as usize;
        let pairs_trained = cur.u64()?;
        let compute_time = f64::from_bits(cur.u64()?);
        let comm_time = f64::from_bits(cur.u64()?);
        let n_hosts = cur.u64()? as usize;
        let n_layers = cur.u64()? as usize;
        let n_nodes = cur.u64()? as usize;
        let dim = cur.u64()? as usize;
        // The CRC already passed, so these sizes were written by us; the
        // arithmetic check below just guards the allocation against a
        // hand-crafted file that happens to carry a valid CRC.
        let floats = n_hosts
            .checked_mul(n_layers)
            .and_then(|x| x.checked_mul(n_nodes))
            .and_then(|x| x.checked_mul(dim))
            .ok_or_else(|| CheckpointError::Malformed("layer sizes overflow".into()))?;
        let expected_len = 9 * 8 + n_hosts * (8 + 1 + 32) + 5 * 8 + floats * 4;
        if cur.remaining() != expected_len - 9 * 8 {
            return Err(CheckpointError::Malformed(format!(
                "body has {} bytes after the header, want {}",
                cur.remaining(),
                expected_len - 9 * 8
            )));
        }
        let processed = (0..n_hosts).map(|_| cur.u64()).collect::<Result<_, _>>()?;
        let alive = (0..n_hosts)
            .map(|_| cur.u8().map(|b| b != 0))
            .collect::<Result<_, _>>()?;
        let mut rng_states = Vec::with_capacity(n_hosts);
        for _ in 0..n_hosts {
            let mut s = [0u64; 4];
            for w in &mut s {
                *w = cur.u64()?;
            }
            rng_states.push(s);
        }
        let stats = CommStats {
            rounds: cur.u64()?,
            reduce_bytes: cur.u64()?,
            broadcast_bytes: cur.u64()?,
            reduce_msgs: cur.u64()?,
            broadcast_msgs: cur.u64()?,
        };
        let mut layers = Vec::with_capacity(n_hosts);
        for _ in 0..n_hosts {
            let mut host = Vec::with_capacity(n_layers);
            for _ in 0..n_layers {
                let mut data = Vec::with_capacity(n_nodes * dim);
                for _ in 0..n_nodes * dim {
                    data.push(f32::from_le_bytes(cur.bytes::<4>()?));
                }
                host.push(FlatMatrix::from_vec(data, n_nodes, dim));
            }
            layers.push(host);
        }
        Ok(Self {
            fingerprint,
            epoch,
            pairs_trained,
            compute_time,
            comm_time,
            processed,
            alive,
            rng_states,
            stats,
            layers,
        })
    }

    /// Writes the checkpoint under its canonical name in `dir` (created
    /// if missing), via a temp file + atomic rename.
    pub(crate) fn save_in(&self, dir: &Path) -> Result<PathBuf, CheckpointError> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(Self::file_name(self.epoch));
        let tmp = dir.join(format!(".{}.tmp", Self::file_name(self.epoch)));
        std::fs::write(&tmp, self.to_bytes())?;
        std::fs::rename(&tmp, &path)?;
        Ok(path)
    }

    /// Loads and validates a checkpoint file.
    pub fn load(path: &Path) -> Result<Self, CheckpointError> {
        Self::from_bytes(&std::fs::read(path)?)
    }
}

/// Minimal bounds-checked reader over the checkpoint body.
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn bytes<const N: usize>(&mut self) -> Result<[u8; N], CheckpointError> {
        if self.remaining() < N {
            return Err(CheckpointError::Malformed("truncated body".into()));
        }
        let out: [u8; N] = self.buf[self.pos..self.pos + N]
            .try_into()
            .expect("length checked");
        self.pos += N;
        Ok(out)
    }

    fn u64(&mut self) -> Result<u64, CheckpointError> {
        self.bytes::<8>().map(u64::from_le_bytes)
    }

    fn u8(&mut self) -> Result<u8, CheckpointError> {
        self.bytes::<1>().map(|b| b[0])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gw2v_combiner::CombinerKind;
    use gw2v_gluon::cost::CostModel;
    use gw2v_gluon::plan::SyncPlan;

    fn sample() -> Checkpoint {
        let mut m0 = FlatMatrix::zeros(3, 2);
        m0.row_mut(1).copy_from_slice(&[1.5, -2.5]);
        let mut m1 = FlatMatrix::zeros(3, 2);
        m1.row_mut(2).copy_from_slice(&[f32::MIN_POSITIVE, -0.0]);
        Checkpoint {
            fingerprint: 0xDEAD_BEEF_0123_4567,
            epoch: 4,
            pairs_trained: 9999,
            compute_time: 1.25,
            comm_time: 0.001953125,
            processed: vec![10, 20],
            alive: vec![true, false],
            rng_states: vec![[1, 2, 3, 4], [5, 6, 7, 8]],
            stats: CommStats {
                rounds: 8,
                reduce_bytes: 100,
                broadcast_bytes: 200,
                reduce_msgs: 3,
                broadcast_msgs: 4,
            },
            layers: vec![vec![m0.clone(), m1.clone()], vec![m1, m0]],
        }
    }

    #[test]
    fn roundtrip_is_bit_exact() {
        let c = sample();
        let back = Checkpoint::from_bytes(&c.to_bytes()).unwrap();
        assert_eq!(back.fingerprint, c.fingerprint);
        assert_eq!(back.epoch, c.epoch);
        assert_eq!(back.pairs_trained, c.pairs_trained);
        assert_eq!(back.compute_time.to_bits(), c.compute_time.to_bits());
        assert_eq!(back.comm_time.to_bits(), c.comm_time.to_bits());
        assert_eq!(back.processed, c.processed);
        assert_eq!(back.alive, c.alive);
        assert_eq!(back.rng_states, c.rng_states);
        assert_eq!(back.stats.total_bytes(), c.stats.total_bytes());
        for (a, b) in back.layers.iter().flatten().zip(c.layers.iter().flatten()) {
            let (a, b) = (a.as_slice(), b.as_slice());
            assert_eq!(a.len(), b.len());
            for (x, y) in a.iter().zip(b) {
                assert_eq!(x.to_bits(), y.to_bits());
            }
        }
    }

    #[test]
    fn every_corruption_is_rejected() {
        let bytes = sample().to_bytes();
        // Flipping any single bit anywhere must fail validation (magic,
        // CRC trailer, or the CRC noticing body damage).
        for bit in (0..bytes.len() * 8).step_by(101) {
            let mut bad = bytes.clone();
            bad[bit / 8] ^= 1 << (bit % 8);
            assert!(
                Checkpoint::from_bytes(&bad).is_err(),
                "bit {bit} corruption went undetected"
            );
        }
        assert!(matches!(
            Checkpoint::from_bytes(&bytes[..bytes.len() - 5]),
            Err(CheckpointError::Corrupt { .. })
        ));
        assert!(matches!(
            Checkpoint::from_bytes(b"NOTACKPT"),
            Err(CheckpointError::Malformed(_))
        ));
        assert!(matches!(
            Checkpoint::from_bytes(&[0u8; 64]),
            Err(CheckpointError::BadMagic)
        ));
    }

    #[test]
    fn save_load_and_latest() {
        let dir = std::env::temp_dir().join(format!("gw2v-ckpt-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        assert!(Checkpoint::resume_point(&dir, 0).unwrap().is_none());
        let mut c = sample();
        c.epoch = 1;
        c.save_in(&dir).unwrap();
        c.epoch = 3;
        let p3 = c.save_in(&dir).unwrap();
        std::fs::write(dir.join("notes.txt"), "ignore me").unwrap();
        let latest = Checkpoint::latest_in(&dir).unwrap().unwrap();
        assert_eq!(latest, p3);
        let back = Checkpoint::resume_point(&dir, c.fingerprint).unwrap();
        assert_eq!(back.map(|b| b.epoch), Some(3));
        let foreign = Checkpoint::resume_point(&dir, !c.fingerprint);
        assert!(matches!(
            foreign,
            Err(CheckpointError::FingerprintMismatch { .. })
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn fingerprint_tracks_params_and_config() {
        let p = Hyperparams::test_scale();
        let cfg = DistConfig {
            n_hosts: 3,
            sync_rounds: 2,
            plan: SyncPlan::RepModelOpt,
            combiner: CombinerKind::ModelCombiner,
            cost: CostModel::infiniband_56g(),
            wire: gw2v_gluon::wire::WireMode::IdValue,
            sgns: crate::trainer_hogbatch::SgnsMode::PerPair,
            on_partition: gw2v_faults::OnPartition::Stall,
            max_stale_rounds: 8,
        };
        let f = Checkpoint::fingerprint_of(&p, &cfg);
        assert_eq!(f, Checkpoint::fingerprint_of(&p, &cfg), "stable");
        let p2 = Hyperparams {
            seed: p.seed + 1,
            ..p.clone()
        };
        assert_ne!(f, Checkpoint::fingerprint_of(&p2, &cfg));
        let cfg2 = DistConfig { n_hosts: 4, ..cfg };
        assert_ne!(f, Checkpoint::fingerprint_of(&p, &cfg2));
    }
}
