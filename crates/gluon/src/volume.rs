//! Communication volume accounting.
//!
//! Figure 9 of the paper annotates each configuration with the total
//! communication volume (TB) and splits execution time into computation
//! and communication. These counters are the source of both numbers in
//! the reproduction: every payload byte that crosses the simulated wire
//! is counted here, per phase and per host.

use serde::{Deserialize, Serialize};

/// Byte counters for one synchronization round, per host.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct RoundVolume {
    /// Bytes sent by each host (reduce payloads it ships to masters plus
    /// broadcast payloads it ships to mirrors).
    pub sent: Vec<u64>,
    /// Bytes received by each host.
    pub recv: Vec<u64>,
}

impl RoundVolume {
    /// Zeroed counters for `n_hosts` hosts.
    pub(crate) fn new(n_hosts: usize) -> Self {
        Self {
            sent: vec![0; n_hosts],
            recv: vec![0; n_hosts],
        }
    }

    /// Records a transfer of `bytes` from `from` to `to`.
    #[inline]
    pub(crate) fn record(&mut self, from: usize, to: usize, bytes: u64) {
        self.sent[from] += bytes;
        self.recv[to] += bytes;
    }

    /// Total bytes moved this round (each byte counted once).
    pub fn total_bytes(&self) -> u64 {
        self.sent.iter().sum()
    }

    /// The busiest host's `sent + recv` bytes — the round's network
    /// bottleneck under a full-duplex, non-blocking fabric.
    pub(crate) fn max_host_bytes(&self) -> u64 {
        self.sent
            .iter()
            .zip(&self.recv)
            .map(|(s, r)| s + r)
            .max()
            .unwrap_or(0)
    }
}

/// Accumulated statistics over a whole training run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CommStats {
    /// Number of synchronization rounds performed.
    pub rounds: u64,
    /// Total bytes shipped mirror→master.
    pub reduce_bytes: u64,
    /// Total bytes shipped master→mirror.
    pub broadcast_bytes: u64,
    /// Total mirror→master messages (rows).
    pub reduce_msgs: u64,
    /// Total master→mirror messages (rows).
    pub broadcast_msgs: u64,
}

impl CommStats {
    /// Grand total bytes both directions.
    pub fn total_bytes(&self) -> u64 {
        self.reduce_bytes + self.broadcast_bytes
    }

    /// Merges another accumulation into this one.
    pub fn merge(&mut self, other: &CommStats) {
        self.rounds += other.rounds;
        self.reduce_bytes += other.reduce_bytes;
        self.broadcast_bytes += other.broadcast_bytes;
        self.reduce_msgs += other.reduce_msgs;
        self.broadcast_msgs += other.broadcast_msgs;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_tracks_both_sides() {
        let mut v = RoundVolume::new(3);
        v.record(0, 2, 100);
        v.record(1, 2, 50);
        v.record(2, 0, 25);
        assert_eq!(v.sent, vec![100, 50, 25]);
        assert_eq!(v.recv, vec![25, 0, 150]);
        assert_eq!(v.total_bytes(), 175);
        // Host 2: sent 25 + recv 150 = 175 is the max.
        assert_eq!(v.max_host_bytes(), 175);
    }

    #[test]
    fn empty_round() {
        let v = RoundVolume::new(2);
        assert_eq!(v.total_bytes(), 0);
        assert_eq!(v.max_host_bytes(), 0);
    }

    #[test]
    fn stats_merge() {
        let mut a = CommStats {
            rounds: 1,
            reduce_bytes: 10,
            broadcast_bytes: 20,
            reduce_msgs: 1,
            broadcast_msgs: 2,
        };
        let b = CommStats {
            rounds: 2,
            reduce_bytes: 5,
            broadcast_bytes: 5,
            reduce_msgs: 3,
            broadcast_msgs: 4,
        };
        a.merge(&b);
        assert_eq!(a.rounds, 3);
        assert_eq!(a.total_bytes(), 40);
        assert_eq!(a.reduce_msgs, 4);
        assert_eq!(a.broadcast_msgs, 6);
    }
}
