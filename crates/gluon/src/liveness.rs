//! Host liveness tracking and partition adoption.
//!
//! Two views of "who is alive" serve two different needs:
//!
//! * [`Liveness`] is the **deterministic schedule view**: a plain
//!   per-round snapshot both engines use to route messages and assign
//!   effective masters. Because every host derives it from the shared
//!   fault plan, all hosts agree on it without coordination, which keeps
//!   chaos runs exactly reproducible.
//! * `SharedLiveness` is the **runtime registry** the threaded cluster
//!   uses for *detection*: a crashing host flags itself here before its
//!   thread exits, survivors notice the flag when a peer stops sending,
//!   and the fault barrier counts only registered-alive hosts so a dead
//!   host can never wedge a round.
//!
//! When a master host dies, its contiguous master block is *adopted* by
//! the next alive host cyclically ([`Liveness::effective_master`]).
//! Every replica already holds the canonical values of the dead block
//! (the previous round's broadcast is full-replica), so adoption needs
//! no state transfer — only an agreement on the new owner, which the
//! deterministic view provides.

use std::sync::atomic::{AtomicBool, Ordering};

/// A deterministic snapshot of which hosts participate in a sync round.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Liveness {
    alive: Vec<bool>,
}

impl Liveness {
    /// All `n_hosts` hosts alive.
    pub fn all(n_hosts: usize) -> Self {
        Self {
            alive: vec![true; n_hosts],
        }
    }

    /// Number of hosts (alive or dead).
    pub fn n_hosts(&self) -> usize {
        self.alive.len()
    }

    /// Marks `host` dead.
    pub fn mark_dead(&mut self, host: usize) {
        self.alive[host] = false;
        assert!(
            self.alive.iter().any(|&a| a),
            "all hosts dead: nothing left to run the round"
        );
    }

    /// Marks `host` alive again (re-admission at an epoch boundary).
    pub fn mark_alive(&mut self, host: usize) {
        self.alive[host] = true;
    }

    /// Is `host` participating?
    pub fn is_alive(&self, host: usize) -> bool {
        self.alive[host]
    }

    /// Number of participating hosts.
    #[cfg(test)]
    pub(crate) fn n_alive(&self) -> usize {
        self.alive.iter().filter(|&&a| a).count()
    }

    /// True when every host is alive (the fast path both engines take to
    /// stay bit-identical with the pre-fault-tolerance protocol).
    #[cfg(test)]
    pub(crate) fn all_alive(&self) -> bool {
        self.alive.iter().all(|&a| a)
    }

    /// The host that currently masters `owner`'s block: `owner` itself
    /// while alive, else the next alive host cyclically (the adopter).
    pub fn effective_master(&self, owner: usize) -> usize {
        let n = self.alive.len();
        (0..n)
            .map(|step| (owner + step) % n)
            .find(|&h| self.alive[h])
            .expect("at least one host is alive")
    }

    /// The adopter of dead host `dead`'s block, or `None` while `dead`
    /// is still alive (no adoption needed).
    pub fn adopter_of(&self, dead: usize) -> Option<usize> {
        (!self.alive[dead]).then(|| self.effective_master(dead))
    }
}

/// The threaded cluster's shared runtime liveness registry.
///
/// Crashing hosts flag themselves dead here; survivors and the fault
/// barrier read it. All operations are lock-free atomics — a `Relaxed`
/// load in the barrier's release check is fine because the barrier's own
/// mutex orders the release itself.
#[derive(Debug)]
pub(crate) struct SharedLiveness {
    alive: Vec<AtomicBool>,
}

impl SharedLiveness {
    /// All `n_hosts` hosts alive.
    pub(crate) fn all(n_hosts: usize) -> Self {
        Self {
            alive: (0..n_hosts).map(|_| AtomicBool::new(true)).collect(),
        }
    }

    /// Flags `host` as dead (idempotent).
    pub(crate) fn mark_dead(&self, host: usize) {
        self.alive[host].store(false, Ordering::SeqCst);
    }

    /// Flags `host` as alive again (idempotent). Used by re-admission:
    /// the rejoining host registers itself *before* its adopter releases
    /// the next barrier, so the barrier immediately starts counting it.
    /// No barrier poke is needed — raising `n_alive` can only make a
    /// release condition stricter, never stale-release a waiting round.
    pub(crate) fn mark_alive(&self, host: usize) {
        self.alive[host].store(true, Ordering::SeqCst);
    }

    /// Is `host` still registered alive?
    pub(crate) fn is_alive(&self, host: usize) -> bool {
        self.alive[host].load(Ordering::SeqCst)
    }

    /// Number of hosts still registered alive.
    pub(crate) fn n_alive(&self) -> usize {
        self.alive
            .iter()
            .filter(|a| a.load(Ordering::SeqCst))
            .count()
    }

    /// Copies the registry into a deterministic snapshot.
    #[cfg(test)]
    pub(crate) fn snapshot(&self) -> Liveness {
        Liveness {
            alive: self
                .alive
                .iter()
                .map(|a| a.load(Ordering::SeqCst))
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn adoption_is_cyclic_and_skips_dead() {
        let mut live = Liveness::all(4);
        assert!(live.all_alive());
        assert_eq!(live.effective_master(2), 2);
        assert_eq!(live.adopter_of(2), None);

        live.mark_dead(2);
        assert!(!live.all_alive());
        assert_eq!(live.n_alive(), 3);
        assert_eq!(live.effective_master(2), 3);
        assert_eq!(live.adopter_of(2), Some(3));

        live.mark_dead(3);
        // Host 3 was host 2's adopter; both now wrap around to host 0.
        assert_eq!(live.effective_master(2), 0);
        assert_eq!(live.effective_master(3), 0);
        assert_eq!(live.effective_master(0), 0);
    }

    #[test]
    fn rejoin_restores_ownership() {
        let mut live = Liveness::all(3);
        live.mark_dead(1);
        assert_eq!(live.adopter_of(1), Some(2));
        live.mark_alive(1);
        assert!(live.is_alive(1) && live.all_alive());
        assert_eq!(live.effective_master(1), 1);
        assert_eq!(live.adopter_of(1), None);

        let shared = SharedLiveness::all(3);
        shared.mark_dead(1);
        assert_eq!(shared.n_alive(), 2);
        shared.mark_alive(1);
        shared.mark_alive(1);
        assert_eq!(shared.n_alive(), 3);
        assert!(shared.snapshot().all_alive());
    }

    #[test]
    #[should_panic(expected = "all hosts dead")]
    fn killing_the_last_host_is_rejected() {
        let mut live = Liveness::all(1);
        live.mark_dead(0);
    }

    #[test]
    fn shared_registry_snapshots() {
        let shared = SharedLiveness::all(3);
        assert_eq!(shared.n_alive(), 3);
        shared.mark_dead(1);
        shared.mark_dead(1);
        assert!(!shared.is_alive(1));
        assert_eq!(shared.n_alive(), 2);
        let snap = shared.snapshot();
        assert_eq!(snap.n_alive(), 2);
        assert_eq!(snap.effective_master(1), 2);
    }
}
