//! What a receiver does with a phase's frames, written once for both
//! cluster engines: a state machine with no channel, thread or clock. Its
//! engine tells it what arrived ([`Inbox::frame`]) and what time it is
//! ([`Inbox::expire`], in seconds since the phase opened), and posts the
//! NAKs it decides ([`Inbox::naks`]): the threaded engine from its
//! channel and the wall clock, the simulator from each letter's chain of
//! delivery attempts, a withheld attempt being silence until the slot's
//! deadline.
//!
//! The rule, over one slot per alive peer and layer:
//!
//! 1. a frame for a filled slot or from an earlier phase is a duplicate,
//!    counted under `faults.recovered.dedup` and dropped; one from a host
//!    the phase expects nothing from is dropped;
//! 2. a frame from a later phase is stashed and replayed when it opens;
//! 3. a frame that failed its CRC is counted under
//!    `faults.detected.corrupt` and NAKed at once;
//! 4. a slot silent past its window ([`nak_backoff_secs`] of its NAK
//!    count) is counted under `faults.detected.timeout` and NAKed. The
//!    window runs from the slot's last NAK; a slot never NAKed waits its
//!    first window from the phase's open, restarted by every arrival;
//! 5. every NAK of a slot counts against one budget: a slot whose
//!    `max_retries + 1`-th attempt fails gives up.

use crate::cost::nak_backoff_secs;
use crate::liveness::Liveness;
use crate::threaded::{ClusterConfig, ClusterError};
use gw2v_faults::{counters, FaultPlan};

/// The only error is rule 5's give-up.
type Result<T> = std::result::Result<T, ClusterError>;

#[derive(Debug)]
enum Slot<P> {
    /// This host or a dead peer.
    Idle,
    /// NAKed `naks` times, due another NAK at `deadline`.
    Waiting { naks: u32, deadline: f64 },
    /// Arrived; its body until taken.
    Filled(Option<P>),
}

/// One host's receiving side of the open phase, slot `peer · n_layers +
/// layer`, and the frames a later phase sent early.
#[derive(Debug)]
pub(crate) struct Inbox<P> {
    host: usize,
    /// The plan's seed alone: a NAK window's jitter draws on nothing
    /// else ([`FaultPlan::backoff_jitter`]).
    jitter: FaultPlan,
    /// The first NAK window's base, in seconds.
    nak_delay: f64,
    max_retries: u32,
    seq: u64,
    n_layers: usize,
    slots: Vec<Slot<P>>,
    /// Frames a later phase sent early, `(from, layer, seq, body)`.
    stash: Vec<(usize, usize, u64, Option<P>)>,
    naks: Vec<(usize, usize)>,
}

impl<P> Inbox<P> {
    /// Host `host`'s inbox under `plan`, with `config`'s NAK delay and
    /// budget.
    pub(crate) fn new(host: usize, plan: &FaultPlan, config: ClusterConfig) -> Self {
        Self {
            host,
            jitter: FaultPlan {
                seed: plan.seed,
                ..FaultPlan::none()
            },
            nak_delay: config.nak_delay.as_secs_f64(),
            max_retries: config.max_retries,
            seq: 0,
            n_layers: 0,
            slots: Vec::new(),
            stash: Vec::new(),
            naks: Vec::new(),
        }
    }

    /// Opens phase `seq` at time 0 (undrained NAKs are moot): a slot for
    /// every alive peer of `live` and layer, then the frames stashed for it.
    pub(crate) fn open(&mut self, seq: u64, live: &Liveness, layers: usize) -> Result<()> {
        (self.seq, self.n_layers) = (seq, layers);
        self.naks.clear();
        self.slots.clear();
        let deadline = self.window(0);
        for peer in 0..live.n_hosts() {
            let expected = peer != self.host && live.is_alive(peer);
            self.slots.extend((0..layers).map(|_| match expected {
                true => Slot::Waiting { naks: 0, deadline },
                false => Slot::Idle,
            }));
        }
        let mut replay = std::mem::take(&mut self.stash);
        for (from, layer, seq, body) in replay.drain(..) {
            self.frame(from, layer, seq, body, 0.0)?;
        }
        if self.stash.is_empty() {
            self.stash = replay;
        }
        Ok(())
    }

    /// The frame `from` sent for `layer` of phase `seq` arrived at time
    /// `now`: `body` is what it carries once opened, `None` when it
    /// failed its CRC.
    pub(crate) fn frame(
        &mut self,
        from: usize,
        layer: usize,
        seq: u64,
        body: Option<P>,
        now: f64,
    ) -> Result<()> {
        if seq > self.seq {
            self.stash.push((from, layer, seq, body));
            return Ok(());
        }
        let slot = self.index(from, layer);
        if seq < self.seq || matches!(slot.map(|i| &self.slots[i]), Some(Slot::Filled(_))) {
            count(counters::RECOVERED_DEDUP);
            return Ok(());
        }
        let Some(i) = slot.filter(|&i| !matches!(self.slots[i], Slot::Idle)) else {
            return Ok(());
        };
        let Some(body) = body else {
            count(counters::DETECTED_CORRUPT);
            return self.nak(i, now);
        };
        self.slots[i] = Slot::Filled(Some(body));
        let restarted = now + self.window(0);
        for slot in &mut self.slots {
            if let Slot::Waiting { naks: 0, deadline } = slot {
                *deadline = restarted;
            }
        }
        Ok(())
    }

    /// The time is `now`: NAKs every slot silent past its window.
    pub(crate) fn expire(&mut self, now: f64) -> Result<()> {
        (0..self.slots.len()).try_for_each(|i| self.expire_at(i, now))
    }

    /// Slot `(from, layer)` stays silent until its deadline, on a clock
    /// of its own (the simulator's mailboxes are sender-major): NAKs it
    /// there and returns that time.
    pub(crate) fn silence(&mut self, from: usize, layer: usize) -> Result<f64> {
        let i = self.index(from, layer).expect("a slot of this phase");
        let Slot::Waiting { deadline, .. } = self.slots[i] else {
            unreachable!("only a waiting slot can stay silent")
        };
        self.expire_at(i, deadline).map(|()| deadline)
    }

    /// Whether every expected slot is filled.
    pub(crate) fn complete(&self) -> bool {
        !self.slots.iter().any(|s| matches!(s, Slot::Waiting { .. }))
    }

    /// Takes what `(from, layer)` delivered this phase. Its slot stays
    /// filled, so a late copy still counts as a duplicate.
    pub(crate) fn take(&mut self, from: usize, layer: usize) -> Option<P> {
        match self.index(from, layer).map(|i| &mut self.slots[i]) {
            Some(Slot::Filled(body)) => body.take(),
            _ => None,
        }
    }

    /// The `(peer, layer)` NAKs decided since the last call, to post.
    pub(crate) fn naks(&mut self) -> std::vec::Drain<'_, (usize, usize)> {
        self.naks.drain(..)
    }

    fn index(&self, from: usize, layer: usize) -> Option<usize> {
        let i = from * self.n_layers + layer;
        (layer < self.n_layers && i < self.slots.len()).then_some(i)
    }

    /// The silence a slot NAKed `naks` times waits out before its next.
    fn window(&self, naks: u32) -> f64 {
        nak_backoff_secs(&self.jitter, self.nak_delay, self.host, self.seq, naks)
    }

    fn expire_at(&mut self, i: usize, now: f64) -> Result<()> {
        match self.slots[i] {
            Slot::Waiting { naks, deadline } if now >= deadline => {
                count(counters::DETECTED_TIMEOUT);
                gw2v_obs::observe("gluon.nak_backoff_ms", (self.window(naks) * 1e3) as u64);
                self.nak(i, now)
            }
            _ => Ok(()),
        }
    }

    /// NAKs waiting slot `i` at `now`, or gives up on it.
    fn nak(&mut self, i: usize, now: f64) -> Result<()> {
        let (peer, layer) = (i / self.n_layers, i % self.n_layers);
        let Slot::Waiting { naks, .. } = self.slots[i] else {
            unreachable!("only a waiting slot is NAKed")
        };
        if naks == self.max_retries {
            let host = self.host;
            return Err(ClusterError::RetriesExhausted { host, peer, layer });
        }
        let deadline = now + self.window(naks + 1);
        self.slots[i] = Slot::Waiting {
            naks: naks + 1,
            deadline,
        };
        self.naks.push((peer, layer));
        Ok(())
    }
}

/// Counts `name` in the metrics registry; the unit tests also see it.
fn count(name: &'static str) {
    counters::bump(name);
    #[cfg(test)]
    tests::COUNTED.with(|counted| counted.borrow_mut().push(name));
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;

    thread_local! {
        /// The counters this test thread's inboxes bumped, in order.
        pub(super) static COUNTED: RefCell<Vec<&'static str>> = const { RefCell::new(Vec::new()) };
    }

    /// Takes what this thread's inboxes counted so far.
    fn counted() -> Vec<&'static str> {
        COUNTED.with(|counted| std::mem::take(&mut *counted.borrow_mut()))
    }

    const DELAY: f64 = 0.025;
    const DEDUP: &str = counters::RECOVERED_DEDUP;
    const CORRUPT: &str = counters::DETECTED_CORRUPT;
    const TIMEOUT: &str = counters::DETECTED_TIMEOUT;

    fn plan() -> FaultPlan {
        FaultPlan::parse("seed=5").unwrap()
    }

    fn inbox(max_retries: u32) -> Inbox<u32> {
        counted();
        let config = ClusterConfig {
            nak_delay: std::time::Duration::from_secs_f64(DELAY),
            max_retries,
            ..ClusterConfig::default()
        };
        Inbox::new(1, &plan(), config)
    }

    /// Host 1 of three hosts with two layers each, phase 4 open.
    fn open(max_retries: u32) -> Inbox<u32> {
        let mut inbox = inbox(max_retries);
        inbox.open(4, &Liveness::all(3), 2).unwrap();
        inbox
    }

    fn deadline(inbox: &Inbox<u32>, from: usize, layer: usize) -> Option<f64> {
        match inbox.slots[from * 2 + layer] {
            Slot::Waiting { deadline, .. } => Some(deadline),
            _ => None,
        }
    }

    /// The silence host 1 waits out in phase 4 before a slot's
    /// `naks + 1`-th NAK.
    fn window(naks: u32) -> f64 {
        nak_backoff_secs(&plan(), DELAY, 1, 4, naks)
    }

    fn naks(inbox: &mut Inbox<u32>) -> Vec<(usize, usize)> {
        inbox.naks().collect()
    }

    fn fill(inbox: &mut Inbox<u32>, slots: &[(usize, usize)]) {
        for &(from, layer) in slots {
            inbox.frame(from, layer, 4, Some(0), 0.0).unwrap();
        }
    }

    fn gave_up(peer: usize, layer: usize) -> ClusterError {
        ClusterError::RetriesExhausted {
            host: 1,
            peer,
            layer,
        }
    }

    #[test]
    fn whole_frames_fill_their_slots_and_complete_the_phase() {
        let mut inbox = open(3);
        inbox.frame(2, 1, 4, Some(7), 0.0).unwrap();
        assert!(!inbox.complete());
        fill(&mut inbox, &[(0, 0), (0, 1), (2, 0)]);
        assert!(inbox.complete());
        assert!(naks(&mut inbox).is_empty());
        assert!(counted().is_empty());
        assert_eq!(inbox.take(2, 1), Some(7));
        assert_eq!(inbox.take(2, 1), None, "taken once");
        assert!(inbox.complete());
    }

    #[test]
    fn a_copy_of_a_filled_slot_or_of_an_earlier_phase_is_a_duplicate() {
        let mut inbox = open(3);
        inbox.frame(0, 0, 4, Some(1), 0.0).unwrap();
        inbox.frame(0, 0, 4, Some(2), 0.0).unwrap();
        inbox.frame(0, 0, 4, None, 0.0).unwrap();
        assert_eq!(counted(), [DEDUP, DEDUP], "a filled slot's copies");
        assert_eq!(inbox.take(0, 0), Some(1), "the first copy stays");
        inbox.frame(2, 0, 3, Some(3), 0.0).unwrap();
        assert_eq!(counted(), [DEDUP], "a stale copy");
        assert_eq!(inbox.take(2, 0), None, "a stale copy fills nothing");
        inbox.frame(0, 0, 4, Some(2), 0.0).unwrap();
        assert_eq!(counted(), [DEDUP], "a taken slot stays filled");
        assert!(naks(&mut inbox).is_empty());
    }

    #[test]
    fn a_frame_from_a_dead_sender_is_discarded() {
        let mut live = Liveness::all(3);
        live.mark_dead(2);
        let mut inbox = inbox(3);
        inbox.open(4, &live, 2).unwrap();
        inbox.frame(2, 0, 4, Some(1), 0.0).unwrap();
        inbox.frame(2, 1, 4, None, 0.0).unwrap();
        assert!(counted().is_empty(), "neither a duplicate nor corrupt");
        assert_eq!(inbox.take(2, 0), None);
        inbox.expire(window(0)).unwrap();
        assert_eq!(
            naks(&mut inbox),
            [(0, 0), (0, 1)],
            "nothing is awaited from host 2"
        );
        fill(&mut inbox, &[(0, 0), (0, 1)]);
        assert!(inbox.complete());
    }

    #[test]
    fn a_later_phase_is_stashed_and_replayed_when_it_opens() {
        let mut inbox = open(3);
        inbox.frame(2, 1, 5, Some(9), 0.0).unwrap();
        inbox.frame(0, 0, 5, None, 0.0).unwrap();
        inbox.frame(0, 1, 6, Some(3), 0.0).unwrap();
        assert_eq!(inbox.take(2, 1), None);
        assert!(naks(&mut inbox).is_empty());
        assert!(counted().is_empty());
        inbox.open(5, &Liveness::all(3), 2).unwrap();
        assert_eq!(inbox.take(2, 1), Some(9));
        assert_eq!(
            naks(&mut inbox),
            [(0, 0)],
            "a corrupt one is NAKed at the open"
        );
        assert_eq!(counted(), [CORRUPT]);
        assert_eq!(inbox.take(0, 1), None, "phase 6's frame waits for phase 6");
        inbox.open(6, &Liveness::all(3), 2).unwrap();
        assert_eq!(inbox.take(0, 1), Some(3));
    }

    #[test]
    fn a_corrupt_frame_is_naked_at_once() {
        let mut inbox = open(3);
        inbox.frame(2, 1, 4, None, 0.001).unwrap();
        assert_eq!(naks(&mut inbox), [(2, 1)]);
        assert_eq!(counted(), [CORRUPT]);
        let restarted = 0.001 + window(1);
        assert_eq!(
            deadline(&inbox, 2, 1),
            Some(restarted),
            "its window restarts, longer"
        );
        assert_eq!(deadline(&inbox, 2, 0), Some(window(0)));
        inbox.frame(2, 1, 4, Some(5), 0.002).unwrap();
        assert_eq!(deadline(&inbox, 2, 1), None);
        assert_eq!(inbox.take(2, 1), Some(5));
        assert!(counted().is_empty());
    }

    #[test]
    fn a_silent_slot_is_naked_when_its_window_ends_and_the_window_grows() {
        let mut inbox = open(3);
        fill(&mut inbox, &[(0, 1), (2, 0), (2, 1)]);
        let first = window(0);
        inbox.expire(first - 1e-9).unwrap();
        assert!(naks(&mut inbox).is_empty(), "just below the window");
        inbox.expire(first).unwrap();
        assert_eq!(naks(&mut inbox), [(0, 0)]);
        assert_eq!(counted(), [TIMEOUT]);
        assert!(window(1) > window(0));
        let second = first + window(1);
        inbox.expire(second - 1e-9).unwrap();
        assert!(naks(&mut inbox).is_empty(), "the second window is longer");
        inbox.expire(second).unwrap();
        assert_eq!(naks(&mut inbox), [(0, 0)]);
        assert_eq!(counted(), [TIMEOUT]);
    }

    #[test]
    fn an_arrival_restarts_the_first_window_of_every_slot_not_yet_naked() {
        let mut inbox = open(3);
        let (corrupt, early, late) = (0.5 * window(0), 0.9 * window(0), 1.5 * window(0));
        inbox.frame(2, 0, 4, None, corrupt).unwrap();
        assert_eq!(naks(&mut inbox), [(2, 0)]);
        inbox.expire(early).unwrap();
        inbox.frame(0, 0, 4, Some(1), early).unwrap();
        inbox.expire(late).unwrap();
        assert!(naks(&mut inbox).is_empty(), "no slot waited a window");
        assert_eq!(counted(), [CORRUPT]);
        assert_eq!(deadline(&inbox, 0, 1), Some(early + window(0)));
        assert_eq!(
            deadline(&inbox, 2, 0),
            Some(corrupt + window(1)),
            "a NAKed slot keeps its own window"
        );
        inbox.expire(early + window(0)).unwrap();
        let due = naks(&mut inbox);
        assert!(due.contains(&(0, 1)) && due.contains(&(2, 1)), "{due:?}");
    }

    #[test]
    fn the_simulator_clock_runs_per_slot() {
        let mut inbox = open(3);
        assert_eq!(inbox.silence(0, 1), Ok(window(0)));
        assert_eq!(naks(&mut inbox), [(0, 1)], "the other slots keep waiting");
        assert_eq!(deadline(&inbox, 0, 0), Some(window(0)));
        assert_eq!(inbox.silence(0, 1), Ok(window(0) + window(1)));
        assert_eq!(counted(), [TIMEOUT, TIMEOUT]);
    }

    #[test]
    fn a_silent_slot_gives_up_after_max_retries_naks() {
        let mut inbox = open(2);
        fill(&mut inbox, &[(0, 0), (0, 1), (2, 0)]);
        let mut now = 0.0;
        for naks_so_far in 0..2 {
            now += window(naks_so_far);
            inbox.expire(now).unwrap();
            assert_eq!(naks(&mut inbox), [(2, 1)]);
        }
        now += window(2);
        assert_eq!(inbox.expire(now), Err(gave_up(2, 1)));
        assert!(naks(&mut inbox).is_empty(), "no NAK past the budget");
    }

    #[test]
    fn a_corrupted_slot_gives_up_after_max_retries_naks() {
        let mut inbox = open(2);
        for _ in 0..2 {
            inbox.frame(0, 1, 4, None, 0.0).unwrap();
        }
        assert_eq!(naks(&mut inbox), [(0, 1), (0, 1)]);
        let third = inbox.frame(0, 1, 4, None, 0.0);
        assert_eq!(third, Err(gave_up(0, 1)));
        assert_eq!(counted(), [CORRUPT; 3]);
    }

    #[test]
    fn silence_and_corruption_share_one_budget() {
        let mut inbox = open(2);
        inbox.frame(2, 0, 4, None, 0.0).unwrap();
        let silent = inbox.silence(2, 0).unwrap();
        assert_eq!(naks(&mut inbox), [(2, 0), (2, 0)]);
        assert_eq!(inbox.frame(2, 0, 4, None, silent), Err(gave_up(2, 0)));
    }
}
