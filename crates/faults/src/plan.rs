//! The seeded, deterministic fault plan.

use crate::counters;
use gw2v_util::rng::SplitMix64;
use std::fmt;

/// Domain-separation tags for the per-fault-kind decision streams.
const TAG_DROP: u64 = 0xD80F;
const TAG_FLIP: u64 = 0xF117;
const TAG_FLIP_POS: u64 = 0xF119;
const TAG_DUP: u64 = 0xD0B1;
const TAG_REORDER: u64 = 0x0EDE;
const TAG_BACKOFF: u64 = 0xBAC0;

/// Leading delivery attempts blocked on a partitioned channel.
///
/// A BSP round cannot advance while frames are withheld, so a partition's
/// in-round "duration" is modeled in *attempts*, not wall time: every
/// cross-group frame of an affected round is withheld for this many
/// delivery attempts and delivered by the NAK/resend loop afterwards.
/// Being a pure function of `(channel, round, attempt)`, the healing
/// point is identical in the simulator and the threaded cluster, and the
/// stall can never deadlock the lockstep protocol.
pub const PARTITION_STALL_ATTEMPTS: u32 = 2;

/// What the fault plan does to one delivery attempt of a data frame
/// ([`FaultPlan::attempt`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Attempt {
    /// Withheld by a stall-mode partition; the receiver times out.
    Partitioned,
    /// Withheld by the drop coin; the receiver times out.
    Dropped,
    /// Delivered with this bit of the sealed frame flipped; the
    /// receiver's CRC check fails.
    Flipped(usize),
    /// Delivered intact — a second time too when `twice`, which the
    /// receiver's dedup discards.
    Delivered {
        /// The dup coin came up.
        twice: bool,
    },
}

/// Crash `host` at the start of global sync round `round`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CrashSpec {
    /// Host to kill.
    pub host: usize,
    /// Global round index (`epoch · sync_rounds + s`) at whose start the
    /// host dies, before computing or sending anything.
    pub round: usize,
}

/// Delay `host`'s compute phase in global sync round `round`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct StragglerSpec {
    /// Host to slow down.
    pub host: usize,
    /// Global round index the delay applies to.
    pub round: usize,
    /// Added compute time in seconds (a real sleep on the threaded
    /// engine, virtual seconds on the BSP simulator).
    pub delay_secs: f64,
}

/// Re-admit crashed `host` at the start of epoch `epoch`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RejoinSpec {
    /// Host to bring back.
    pub host: usize,
    /// Epoch at whose start the host rejoins. The rejoin is ignored if
    /// the host is still alive then (it never crashed, or crashed later).
    pub epoch: usize,
}

/// A network partition: hosts in `group_a` and hosts in `group_b`
/// cannot exchange data frames for global rounds `from_round ..
/// to_round` (half-open). Hosts listed in neither group reach both
/// sides. Control traffic (NAKs, out-of-band state transfer) still
/// crosses — like drops, the partition models a lossy data path, not a
/// severed control plane.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PartitionSpec {
    /// One side of the split.
    pub group_a: Vec<usize>,
    /// The other side. On degrade-mode conversion the smaller group
    /// goes dormant; `group_b` yields on a size tie.
    pub group_b: Vec<usize>,
    /// First global round the split is active in.
    pub from_round: usize,
    /// First global round after the heal (exclusive bound).
    pub to_round: usize,
}

impl PartitionSpec {
    /// Round range covered by this spec.
    pub(crate) fn covers(&self, round: usize) -> bool {
        (self.from_round..self.to_round).contains(&round)
    }

    /// True if `from` and `to` sit on opposite sides of the split.
    pub(crate) fn severs(&self, from: usize, to: usize) -> bool {
        (self.group_a.contains(&from) && self.group_b.contains(&to))
            || (self.group_b.contains(&from) && self.group_a.contains(&to))
    }

    /// The side that goes dormant under degrade-mode conversion: the
    /// smaller group, with `group_b` yielding on a size tie.
    pub(crate) fn dormant_side(&self) -> &[usize] {
        if self.group_a.len() < self.group_b.len() {
            &self.group_a
        } else {
            &self.group_b
        }
    }
}

/// What a distributed trainer does when a fault plan partitions the
/// cluster. Selected per run (`--on-partition`), not per plan: the same
/// plan replays under either policy.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum OnPartition {
    /// Stall: affected rounds block on the NAK/resend loop until the
    /// partition's attempt-indexed healing point
    /// ([`PARTITION_STALL_ATTEMPTS`]). Preserves bit-identity with
    /// partition-free behavior — the model never sees the fault.
    #[default]
    Stall,
    /// Degrade: the partition's yielding side goes dormant-unreachable
    /// at `from_round` (synthesized crash, adoption-map takeover) and
    /// heals through the rejoin/state-transfer path at the first epoch
    /// boundary at or after `to_round` — unless the partition outlives
    /// the staleness bound, in which case that spec falls back to stall.
    Degrade,
}

impl OnPartition {
    /// Parses the `--on-partition` argument.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "stall" => Some(Self::Stall),
            "degrade" => Some(Self::Degrade),
            _ => None,
        }
    }
}

impl fmt::Display for OnPartition {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Self::Stall => "stall",
            Self::Degrade => "degrade",
        })
    }
}

/// A deterministic, seeded schedule of faults to inject into a
/// distributed training run.
///
/// All stochastic decisions (drops, flips) are pure functions of
/// `(seed, message coordinates, attempt)` — hashed, not drawn from a
/// stateful stream — so they are independent of query order, thread
/// interleaving and wall-clock time. Two runs with the same plan inject
/// byte-identical faults.
#[derive(Clone, Debug, PartialEq)]
pub struct FaultPlan {
    /// Seed for the drop/flip decision hashes.
    pub seed: u64,
    /// Per-message, per-attempt drop probability in `[0, 1]`.
    pub drop_p: f64,
    /// Per-message, per-attempt bit-flip probability in `[0, 1]`.
    pub flip_p: f64,
    /// Scheduled host crashes.
    pub crashes: Vec<CrashSpec>,
    /// Scheduled straggler delays.
    pub stragglers: Vec<StragglerSpec>,
    /// Scheduled crashed-host re-admissions.
    pub rejoins: Vec<RejoinSpec>,
    /// Scheduled network partitions.
    pub partitions: Vec<PartitionSpec>,
    /// Per-delivered-frame duplication probability in `[0, 1]`: a clean
    /// delivery is delivered a second time, exercising the receiver's
    /// attempt-dedup path.
    pub dup_p: f64,
    /// Per-message send-reorder probability in `[0, 1]`: the sender
    /// defers the frame to the end of its phase's send sequence,
    /// shuffling per-channel delivery order.
    pub reorder_p: f64,
    /// Stop the whole training process after this epoch completes (and
    /// checkpoints) — the injector's stand-in for SIGKILL in
    /// checkpoint/resume tests.
    pub kill_after_epoch: Option<usize>,
}

/// A fault-plan spec string that could not be parsed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlanParseError {
    /// A directive word that names no known fault family — a typo like
    /// `dorp=0.1` must fail loudly, never silently inject nothing.
    UnknownDirective(String),
    /// A known directive whose value does not fit its grammar.
    Malformed(String),
}

impl PlanParseError {
    fn malformed(msg: impl Into<String>) -> Self {
        Self::Malformed(msg.into())
    }
}

impl fmt::Display for PlanParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::UnknownDirective(word) => {
                write!(f, "bad fault plan: unknown directive {word:?}")
            }
            Self::Malformed(msg) => write!(f, "bad fault plan: {msg}"),
        }
    }
}

impl std::error::Error for PlanParseError {}

impl Default for FaultPlan {
    fn default() -> Self {
        Self::none()
    }
}

impl FaultPlan {
    /// The inert plan: injects nothing, costs nothing.
    pub fn none() -> Self {
        Self {
            seed: 0,
            drop_p: 0.0,
            flip_p: 0.0,
            crashes: Vec::new(),
            stragglers: Vec::new(),
            rejoins: Vec::new(),
            partitions: Vec::new(),
            dup_p: 0.0,
            reorder_p: 0.0,
            kill_after_epoch: None,
        }
    }

    /// True when the plan injects no fault of any kind. Engines use this
    /// to skip the fault paths entirely, keeping faultless runs
    /// bit-identical to a build without the fault subsystem.
    pub fn is_inert(&self) -> bool {
        self.drop_p == 0.0
            && self.flip_p == 0.0
            && self.crashes.is_empty()
            && self.stragglers.is_empty()
            && self.rejoins.is_empty()
            && self.partitions.is_empty()
            && self.dup_p == 0.0
            && self.reorder_p == 0.0
            && self.kill_after_epoch.is_none()
    }

    /// Order-independent decision hash over the given coordinates.
    fn hash(&self, tag: u64, words: [u64; 5]) -> u64 {
        let mut h = SplitMix64::new(self.seed).derive(tag);
        for w in words {
            h = SplitMix64::new(h).derive(w);
        }
        h
    }

    /// Uniform `[0, 1)` coin for the given coordinates.
    fn coin(&self, tag: u64, words: [u64; 5]) -> f64 {
        (self.hash(tag, words) >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// What the plan does to delivery attempt `attempt` of the
    /// `(from → to, layer)` data frame of phase `seq` in global round
    /// `round`, `frame_len` (> 0) bytes sealed. The one injector both cluster
    /// engines consult: the threaded transport acts on the answer, the
    /// simulator's mailboxes count it.
    ///
    /// `seq` is the global phase sequence number and `attempt` counts
    /// retransmissions, so a withheld frame's resend draws fresh coins
    /// and bounded-retry recovery terminates with probability 1. The
    /// coins are drawn in a fixed order — partition, heal, drop, flip,
    /// dup — and each injected fault is counted here, as is a partitioned
    /// channel's heal: at its first unblocked attempt, whatever the drop
    /// coin then does to that attempt.
    #[allow(clippy::too_many_arguments)]
    pub fn attempt(
        &self,
        from: usize,
        to: usize,
        layer: usize,
        seq: u64,
        round: usize,
        attempt: u32,
        frame_len: usize,
    ) -> Attempt {
        if self.partition_blocked(from, to, round, attempt) {
            counters::bump(counters::INJECTED_PARTITION);
            return Attempt::Partitioned;
        }
        if attempt > 0 && self.partition_blocked(from, to, round, attempt - 1) {
            counters::bump(counters::RECOVERED_HEAL);
        }
        if self.should_drop(from, to, layer, seq, attempt) {
            counters::bump(counters::INJECTED_DROP);
            return Attempt::Dropped;
        }
        let words = [from as u64, to as u64, layer as u64, seq, attempt as u64];
        if self.flip_p > 0.0 && self.coin(TAG_FLIP, words) < self.flip_p {
            counters::bump(counters::INJECTED_FLIP);
            let bit = self.hash(TAG_FLIP_POS, words) % (frame_len as u64 * 8);
            return Attempt::Flipped(bit as usize);
        }
        // Only a clean delivery is duplicated: the copy's bytes are the
        // same, so the receiver's dedup keeps model bits unchanged.
        let twice = self.dup_p > 0.0 && self.coin(TAG_DUP, words) < self.dup_p;
        if twice {
            counters::bump(counters::INJECTED_DUP);
        }
        Attempt::Delivered { twice }
    }

    /// Should the `(from → to, layer)` send of phase `seq` be deferred to
    /// the end of its phase's send sequence? Counted when it is. Receivers
    /// fold in canonical host-id order, so reordering cannot change model
    /// bits.
    pub fn reorder(&self, from: usize, to: usize, layer: usize, seq: u64) -> bool {
        let defer = self.reorder_p > 0.0
            && self.coin(TAG_REORDER, [from as u64, to as u64, layer as u64, seq, 0])
                < self.reorder_p;
        if defer {
            counters::bump(counters::INJECTED_REORDER);
        }
        defer
    }

    /// The drop coin of one delivery attempt ([`FaultPlan::attempt`]'s
    /// third draw).
    pub fn should_drop(
        &self,
        from: usize,
        to: usize,
        layer: usize,
        seq: u64,
        attempt: u32,
    ) -> bool {
        self.drop_p > 0.0
            && self.coin(
                TAG_DROP,
                [from as u64, to as u64, layer as u64, seq, attempt as u64],
            ) < self.drop_p
    }

    /// The global round at whose start `host` crashes, if scheduled.
    pub fn crash_round(&self, host: usize) -> Option<usize> {
        self.crashes
            .iter()
            .filter(|c| c.host == host)
            .map(|c| c.round)
            .min()
    }

    /// The epoch at whose start crashed `host` rejoins, if scheduled.
    pub fn rejoin_epoch(&self, host: usize) -> Option<usize> {
        self.rejoins
            .iter()
            .filter(|r| r.host == host)
            .map(|r| r.epoch)
            .min()
    }

    /// The straggler delay (seconds) for `host` in global round `round`.
    pub fn straggler_delay(&self, host: usize, round: usize) -> Option<f64> {
        let total: f64 = self
            .stragglers
            .iter()
            .filter(|s| s.host == host && s.round == round)
            .map(|s| s.delay_secs)
            .sum();
        (total > 0.0).then_some(total)
    }

    /// Is delivery attempt `attempt` of a `from → to` frame in global
    /// round `round` withheld by a partition? A covering spec that severs
    /// the pair withholds the first [`PARTITION_STALL_ATTEMPTS`].
    fn partition_blocked(&self, from: usize, to: usize, round: usize, attempt: u32) -> bool {
        attempt < PARTITION_STALL_ATTEMPTS
            && self
                .partitions
                .iter()
                .any(|p| p.covers(round) && p.severs(from, to))
    }

    /// Deterministic `[0, 1)` jitter for NAK-backoff schedules: a pure
    /// function of `(seed, waiter, seq, nak_round)`, so the simulator
    /// and the threaded engine draw identical backoff schedules.
    pub fn backoff_jitter(&self, waiter: usize, seq: u64, nak_round: u32) -> f64 {
        self.coin(TAG_BACKOFF, [waiter as u64, seq, nak_round as u64, 0, 0])
    }

    /// Degrade-mode plan rewrite: every partition spec whose round-range
    /// duration fits `max_stale_rounds` is converted into a synthesized
    /// crash of its `PartitionSpec::dormant_side` at `from_round` plus
    /// a rejoin at the first epoch boundary at or after `to_round`
    /// (`ceil(to_round / sync_rounds)`), so the dormant side heals
    /// through the existing rejoin/state-transfer machinery. Specs that
    /// outlive the bound are kept and fall back to stall blocking.
    ///
    /// Returns the rewritten plan and the converted specs (for
    /// partition-event counters). The rewrite is a pure function of the
    /// plan and the bounds, so both engines derive the same schedule.
    pub fn degrade_partitions(
        &self,
        max_stale_rounds: usize,
        sync_rounds: usize,
    ) -> (FaultPlan, Vec<PartitionSpec>) {
        let mut out = self.clone();
        out.partitions.clear();
        let mut converted = Vec::new();
        for spec in &self.partitions {
            if spec.to_round - spec.from_round > max_stale_rounds {
                out.partitions.push(spec.clone());
                continue;
            }
            let heal_epoch = spec.to_round.div_ceil(sync_rounds.max(1));
            for &host in spec.dormant_side() {
                out.crashes.push(CrashSpec {
                    host,
                    round: spec.from_round,
                });
                out.rejoins.push(RejoinSpec {
                    host,
                    epoch: heal_epoch,
                });
            }
            converted.push(spec.clone());
        }
        (out, converted)
    }

    /// Parses a compact spec string:
    ///
    /// ```text
    /// seed=42,drop=0.02,flip=0.001,crash=1@3,straggle=2@1x50ms,
    /// partition=0.1|2@2..4,dup=0.05,reorder=0.2,kill=2
    /// ```
    ///
    /// `crash`, `straggle`, `rejoin` (`rejoin=H@E`, epoch granularity)
    /// and `partition` (`partition=A|B@r..r'`, groups as `.`-separated
    /// host lists, half-open round range) entries may repeat; `straggle`
    /// delays take a `ms` or `s` suffix. An unknown directive word is a
    /// typed error ([`PlanParseError::UnknownDirective`]). An empty
    /// string is the inert plan.
    pub fn parse(spec: &str) -> Result<Self, PlanParseError> {
        let mut plan = Self::none();
        for part in spec.split(',').map(str::trim).filter(|p| !p.is_empty()) {
            let (key, value) = part
                .split_once('=')
                .ok_or_else(|| PlanParseError::malformed(format!("{part:?} is not key=value")))?;
            match key {
                "seed" => plan.seed = parse_num(key, value)?,
                "drop" => plan.drop_p = parse_prob(key, value)?,
                "flip" => plan.flip_p = parse_prob(key, value)?,
                "dup" => plan.dup_p = parse_prob(key, value)?,
                "reorder" => plan.reorder_p = parse_prob(key, value)?,
                "kill" => plan.kill_after_epoch = Some(parse_num(key, value)?),
                "crash" => {
                    let (host, round) = value.split_once('@').ok_or_else(|| {
                        PlanParseError::malformed(format!("crash={value:?}: want H@R"))
                    })?;
                    plan.crashes.push(CrashSpec {
                        host: parse_num("crash host", host)?,
                        round: parse_num("crash round", round)?,
                    });
                }
                "straggle" => {
                    let (host, rest) = value.split_once('@').ok_or_else(|| {
                        PlanParseError::malformed(format!("straggle={value:?}: want H@RxDELAY"))
                    })?;
                    let (round, delay) = rest.split_once('x').ok_or_else(|| {
                        PlanParseError::malformed(format!("straggle={value:?}: want H@RxDELAY"))
                    })?;
                    plan.stragglers.push(StragglerSpec {
                        host: parse_num("straggle host", host)?,
                        round: parse_num("straggle round", round)?,
                        delay_secs: parse_delay(delay)?,
                    });
                }
                "rejoin" => {
                    let (host, epoch) = value.split_once('@').ok_or_else(|| {
                        PlanParseError::malformed(format!("rejoin={value:?}: want H@E"))
                    })?;
                    plan.rejoins.push(RejoinSpec {
                        host: parse_num("rejoin host", host)?,
                        epoch: parse_num("rejoin epoch", epoch)?,
                    });
                }
                "partition" => plan.partitions.push(parse_partition(value)?),
                other => return Err(PlanParseError::UnknownDirective(other.to_owned())),
            }
        }
        Ok(plan)
    }

    /// Reads the plan from the `GW2V_FAULT_PLAN` environment variable;
    /// unset or empty means the inert plan.
    pub fn from_env() -> Result<Self, PlanParseError> {
        match std::env::var("GW2V_FAULT_PLAN") {
            Ok(spec) => Self::parse(&spec),
            Err(_) => Ok(Self::none()),
        }
    }
}

impl std::str::FromStr for FaultPlan {
    type Err = PlanParseError;

    fn from_str(spec: &str) -> Result<Self, Self::Err> {
        Self::parse(spec)
    }
}

impl fmt::Display for FaultPlan {
    /// Formats the plan back into its [`FaultPlan::parse`] spec form.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut parts = vec![format!("seed={}", self.seed)];
        if self.drop_p > 0.0 {
            parts.push(format!("drop={}", self.drop_p));
        }
        if self.flip_p > 0.0 {
            parts.push(format!("flip={}", self.flip_p));
        }
        for c in &self.crashes {
            parts.push(format!("crash={}@{}", c.host, c.round));
        }
        for s in &self.stragglers {
            parts.push(format!(
                "straggle={}@{}x{}ms",
                s.host,
                s.round,
                s.delay_secs * 1e3
            ));
        }
        for r in &self.rejoins {
            parts.push(format!("rejoin={}@{}", r.host, r.epoch));
        }
        for p in &self.partitions {
            parts.push(format!(
                "partition={}|{}@{}..{}",
                fmt_group(&p.group_a),
                fmt_group(&p.group_b),
                p.from_round,
                p.to_round
            ));
        }
        if self.dup_p > 0.0 {
            parts.push(format!("dup={}", self.dup_p));
        }
        if self.reorder_p > 0.0 {
            parts.push(format!("reorder={}", self.reorder_p));
        }
        if let Some(e) = self.kill_after_epoch {
            parts.push(format!("kill={e}"));
        }
        f.write_str(&parts.join(","))
    }
}

fn fmt_group(hosts: &[usize]) -> String {
    hosts
        .iter()
        .map(usize::to_string)
        .collect::<Vec<_>>()
        .join(".")
}

fn parse_num<T: std::str::FromStr>(key: &str, value: &str) -> Result<T, PlanParseError> {
    value
        .parse()
        .map_err(|_| PlanParseError::malformed(format!("{key}: cannot parse {value:?}")))
}

fn parse_prob(key: &str, value: &str) -> Result<f64, PlanParseError> {
    let p: f64 = parse_num(key, value)?;
    if !(0.0..=1.0).contains(&p) {
        return Err(PlanParseError::malformed(format!(
            "{key}={p} outside [0, 1]"
        )));
    }
    Ok(p)
}

fn parse_delay(value: &str) -> Result<f64, PlanParseError> {
    if let Some(ms) = value.strip_suffix("ms") {
        Ok(parse_num::<f64>("straggle delay", ms)? / 1e3)
    } else if let Some(s) = value.strip_suffix('s') {
        parse_num("straggle delay", s)
    } else {
        Err(PlanParseError::malformed(format!(
            "straggle delay {value:?}: want e.g. 50ms or 0.05s"
        )))
    }
}

fn parse_group(key: &str, value: &str) -> Result<Vec<usize>, PlanParseError> {
    let hosts: Vec<usize> = value
        .split('.')
        .map(|h| parse_num(key, h))
        .collect::<Result<_, _>>()?;
    if hosts.is_empty() {
        return Err(PlanParseError::malformed(format!("{key}: empty group")));
    }
    Ok(hosts)
}

/// Parses `A|B@r..r'` — `.`-separated host groups, half-open round range.
fn parse_partition(value: &str) -> Result<PartitionSpec, PlanParseError> {
    let want = || PlanParseError::malformed(format!("partition={value:?}: want A|B@r..r'"));
    let (groups, range) = value.split_once('@').ok_or_else(want)?;
    let (a, b) = groups.split_once('|').ok_or_else(want)?;
    let (from, to) = range.split_once("..").ok_or_else(want)?;
    let spec = PartitionSpec {
        group_a: parse_group("partition group", a)?,
        group_b: parse_group("partition group", b)?,
        from_round: parse_num("partition start round", from)?,
        to_round: parse_num("partition end round", to)?,
    };
    if spec.from_round >= spec.to_round {
        return Err(PlanParseError::malformed(format!(
            "partition={value:?}: empty round range"
        )));
    }
    if spec.group_a.iter().any(|h| spec.group_b.contains(h)) {
        return Err(PlanParseError::malformed(format!(
            "partition={value:?}: groups overlap"
        )));
    }
    Ok(spec)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chaos() -> FaultPlan {
        FaultPlan::parse(
            "seed=42,drop=0.02,flip=0.001,crash=1@3,straggle=2@1x50ms,rejoin=1@2,\
             partition=0.1|2@2..4,dup=0.05,reorder=0.2,kill=2",
        )
        .unwrap()
    }

    #[test]
    fn parse_full_spec() {
        let p = chaos();
        assert_eq!(p.seed, 42);
        assert_eq!(p.drop_p, 0.02);
        assert_eq!(p.flip_p, 0.001);
        assert_eq!(p.crashes, vec![CrashSpec { host: 1, round: 3 }]);
        assert_eq!(p.stragglers.len(), 1);
        assert_eq!(p.stragglers[0].host, 2);
        assert_eq!(p.stragglers[0].round, 1);
        assert!((p.stragglers[0].delay_secs - 0.05).abs() < 1e-12);
        assert_eq!(p.rejoins, vec![RejoinSpec { host: 1, epoch: 2 }]);
        assert_eq!(
            p.partitions,
            vec![PartitionSpec {
                group_a: vec![0, 1],
                group_b: vec![2],
                from_round: 2,
                to_round: 4,
            }]
        );
        assert_eq!(p.dup_p, 0.05);
        assert_eq!(p.reorder_p, 0.2);
        assert_eq!(p.kill_after_epoch, Some(2));
        assert!(!p.is_inert());
    }

    #[test]
    fn partition_blocking_is_round_and_group_scoped() {
        let p = chaos();
        // Cross-group channels block their leading attempts in covered
        // rounds only; same-group and out-of-range traffic is untouched.
        assert!(p.partition_blocked(0, 2, 2, 0));
        assert!(p.partition_blocked(2, 1, 3, PARTITION_STALL_ATTEMPTS - 1));
        assert!(!p.partition_blocked(0, 2, 2, PARTITION_STALL_ATTEMPTS));
        assert!(!p.partition_blocked(0, 1, 2, 0), "same group");
        assert!(!p.partition_blocked(0, 2, 1, 0), "before the split");
        assert!(!p.partition_blocked(0, 2, 4, 0), "healed");
    }

    fn heals() -> u64 {
        gw2v_obs::snapshot()
            .counters
            .get(counters::RECOVERED_HEAL)
            .copied()
            .unwrap_or(0)
    }

    #[test]
    fn attempt_draws_partition_then_drop_then_flip() {
        let p = FaultPlan::parse("seed=3,partition=0|1@0..1,drop=1,flip=1").unwrap();
        let at = |from, to, round, attempt| p.attempt(from, to, 0, 1, round, attempt, 64);
        assert_eq!(
            at(0, 1, 0, 0),
            Attempt::Partitioned,
            "partition before drop"
        );
        assert_eq!(at(1, 0, 0, 1), Attempt::Partitioned);
        assert_eq!(at(0, 2, 0, 0), Attempt::Dropped, "unsevered: drop");
        assert_eq!(at(0, 1, 1, 0), Attempt::Dropped, "uncovered round: drop");
        let flips = FaultPlan {
            drop_p: 0.0,
            ..p.clone()
        };
        assert!(
            matches!(flips.attempt(0, 2, 0, 1, 0, 0, 64), Attempt::Flipped(bit) if bit < 64 * 8),
            "drop before flip"
        );
    }

    #[test]
    fn a_heal_counts_at_the_first_unblocked_attempt_even_when_dropped() {
        gw2v_obs::set_enabled(true);
        let p = FaultPlan::parse("seed=3,partition=0|1@0..1,drop=1").unwrap();
        let before = heals();
        let attempts: Vec<Attempt> = (0..=PARTITION_STALL_ATTEMPTS + 1)
            .map(|a| p.attempt(0, 1, 0, 1, 0, a, 64))
            .collect();
        assert_eq!(
            attempts,
            [
                Attempt::Partitioned,
                Attempt::Partitioned,
                Attempt::Dropped,
                Attempt::Dropped
            ]
        );
        assert_eq!(heals() - before, 1, "one heal, at attempt 2");
    }

    #[test]
    fn twice_comes_only_with_a_clean_delivery() {
        let p = FaultPlan::parse("seed=3,dup=1").unwrap();
        assert_eq!(
            p.attempt(0, 1, 0, 1, 0, 0, 64),
            Attempt::Delivered { twice: true }
        );
        for withheld in ["seed=3,dup=1,drop=1", "seed=3,dup=1,flip=1"] {
            let p = FaultPlan::parse(withheld).unwrap();
            let a = p.attempt(0, 1, 0, 1, 0, 0, 64);
            assert!(!matches!(a, Attempt::Delivered { .. }), "{withheld}: {a:?}");
        }
        assert_eq!(
            FaultPlan::none().attempt(0, 1, 0, 1, 0, 0, 64),
            Attempt::Delivered { twice: false }
        );
    }

    #[test]
    fn degrade_converts_within_staleness_bound() {
        let p = chaos();
        // Duration 2 fits the bound: minority host 2 crashes at round 2
        // and rejoins at ceil(4 / 2) = epoch 2.
        let (eff, converted) = p.degrade_partitions(8, 2);
        assert_eq!(converted.len(), 1);
        assert!(eff.partitions.is_empty());
        assert_eq!(eff.crash_round(2), Some(2));
        assert_eq!(eff.rejoin_epoch(2), Some(2));
        // Original crash/rejoin entries survive the rewrite.
        assert_eq!(eff.crash_round(1), Some(3));
        assert_eq!(eff.rejoin_epoch(1), Some(2));
        // A partition longer than the bound falls back to stall.
        let (eff, converted) = p.degrade_partitions(1, 2);
        assert!(converted.is_empty());
        assert_eq!(eff, p);
    }

    #[test]
    fn dup_and_reorder_coins_are_pure_and_track_probability() {
        let p = FaultPlan {
            dup_p: 0.1,
            reorder_p: 0.3,
            seed: 11,
            ..FaultPlan::none()
        };
        let n = 100_000u64;
        let dup = |s, attempt| {
            p.attempt(0, 1, 0, s, 0, attempt, 64) == Attempt::Delivered { twice: true }
        };
        let dups = (0..n).filter(|&s| dup(s, 0)).count();
        let reorders = (0..n).filter(|&s| p.reorder(0, 1, 0, s)).count();
        assert!((dups as f64 / n as f64 - 0.1).abs() < 0.01, "{dups}");
        assert!(
            (reorders as f64 / n as f64 - 0.3).abs() < 0.01,
            "{reorders}"
        );
        assert_eq!(dup(7, 1), dup(7, 1));
        assert!(!FaultPlan::none().reorder(0, 1, 0, 7));
    }

    #[test]
    fn backoff_jitter_is_pure_and_in_range() {
        let p = chaos();
        for nr in 0..8 {
            let j = p.backoff_jitter(1, 5, nr);
            assert!((0.0..1.0).contains(&j));
            assert_eq!(j, p.backoff_jitter(1, 5, nr));
        }
    }

    #[test]
    fn rejoin_lookup_and_inertness() {
        let p = chaos();
        assert_eq!(p.rejoin_epoch(1), Some(2));
        assert_eq!(p.rejoin_epoch(0), None);
        let only_rejoin = FaultPlan::parse("rejoin=2@1").unwrap();
        assert!(!only_rejoin.is_inert());
        // Repeats resolve to the earliest epoch.
        let multi = FaultPlan::parse("rejoin=2@4,rejoin=2@1").unwrap();
        assert_eq!(multi.rejoin_epoch(2), Some(1));
    }

    #[test]
    fn display_roundtrips() {
        let p = chaos();
        assert_eq!(FaultPlan::parse(&p.to_string()).unwrap(), p);
        let inert = FaultPlan::none();
        assert_eq!(FaultPlan::parse(&inert.to_string()).unwrap(), inert);
    }

    #[test]
    fn empty_spec_is_inert() {
        assert!(FaultPlan::parse("").unwrap().is_inert());
        assert!(FaultPlan::none().is_inert());
    }

    #[test]
    fn bad_specs_rejected() {
        for bad in [
            "nonsense",
            "drop=2.0",
            "drop=-0.1",
            "crash=1",
            "straggle=1@2",
            "straggle=1@2x50",
            "rejoin=1",
            "rejoin=x@2",
            "frobnicate=1",
            "dup=1.5",
            "reorder=-0.2",
            "partition=0|1",
            "partition=0.1@2..4",
            "partition=0|1@4..2",
            "partition=0|1@3..3",
            "partition=0.1|1.2@0..2",
            "partition=|1@0..2",
        ] {
            assert!(FaultPlan::parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn unknown_directives_are_typed_errors() {
        // A typo like `dorp=` must surface as UnknownDirective, never be
        // silently ignored and inject nothing.
        for (spec, word) in [
            ("dorp=0.1", "dorp"),
            ("seed=1,partitoin=0|1@0..2", "partitoin"),
        ] {
            match FaultPlan::parse(spec) {
                Err(PlanParseError::UnknownDirective(w)) => assert_eq!(w, word),
                other => panic!("{spec:?}: expected UnknownDirective, got {other:?}"),
            }
        }
        assert!(matches!(
            FaultPlan::parse("drop=oops"),
            Err(PlanParseError::Malformed(_))
        ));
    }

    #[test]
    fn decisions_are_pure_functions() {
        let p = chaos();
        for seq in 0..64u64 {
            for attempt in 0..3 {
                assert_eq!(
                    p.should_drop(0, 1, 0, seq, attempt),
                    p.should_drop(0, 1, 0, seq, attempt)
                );
                assert_eq!(
                    p.attempt(0, 1, 0, seq, 0, attempt, 100),
                    p.attempt(0, 1, 0, seq, 0, attempt, 100)
                );
            }
        }
    }

    #[test]
    fn drop_rate_tracks_probability() {
        let p = FaultPlan {
            drop_p: 0.1,
            seed: 7,
            ..FaultPlan::none()
        };
        let n = 100_000u64;
        let hits = (0..n).filter(|&seq| p.should_drop(0, 1, 0, seq, 0)).count();
        let rate = hits as f64 / n as f64;
        assert!((rate - 0.1).abs() < 0.01, "observed {rate}");
    }

    #[test]
    fn attempts_get_independent_coins() {
        // A message dropped at attempt 0 must not be doomed forever:
        // across many dropped messages, attempt 1 must usually survive.
        let p = FaultPlan {
            drop_p: 0.5,
            seed: 3,
            ..FaultPlan::none()
        };
        let dropped: Vec<u64> = (0..10_000)
            .filter(|&s| p.should_drop(0, 1, 0, s, 0))
            .collect();
        assert!(!dropped.is_empty());
        let still = dropped
            .iter()
            .filter(|&&s| p.should_drop(0, 1, 0, s, 1))
            .count();
        let rate = still as f64 / dropped.len() as f64;
        assert!((rate - 0.5).abs() < 0.05, "attempt-1 drop rate {rate}");
    }

    #[test]
    fn flip_bit_in_range_and_inert_without_prob() {
        let p = FaultPlan {
            flip_p: 1.0,
            seed: 9,
            ..FaultPlan::none()
        };
        for seq in 0..100 {
            let flipped = p.attempt(1, 0, 1, seq, 0, 0, 16);
            assert!(matches!(flipped, Attempt::Flipped(bit) if bit < 16 * 8));
        }
        let clean = FaultPlan::none().attempt(1, 0, 1, 0, 0, 0, 16);
        assert_eq!(clean, Attempt::Delivered { twice: false });
    }

    #[test]
    fn crash_and_straggle_lookup() {
        let p = chaos();
        assert_eq!(p.crash_round(1), Some(3));
        assert_eq!(p.crash_round(0), None);
        assert_eq!(p.straggler_delay(2, 1), Some(0.05));
        assert_eq!(p.straggler_delay(2, 2), None);
        assert_eq!(p.straggler_delay(1, 1), None);
    }
}
