//! # gw2v-core
//!
//! GraphWord2Vec: Skip-Gram-with-Negative-Sampling (SGNS) training
//! formulated as a distributed graph problem (Gill et al., IPDPS 2021).
//!
//! Vocabulary words are graph nodes carrying two vector labels — the
//! embedding layer `syn0` and the training layer `syn1neg` (paper §2.1,
//! Fig. 1). Training pairs are edges generated on the fly from the
//! corpus. Distributed execution replicates the model on every host
//! (paper §4.2), trains each host on its contiguous corpus shard, and
//! reconciles replicas every synchronization round through the Gluon
//! substrate with the *model combiner* reduction (paper §3).
//!
//! Modules:
//!
//! * [`params`] — hyperparameters (paper §5.1 defaults) and the
//!   distributed-run configuration.
//! * [`model`] — model storage, initialization and (text-format) I/O.
//! * [`sgns`] — the SGNS training operator, written once and reused by
//!   every trainer through [`sgns::SgnsStore`], the one row interface of
//!   both SGNS loops (per-pair and HogBatch); also the access-recording
//!   store that implements PullModel's inspection phase.
//! * [`schedule`] — the linear learning-rate decay of the C code.
//! * `trainer_shared` (private) — the shared-memory epoch loop, written
//!   once; the next four modules are presets over it, each fixing where
//!   the model lives, the sentence step and the worker count. Its `Step`
//!   is the one sentence dispatcher, of these trainers and of both
//!   cluster engines.
//! * [`trainer_seq`] — sequential shared-memory baseline ("W2V").
//! * [`trainer_hogwild`] — multi-threaded Hogwild baseline (racy relaxed
//!   atomics, paper §2.3), and the atomic model storage and per-thread
//!   store both racing trainers use.
//! * [`trainer_batched`] — sentence-batched variant standing in for
//!   Gensim ("GEN" in the paper's tables).
//! * [`trainer_hogbatch`] — shared-negative minibatch trainer (HogBatch,
//!   Ji et al.): one dispatched `sgns_window` kernel call per window,
//!   reading and updating the rows in place, plus the [`trainer_hogbatch::SgnsMode`]
//!   switch that lets the distributed/threaded engines run the same loop.
//! * `host` (private) — one host's side of a distributed epoch, written
//!   once: per-round chunk training of the own shard and of adopted
//!   wards, ward adoption, PullModel inspection and checkpoint restore.
//!   The next two modules drive it.
//! * [`distributed`] — the GraphWord2Vec engine (Algorithm 1) as a BSP
//!   simulator: compute + synchronize loop, virtual-time accounting,
//!   fault injection/recovery and checkpoint/resume (DESIGN.md §3d).
//! * [`trainer_threaded`] — the same distributed protocol run on the
//!   gw2v-gluon threaded cluster (one OS thread per host), with the same
//!   fault-tolerance guarantees executed for real.
//! * [`checkpoint`] — epoch-boundary training snapshots for
//!   kill/resume: bit-exact, CRC-guarded, atomically written.
//! * [`loss`] — negative-sampling loss estimation for monitoring.

#![warn(missing_docs)]

pub mod checkpoint;
pub mod distributed;
mod host;
pub mod loss;
pub mod model;
pub mod params;
pub mod schedule;
pub mod setup;
pub mod sgns;
pub mod trainer_batched;
pub mod trainer_hogbatch;
pub mod trainer_hogwild;
pub mod trainer_seq;
mod trainer_shared;
pub mod trainer_threaded;
