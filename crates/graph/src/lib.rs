//! # gw2v-graph
//!
//! Master assignment (paper §2.4): which host holds the canonical copy
//! of each node. The substrate that keeps masters and mirrors in step is
//! `gw2v-gluon`; its round and the serving store read this from here.

#![deny(missing_docs)]

pub mod partition;
