//! Seeded random-walk corpora: DeepWalk and node2vec over a
//! [`WalkGraph`].
//!
//! The generator turns a graph into plain text — one walk per line,
//! nodes spelled via [`node_word`](crate::graphs::node_word) — so the
//! entire existing pipeline (tokenizer → vocabulary → sharded corpus →
//! any trainer) consumes graphs *unchanged*. node2vec's second-order
//! bias (Grover & Leskovec 2016) is controlled by the return parameter
//! `p` and in-out parameter `q`: stepping from `t` to `v`, the next hop
//! `x` is drawn proportionally to `1/p` if `x == t`, `1` if `x` is also
//! a neighbour of `t`, and `1/q` otherwise. All transitions — first
//! step and biased steps alike — are drawn through the same Walker
//! alias sampler ([`crate::unigram::AliasSampler`]), so `p = q = 1`
//! degenerates to the uniform DeepWalk random walk **bit-identically**:
//! uniform weights make the alias table a pass-through that consumes
//! the exact same RNG draws.
//!
//! Determinism contract: the corpus is a pure function of
//! `(seed, graph, params)`. Each walk owns a private RNG stream derived
//! as `SplitMix64::new(seed).derive(round * n_nodes + start_node)`, so
//! the output is independent of generation order and identical across
//! SIMD backends and engines (walk generation is pure scalar code; the
//! CI graph-smoke job byte-compares scalar vs dispatched anyway).

use crate::graphs::{push_node_word, WalkGraph};
use crate::unigram::{AliasSampler, NegativeSampler};
use gw2v_util::rng::{SplitMix64, Xoshiro256};

/// Parameters of a node2vec walk ensemble.
#[derive(Clone, Debug, PartialEq)]
pub struct WalkParams {
    /// Walks started from every node (rounds).
    pub walks_per_node: usize,
    /// Nodes per walk, including the start node.
    pub walk_length: usize,
    /// Return parameter: weight `1/p` for stepping back to the
    /// previous node. `p = q = 1` is a uniform (DeepWalk) walk.
    pub p: f64,
    /// In-out parameter: weight `1/q` for stepping to a node not
    /// adjacent to the previous one.
    pub q: f64,
    /// Root seed of the walk ensemble.
    pub seed: u64,
}

impl Default for WalkParams {
    fn default() -> Self {
        Self {
            walks_per_node: 10,
            walk_length: 40,
            p: 1.0,
            q: 1.0,
            seed: 1,
        }
    }
}

impl WalkParams {
    fn validate(&self) {
        assert!(self.walks_per_node >= 1, "need at least one walk per node");
        assert!(
            self.walk_length >= 1,
            "walks contain at least the start node"
        );
        assert!(
            self.p > 0.0 && self.q > 0.0,
            "node2vec p and q must be positive"
        );
    }

    /// True if the parameters require second-order (edge-conditioned)
    /// transition tables; `p = q = 1` is served by first-order tables
    /// with bit-identical output.
    pub(crate) fn is_biased(&self) -> bool {
        self.p != 1.0 || self.q != 1.0
    }
}

/// A generated walk corpus: text ready for the tokenizer pipeline.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WalkCorpus {
    /// One walk per line, nodes as `n{id}` tokens.
    pub text: String,
    /// Number of walks (lines).
    pub n_walks: usize,
    /// Number of node tokens across all walks.
    pub n_tokens: usize,
}

/// Per-directed-edge alias tables for biased second-order transitions.
///
/// The table of directed edge `t → v` (where `v` is the `j`-th
/// neighbour of `t`, table index `edge_base[t] + j`) distributes over
/// the neighbours of `v` with node2vec weights conditioned on `t`.
struct SecondOrderTables {
    edge_base: Vec<usize>,
    tables: Vec<AliasSampler>,
}

impl SecondOrderTables {
    fn build(graph: &WalkGraph, p: f64, q: f64) -> Self {
        let n = graph.n_nodes();
        let mut edge_base = Vec::with_capacity(n + 1);
        let mut acc = 0usize;
        edge_base.push(0);
        for u in 0..n as u32 {
            acc += graph.degree(u);
            edge_base.push(acc);
        }
        let mut tables = Vec::with_capacity(acc);
        let mut weights: Vec<f64> = Vec::new();
        for t in 0..n as u32 {
            for &v in graph.neighbors(t) {
                weights.clear();
                weights.extend(graph.neighbors(v).iter().map(|&x| {
                    if x == t {
                        1.0 / p
                    } else if graph.has_edge(t, x) {
                        1.0
                    } else {
                        1.0 / q
                    }
                }));
                tables.push(AliasSampler::from_weights(&weights));
            }
        }
        Self { edge_base, tables }
    }

    /// The table conditioned on having stepped `t → v`.
    fn table(&self, graph: &WalkGraph, t: u32, v: u32) -> &AliasSampler {
        let j = graph
            .neighbors(t)
            .binary_search(&v)
            .expect("t → v must be an edge of the walk");
        &self.tables[self.edge_base[t as usize] + j]
    }
}

/// Generates the walk corpus for `graph` under `params`. Pure function
/// of its arguments; see the module docs for the determinism contract.
/// Isolated nodes produce single-token walks (`walk_length` is an upper
/// bound only for them).
pub fn generate_walks(graph: &WalkGraph, params: &WalkParams) -> WalkCorpus {
    generate_impl(graph, params, params.is_biased())
}

/// Test seam: forces the second-order (edge-table) code path even when
/// `p = q = 1`, to pin that it degenerates bit-identically to the
/// first-order uniform walk.
#[doc(hidden)]
pub fn generate_walks_second_order(graph: &WalkGraph, params: &WalkParams) -> WalkCorpus {
    generate_impl(graph, params, true)
}

fn generate_impl(graph: &WalkGraph, params: &WalkParams, second_order: bool) -> WalkCorpus {
    params.validate();
    let n = graph.n_nodes();
    // First-order tables: uniform over each node's neighbours. Built
    // through the alias sampler (not a bare index draw) so biased and
    // uniform walks consume identical RNG streams.
    let ones = vec![1.0; (0..n as u32).map(|u| graph.degree(u)).max().unwrap_or(0)];
    let node_tables: Vec<Option<AliasSampler>> = (0..n as u32)
        .map(|u| {
            let d = graph.degree(u);
            (d > 0).then(|| AliasSampler::from_weights(&ones[..d]))
        })
        .collect();
    let edge_tables = second_order.then(|| SecondOrderTables::build(graph, params.p, params.q));

    let root = SplitMix64::new(params.seed);
    let mut text = String::new();
    let mut n_tokens = 0usize;
    for round in 0..params.walks_per_node {
        for start in 0..n as u32 {
            let mut rng = Xoshiro256::new(root.derive((round * n + start as usize) as u64));
            let mut prev = start;
            let mut cur = start;
            push_node_word(&mut text, start);
            n_tokens += 1;
            for step in 1..params.walk_length {
                let next = if step == 1 {
                    // No previous edge yet: uniform first hop (or stop
                    // at an isolated start node).
                    match &node_tables[cur as usize] {
                        None => break,
                        Some(t) => graph.neighbors(cur)[t.sample(&mut rng) as usize],
                    }
                } else if let Some(tables) = &edge_tables {
                    let t = tables.table(graph, prev, cur);
                    graph.neighbors(cur)[t.sample(&mut rng) as usize]
                } else {
                    let t = node_tables[cur as usize]
                        .as_ref()
                        .expect("reached nodes have at least one neighbour");
                    graph.neighbors(cur)[t.sample(&mut rng) as usize]
                };
                prev = cur;
                cur = next;
                text.push(' ');
                push_node_word(&mut text, cur);
                n_tokens += 1;
            }
            text.push('\n');
        }
    }
    WalkCorpus {
        text,
        n_walks: params.walks_per_node * n,
        n_tokens,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graphs::{sbm, WalkGraph};

    fn ring(n: u32) -> WalkGraph {
        let edges: Vec<(u32, u32)> = (0..n).map(|u| (u, (u + 1) % n)).collect();
        WalkGraph::from_edges(n as usize, &edges).unwrap()
    }

    #[test]
    fn corpus_shape_and_tokens() {
        let g = ring(10);
        let params = WalkParams {
            walks_per_node: 3,
            walk_length: 7,
            ..WalkParams::default()
        };
        let c = generate_walks(&g, &params);
        assert_eq!(c.n_walks, 30);
        assert_eq!(c.n_tokens, 30 * 7, "no isolated nodes: full-length walks");
        assert_eq!(c.text.lines().count(), 30);
        for line in c.text.lines() {
            assert_eq!(line.split_whitespace().count(), 7);
        }
    }

    #[test]
    fn isolated_node_single_token_walk() {
        // Node 2 is isolated; nodes 0–1 form an edge.
        let g = WalkGraph::from_edges(3, &[(0, 1)]).unwrap();
        let c = generate_walks(
            &g,
            &WalkParams {
                walks_per_node: 1,
                walk_length: 5,
                ..WalkParams::default()
            },
        );
        let lines: Vec<&str> = c.text.lines().collect();
        assert_eq!(lines.len(), 3);
        assert_eq!(lines[2], "n2", "isolated start stops immediately");
        assert_eq!(lines[0].split_whitespace().count(), 5);
    }

    #[test]
    fn deterministic_in_seed() {
        let (g, _) = sbm(&[15, 15], 0.3, 0.02, 4);
        let params = WalkParams {
            walks_per_node: 2,
            walk_length: 10,
            seed: 77,
            ..WalkParams::default()
        };
        assert_eq!(generate_walks(&g, &params), generate_walks(&g, &params));
        let other = WalkParams {
            seed: 78,
            ..params.clone()
        };
        assert_ne!(generate_walks(&g, &params), generate_walks(&g, &other));
    }

    #[test]
    fn pq_one_degenerates_to_uniform_bitwise() {
        let (g, _) = sbm(&[15, 15], 0.3, 0.02, 4);
        let params = WalkParams {
            walks_per_node: 2,
            walk_length: 12,
            p: 1.0,
            q: 1.0,
            seed: 9,
        };
        assert!(!params.is_biased());
        assert_eq!(
            generate_walks(&g, &params),
            generate_walks_second_order(&g, &params),
            "uniform alias tables must be a pass-through"
        );
    }

    #[test]
    fn biased_walks_differ_from_uniform() {
        let (g, _) = sbm(&[15, 15], 0.3, 0.02, 4);
        let uniform = WalkParams {
            walks_per_node: 2,
            walk_length: 12,
            seed: 9,
            ..WalkParams::default()
        };
        let biased = WalkParams {
            p: 0.25,
            q: 4.0,
            ..uniform.clone()
        };
        assert!(biased.is_biased());
        assert_ne!(generate_walks(&g, &uniform), generate_walks(&g, &biased));
    }

    #[test]
    fn every_transition_is_an_edge() {
        let (g, _) = sbm(&[12, 12], 0.35, 0.05, 6);
        let c = generate_walks(
            &g,
            &WalkParams {
                walks_per_node: 2,
                walk_length: 9,
                p: 0.5,
                q: 2.0,
                seed: 3,
            },
        );
        for line in c.text.lines() {
            let ids: Vec<u32> = line
                .split_whitespace()
                .map(|w| crate::graphs::parse_node_word(w).unwrap())
                .collect();
            for pair in ids.windows(2) {
                assert!(g.has_edge(pair[0], pair[1]), "{} -> {}", pair[0], pair[1]);
            }
        }
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_p_rejected() {
        let g = ring(4);
        generate_walks(
            &g,
            &WalkParams {
                p: 0.0,
                ..WalkParams::default()
            },
        );
    }
}
