//! Undirected simple graphs for walk corpora: edge-list I/O and
//! synthetic generators.
//!
//! The paper's thesis is that embedding training *is* graph analytics;
//! this module closes the loop by letting the trainers embed **graphs**
//! instead of text. A [`WalkGraph`] is the substrate the random-walk
//! corpus generator ([`crate::walks`]) samples from: an undirected
//! simple graph in CSR form with per-node sorted neighbour lists (so
//! edge-existence checks — the heart of node2vec's second-order bias —
//! are a binary search).
//!
//! Three ways to get one:
//!
//! * [`load_edge_list`] / [`parse_edge_list`] — the on-disk format, with
//!   **typed errors** ([`EdgeListError`]) for malformed lines,
//!   self-loops, duplicate edges and out-of-range ids (never a panic on
//!   user input).
//! * [`sbm`] — a stochastic block model with planted communities, the
//!   standard link-prediction testbed ("Graph Embeddings at Scale",
//!   arXiv:1907.01705 motivates exactly this production scenario).
//! * [`scale_free`] — Barabási–Albert preferential attachment, the
//!   degree profile of natural graphs.
//!
//! Plus the two deterministic preprocessing steps link prediction
//! needs: [`holdout_split`] (remove a fraction of edges for testing
//! without isolating nodes) and [`sample_negative_edges`] (uniform
//! non-edges). Both are pure functions of `(graph, seed)`, so the walk
//! generator and the evaluator can recompute the *same* split
//! independently — no side-channel files.

use gw2v_util::rng::{Rng64, SplitMix64, Xoshiro256};
use std::collections::HashSet;
use std::fmt;
use std::io::{BufRead, BufReader, Write};
use std::path::Path;

/// An undirected simple graph in CSR form. Neighbour lists are sorted,
/// node ids are dense `0..n_nodes`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WalkGraph {
    /// `offsets[u]..offsets[u+1]` indexes `neighbors` for node `u`.
    offsets: Vec<usize>,
    /// Concatenated sorted neighbour lists.
    neighbors: Vec<u32>,
}

/// A typed edge-list failure. `line` is the 1-based line number for
/// loaded files, or the 0-based edge index for in-memory construction.
#[derive(Debug)]
pub enum EdgeListError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// Missing or unparseable `nodes N` header line.
    MissingHeader,
    /// A line that is not two whitespace-separated integer ids.
    Malformed {
        /// Offending line (or edge index).
        line: usize,
        /// The raw line content.
        content: String,
    },
    /// An edge `u u` (walks over simple graphs never revisit via loops).
    SelfLoop {
        /// Offending line (or edge index).
        line: usize,
        /// The looping node.
        node: u32,
    },
    /// An edge listed twice (in either orientation).
    DuplicateEdge {
        /// Offending line (or edge index).
        line: usize,
        /// Lower endpoint.
        u: u32,
        /// Higher endpoint.
        v: u32,
    },
    /// A node id at or beyond the declared node count.
    OutOfRange {
        /// Offending line (or edge index).
        line: usize,
        /// The out-of-range id.
        node: u32,
        /// The declared node count.
        n_nodes: usize,
    },
}

impl fmt::Display for EdgeListError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EdgeListError::Io(e) => write!(f, "edge list I/O: {e}"),
            EdgeListError::MissingHeader => {
                write!(f, "edge list must start with a `nodes N` header line")
            }
            EdgeListError::Malformed { line, content } => {
                write!(f, "line {line}: expected `u v`, got {content:?}")
            }
            EdgeListError::SelfLoop { line, node } => {
                write!(f, "line {line}: self-loop on node {node}")
            }
            EdgeListError::DuplicateEdge { line, u, v } => {
                write!(f, "line {line}: duplicate edge {u} {v}")
            }
            EdgeListError::OutOfRange {
                line,
                node,
                n_nodes,
            } => {
                write!(
                    f,
                    "line {line}: node {node} out of range (graph declares {n_nodes} nodes)"
                )
            }
        }
    }
}

impl std::error::Error for EdgeListError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            EdgeListError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for EdgeListError {
    fn from(e: std::io::Error) -> Self {
        EdgeListError::Io(e)
    }
}

impl WalkGraph {
    /// Builds a graph from undirected edges, validating simple-graph
    /// invariants. The error's `line` field is the offending edge index.
    pub fn from_edges(n_nodes: usize, edges: &[(u32, u32)]) -> Result<Self, EdgeListError> {
        let mut seen = HashSet::with_capacity(edges.len());
        for (i, &(u, v)) in edges.iter().enumerate() {
            if u == v {
                return Err(EdgeListError::SelfLoop { line: i, node: u });
            }
            for node in [u, v] {
                if node as usize >= n_nodes {
                    return Err(EdgeListError::OutOfRange {
                        line: i,
                        node,
                        n_nodes,
                    });
                }
            }
            let key = (u.min(v), u.max(v));
            if !seen.insert(key) {
                return Err(EdgeListError::DuplicateEdge {
                    line: i,
                    u: key.0,
                    v: key.1,
                });
            }
        }
        Ok(Self::build_unchecked(n_nodes, edges))
    }

    /// CSR construction from pre-validated unique undirected edges.
    fn build_unchecked(n_nodes: usize, edges: &[(u32, u32)]) -> Self {
        let mut degree = vec![0usize; n_nodes];
        for &(u, v) in edges {
            degree[u as usize] += 1;
            degree[v as usize] += 1;
        }
        let mut offsets = Vec::with_capacity(n_nodes + 1);
        let mut acc = 0usize;
        offsets.push(0);
        for d in &degree {
            acc += d;
            offsets.push(acc);
        }
        let mut cursor = offsets.clone();
        let mut neighbors = vec![0u32; acc];
        for &(u, v) in edges {
            neighbors[cursor[u as usize]] = v;
            cursor[u as usize] += 1;
            neighbors[cursor[v as usize]] = u;
            cursor[v as usize] += 1;
        }
        for u in 0..n_nodes {
            neighbors[offsets[u]..offsets[u + 1]].sort_unstable();
        }
        Self { offsets, neighbors }
    }

    /// Number of nodes.
    pub fn n_nodes(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of undirected edges.
    pub fn n_edges(&self) -> usize {
        self.neighbors.len() / 2
    }

    /// Degree of node `u`.
    pub fn degree(&self, u: u32) -> usize {
        self.offsets[u as usize + 1] - self.offsets[u as usize]
    }

    /// Sorted neighbour list of node `u`.
    pub(crate) fn neighbors(&self, u: u32) -> &[u32] {
        &self.neighbors[self.offsets[u as usize]..self.offsets[u as usize + 1]]
    }

    /// True if `{u, v}` is an edge (binary search over the shorter list).
    pub fn has_edge(&self, u: u32, v: u32) -> bool {
        let (a, b) = if self.degree(u) <= self.degree(v) {
            (u, v)
        } else {
            (v, u)
        };
        self.neighbors(a).binary_search(&b).is_ok()
    }

    /// All undirected edges in canonical `(u, v)` order with `u < v`,
    /// sorted lexicographically.
    pub(crate) fn edges(&self) -> Vec<(u32, u32)> {
        let mut out = Vec::with_capacity(self.n_edges());
        for u in 0..self.n_nodes() as u32 {
            for &v in self.neighbors(u) {
                if u < v {
                    out.push((u, v));
                }
            }
        }
        out
    }
}

/// The vocabulary token of graph node `u`. Walk corpora spell every
/// node this way, so trainers, evaluators and the CLI agree on the
/// mapping between node ids and embedding rows.
pub fn node_word(u: u32) -> String {
    let mut word = String::with_capacity(11);
    push_node_word(&mut word, u);
    word
}

/// Appends [`node_word`]`(u)` to `text` without a `String` of its own.
pub(crate) fn push_node_word(text: &mut String, u: u32) {
    let mut digits = [0u8; 10];
    let mut at = digits.len();
    let mut rest = u;
    loop {
        at -= 1;
        digits[at] = b'0' + (rest % 10) as u8;
        rest /= 10;
        if rest == 0 {
            break;
        }
    }
    text.push('n');
    text.push_str(std::str::from_utf8(&digits[at..]).expect("ASCII digits"));
}

/// Parses a node token written by [`node_word`] back to its id.
pub fn parse_node_word(w: &str) -> Option<u32> {
    w.strip_prefix('n')?.parse().ok()
}

/// Parses the edge-list format from any reader. Format: optional `#`
/// comment lines, one `nodes N` header, then one `u v` edge per line
/// (each undirected edge listed once, in either orientation).
pub fn parse_edge_list<R: BufRead>(reader: R) -> Result<WalkGraph, EdgeListError> {
    let mut n_nodes: Option<usize> = None;
    let mut edges: Vec<(u32, u32)> = Vec::new();
    let mut seen: HashSet<(u32, u32)> = HashSet::new();
    for (i, line) in reader.lines().enumerate() {
        let line = line?;
        let lineno = i + 1;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        let Some(n) = n_nodes else {
            let mut it = trimmed.split_ascii_whitespace();
            match (it.next(), it.next(), it.next()) {
                (Some("nodes"), Some(count), None) => {
                    n_nodes = Some(count.parse().map_err(|_| EdgeListError::MissingHeader)?);
                    continue;
                }
                _ => return Err(EdgeListError::MissingHeader),
            }
        };
        let mut it = trimmed.split_ascii_whitespace();
        let (u, v) = match (it.next(), it.next(), it.next()) {
            (Some(a), Some(b), None) => match (a.parse::<u32>(), b.parse::<u32>()) {
                (Ok(u), Ok(v)) => (u, v),
                _ => {
                    return Err(EdgeListError::Malformed {
                        line: lineno,
                        content: trimmed.to_owned(),
                    })
                }
            },
            _ => {
                return Err(EdgeListError::Malformed {
                    line: lineno,
                    content: trimmed.to_owned(),
                })
            }
        };
        if u == v {
            return Err(EdgeListError::SelfLoop {
                line: lineno,
                node: u,
            });
        }
        for node in [u, v] {
            if node as usize >= n {
                return Err(EdgeListError::OutOfRange {
                    line: lineno,
                    node,
                    n_nodes: n,
                });
            }
        }
        let key = (u.min(v), u.max(v));
        if !seen.insert(key) {
            return Err(EdgeListError::DuplicateEdge {
                line: lineno,
                u: key.0,
                v: key.1,
            });
        }
        edges.push((u, v));
    }
    match n_nodes {
        None => Err(EdgeListError::MissingHeader),
        Some(n) => Ok(WalkGraph::build_unchecked(n, &edges)),
    }
}

/// Loads an edge-list file (see [`parse_edge_list`] for the format).
pub fn load_edge_list<P: AsRef<Path>>(path: P) -> Result<WalkGraph, EdgeListError> {
    parse_edge_list(BufReader::new(std::fs::File::open(path)?))
}

/// Writes a graph in the edge-list format (canonical order: header,
/// then edges sorted with `u < v`). [`load_edge_list`] round-trips it.
pub fn write_edge_list<W: Write>(graph: &WalkGraph, out: &mut W) -> std::io::Result<()> {
    writeln!(out, "nodes {}", graph.n_nodes())?;
    for (u, v) in graph.edges() {
        writeln!(out, "{u} {v}")?;
    }
    Ok(())
}

/// Writes a graph's edge list to a file path.
pub fn save_edge_list<P: AsRef<Path>>(graph: &WalkGraph, path: P) -> std::io::Result<()> {
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    write_edge_list(graph, &mut w)
}

/// Stochastic block model: `block_sizes.len()` planted communities.
/// Every intra-block pair is an edge with probability `p_in`, every
/// inter-block pair with `p_out`. Returns the graph and the node →
/// block assignment. Deterministic in `seed`.
pub fn sbm(block_sizes: &[usize], p_in: f64, p_out: f64, seed: u64) -> (WalkGraph, Vec<u32>) {
    assert!(!block_sizes.is_empty(), "need at least one block");
    assert!((0.0..=1.0).contains(&p_in) && (0.0..=1.0).contains(&p_out));
    let n: usize = block_sizes.iter().sum();
    let mut block = Vec::with_capacity(n);
    for (b, &size) in block_sizes.iter().enumerate() {
        block.extend(std::iter::repeat_n(b as u32, size));
    }
    let mut rng = Xoshiro256::new(SplitMix64::new(seed).derive(0x5B));
    let mut edges = Vec::new();
    for u in 0..n {
        for v in (u + 1)..n {
            let p = if block[u] == block[v] { p_in } else { p_out };
            if rng.chance(p) {
                edges.push((u as u32, v as u32));
            }
        }
    }
    (WalkGraph::build_unchecked(n, &edges), block)
}

/// Evenly sized blocks for [`sbm`]: `n_nodes` split into `n_blocks`
/// parts, remainders going to the first blocks.
pub fn even_blocks(n_nodes: usize, n_blocks: usize) -> Vec<usize> {
    assert!(n_blocks > 0 && n_blocks <= n_nodes);
    (0..n_blocks)
        .map(|b| n_nodes / n_blocks + usize::from(b < n_nodes % n_blocks))
        .collect()
}

/// Barabási–Albert scale-free graph: starts from a `(attach + 1)`-clique
/// and attaches each new node to `attach` distinct existing nodes chosen
/// proportionally to degree (sampling uniformly from the running edge
/// endpoint list). Deterministic in `seed`.
pub fn scale_free(n_nodes: usize, attach: usize, seed: u64) -> WalkGraph {
    assert!(attach >= 1, "each node must attach at least one edge");
    assert!(
        n_nodes > attach,
        "need more than `attach` nodes to seed the clique"
    );
    let mut rng = Xoshiro256::new(SplitMix64::new(seed).derive(0x5F));
    let mut edges: Vec<(u32, u32)> = Vec::new();
    // Endpoint multiset: each node appears once per incident edge, so a
    // uniform draw from it is a degree-proportional draw over nodes.
    let mut endpoints: Vec<u32> = Vec::new();
    for u in 0..=(attach as u32) {
        for v in (u + 1)..=(attach as u32) {
            edges.push((u, v));
            endpoints.push(u);
            endpoints.push(v);
        }
    }
    let mut chosen: Vec<u32> = Vec::with_capacity(attach);
    for new in (attach as u32 + 1)..(n_nodes as u32) {
        chosen.clear();
        while chosen.len() < attach {
            let target = endpoints[rng.index(endpoints.len())];
            if !chosen.contains(&target) {
                chosen.push(target);
            }
        }
        for &target in &chosen {
            edges.push((target, new));
            endpoints.push(target);
            endpoints.push(new);
        }
    }
    WalkGraph::build_unchecked(n_nodes, &edges)
}

/// Removes ≈ `frac` of the edges as a held-out test set, never
/// isolating a node (an edge is only removable while both endpoints
/// keep degree ≥ 2). Returns `(train_graph, test_edges)`; test edges
/// are canonical `(u < v)` pairs in removal order. Pure function of
/// `(graph, frac, seed)` — the walk generator and the link-prediction
/// evaluator recompute the identical split independently.
pub fn holdout_split(graph: &WalkGraph, frac: f64, seed: u64) -> (WalkGraph, Vec<(u32, u32)>) {
    assert!((0.0..1.0).contains(&frac), "holdout fraction in [0, 1)");
    let mut edges = graph.edges();
    let mut rng = Xoshiro256::new(SplitMix64::new(seed).derive(0x407));
    rng.shuffle(&mut edges);
    let target = (frac * graph.n_edges() as f64).round() as usize;
    let mut degree: Vec<usize> = (0..graph.n_nodes() as u32)
        .map(|u| graph.degree(u))
        .collect();
    let mut test = Vec::with_capacity(target);
    let mut train = Vec::with_capacity(graph.n_edges() - target);
    for (u, v) in edges {
        if test.len() < target && degree[u as usize] >= 2 && degree[v as usize] >= 2 {
            degree[u as usize] -= 1;
            degree[v as usize] -= 1;
            test.push((u, v));
        } else {
            train.push((u, v));
        }
    }
    (WalkGraph::build_unchecked(graph.n_nodes(), &train), test)
}

/// Samples `count` distinct non-edges `(u < v)` uniformly by rejection.
/// Deterministic in `seed`; panics if the graph is too dense to yield
/// `count` non-edges within a generous attempt budget.
pub fn sample_negative_edges(graph: &WalkGraph, count: usize, seed: u64) -> Vec<(u32, u32)> {
    let n = graph.n_nodes();
    assert!(n >= 2, "need at least two nodes to form a pair");
    let mut rng = Xoshiro256::new(SplitMix64::new(seed).derive(0x9E6));
    let mut seen = HashSet::with_capacity(count);
    let mut out = Vec::with_capacity(count);
    let mut attempts = 0usize;
    let budget = 1000 * count.max(16);
    while out.len() < count {
        attempts += 1;
        assert!(
            attempts <= budget,
            "graph too dense: only {} of {count} non-edges found",
            out.len()
        );
        let u = rng.index(n) as u32;
        let v = rng.index(n) as u32;
        if u == v || graph.has_edge(u, v) {
            continue;
        }
        let key = (u.min(v), u.max(v));
        if seen.insert(key) {
            out.push(key);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn parse(text: &str) -> Result<WalkGraph, EdgeListError> {
        parse_edge_list(Cursor::new(text))
    }

    #[test]
    fn parse_happy_path() {
        let g = parse("# a comment\nnodes 4\n0 1\n1 2\n\n2 3\n").unwrap();
        assert_eq!(g.n_nodes(), 4);
        assert_eq!(g.n_edges(), 3);
        assert!(g.has_edge(1, 0), "edges are undirected");
        assert!(!g.has_edge(0, 2));
        assert_eq!(g.neighbors(1), &[0, 2]);
        assert_eq!(g.degree(1), 2);
    }

    #[test]
    fn typed_error_malformed() {
        let err = parse("nodes 3\n0 x\n").unwrap_err();
        assert!(
            matches!(err, EdgeListError::Malformed { line: 2, .. }),
            "{err}"
        );
        let err = parse("nodes 3\n0 1 2\n").unwrap_err();
        assert!(matches!(err, EdgeListError::Malformed { .. }), "{err}");
        let err = parse("nodes 3\n0\n").unwrap_err();
        assert!(matches!(err, EdgeListError::Malformed { .. }), "{err}");
    }

    #[test]
    fn typed_error_self_loop() {
        let err = parse("nodes 3\n1 1\n").unwrap_err();
        assert!(
            matches!(err, EdgeListError::SelfLoop { line: 2, node: 1 }),
            "{err}"
        );
    }

    #[test]
    fn typed_error_duplicate_either_orientation() {
        let err = parse("nodes 3\n0 1\n1 0\n").unwrap_err();
        assert!(
            matches!(
                err,
                EdgeListError::DuplicateEdge {
                    line: 3,
                    u: 0,
                    v: 1
                }
            ),
            "{err}"
        );
    }

    #[test]
    fn typed_error_out_of_range() {
        let err = parse("nodes 3\n0 3\n").unwrap_err();
        assert!(
            matches!(
                err,
                EdgeListError::OutOfRange {
                    line: 2,
                    node: 3,
                    n_nodes: 3
                }
            ),
            "{err}"
        );
    }

    #[test]
    fn typed_error_missing_header() {
        assert!(matches!(parse("0 1\n"), Err(EdgeListError::MissingHeader)));
        assert!(matches!(parse(""), Err(EdgeListError::MissingHeader)));
        assert!(matches!(
            parse("nodes many\n"),
            Err(EdgeListError::MissingHeader)
        ));
    }

    #[test]
    fn from_edges_validates() {
        assert!(WalkGraph::from_edges(3, &[(0, 1), (1, 2)]).is_ok());
        assert!(matches!(
            WalkGraph::from_edges(3, &[(1, 1)]),
            Err(EdgeListError::SelfLoop { line: 0, node: 1 })
        ));
        assert!(matches!(
            WalkGraph::from_edges(3, &[(0, 1), (1, 0)]),
            Err(EdgeListError::DuplicateEdge { line: 1, .. })
        ));
        assert!(matches!(
            WalkGraph::from_edges(2, &[(0, 5)]),
            Err(EdgeListError::OutOfRange { .. })
        ));
    }

    #[test]
    fn write_load_roundtrip() {
        let (g, _) = sbm(&[10, 10], 0.4, 0.05, 7);
        let mut buf = Vec::new();
        write_edge_list(&g, &mut buf).unwrap();
        let reloaded = parse_edge_list(Cursor::new(buf)).unwrap();
        assert_eq!(g, reloaded);
    }

    #[test]
    fn sbm_is_deterministic_and_community_dense() {
        let (a, blocks) = sbm(&[30, 30, 30], 0.3, 0.01, 42);
        let (b, _) = sbm(&[30, 30, 30], 0.3, 0.01, 42);
        assert_eq!(a, b);
        let (c, _) = sbm(&[30, 30, 30], 0.3, 0.01, 43);
        assert_ne!(a, c, "different seed, different graph");
        assert_eq!(blocks.len(), 90);
        let (mut intra, mut inter) = (0usize, 0usize);
        for (u, v) in a.edges() {
            if blocks[u as usize] == blocks[v as usize] {
                intra += 1;
            } else {
                inter += 1;
            }
        }
        assert!(
            intra > 3 * inter,
            "planted communities must dominate: {intra} intra vs {inter} inter"
        );
    }

    #[test]
    fn even_blocks_partitions_exactly() {
        assert_eq!(even_blocks(10, 3), vec![4, 3, 3]);
        assert_eq!(even_blocks(9, 3), vec![3, 3, 3]);
        assert_eq!(even_blocks(5, 5), vec![1; 5]);
    }

    #[test]
    fn scale_free_shape() {
        let g = scale_free(200, 3, 11);
        assert_eq!(g.n_nodes(), 200);
        // 4-clique (6 edges) + `attach = 3` edges per later node.
        assert_eq!(g.n_edges(), 6 + (200 - 4) * 3);
        let h = scale_free(200, 3, 11);
        assert_eq!(g, h, "deterministic");
        // Preferential attachment skews degrees far beyond the mean.
        let max_deg = (0..200u32).map(|u| g.degree(u)).max().unwrap();
        let mean = 2.0 * g.n_edges() as f64 / 200.0;
        assert!(
            max_deg as f64 > 3.0 * mean,
            "max degree {max_deg} vs mean {mean:.1}"
        );
    }

    #[test]
    fn holdout_never_isolates_and_is_deterministic() {
        let (g, _) = sbm(&[40, 40], 0.25, 0.02, 3);
        let (train, test) = holdout_split(&g, 0.2, 9);
        let (train2, test2) = holdout_split(&g, 0.2, 9);
        assert_eq!(train, train2);
        assert_eq!(test, test2);
        assert_eq!(train.n_edges() + test.len(), g.n_edges());
        let want = (0.2 * g.n_edges() as f64).round() as usize;
        assert_eq!(test.len(), want, "dense SBM has slack to hit the target");
        for u in 0..train.n_nodes() as u32 {
            if g.degree(u) > 0 {
                assert!(train.degree(u) >= 1, "node {u} isolated by the split");
            }
        }
        for &(u, v) in &test {
            assert!(g.has_edge(u, v), "test edges come from the graph");
            assert!(!train.has_edge(u, v), "test edges leave the train graph");
        }
    }

    #[test]
    fn negative_edges_are_nonedges_and_deterministic() {
        let (g, _) = sbm(&[20, 20], 0.3, 0.05, 5);
        let neg = sample_negative_edges(&g, 50, 13);
        assert_eq!(neg, sample_negative_edges(&g, 50, 13));
        assert_eq!(neg.len(), 50);
        let distinct: HashSet<_> = neg.iter().collect();
        assert_eq!(distinct.len(), 50, "no duplicates");
        for &(u, v) in &neg {
            assert!(u < v);
            assert!(!g.has_edge(u, v));
        }
    }

    #[test]
    fn node_word_roundtrip() {
        assert_eq!(node_word(17), "n17");
        for u in [
            0,
            1,
            9,
            10,
            99,
            100,
            4_095,
            1_000_000,
            u32::MAX - 1,
            u32::MAX,
        ] {
            assert_eq!(node_word(u), format!("n{u}"));
            assert_eq!(parse_node_word(&node_word(u)), Some(u));
        }
        assert_eq!(parse_node_word("n17"), Some(17));
        assert_eq!(parse_node_word("x17"), None);
        assert_eq!(parse_node_word("n"), None);
    }
}
