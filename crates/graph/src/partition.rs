//! Blocked master assignment.
//!
//! Paper §2.4: one proxy of each node "is chosen as the master proxy
//! [...] responsible for holding the canonical value of the node".
//! Every host has a proxy for every node (§4.2), so the one decision
//! left is which host holds each master: node ids are split into
//! contiguous blocks and host `h` owns block `h`.

/// The contiguous block of global node ids whose masters live on `host`.
#[inline]
pub fn master_block(n_nodes: usize, n_hosts: usize, host: usize) -> std::ops::Range<u32> {
    let lo = (host * n_nodes / n_hosts) as u32;
    let hi = ((host + 1) * n_nodes / n_hosts) as u32;
    lo..hi
}

/// The host owning the master proxy of `node` under blocked assignment.
#[inline]
pub fn master_host(n_nodes: usize, n_hosts: usize, node: u32) -> usize {
    // Inverse of master_block: find h with h*n/H <= node < (h+1)*n/H.
    // Compute a candidate then fix up boundary rounding.
    let mut h = (node as usize * n_hosts) / n_nodes;
    h = h.min(n_hosts - 1);
    while !master_block(n_nodes, n_hosts, h).contains(&node) {
        if node < master_block(n_nodes, n_hosts, h).start {
            h -= 1;
        } else {
            h += 1;
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn blocks_tile_the_nodes_and_master_host_inverts_them(n in 1usize..300, h in 1usize..33) {
            // Host order, no gap, no overlap; with h > n some blocks are empty.
            let mut end = 0u32;
            for host in 0..h {
                let block = master_block(n, h, host);
                prop_assert_eq!(block.start, end, "n={} h={} host={}", n, h, host);
                prop_assert!(block.start <= block.end, "n={} h={} host={}", n, h, host);
                end = block.end;
            }
            prop_assert_eq!(end as usize, n, "n={} h={}", n, h);
            for v in 0..n as u32 {
                let owner = master_host(n, h, v);
                prop_assert!(
                    master_block(n, h, owner).contains(&v),
                    "n={} h={} v={} owner={}", n, h, v, owner
                );
            }
        }
    }
}
