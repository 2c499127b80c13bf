#!/usr/bin/env bash
# Build and test the whole workspace on the kernel backend that
# GW2V_FORCE_SCALAR selects (CI runs 0 and 1). The two also cover the two
# CRC-32 kernels: forced-scalar runs slice-by-8, dispatched runs PCLMULQDQ
# folding where the CPU has it
# (`simd::tests::crc_entry_follows_the_detected_features` asserts which).
set -euo pipefail
cd "$(dirname "$0")/../.."

cargo build --release --workspace
cargo test --workspace -q
