#!/usr/bin/env bash
# Rustdoc with warnings denied, and no dead relative link in a markdown doc.
set -euo pipefail
cd "$(dirname "$0")/../.."
step() { printf '\n== %s\n' "$*"; }

step "cargo doc"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps
step "Markdown docs have no dead relative links"
python3 scripts/ci/check.py links README.md DESIGN.md EXPERIMENTS.md ROADMAP.md docs/*.md
