#!/usr/bin/env bash
# Format & lint: rustfmt, clippy with warnings denied, the public-surface
# audit (rustc never reports an unused `pub` item of a library crate) and
# the rule that keeps each CI check stated once: ci.yml holds no inline
# code and calls every job script here.
set -euo pipefail
cd "$(dirname "$0")/../.."
step() { printf '\n== %s\n' "$*"; }

step rustfmt
cargo fmt --all -- --check
step clippy
cargo clippy --workspace --all-targets -- -D warnings
step "Public surface is what is imported"
python3 scripts/pub_audit.py
step "ci.yml runs the scripts in scripts/ci/ and states no check itself"
if grep -n '<<' .github/workflows/ci.yml; then
    echo "ci.yml holds an inline heredoc: move its check into scripts/ci/"
    exit 1
fi
for script in scripts/ci/*.sh; do
    grep -q "$script" .github/workflows/ci.yml || {
        echo "$script is not called from ci.yml"
        exit 1
    }
done
