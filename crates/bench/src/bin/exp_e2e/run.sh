#!/usr/bin/env bash
# Builds the tracelens CLI and the exp_e2e harness from this checkout,
# then runs the harness with the given arguments. Run it from the root
# of a checkout, for example:
#
#   bash crates/bench/src/bin/exp_e2e/run.sh --workload paper600 --seed 7
#
# Both binaries land in one target directory ($CARGO_TARGET_DIR, default
# ./target), where the harness finds the CLI next to itself.
set -euo pipefail
here=$(dirname "$0")
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
cargo build --release --offline --quiet --bin tracelens >&2
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
exec "$CARGO_TARGET_DIR/release/exp_e2e" "$@"
