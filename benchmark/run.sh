#!/usr/bin/env bash
# The repository's reference benchmark. See benchmark/README.md.
#
#   benchmark/run.sh                     every workload untraced, then traced;
#                                        prints every metric, writes results-*.json
#   benchmark/run.sh --trace             the traced runs only
#   benchmark/run.sh --smoke             unit tests, then every workload at ~2 s
#   benchmark/run.sh --repeat N          the whole set N times on one seed: medians,
#                                        quartiles and spread against the bounds;
#                                        counts must repeat exactly
#   benchmark/run.sh --compare A B       two result files against the bounds
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#                                        one run; the last line of standard
#                                        output is the JSON result (the form
#                                        BENCHMARK.json's `command` is run in)
#
# Builds into $CARGO_TARGET_DIR (default target/benchmark); scratch stores,
# traces and result files go there too, never into the tracked tree.
set -euo pipefail

cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target/benchmark}"
BIN="$CARGO_TARGET_DIR/release/fabric-benchmark"
REPORT=(python3 benchmark/report.py)

build() {
  # Build output must not end up on standard output: the driver reads the
  # last line of it.
  cargo build --release --offline --manifest-path benchmark/Cargo.toml >&2
}

case "${1:-}" in
  --workload)
    build
    exec "$BIN" "$@"
    ;;
  --compare)
    [ $# -eq 3 ] || { echo "usage: run.sh --compare a.json b.json" >&2; exit 2; }
    exec "${REPORT[@]}" compare "$2" "$3"
    ;;
  --smoke)
    cargo test --release --offline --manifest-path benchmark/Cargo.toml >&2
    build
    exec "${REPORT[@]}" run --bin "$BIN" --out "$CARGO_TARGET_DIR" --smoke
    ;;
  --trace)
    build
    exec "${REPORT[@]}" run --bin "$BIN" --out "$CARGO_TARGET_DIR" --traced-only
    ;;
  --repeat)
    [ $# -eq 2 ] || { echo "usage: run.sh --repeat N" >&2; exit 2; }
    build
    exec "${REPORT[@]}" repeat --bin "$BIN" --out "$CARGO_TARGET_DIR" --sets "$2"
    ;;
  "")
    build
    exec "${REPORT[@]}" run --bin "$BIN" --out "$CARGO_TARGET_DIR"
    ;;
  *)
    sed -n '2,17p' "$0" >&2
    exit 2
    ;;
esac
