#!/usr/bin/env bash
# The repo benchmark's one command. Builds the `minshare` CLI and the
# benchmark in release mode, then hands every argument to the benchmark:
#
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#   benchmark/run.sh --smoke | --all | --repeat K [...] | --compare A B
#
# See benchmark/README.md. Everything it writes stays under the build's
# target directory and benchmark/out/.
set -euo pipefail

here=$(cd -- "$(dirname -- "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname -- "$here")

# One absolute target directory for both builds, so the benchmark reuses
# the dependency artefacts of the CLI build. A relative CARGO_TARGET_DIR
# is relative to where this script was started.
target=${CARGO_TARGET_DIR:-$root/target}
case $target in
    /*) ;;
    *) target=$PWD/$target ;;
esac
export CARGO_TARGET_DIR=$target

# Build output goes to stderr: stdout's last line is the result.
cargo build --quiet --release --offline --manifest-path "$root/Cargo.toml" -p minshare-cli >&2
cargo build --quiet --release --offline --manifest-path "$here/Cargo.toml" >&2

exec "$target/release/minshare-benchmark" \
    --minshare "$target/release/minshare" --out "$here/out" "$@"
