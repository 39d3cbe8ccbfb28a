#!/usr/bin/env bash
# AddressSanitizer over the crates whose code is unsafe or lock-free: the
# crew's scoped tasks (a transmuted lifetime), the world state's pending
# commits and the tries a commit takes over, the validator pipeline, the
# node loop and the AVX-512 hash kernel. Needs a nightly toolchain
# (`-Zsanitizer` is unstable) and nothing else; the build goes to
# target/asan. Extra arguments go to `cargo test`, e.g. a test-name filter.
#
#   scripts/asan.sh
#   scripts/asan.sh crew::
set -euo pipefail
cd "$(dirname "$0")/.."
# Doctests link against the instrumented crates, so rustdoc needs the flag
# too.
RUSTFLAGS="-Zsanitizer=address" RUSTDOCFLAGS="-Zsanitizer=address" ASAN_OPTIONS="detect_leaks=0" \
    cargo +nightly test --target x86_64-unknown-linux-gnu --target-dir target/asan \
    -p bp-concurrent -p bp-state -p blockpilot-core -p bp-node -p bp-crypto "$@"
