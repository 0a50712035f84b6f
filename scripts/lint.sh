#!/usr/bin/env bash
# kite-lint: the offline invariant linter (crates/lint) over the whole
# workspace, ratcheted against the committed lint-baseline.txt.
#
#   scripts/lint.sh                    # the pass: fails on NEW violations
#   scripts/lint.sh --list             # print every violation, no ratchet
#   scripts/lint.sh --update-baseline  # re-grandfather (last resort — the
#                                      # baseline is meant to only shrink)
#
# Exit codes: 0 clean (grandfathered entries allowed), 1 new violations,
# 2 usage/IO error. The same check runs as a test of the kite-lint crate
# (crates/lint/tests/workspace.rs); the root manifest lists every member in
# `default-members`, so the plain `cargo test -q` at the root enforces it
# too. This script is the fast, human-facing form with the ratchet diff.
set -euo pipefail
cd "$(dirname "$0")/.."

exec cargo run -q --release -p kite-lint -- --root . "$@"
