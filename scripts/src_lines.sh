#!/usr/bin/env bash
# Prints the number of non-blank Rust source lines under crates/*/src and
# src/, counting each file only up to its first `#[cfg(test)]` line, so
# unit-test modules are left out. Run from the repository root:
#
#   scripts/src_lines.sh

set -euo pipefail
cd "$(dirname "$0")/.."

find crates/*/src src -name '*.rs' -print0 \
    | xargs -0 awk 'FNR == 1 { skip = 0 } /#\[cfg\(test\)\]/ { skip = 1 } !skip && NF { n++ }
                    END { print n }' \
    | awk '{ total += $1 } END { print total }'
