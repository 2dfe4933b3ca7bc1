#!/usr/bin/env bash
# Print the code size of src/, bench/ and tests/: the lines of their *.cc
# and *.h files that are neither blank nor a `//` comment line (leading
# whitespace ignored). ROADMAP gates and CHANGES.md entries quote these
# counts.
#
# Usage: scripts/loc.sh
set -euo pipefail

cd "$(dirname "$0")/.."
for dir in src bench tests; do
  count=$(find "$dir" \( -name '*.cc' -o -name '*.h' \) -print0 |
            xargs -0 cat | grep -cvE '^[[:space:]]*(//|$)')
  echo "$dir $count"
done
