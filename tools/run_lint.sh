#!/usr/bin/env bash
# Local entry point for the dfixer_lint finding ratchet. Builds the lint
# binary if it is missing, then checks the tree against the committed
# baseline — exactly what the CI lint-ratchet job runs.
#
#   tools/run_lint.sh                 # ratchet check
#   tools/run_lint.sh --json          # same, findings as JSON on stdout
#   tools/run_lint.sh --update-baseline
#                                     # accept the current findings
#   tools/run_lint.sh --callgraph-dump file.cpp
#                                     # inspect call resolution + externals
#
# Extra arguments are passed through to dfixer_lint verbatim (the binary
# rejects unknown flags rather than treating them as file paths).
set -euo pipefail

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build_dir="$repo_root/build/release"
lint_bin="$build_dir/tools/dfixer_lint"

if [[ ! -x "$lint_bin" ]]; then
  echo "run_lint.sh: building dfixer_lint ..." >&2
  cmake --preset release -S "$repo_root" >/dev/null
  cmake --build "$build_dir" --target dfixer_lint -j >/dev/null
fi

exec "$lint_bin" --root "$repo_root" \
  --baseline "$repo_root/tools/dfixer_lint/baseline.json" "$@"
