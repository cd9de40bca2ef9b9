#!/usr/bin/env bash
# Checks that the reproduced figures have not moved. It regenerates the
# output of `experiments -fig5 -fig6 -stats -orders`, which is
# deterministic, and the query, calls and answers columns of
# `experiments -fig7` with its times stripped, and diffs both against the
# goldens in cmd/experiments/testdata. With -update it rewrites the
# goldens instead. Run it from the repository root:
#
#	bash cmd/experiments/golden.sh          # check (about 1.5 minutes)
#	bash cmd/experiments/golden.sh -update  # after an intended change
set -euo pipefail

dir=cmd/experiments/testdata
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
go build -o "$tmp/experiments" ./cmd/experiments

# fig7_columns keeps the deterministic columns of Figure 7: the query,
# its traverse calls and its answer count. Times and the avg line go.
fig7_columns() {
	awk '/^ *[0-9]+\. / || /^query / { print $1, $2, $4, $5; next } /^avg / { next } { print }'
}

if [ "${1:-}" = -update ]; then
	"$tmp/experiments" -fig5 -fig6 -stats -orders > "$dir/figures.golden"
	"$tmp/experiments" -fig7 | fig7_columns > "$dir/fig7_calls.golden"
	exit 0
fi
"$tmp/experiments" -fig5 -fig6 -stats -orders | diff -u "$dir/figures.golden" -
"$tmp/experiments" -fig7 | fig7_columns | diff -u "$dir/fig7_calls.golden" -
echo "figures match cmd/experiments/testdata"
