#!/usr/bin/env bash
# Go line counts per package: non-test and test lines (wc -l), then the
# totals ROADMAP tracks. benchmark/ (its own module, frozen), testdata/ and
# the .bench_build/ cache are left out.
#
#   scripts/loc.sh        (or: make loc)
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
find . -name '*.go' \
	-not -path './benchmark/*' -not -path '*/testdata/*' -not -path './.bench_build/*' -print0 |
	xargs -0 wc -l | grep -v ' total$' |
	awk '{
		n = $1; f = $2; sub(/^\.\//, "", f)
		d = f; if (!sub(/\/[^\/]*$/, "", d)) d = "."
		if (f ~ /_test\.go$/) { test[d] += n; tt += n } else { src[d] += n; ts += n }
		seen[d] = 1
	}
	END {
		printf "%-32s %8s %8s\n", "package", "non-test", "test"
		for (d in seen) printf "%-32s %8d %8d\n", d, src[d], test[d] | "sort"
		close("sort")
		printf "%-32s %8d %8d\n", "total", ts, tt
	}'
