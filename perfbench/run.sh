#!/usr/bin/env bash
# Builds the benchmark from source and runs it:
#
#   bash perfbench/run.sh --workload collab --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Build outputs, the Go build cache and
# span files go under $CARGO_TARGET_DIR (default .bench_build); documents
# and journals go to a fresh directory on tmpfs (/dev/shm), removed when
# the run ends.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/internal/docserve" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the repository root (no go.mod or internal/docserve here)" >&2
	exit 2
fi

out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out/gocache" "$out/gotmp" "$out/home" "$out/perfbench"

# Keep the toolchain's caches, temp files and telemetry inside the checkout.
export GOCACHE=$out/gocache GOTMPDIR=$out/gotmp GOMODCACHE=$out/gomodcache
export HOME=$out/home XDG_CONFIG_HOME=$out/home XDG_CACHE_HOME=$out/home
export GOTOOLCHAIN=local GOPROXY=off GOENV=off GOFLAGS=-mod=mod CGO_ENABLED=0

# Provenance: the commit and whether the tree had local changes, when the
# checkout is a git repository.
commit=unknown dirty=unknown
if git -C "$root" rev-parse --git-dir >/dev/null 2>&1; then
	commit=$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)
	if [[ -n $(git -C "$root" status --porcelain 2>/dev/null) ]]; then dirty=true; else dirty=false; fi
fi

bin=$out/perfbench/perfbench
(cd "$root/perfbench" && go build -buildvcs=false -o "$bin" .)
exec "$bin" --workdir "$out/perfbench" --commit "$commit" --dirty "$dirty" "$@"
