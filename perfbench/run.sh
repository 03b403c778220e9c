#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs one workload:
#
#   bash perfbench/run.sh --workload etc-saturate --seed 1 --seconds 30 --trace 0
#
# Run it from the repository root. Every file it writes (Go build cache,
# binary, span logs) goes under $CARGO_TARGET_DIR, default .bench_build.
set -euo pipefail

root=$(pwd)
[ -f "$root/go.mod" ] || { echo "run.sh: run from the repository root" >&2; exit 2; }
build="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$build"
build=$(cd "$build" && pwd)

export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

# The checkout may not be a git repository; fall back to a hash of the Go
# sources so every result still names the code it measured.
if ! { [ -e "$root/.git" ] && commit=$(git -C "$root" rev-parse --short=12 HEAD 2>/dev/null); }; then
	commit=src-$(cd "$root" && find . -path ./.bench_build -prune -o -type f \( -name '*.go' -o -name go.mod \) -print |
		LC_ALL=C sort | xargs sha256sum | sha256sum | cut -c1-12) || commit=unknown
fi

(cd "$root/perfbench" && go build -trimpath -ldflags "-X main.commit=$commit" -o "$build/perfbench" .)
exec "$build/perfbench" --out "$build/traces" "$@"
