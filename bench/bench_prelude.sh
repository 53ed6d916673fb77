# Shared prelude for bench/run_*.sh — benchmark provenance.
#
# Benchmark numbers from an unoptimized tree are noise, so every run script
# sources this after cd'ing to the repo root. It locates (configuring on
# demand) a Release (-O3) build tree, refuses loudly to run from anything
# else, and exports the provenance that the scripts stamp into every
# emitted BENCH_*.json:
#
#   BENCH_BUILD_DIR    — the enforced Release tree (default build-release,
#                        override with SIMPROF_BENCH_BUILD)
#   SIMPROF_BUILD_TYPE — always "Release" once the checks pass
#   SIMPROF_GIT_SHA    — short sha of HEAD ("unknown" outside git), with a
#                        "-dirty" suffix when src/, tools/ or bench/ have
#                        uncommitted changes: the numbers then time a tree
#                        that no commit names
#   SIMPROF_NPROC      — `nproc` of the recording host (a thread sweep on
#                        one CPU is flat and says nothing)
#
# bench_build TARGET builds one bench target inside that tree.

BENCH_BUILD_DIR=${SIMPROF_BENCH_BUILD:-build-release}

if [ ! -f "$BENCH_BUILD_DIR/CMakeCache.txt" ]; then
  echo "bench: configuring Release build tree at $BENCH_BUILD_DIR" >&2
  cmake -B "$BENCH_BUILD_DIR" -S . -DCMAKE_BUILD_TYPE=Release >/dev/null
fi

bench_build_type=$(sed -n 's/^CMAKE_BUILD_TYPE:[^=]*=//p' \
  "$BENCH_BUILD_DIR/CMakeCache.txt")
if [ "$bench_build_type" != "Release" ]; then
  echo "bench: FATAL: $BENCH_BUILD_DIR has CMAKE_BUILD_TYPE='$bench_build_type'" >&2
  echo "bench: benchmarks must run from a Release (-O3) tree; reconfigure with" >&2
  echo "bench:   cmake -B $BENCH_BUILD_DIR -S . -DCMAKE_BUILD_TYPE=Release" >&2
  echo "bench: or point SIMPROF_BENCH_BUILD at an existing Release tree." >&2
  exit 1
fi

SIMPROF_BUILD_TYPE=$bench_build_type
SIMPROF_GIT_SHA=$(git rev-parse --short=12 HEAD 2>/dev/null || echo unknown)
if [ "$SIMPROF_GIT_SHA" != unknown ] &&
   [ -n "$(git status --porcelain -- src tools bench 2>/dev/null)" ]; then
  SIMPROF_GIT_SHA="$SIMPROF_GIT_SHA-dirty"
fi
SIMPROF_NPROC=$(nproc)
export SIMPROF_BUILD_TYPE SIMPROF_GIT_SHA SIMPROF_NPROC

bench_build() {
  echo "bench: building $1 ($BENCH_BUILD_DIR, $SIMPROF_BUILD_TYPE)" >&2
  cmake --build "$BENCH_BUILD_DIR" -j --target "$1" >/dev/null
}
