#!/usr/bin/env bash
# Lists the strong text symbols of libcamad.a that none of the four tools
# (camadc, camadd, camad-gen, camad_load) links, and fails unless that
# list is exactly the oracle-and-fixture list in docs/TESTING.md (the
# block between the `unreached-symbols:begin` and `:end` markers, one
# "- `demangled symbol` — reason" line each).
#
# The build is Debug with -ffunction-sections/-fdata-sections and a
# --gc-sections link, so a symbol survives in a tool only if the tool can
# reach it; inline and template code (weak symbols) is not counted.
#
# Usage: tools/unreached_symbols.sh [build-dir]    (default: build-scan)
set -euo pipefail

root="$(cd "$(dirname "$0")/.." && pwd)"
build="${1:-$root/build-scan}"
doc="$root/docs/TESTING.md"
tools=(camadc camadd camad-gen camad_load)

cmake -B "$build" -S "$root" -DCMAKE_BUILD_TYPE=Debug \
  -DCAMAD_BUILD_TESTS=OFF -DCAMAD_BUILD_BENCHMARKS=OFF \
  -DCAMAD_BUILD_EXAMPLES=OFF \
  -DCMAKE_CXX_FLAGS="-ffunction-sections -fdata-sections" \
  -DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections >/dev/null
cmake --build "$build" -j "$(nproc)" --target "${tools[@]}" >/dev/null

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

nm -C --defined-only "$build/src/libcamad.a" |
  sed -n -E 's/^[0-9a-f]+ T //p' | sort -u >"$tmp/library"
for tool in "${tools[@]}"; do
  nm -C --defined-only "$build/tools/$tool"
done | sed -n -E 's/^[0-9a-f]+ [A-Za-z] //p' | sort -u >"$tmp/linked"
comm -23 "$tmp/library" "$tmp/linked" >"$tmp/unreached"

sed -n '/<!-- unreached-symbols:begin -->/,/<!-- unreached-symbols:end -->/p' \
  "$doc" | sed -n -E 's/^- `([^`]+)`.*/\1/p' | sort -u >"$tmp/named"

cat "$tmp/unreached"
echo "$(wc -l <"$tmp/unreached") unreached symbol(s)," \
  "$(wc -l <"$tmp/named") named in docs/TESTING.md"

status=0
if ! comm -23 "$tmp/unreached" "$tmp/named" >"$tmp/unnamed" ||
  [ -s "$tmp/unnamed" ]; then
  echo "unreached but not named in docs/TESTING.md:" >&2
  sed 's/^/  /' "$tmp/unnamed" >&2
  status=1
fi
if ! comm -13 "$tmp/unreached" "$tmp/named" >"$tmp/stale" ||
  [ -s "$tmp/stale" ]; then
  echo "named in docs/TESTING.md but not unreached (reached or gone):" >&2
  sed 's/^/  /' "$tmp/stale" >&2
  status=1
fi
exit "$status"
