#!/bin/sh
# loc prints the two numbers ROADMAP's "least code, fewest knobs" aim is
# judged by, so a PR's net delta is read off two runs instead of
# estimated: raw Go line counts (cat | wc -l, no reformatting) per package
# under internal/ and cmd/, split into non-test and test files, and the
# number of flags `segugiod -h` lists. Run via `make loc`.
#
# With -check (`make loc-check`, part of `make check` and CI) the two
# totals are a ratchet: the script exits non-zero when the non-test line
# total exceeds $LOC_MAX or the flag count exceeds $FLAGS_MAX, the ceilings
# committed in the Makefile. A PR that must grow says so by raising the
# number in its diff.
set -eu

# lines <find arguments...>: total lines of the Go files find selects.
lines() {
    find "$@" -name '*.go' -print0 | xargs -0 -r cat | wc -l
}

printf '%-32s %9s %9s\n' package non-test test
for dir in $(find internal cmd -type d | sort); do
    n=$(lines "$dir" -maxdepth 1 ! -name '*_test.go')
    t=$(lines "$dir" -maxdepth 1 -name '*_test.go')
    if [ "$((n + t))" -gt 0 ]; then
        printf '%-32s %9d %9d\n' "$dir" "$n" "$t"
    fi
done
total=$(lines internal cmd ! -name '*_test.go')
printf '%-32s %9d %9d\n' 'total (internal + cmd)' \
    "$total" "$(lines internal cmd -name '*_test.go')"

# -h prints one "  -name ..." line per flag on stderr and exits non-zero.
flags=$(go run ./cmd/segugiod -h 2>&1 | grep -c '^  -' || true)
printf 'segugiod flags: %d\n' "$flags"

if [ "${1:-}" = -check ]; then
    status=0
    if [ "$total" -gt "$LOC_MAX" ]; then
        echo "FAIL: $total non-test lines, ceiling LOC_MAX=$LOC_MAX (Makefile)" >&2
        status=1
    fi
    if [ "$flags" -gt "$FLAGS_MAX" ]; then
        echo "FAIL: $flags segugiod flags, ceiling FLAGS_MAX=$FLAGS_MAX (Makefile)" >&2
        status=1
    fi
    exit $status
fi
