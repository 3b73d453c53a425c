#!/usr/bin/env bash
# Counts the fused multiply-add instructions the compiler emits on the
# answer path and fails if any count rose above its ceiling.
#
# Go may fuse x*y+z into one instruction on arm64, ppc64le, s390x and
# riscv64 (never on amd64), and a fused result can differ from the
# separately rounded one in the last bit. The answer-path packages below
# compute every byte of a result, so each new fusion there is a new way
# for those architectures to disagree with amd64. This check keeps the
# counts from rising; lowering them (explicit float64() conversions that
# forbid fusion) lowers the ceilings in scripts/fma_ceilings.txt.
#
# Usage: scripts/check_fma.sh   (prints every count beside its ceiling)
#
# It rebuilds the packages with -a for each architecture (about 10-20 s
# each) and needs nothing but the Go toolchain.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

pkgs=(./internal/num/... ./internal/cluster/... ./internal/core ./internal/trace
	./internal/rng ./internal/perf ./internal/sim/... ./internal/bigdata/cluster)
ceilings=scripts/fma_ceilings.txt

count() { # count <goarch>: fused multiply-add instructions in the -S listing
	GOARCH="$1" go build -a -gcflags='repro/...=-S' "${pkgs[@]}" 2>&1 >/dev/null |
		grep -cE $'\\)\tFN?M(ADD|SUB)[DS]?(\t|$)' || true
}

status=0
while read -r arch ceiling; do
	case "$arch" in '' | '#'*) continue ;; esac
	n=$(count "$arch")
	if [ "$n" -gt "$ceiling" ]; then
		echo "FAIL $arch: $n fused multiply-adds on the answer path, ceiling $ceiling" >&2
		status=1
	else
		echo "ok   $arch: $n fused multiply-adds (ceiling $ceiling)"
	fi
done <"$ceilings"
exit $status
