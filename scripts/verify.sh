#!/bin/sh
# Repo verification gate: build, vet (the nested perfbench module
# included), formatting, lint (when installed), full tests (shuffled),
# the concurrent packages under the race detector, fuzz smoke, every
# example program run to completion, and a live memgazed smoke test.
# Run from the repo root.
#
# Every stage fails with a distinct "verify: FAILED stage: <name>"
# message so CI logs point at the broken stage without scrolling.
#
#   VERIFY_QUICK=1 scripts/verify.sh   # skip fuzz, examples + daemon smoke
#   VERIFY_BENCH=1 scripts/verify.sh   # also run the benchmark gate
#                                      # against the latest BENCH_N.json
set -eu

stage=""
begin() {
    stage="$1"
    echo "== $stage =="
}
die() {
    echo "verify: FAILED stage: $stage" >&2
    exit 1
}
run() {
    begin "$1"
    shift
    "$@" || die
}

run "go build" go build ./...
run "go vet" go vet ./...
# perfbench is a nested module, so the root ./... skips it; vetting it
# here catches an internal API change that would break the benchmark.
run "go vet (perfbench)" go -C perfbench vet .

begin "gofmt"
unformatted=$(gofmt -l .) || die
if [ -n "$unformatted" ]; then
    echo "gofmt needed on:" >&2
    echo "$unformatted" >&2
    die
fi

# staticcheck is optional locally (not part of the base toolchain) but
# CI installs it, so the gate tightens automatically on runners.
begin "staticcheck"
if command -v staticcheck >/dev/null 2>&1; then
    staticcheck ./... || die
else
    echo "staticcheck not installed; skipping (CI runs it)"
fi

run "go test (shuffled)" go test -count=1 -shuffle=on ./...
run "go test -race (trace)" go test -count=1 -race ./internal/trace/...
run "go test -race (engine)" go test -count=1 -race ./internal/engine/...
run "go test -race (analysis)" go test -count=1 -race ./internal/analysis/...
run "go test -race (pt)" go test -count=1 -race ./internal/pt/...
run "go test -race (server)" go test -count=1 -race ./internal/server/...
run "go test -race (cluster)" go test -count=1 -race ./internal/cluster/...
run "go test -race (cache)" go test -count=1 -race ./internal/cache/...
run "go test -race (diff)" go test -count=1 -race ./internal/diff/...
run "go test -race (storage)" go test -count=1 -race ./internal/storage/...

if [ "${VERIFY_QUICK:-0}" = "1" ]; then
    echo "VERIFY_QUICK=1: skipping fuzz smoke, examples and memgazed smoke"
    echo "verify OK (quick)"
    exit 0
fi

run "fuzz smoke (FuzzDecode pt)" \
    go test -run '^FuzzDecode$' -fuzz '^FuzzDecode$' -fuzztime 10s ./internal/pt/
run "fuzz smoke (FuzzDecode trace)" \
    go test -run '^FuzzDecode$' -fuzz '^FuzzDecode$' -fuzztime 10s ./internal/trace/
run "fuzz smoke (FuzzStreamDecode)" \
    go test -run '^FuzzStreamDecode$' -fuzz '^FuzzStreamDecode$' -fuzztime 10s ./internal/pt/
run "fuzz smoke (FuzzWindowKernels)" \
    go test -run '^FuzzWindowKernels$' -fuzz '^FuzzWindowKernels$' -fuzztime 10s ./internal/analysis/
run "fuzz smoke (FuzzDiagKernel)" \
    go test -run '^FuzzDiagKernel$' -fuzz '^FuzzDiagKernel$' -fuzztime 10s ./internal/analysis/
run "fuzz smoke (FuzzSweep)" \
    go test -run '^FuzzSweep$' -fuzz '^FuzzSweep$' -fuzztime 10s ./internal/analysis/

# Scratch space for the stages below, removed on exit.
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

begin "examples"
# Every examples/ program must build and run to exit 0; their output is
# for people, so only the exit status is checked.
go build -o "$work/examples/" ./examples/... || die
for ex in "$work"/examples/*; do
    echo "-- ${ex##*/}"
    "$ex" >/dev/null || die
done

begin "memgazed smoke"
# Boot the daemon on an ephemeral port, hit /v1/healthz and /metrics,
# then SIGTERM it and require a clean drain (exit 0).
smokedir="$work/smoke"
mkdir "$smokedir" || die
go build -o "$smokedir/memgazed" ./cmd/memgazed || die
"$smokedir/memgazed" -addr 127.0.0.1:0 >"$smokedir/log" 2>&1 &
pid=$!
addr=""
for _ in $(seq 1 50); do
    addr=$(sed -n 's/^memgazed: listening on //p' "$smokedir/log")
    [ -n "$addr" ] && break
    kill -0 "$pid" 2>/dev/null || { cat "$smokedir/log" >&2; die; }
    sleep 0.1
done
[ -n "$addr" ] || { echo "memgazed never reported an address" >&2; cat "$smokedir/log" >&2; die; }
# Buffer responses before grep: -q closing the pipe early would make
# curl report a write failure.
curl -fsS "http://$addr/v1/healthz" >"$smokedir/healthz" || die
grep -q '"ok"' "$smokedir/healthz" || die
curl -fsS "http://$addr/metrics" >"$smokedir/metrics" || die
grep -q '^memgazed_requests_total' "$smokedir/metrics" || die
kill -TERM "$pid"
wait "$pid" || { echo "memgazed did not drain cleanly" >&2; cat "$smokedir/log" >&2; die; }
grep -q 'drained, exiting' "$smokedir/log" || die

# Opt-in benchmark regression gate: CI runs this in its own job against
# the newest committed baseline (resolved, never hardcoded).
if [ "${VERIFY_BENCH:-0}" = "1" ]; then
    begin "bench gate"
    baseline=$(scripts/bench-baseline.sh) || die
    echo "baseline: $baseline"
    go run ./cmd/memgaze-bench -quick -gate "$baseline" -gate-threshold 20 || die
fi

echo "verify OK"
