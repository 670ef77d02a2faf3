#!/usr/bin/env bash
# Tier-1 verification gate (referenced from ROADMAP.md): static checks,
# a full build, the test suite under the race detector, a serving-stack
# smoke (real iprism-serve process driven by iprism-loadgen, then a
# graceful SIGTERM drain), and the perf regression gate over the committed
# BENCH_*.json snapshots (passes when a kind has fewer than two snapshots).
set -euo pipefail
cd "$(dirname "$0")/.."

go vet ./...
test -z "$(gofmt -l .)" || { echo "verify: gofmt needed:" >&2; gofmt -l . >&2; exit 1; }
go build ./...
# perfbench/ is a nested module, so ./... above skips it; compile it here so
# an API change it depends on fails tier-1, not only the bench pipeline.
(cd perfbench && go vet ./... && go build -o /dev/null ./...)
# Serving binaries link only what they run: the gateway proxies the wire
# types and must link no engine package, and the scoring server must not
# link the simulator. A binary exports the metric series of every package
# it links, so a stray import shows up as dead families on /metrics.
if go list -deps ./cmd/iprism-gateway | grep -E '^repro/internal/(server|sti|reach|sim|monitor)$'; then
  echo "verify: iprism-gateway links the engine packages listed above" >&2; exit 1
fi
if go list -deps ./cmd/iprism-serve | grep -x 'repro/internal/sim'; then
  echo "verify: iprism-serve links internal/sim" >&2; exit 1
fi
# One scoring call per package: sti.Evaluator.Score/Combined and
# reach.Compute/ComputeCounterfactuals. The older entry points survive only
# as deprecated shims for perfbench/, so nothing else may call them (their
# own definitions aside); that keeps the shims deletable in one go.
shims='(EvaluateWarm|EvaluateWithPrediction|CombinedWithPrediction|ComputeCounterfactualsWarm|NewEvaluatorOptions)\('
shim_calls="$(grep -rnE "$shims" --include='*.go' --exclude-dir=perfbench --exclude-dir=.bench_build . \
  | grep -vE "^[^:]+:[0-9]+:func (\([^)]*\) )?$shims" || true)"
if [ -n "$shim_calls" ]; then
  echo "verify: deprecated scoring shims called outside perfbench/:" >&2; echo "$shim_calls" >&2; exit 1
fi

# The race detector is ~10x; internal/experiments alone runs ~20 min on a
# 1-CPU container, past go test's default 10 min per-package timeout.
go test -race -timeout 45m ./...

# Differential suite: single-world reach.expand (reach.Compute: every |T^∅|,
# one-actor base tube and sti.Evaluator.Combined tube) must match the
# single-world reference loop (test code) bit-for-bit, its Blocked report
# and the FuzzSingleWorldVsReference seed corpus included; the
# shared-expansion counterfactual engine (reach.ComputeCounterfactuals,
# scored through sti.Evaluator.Score) must match the per-actor oracle (test
# code) bit-for-bit — including the 64-130-actor segmented-mask scenes, the
# benchmark's input classes and the FuzzSharedVsLegacy seed corpus — and
# the warm-started session engine (the same two calls given a WarmState)
# must match the cold path bit-for-bit across recorded session traces and
# the FuzzWarmVsCold perturbation corpus, with its memo arenas sized to each
# parent's sub-step count and a shared Scratch keeping one table per mask
# width; the control-fan integration kernel must match the per-control
# StepPath oracle bit for bit, and Score must still produce the committed
# golden digest (the differential oracles share the integration, so only
# the digest sees it drift); the D-DQN learner's blocked kernels and
# target-Q memo must match the scalar reference learner (test code) bit for
# bit after every Observe, and a seeded DefaultConfig training must still
# produce its committed golden digest, serial and with two episode workers
# (the trainer's own oracle shares the rl package, so only the digest sees
# the learner drift)
# (already part of ./... above, but run explicitly so a perf-motivated
# edit cannot silently drop any of these proofs).
# A rename could leave a package matching no test, which go test passes
# silently, so list the matches first: every package must match at least
# one test or fuzz target, and the cornerstone differential tests must all
# be present.
diff_run='SingleWorld|Shared|MaskGrid|Warm|FuzzSharedVsLegacy|FuzzWarmVsCold|IntegrateFan|GoldenDigest|Learner|TrainGoldenDigest'
diff_pkgs=(./internal/reach ./internal/sti ./internal/geom ./internal/server ./internal/rl ./internal/smc)
diff_list="$(go test -list "$diff_run" "${diff_pkgs[@]}")"
echo "$diff_list" | awk '
  /^(Test|Fuzz)/ { n++ }
  /^(ok|\?) / { if (n == 0) { print "verify: " $2 " matches no differential test" > "/dev/stderr"; bad = 1 } n = 0 }
  END { exit bad }'
for t in TestSingleWorldMatchesReference FuzzSingleWorldVsReference \
  TestSharedMatchesLegacySegmented TestSharedSegmentedForcedWords \
  TestSharedExpansionMatchesLegacyScenes \
  TestWarmMatchesColdSessionTraces FuzzSharedVsLegacy FuzzWarmVsCold \
  TestWarmMemoDenseArena TestSharedScratchAcrossWidths \
  TestIntegrateFanMatchesPerControl TestEvaluateGoldenDigest \
  TestLearnerMatchesReference FuzzLearnerVsReference TestTrainGoldenDigest; do
  echo "$diff_list" | grep -qx "$t" \
    || { echo "verify: differential test $t is missing" >&2; exit 1; }
done
go test -race -count=1 -run "$diff_run" "${diff_pkgs[@]}"

# Serving smoke: ephemeral-port server, a short load burst, then SIGTERM.
# The server must answer every accepted request and exit 0 from the drain.
smoke_dir="$(mktemp -d)"
trap 'rm -rf "$smoke_dir"' EXIT
go build -o "$smoke_dir" ./cmd/iprism-serve ./cmd/iprism-loadgen ./cmd/iprism-promlint ./cmd/iprism-risktrace
"$smoke_dir/iprism-serve" -addr 127.0.0.1:0 -addr-file "$smoke_dir/addr" \
  -journal "$smoke_dir/journal.jsonl" &
serve_pid=$!
for _ in $(seq 1 100); do
  [ -s "$smoke_dir/addr" ] && break
  kill -0 "$serve_pid" 2>/dev/null || { echo "verify: iprism-serve died before listening" >&2; exit 1; }
  sleep 0.1
done
[ -s "$smoke_dir/addr" ] || { echo "verify: iprism-serve never wrote addr-file" >&2; exit 1; }
serve_url="http://$(cat "$smoke_dir/addr")"
"$smoke_dir/iprism-loadgen" -target "$serve_url" \
  -requests 200 -concurrency 4 -batch 8 -scenes 20 -min-rate 100

# Observability smoke: a caller-supplied trace ID must round-trip through
# the response header, resolve in /debug/requests, and land as a wide event
# in the journal; /metrics must pass the conformance linter in both formats.
trace_id="cafe0000000000000000000000000001"
cat > "$smoke_dir/scene.json" <<'EOF'
{"version":"iprism.scene/v1","ego":{"x":0,"y":1.75,"heading":0,"speed":10},
 "road":{"kind":"straight","straight":{"lanes":2,"lane_width":3.5,"x_min":-100,"x_max":400}},
 "actors":[{"id":1,"kind":"vehicle","state":{"x":14,"y":1.75,"heading":0,"speed":3}},
           {"id":2,"kind":"vehicle","state":{"x":-40,"y":5.25,"heading":0,"speed":8}}]}
EOF
curl -sS -D "$smoke_dir/headers" -o "$smoke_dir/score.json" \
  -H "X-Trace-Id: $trace_id" -H 'Content-Type: application/json' \
  --data-binary @"$smoke_dir/scene.json" "$serve_url/v1/score?explain=1"
grep -qi "^X-Trace-Id: $trace_id" "$smoke_dir/headers" \
  || { echo "verify: X-Trace-Id did not round-trip" >&2; cat "$smoke_dir/headers" >&2; exit 1; }
grep -qi "^X-Request-Id: " "$smoke_dir/headers" \
  || { echo "verify: response missing X-Request-Id" >&2; exit 1; }
grep -q '"provenance"' "$smoke_dir/score.json" \
  || { echo "verify: ?explain=1 returned no provenance block" >&2; cat "$smoke_dir/score.json" >&2; exit 1; }
curl -sSf "$serve_url/debug/requests?trace_id=$trace_id" | grep -q "$trace_id" \
  || { echo "verify: trace not resolvable via /debug/requests" >&2; exit 1; }
curl -sSf "$serve_url/debug/slo" | grep -q '"availability"' \
  || { echo "verify: /debug/slo missing availability objective" >&2; exit 1; }
# Session smoke: every session warm-starts, so observing the same scene
# twice must warm-hit on the second tick, and that tick's STI must equal
# the stateless /v1/score combined STI for the same bytes.
serve_sid=$(curl -sS -X POST -H 'Content-Type: application/json' -d '{}' "$serve_url/v1/sessions" \
  | grep -o '"id":"[^"]*"' | head -1 | cut -d'"' -f4)
[ -n "$serve_sid" ] || { echo "verify: session create returned no id" >&2; exit 1; }
for i in 1 2; do
  curl -sSf -o "$smoke_dir/observe$i.json" -H 'Content-Type: application/json' \
    --data-binary @"$smoke_dir/scene.json" "$serve_url/v1/sessions/$serve_sid/observe?explain=1"
done
grep -q '"warm_hit":true' "$smoke_dir/observe2.json" \
  || { echo "verify: second session tick did not warm-hit" >&2; cat "$smoke_dir/observe2.json" >&2; exit 1; }
session_sti=$(grep -o '"sti":[^,}]*' "$smoke_dir/observe2.json" | head -1 | cut -d: -f2)
score_sti=$(grep -o '"combined_sti":[^,}]*' "$smoke_dir/score.json" | head -1 | cut -d: -f2)
[ -n "$session_sti" ] && [ "$session_sti" = "$score_sti" ] \
  || { echo "verify: session sti '$session_sti' != /v1/score combined_sti '$score_sti'" >&2; exit 1; }
"$smoke_dir/iprism-promlint" -url "$serve_url/metrics"
"$smoke_dir/iprism-promlint" -url "$serve_url/metrics" -openmetrics
curl -sSf -o "$smoke_dir/serve.metrics" "$serve_url/metrics"
if grep -E '^# TYPE iprism_sim_' "$smoke_dir/serve.metrics"; then
  echo "verify: iprism-serve exports simulator families (above)" >&2; exit 1
fi
# Serve never takes the combined-only fast path, whose latency family
# registers on its first call, so serve must not export it.
if grep -E '^# TYPE iprism_sti_evaluate_combined_seconds' "$smoke_dir/serve.metrics"; then
  echo "verify: iprism-serve exports iprism_sti_evaluate_combined_seconds (above)" >&2; exit 1
fi

kill -TERM "$serve_pid"
wait "$serve_pid"
grep -q "\"trace_id\":\"$trace_id\"" "$smoke_dir/journal.jsonl" \
  || { echo "verify: journal has no wide event for the smoke trace" >&2; exit 1; }
"$smoke_dir/iprism-risktrace" -trace "$smoke_dir/journal.jsonl" -trace-id "$trace_id" > /dev/null
echo "verify: serving + observability smoke passed (graceful drain exit 0)"

# Fleet smoke: three backends behind iprism-gateway. Sessions must stay
# sticky (at most one move — the deliberate mid-run SIGKILL of a backend),
# client-visible errors must stay under 1% while the gateway ejects the
# corpse and retries around it, SSE must stream and resume through the
# gateway, and a corpus job must complete across the survivors.
go build -o "$smoke_dir" ./cmd/iprism-gateway
backend_pids=()
for i in 1 2 3; do
  "$smoke_dir/iprism-serve" -addr 127.0.0.1:0 -addr-file "$smoke_dir/b$i.addr" &
  backend_pids+=($!)
done
for i in 1 2 3; do
  for _ in $(seq 1 100); do [ -s "$smoke_dir/b$i.addr" ] && break; sleep 0.1; done
  [ -s "$smoke_dir/b$i.addr" ] || { echo "verify: fleet backend $i never listened" >&2; exit 1; }
done
backends="$(cat "$smoke_dir/b1.addr"),$(cat "$smoke_dir/b2.addr"),$(cat "$smoke_dir/b3.addr")"
"$smoke_dir/iprism-gateway" -addr 127.0.0.1:0 -addr-file "$smoke_dir/gw.addr" \
  -backends "$backends" -probe-interval 200ms &
gw_pid=$!
for _ in $(seq 1 100); do [ -s "$smoke_dir/gw.addr" ] && break; sleep 0.1; done
[ -s "$smoke_dir/gw.addr" ] || { echo "verify: iprism-gateway never listened" >&2; exit 1; }
gw_url="http://$(cat "$smoke_dir/gw.addr")"

# SSE through the gateway: create a session, record three observations,
# then attach with Last-Event-ID resume and expect the replay.
sid=$(curl -sS -X POST -H 'Content-Type: application/json' -d '{}' "$gw_url/v1/sessions" \
  | grep -o '"id":"[^"]*"' | head -1 | cut -d'"' -f4)
[ -n "$sid" ] || { echo "verify: gateway session create returned no id" >&2; exit 1; }
for _ in 1 2 3; do
  curl -sSf -o /dev/null -H 'Content-Type: application/json' \
    --data-binary @"$smoke_dir/scene.json" "$gw_url/v1/sessions/$sid/observe"
done
curl -sS --max-time 2 -H 'Last-Event-ID: 1' \
  "$gw_url/v1/sessions/$sid/stream" > "$smoke_dir/stream.txt" || true
grep -q "^event: risk" "$smoke_dir/stream.txt" \
  || { echo "verify: gateway SSE stream carried no risk events" >&2; cat "$smoke_dir/stream.txt" >&2; exit 1; }
grep -q "^id: 2" "$smoke_dir/stream.txt" \
  || { echo "verify: Last-Event-ID resume did not replay event 2" >&2; cat "$smoke_dir/stream.txt" >&2; exit 1; }

# Fleet load with a mid-run SIGKILL of one backend plus a corpus job. The
# loadgen gates affinity (max one backend move per session), the error
# rate, a throughput floor, and the job's per-scene results.
( sleep 2; kill -9 "${backend_pids[1]}" ) &
killer_pid=$!
"$smoke_dir/iprism-loadgen" -target "$gw_url" -gateway \
  -duration 6s -concurrency 4 -scenes 20 \
  -max-error-rate 0.01 -max-session-moves 1 -min-rate 30 \
  -job-scenes 30 -o "$smoke_dir"
wait "$killer_pid"
ls "$smoke_dir"/BENCH_serve_*.json >/dev/null \
  || { echo "verify: fleet loadgen wrote no snapshot" >&2; exit 1; }
grep -q '"kind": "fleet"' "$smoke_dir"/BENCH_serve_*.json \
  || { echo "verify: fleet snapshot has wrong kind" >&2; exit 1; }

# Gateway observability: the killed backend must show as ejected, the
# flight recorder must hold proxy wide events, and /metrics must pass the
# conformance linter in both formats.
curl -sSf "$gw_url/debug/backends" | grep -q '"healthy":2' \
  || { echo "verify: gateway never ejected the SIGKILL'd backend" >&2; curl -s "$gw_url/debug/backends" >&2; exit 1; }
curl -sSf "$gw_url/debug/requests" | grep -q '"route"' \
  || { echo "verify: gateway flight recorder is empty" >&2; exit 1; }
"$smoke_dir/iprism-promlint" -url "$gw_url/metrics"
"$smoke_dir/iprism-promlint" -url "$gw_url/metrics" -openmetrics
curl -sSf -o "$smoke_dir/gw.metrics" "$gw_url/metrics"
if grep -E '^# TYPE iprism_(server|sti|reach|sim|monitor)_' "$smoke_dir/gw.metrics"; then
  echo "verify: iprism-gateway exports engine families (above)" >&2; exit 1
fi

kill -TERM "$gw_pid"
wait "$gw_pid"
kill -TERM "${backend_pids[0]}" "${backend_pids[2]}"
wait "${backend_pids[0]}" "${backend_pids[2]}"
echo "verify: fleet smoke passed (SIGKILL failover absorbed, graceful drain exit 0)"

# Training smoke: a short seeded run, then an identical run interrupted by
# SIGINT after its first checkpoint and completed with -resume. The resumed
# controller must be bitwise-equal to the uninterrupted one — the checkpoint
# carries the exact learner/RNG/schedule state. (If the run outraces the
# signal the kill is a no-op and the cmp still gates resume correctness.)
go build -o "$smoke_dir" ./cmd/iprism-train
"$smoke_dir/iprism-train" -typology ghost-cut-in -n 6 -seed 11 -episodes 40 \
  -o "$smoke_dir/smc_a.json" > /dev/null
"$smoke_dir/iprism-train" -typology ghost-cut-in -n 6 -seed 11 -episodes 40 \
  -checkpoint "$smoke_dir/train.ck" -checkpoint-every 2 \
  -o "$smoke_dir/smc_cut.json" > "$smoke_dir/train_cut.log" &
train_pid=$!
for _ in $(seq 1 300); do
  [ -s "$smoke_dir/train.ck" ] && break
  kill -0 "$train_pid" 2>/dev/null || break
  sleep 0.1
done
kill -INT "$train_pid" 2>/dev/null || true
wait "$train_pid" \
  || { echo "verify: interrupted iprism-train exited non-zero" >&2; cat "$smoke_dir/train_cut.log" >&2; exit 1; }
"$smoke_dir/iprism-train" -typology ghost-cut-in -n 6 -seed 11 -episodes 40 \
  -checkpoint "$smoke_dir/train.ck" -resume -o "$smoke_dir/smc_b.json" > /dev/null
cmp "$smoke_dir/smc_a.json" "$smoke_dir/smc_b.json" \
  || { echo "verify: resumed training diverged from the uninterrupted run" >&2; exit 1; }
echo "verify: training interrupt/resume smoke passed (controllers bitwise-equal)"

go run ./cmd/iprism-benchdiff -dir .
