#!/bin/sh
# check.sh — the pre-merge gate: formatting, vet (native and a
# darwin/arm64 cross-build), the full test suite under the race
# detector (which includes the repository lints in
# scripts/deadcode_test.go: the dead-code gate over internal/ and the
# package-doc rule), the artifact pins and work ledger, the perfbench
# module's vet and tests, the fuzz seed corpora, paperfigs' fault
# injection and checkpoint/resume end to end, byte-identical
# regeneration of the SLEM, physics, Whanau, sybil-defense and
# distributed artifacts in results/, and the live zero-alloc kernel
# gate. Run from anywhere inside the repo.
set -eu

cd "$(dirname "$0")/.."

echo "== gofmt =="
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
	echo "gofmt needed on:" >&2
	echo "$unformatted" >&2
	exit 1
fi

echo "== go vet =="
go vet ./...

echo "== cross-build vet (darwin/arm64) =="
# No linux/amd64 stage compiles the pure-Go kernel stubs
# (internal/markov/block_noasm.go) or the non-mmap graph loader
# (internal/graphio/mmap_other.go); vetting a darwin/arm64 build
# keeps both compiling.
GOOS=darwin GOARCH=arm64 go vet ./...

echo "== go test -race =="
go test -race ./...

echo "== artifact pins and work ledger =="
# TestArtifactPins is //go:build !race (the -race run above skips it):
# it runs all 20 artifacts at a small config, holds each one's bytes
# to a sha256 pin and its telemetry counters (matvecs, Lanczos steps,
# edges scanned, distmix rounds and messages, ...) to the committed
# internal/experiments/testdata/ledger.csv. The counts are exact at
# any GOMAXPROCS, so a change that does more or less solver work fails
# here with the changed rows named, even when no byte moves.
go test -count=1 -run '^TestArtifactPins$' ./internal/experiments

echo "== perfbench module =="
# perfbench/ is its own Go module (mixtime/perfbench), so the root-level
# vet and test runs above never enter it. Its tests check that the
# metric manifest and BENCHMARK.json agree.
(cd perfbench && go vet ./... && go test ./...)

echo "== fault-tolerance race gate =="
# The retry/checkpoint machinery and the service's singleflight cache
# are the most concurrency-sensitive code in the repo; re-run them
# uncached so a cached pass can never mask a freshly introduced race.
go test -race -count=1 ./internal/runner ./internal/telemetry ./internal/checkpoint \
	./internal/api ./internal/service ./internal/distmix ./internal/evolve ./internal/faults

echo "== fuzz corpus =="
# Execute the seed corpus of every fuzz target (no fuzzing engine —
# deterministic and fast): the graph Builder and Subgraph against
# their sort-based reference, the graphio readers, the query decoder
# and the result cache's warm load. Longer exploration:
#   go test -fuzz=FuzzBuild -fuzztime=30s ./internal/graph
#   go test -fuzz=FuzzReadMIXG -fuzztime=30s ./internal/graphio
#   go test -fuzz=FuzzDecodeRequest -fuzztime=30s ./internal/api
#   go test -fuzz=FuzzWarmLoad -fuzztime=30s ./internal/service
go test -run='^Fuzz' ./internal/graph ./internal/graphio ./internal/api ./internal/service

echo "== paperfigs fault injection =="
# The runner's containment paths through the real binary, armed with
# the internal/faults grammar mixtimed uses. A capped panic and a
# capped transient error take T1's first two attempts and -retries 2
# leaves the third to the driver, so T1 and F1 must match an
# uninjected run byte for byte. An injected stall runs under the
# attempt deadline, so it must fail the run as a timeout within 10 s
# instead of hanging it.
inj_dir=$(mktemp -d)
trap 'rm -rf "$inj_dir"' EXIT
mkdir "$inj_dir/clean" "$inj_dir/injected"
go build -o "$inj_dir/paperfigs" ./cmd/paperfigs
"$inj_dir/paperfigs" -q -only T1,F1 -scale 0.001 -csv "$inj_dir/clean" >/dev/null
if ! "$inj_dir/paperfigs" -q -only T1,F1 -scale 0.001 -retries 2 \
	-inject 'seed=7,panic=1:1,error=1:1' -csv "$inj_dir/injected" >/dev/null 2>"$inj_dir/retry.log"; then
	echo "injected panic and error were not retried to success:" >&2
	cat "$inj_dir/retry.log" >&2
	exit 1
fi
for id in T1 F1; do
	if ! cmp "$inj_dir/injected/$id.csv" "$inj_dir/clean/$id.csv"; then
		echo "$id.csv after injected faults differs from the uninjected run" >&2
		exit 1
	fi
done
if timeout 10 "$inj_dir/paperfigs" -q -only T1 -scale 0.001 -exp-timeout 1s \
	-inject latency=1m >/dev/null 2>"$inj_dir/stall.log"; then
	echo "injected stall: paperfigs exited 0, want a timed-out failure" >&2
	exit 1
fi
if ! grep -q "timed out" "$inj_dir/stall.log"; then
	echo "injected stall did not fail as a timeout within 10 s:" >&2
	cat "$inj_dir/stall.log" >&2
	exit 1
fi
rm -rf "$inj_dir"
trap - EXIT
echo "injected panic and error retried to identical bytes; injected stall timed out"

echo "== paperfigs checkpoint and resume =="
# -checkpoint and -resume through the real binary. A checkpointed run
# of T1 and F1 writes one <id>.json entry each; a temp file like the
# one a save killed mid-write leaves (internal/atomicfile) is planted
# beside them; the resumed rerun must replay both experiments, remove
# the leftover, and reproduce stdout and the CSV and JSON artifacts
# byte for byte: real Render text (µ, ε) through the one-file entry.
ckpt_dir=$(mktemp -d)
trap 'rm -rf "$ckpt_dir"' EXIT
mkdir "$ckpt_dir/csv1" "$ckpt_dir/csv2" "$ckpt_dir/json1" "$ckpt_dir/json2"
go build -o "$ckpt_dir/paperfigs" ./cmd/paperfigs
"$ckpt_dir/paperfigs" -q -only T1,F1 -scale 0.001 -checkpoint "$ckpt_dir/ckpt" \
	-csv "$ckpt_dir/csv1" -json "$ckpt_dir/json1" >"$ckpt_dir/out1.txt"
leftover="$ckpt_dir/ckpt/.F1.json.123456.tmp"
printf '{"fingerprint":' >"$leftover"
"$ckpt_dir/paperfigs" -q -only T1,F1 -scale 0.001 -checkpoint "$ckpt_dir/ckpt" -resume \
	-csv "$ckpt_dir/csv2" -json "$ckpt_dir/json2" >"$ckpt_dir/out2.txt" 2>"$ckpt_dir/resume.log"
for id in T1 F1; do
	if ! grep -Eq "^  $id +[0-9.]+s  ok \(resumed from checkpoint\)$" "$ckpt_dir/resume.log"; then
		echo "$id was not resumed from its checkpoint:" >&2
		cat "$ckpt_dir/resume.log" >&2
		exit 1
	fi
	for ext in csv json; do
		if ! cmp "$ckpt_dir/${ext}1/$id.$ext" "$ckpt_dir/${ext}2/$id.$ext"; then
			echo "resumed $id.$ext differs from the checkpointed run's" >&2
			exit 1
		fi
	done
done
if [ -e "$leftover" ]; then
	echo "the resumed run left the planted temp file in the checkpoint directory" >&2
	exit 1
fi
if ! cmp "$ckpt_dir/out1.txt" "$ckpt_dir/out2.txt"; then
	echo "resumed stdout differs from the checkpointed run's" >&2
	exit 1
fi
rm -rf "$ckpt_dir"
trap - EXIT
echo "T1 and F1 resumed from their checkpoints to identical bytes"

echo "== SLEM, physics and Whanau artifacts =="
# The seven committed artifacts whose rows come from a SLEM solve
# (Table 1, Figures 1/2/6/7, the conductance and trust extensions),
# the three brute-force physics figures (F3-F5: blocked traces cut at
# each figure's longest probe walk), the two Whanau checks (X3's
# blocked tail-edge propagation, X7's walk-built DHTs), the two
# evolving-graph trajectories (E1, E2: the only artifacts that run
# power iteration's λ_n phase and the warm-started tracker), the
# SybilLimit admission and attack runs (F8, X1: about 11 s and 8 s),
# the SybilInfer and defense-comparison extensions (X5, X6) and the
# distributed estimator's communication sweep (D2) must regenerate
# byte-identically from the recorded configuration (EXPERIMENTS.md),
# so a solver, kernel, horizon or walk change that moves any reported
# digit fails here rather than in a later artifact refresh. D1 takes
# about 60 s at this configuration and stays out.
art_ids="T1 F1 F2 F3 F4 F5 F6 F7 F8 X1 X2 X3 X4 X5 X6 X7 E1 E2 D2"
art_dir=$(mktemp -d)
trap 'rm -rf "$art_dir"' EXIT
go run ./cmd/paperfigs -q -only "$(echo $art_ids | tr ' ' ,)" -scale 0.005 -sources 200 \
	-maxwalk 500 -seed 1 -csv "$art_dir" >/dev/null
for id in $art_ids; do
	if ! cmp "$art_dir/$id.csv" "results/$id.csv"; then
		echo "results/$id.csv does not regenerate byte-identically" >&2
		exit 1
	fi
done
rm -rf "$art_dir"
trap - EXIT
echo "$art_ids regenerate byte-identically"

echo "== mixtimed e2e smoke =="
# Boot the daemon on a random port, fire a mixload burst at it, and
# require zero errors plus the cache invariant: one distinct
# fingerprint means exactly one solve no matter how many requests.
smoke_dir=$(mktemp -d)
cleanup_smoke() {
	if [ -n "${smoke_pid:-}" ]; then
		kill "$smoke_pid" 2>/dev/null || true
		wait "$smoke_pid" 2>/dev/null || true
	fi
	rm -rf "$smoke_dir"
}
trap cleanup_smoke EXIT
go build -o "$smoke_dir/mixtimed" ./cmd/mixtimed
go build -o "$smoke_dir/mixload" ./cmd/mixload
"$smoke_dir/mixtimed" -datasets physics-1 -scale 0.002 -mutable physics-1 \
	-addr 127.0.0.1:0 -addr-file "$smoke_dir/addr" >"$smoke_dir/daemon.log" 2>&1 &
smoke_pid=$!
tries=0
while [ ! -s "$smoke_dir/addr" ]; do
	tries=$((tries + 1))
	if [ "$tries" -gt 100 ]; then
		echo "mixtimed never published its address" >&2
		cat "$smoke_dir/daemon.log" >&2
		exit 1
	fi
	sleep 0.1
done
addr=$(cat "$smoke_dir/addr")
"$smoke_dir/mixload" -addr "$addr" -op slem -n 40 -c 8 -distinct 1
solves=$(curl -s "http://$addr/stats" | grep -o '"service_solves": *[0-9]*' | grep -o '[0-9]*$')
if [ "${solves:-0}" != "1" ]; then
	echo "service_solves = ${solves:-missing}, want 1 (repeat queries must hit the cache)" >&2
	exit 1
fi
# Distributed estimator cross-check on the live daemon: the distmix
# answer must land within the DESIGN.md §11 tolerance —
# max(ceil(0.35·τ), 3) — of the sampled mixing time the cdf op
# measures by exact propagation over the same seed and sources, and
# the message-passing accounting must show real off-shard traffic.
# The walker budget is the documented default (64/node): physics-1 is
# the slowest-mixing substitute, and a starved budget's noise floor
# biases the estimate below the tolerance band (DESIGN.md §11.2).
dist_params='"params":{"seed":1,"sources":5,"eps":0.25,"max_walk":2000,"dist_walks":64,"dist_rounds":2000}'
cdf_json=$(curl -s -X POST "http://$addr/v1/query" \
	-d "{\"op\":\"cdf\",\"graph\":\"physics-1\",$dist_params}")
dist_json=$(curl -s -X POST "http://$addr/v1/query" \
	-d "{\"op\":\"distmix\",\"graph\":\"physics-1\",$dist_params}")
sampled_t=$(printf '%s' "$cdf_json" | grep -o '"sampled_t": *[0-9]*' | grep -o '[0-9]*$')
dist_tau=$(printf '%s' "$dist_json" | grep -o '"tau": *[0-9]*' | head -1 | grep -o '[0-9]*$')
offshard=$(printf '%s' "$dist_json" | grep -o '"offshard_messages": *[0-9]*' | grep -o '[0-9]*$')
if [ -z "${sampled_t:-}" ] || [ -z "${dist_tau:-}" ]; then
	echo "distmix smoke: missing tau fields" >&2
	echo "cdf: $cdf_json" >&2
	echo "distmix: $dist_json" >&2
	exit 1
fi
if [ "${offshard:-0}" -le 0 ]; then
	echo "distmix smoke: offshard_messages = ${offshard:-missing}, want > 0" >&2
	exit 1
fi
awk -v est="$dist_tau" -v exact="$sampled_t" 'BEGIN {
	tol = int(0.35 * exact) + (0.35 * exact > int(0.35 * exact) ? 1 : 0)
	if (tol < 3) tol = 3
	diff = est - exact; if (diff < 0) diff = -diff
	if (diff > tol) {
		printf "distmix smoke: tau %d vs sampled %d exceeds tolerance %d\n", est, exact, tol > "/dev/stderr"
		exit 1
	}
	printf "distmix tau %d vs sampled %d (tolerance %d) ok\n", est, exact, tol
}'
# Live-graph mutation smoke: a slem query is solved then cached; a
# POST /v1/mutate bumps the graph's version and must evict that cached
# result, so the repeated identical request misses under a new
# version-stamped fingerprint and costs exactly one new solve. This
# runs after the distmix cross-check — mutating physics-1 earlier
# would move the mixing time out of the §11 tolerance band.
mut_q='{"op":"slem","graph":"physics-1","params":{"seed":9}}'
fp_a=$(curl -s -X POST "http://$addr/v1/query" -d "$mut_q" |
	grep -o '"fingerprint": *"[^"]*"' | grep -o '[0-9a-f@v]*"$' | tr -d '"')
hit=$(curl -s -X POST "http://$addr/v1/query" -d "$mut_q" | grep -c '"cache_hit": *true' || true)
if [ -z "$fp_a" ] || [ "$hit" != "1" ]; then
	echo "mutation smoke: pre-mutation query did not cache (fp=$fp_a hit=$hit)" >&2
	exit 1
fi
solves_before=$(curl -s "http://$addr/stats" | grep -o '"service_solves": *[0-9]*' | grep -o '[0-9]*$')
mut_json=$(curl -s -X POST "http://$addr/v1/mutate" -d '{"graph":"physics-1","grow":3}')
evicted=$(printf '%s' "$mut_json" | grep -o '"evicted": *[0-9]*' | grep -o '[0-9]*$')
if [ "${evicted:-0}" -lt 1 ]; then
	echo "mutation smoke: mutation evicted ${evicted:-0} cached results, want >= 1" >&2
	echo "$mut_json" >&2
	exit 1
fi
post_json=$(curl -s -X POST "http://$addr/v1/query" -d "$mut_q")
fp_b=$(printf '%s' "$post_json" | grep -o '"fingerprint": *"[^"]*"' | grep -o '[0-9a-f@v]*"$' | tr -d '"')
if [ "$fp_a" = "$fp_b" ] || [ -z "$fp_b" ]; then
	echo "mutation smoke: fingerprint did not change across the mutation ($fp_a vs $fp_b)" >&2
	exit 1
fi
if printf '%s' "$post_json" | grep -q '"cache_hit": *true'; then
	echo "mutation smoke: post-mutation query served a stale cached result" >&2
	exit 1
fi
solves_after=$(curl -s "http://$addr/stats" | grep -o '"service_solves": *[0-9]*' | grep -o '[0-9]*$')
if [ "$((solves_after - solves_before))" != "1" ]; then
	echo "mutation smoke: post-mutation repeat cost $((solves_after - solves_before)) solves, want exactly 1" >&2
	exit 1
fi
echo "mutation smoke: evicted $evicted, re-solved once under a new fingerprint"
kill -INT "$smoke_pid"
wait "$smoke_pid" || { echo "mixtimed did not shut down cleanly" >&2; exit 1; }
smoke_pid=""
cleanup_smoke
trap - EXIT
echo "burst ok, 1 solve, graceful shutdown"

echo "== chaos smoke (fault injection + crash recovery) =="
# The overload-hardening gate (DESIGN.md §14), in two acts.
#
# Act 1: boot a deliberately tiny daemon (pool 2, queue 2, 100ms queue
# wait) with deterministic fault injection armed — the first four
# solves panic, every solve stalls 40ms — and fire a 16-way mixload
# burst at it with retries enabled. The burst must finish with ZERO
# hard errors while the shed and retried counts are both nonzero and
# the daemon counted the contained panics: overload and injected
# failure cost retries, never dropped requests or a dead process.
#
# Act 2: SIGKILL the daemon (no graceful flush), restart it over the
# same -cache-dir without injection, and repeat an exact query from
# before the kill. It must come back as a cache hit with exactly zero
# new solves: answers survive the crash.
chaos_dir=$(mktemp -d)
cleanup_chaos() {
	if [ -n "${chaos_pid:-}" ]; then
		kill -9 "$chaos_pid" 2>/dev/null || true
		wait "$chaos_pid" 2>/dev/null || true
	fi
	rm -rf "$chaos_dir"
}
trap cleanup_chaos EXIT
go build -o "$chaos_dir/mixtimed" ./cmd/mixtimed
go build -o "$chaos_dir/mixload" ./cmd/mixload
"$chaos_dir/mixtimed" -datasets physics-1 -scale 0.002 \
	-pool 2 -max-queue 2 -max-queue-wait 100ms \
	-cache-dir "$chaos_dir/cache" -inject 'seed=7,panic=1:4,latency=40ms' \
	-addr 127.0.0.1:0 -addr-file "$chaos_dir/addr" >"$chaos_dir/daemon.log" 2>&1 &
chaos_pid=$!
tries=0
while [ ! -s "$chaos_dir/addr" ]; do
	tries=$((tries + 1))
	if [ "$tries" -gt 100 ]; then
		echo "mixtimed (chaos) never published its address" >&2
		cat "$chaos_dir/daemon.log" >&2
		exit 1
	fi
	sleep 0.1
done
chaos_addr=$(cat "$chaos_dir/addr")
# 16 workers over capacity 4 (pool+queue) guarantees sheds; the capped
# always-fire panic spec guarantees exactly 4 contained panics; the
# retry budget is generous enough that every request finishes. A
# nonzero exit here (any hard error) fails the whole gate via set -e.
"$chaos_dir/mixload" -addr "$chaos_addr" -op slem -n 48 -c 16 -distinct 12 \
	-retries 12 -hedge 60ms >"$chaos_dir/load.out"
cat "$chaos_dir/load.out"
shed=$(grep -o '[0-9]* shed' "$chaos_dir/load.out" | grep -o '[0-9]*' || true)
retried=$(grep -o '[0-9]* retried' "$chaos_dir/load.out" | grep -o '[0-9]*' || true)
if [ "${shed:-0}" -le 0 ] || [ "${retried:-0}" -le 0 ]; then
	echo "chaos smoke: shed=${shed:-0} retried=${retried:-0}, want both > 0" >&2
	exit 1
fi
# Telemetry snapshots omit zero-valued counters, so every grep below
# may legitimately match nothing — `|| true` keeps set -e out of it
# and the ${var:-0} defaults treat "absent" as zero.
panics=$(curl -s "http://$chaos_addr/stats" | grep -o '"service_panics": *[0-9]*' | grep -o '[0-9]*$' || true)
if [ "${panics:-0}" -le 0 ]; then
	echo "chaos smoke: service_panics = ${panics:-0}, want > 0" >&2
	exit 1
fi
# A marker query whose exact body we replay after the crash.
chaos_q='{"op":"slem","graph":"physics-1","params":{"seed":77}}'
if ! curl -s -X POST "http://$chaos_addr/v1/query" -d "$chaos_q" | grep -q '"mu"'; then
	echo "chaos smoke: marker query failed pre-kill" >&2
	exit 1
fi
# The write-through is asynchronous with the answer: wait for all 13
# distinct results (12 burst fingerprints + the marker) to land on
# disk before pulling the plug.
tries=0
while :; do
	persisted=$(curl -s "http://$chaos_addr/stats" |
		grep -o '"service_persist_writes": *[0-9]*' | grep -o '[0-9]*$' || true)
	[ "${persisted:-0}" -ge 13 ] && break
	tries=$((tries + 1))
	if [ "$tries" -gt 100 ]; then
		echo "chaos smoke: only ${persisted:-0}/13 results persisted" >&2
		exit 1
	fi
	sleep 0.1
done
kill -9 "$chaos_pid"
wait "$chaos_pid" 2>/dev/null || true
chaos_pid=""
rm -f "$chaos_dir/addr"
"$chaos_dir/mixtimed" -datasets physics-1 -scale 0.002 \
	-cache-dir "$chaos_dir/cache" \
	-addr 127.0.0.1:0 -addr-file "$chaos_dir/addr" >"$chaos_dir/daemon2.log" 2>&1 &
chaos_pid=$!
tries=0
while [ ! -s "$chaos_dir/addr" ]; do
	tries=$((tries + 1))
	if [ "$tries" -gt 100 ]; then
		echo "mixtimed (chaos restart) never published its address" >&2
		cat "$chaos_dir/daemon2.log" >&2
		exit 1
	fi
	sleep 0.1
done
chaos_addr=$(cat "$chaos_dir/addr")
replay=$(curl -s -X POST "http://$chaos_addr/v1/query" -d "$chaos_q")
if ! printf '%s' "$replay" | grep -q '"cache_hit": *true'; then
	echo "chaos smoke: marker query missed the cache after the crash restart" >&2
	echo "$replay" >&2
	exit 1
fi
resolves=$(curl -s "http://$chaos_addr/stats" | grep -o '"service_solves": *[0-9]*' | grep -o '[0-9]*$' || true)
# An absent counter IS the pass condition: zero-valued counters are
# omitted from the snapshot, and the replay check above already proved
# the daemon is alive and answering.
if [ "${resolves:-0}" != "0" ]; then
	echo "chaos smoke: restart answered with ${resolves:-?} new solves, want exactly 0" >&2
	exit 1
fi
kill -INT "$chaos_pid"
wait "$chaos_pid" || { echo "mixtimed (chaos restart) did not shut down cleanly" >&2; exit 1; }
chaos_pid=""
cleanup_chaos
trap - EXIT
echo "chaos ok: $shed shed, $retried retried, $panics panics contained, crash replay hit with 0 solves"

echo "== zero-alloc kernel gate (live) =="
# The steady-state matvec kernels must not touch the allocator: run
# them briefly with -benchmem and fail on any nonzero allocs/op.
alloc_bad=$(go test -run '^$' -bench 'BenchmarkStep$|BenchmarkStepCollector$|BenchmarkStepBlock' \
	-benchtime 20x -benchmem ./internal/markov |
	awk '/^Benchmark/ { for (i = 3; i < NF; i++) if ($(i + 1) == "allocs/op" && $i + 0 > 0) print "  " $1 ": " $i " allocs/op" }')
if [ -n "$alloc_bad" ]; then
	echo "steady-state kernels allocate:" >&2
	echo "$alloc_bad" >&2
	exit 1
fi
echo "Step/StepBlock kernels: 0 allocs/op"

echo "== 1M-node streamed/mmap scale smoke =="
# The raw-speed loading pipeline end to end at scale: gensocial
# streams a 1M-node ringer graph straight to disk (no in-RAM edge
# list), mixtimed serves it memory-mapped, and a bounded distmix
# query must answer. The daemon's peak RSS is gated at 512 MiB —
# about 2x the measured ~250 MiB (walker state dominates; the 36 MB
# graph itself stays file-backed) — so a change that silently
# rematerializes the graph or the edge list in RAM fails loudly.
scale_dir=$(mktemp -d)
cleanup_scale() {
	if [ -n "${scale_pid:-}" ]; then
		kill "$scale_pid" 2>/dev/null || true
		wait "$scale_pid" 2>/dev/null || true
	fi
	rm -rf "$scale_dir"
}
trap cleanup_scale EXIT
go build -o "$scale_dir/gensocial" ./cmd/gensocial
go build -o "$scale_dir/mixtimed" ./cmd/mixtimed
mkdir "$scale_dir/graphs"
"$scale_dir/gensocial" -model ringer -n 1000000 -k 6 -p 1e-6 -seed 7 \
	-stream -o "$scale_dir/graphs/ringer1m.mixg"
"$scale_dir/mixtimed" -graphs "$scale_dir/graphs" -mmap \
	-addr 127.0.0.1:0 -addr-file "$scale_dir/addr" >"$scale_dir/daemon.log" 2>&1 &
scale_pid=$!
tries=0
while [ ! -s "$scale_dir/addr" ]; do
	tries=$((tries + 1))
	if [ "$tries" -gt 200 ]; then
		echo "mixtimed (mmap) never published its address" >&2
		cat "$scale_dir/daemon.log" >&2
		exit 1
	fi
	sleep 0.1
done
scale_addr=$(cat "$scale_dir/addr")
scale_json=$(curl -s -X POST "http://$scale_addr/v1/query" \
	-d '{"op":"distmix","graph":"ringer1m","params":{"seed":1,"sources":2,"eps":0.25,"max_walk":30,"dist_walks":2,"dist_rounds":30}}')
scale_tau=$(printf '%s' "$scale_json" | grep -o '"tau": *[0-9]*' | head -1 | grep -o '[0-9]*$')
if [ -z "${scale_tau:-}" ]; then
	echo "scale smoke: distmix on the mapped 1M-node graph returned no tau" >&2
	echo "$scale_json" >&2
	exit 1
fi
hwm_kb=$(grep VmHWM "/proc/$scale_pid/status" | grep -o '[0-9]*')
if [ "${hwm_kb:-0}" -gt 524288 ]; then
	echo "scale smoke: daemon peak RSS ${hwm_kb} kB exceeds the 512 MiB budget" >&2
	exit 1
fi
kill -INT "$scale_pid"
wait "$scale_pid" || { echo "mixtimed (mmap) did not shut down cleanly" >&2; exit 1; }
scale_pid=""
cleanup_scale
trap - EXIT
echo "1M nodes streamed, mapped, distmix tau=$scale_tau, peak RSS ${hwm_kb} kB (budget 524288)"

echo "all checks passed"
