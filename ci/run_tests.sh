#!/usr/bin/env bash
# CI entry point: tier-1 build + full test suite, a ThreadSanitizer job over
# the concurrency-sensitive federation suites, an AddressSanitizer job over
# the network/deserialization suites (the mutation-fuzz tests are only as
# strong as the memory checking they run under), and a localhost
# multi-process smoke test of the mip_worker daemon. Run from anywhere;
# builds land in <repo>/build, <repo>/build-tsan and <repo>/build-asan.
set -euo pipefail

ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
JOBS="${JOBS:-$(nproc)}"

echo "== tier-1: build + full ctest =="
cmake -B "$ROOT/build" -S "$ROOT"
cmake --build "$ROOT/build" -j "$JOBS"
ctest --test-dir "$ROOT/build" --output-on-failure -j "$JOBS"

# Each sanitizer job builds and runs one suite list: the ctest label regex
# (label = binary name) is built from the same array as the build targets,
# so a suite cannot be built without being run.
suite_regex() { local IFS='|'; echo "^($*)\$"; }

echo "== TSan: federation concurrency + robustness + net + engine morsels =="
# plan_test and pushdown_test run the parts of merge tables concurrently on
# the exec pool; pushdown_test goes master -> bus -> worker.
# column_sharing_test reads shared column buffers while a worker appends to
# and replaces the table; kernel_test runs the SQL kernels on a pool.
# algorithms_test runs the algorithm local steps, whose sufficient-statistics
# loops are morsel-parallel on the exec pool, over the columnar gather.
TSAN_SUITES=(federation_concurrency_test robustness_test federation_test
             net_transport_test engine_parallel_test encoding_test
             serving_test result_cache_test storage_test join_test
             smpc_test smpc_property_test plan_test pushdown_test
             kernel_test column_sharing_test algorithms_test)
cmake -B "$ROOT/build-tsan" -S "$ROOT" -DMIP_SANITIZE=thread
cmake --build "$ROOT/build-tsan" -j "$JOBS" --target "${TSAN_SUITES[@]}"
# TSAN_OPTIONS makes any reported race fail the job; --no-tests=error guards
# against a silent no-op.
TSAN_OPTIONS="halt_on_error=1" ctest --test-dir "$ROOT/build-tsan" \
  --output-on-failure -j "$JOBS" --no-tests=error \
  -L "$(suite_regex "${TSAN_SUITES[@]}")"

echo "== ASan+UBSan: net framing / deserialization / codec hardening =="
# pushdown_test and federation_test drive the engine's RemoteSite calls
# master -> bus -> worker, so every request kind runs under ASan too.
# net_process_test spawns the mip_worker daemon, which is built beside the
# suites but is not a suite itself. common_test runs the CRC32's
# carry-less-multiply folds and the portable path's 8-byte loads at every
# length and alignment under UBSan, and encoding_test the bulk varint
# reader's word loads over hostile blocks under ASan. platform_test
# builds the data catalogue from get_schema / get_stats replies, so their
# decode runs under ASan too. kernel_test and column_sharing_test cover the
# copy-on-write column buffers and the typed kernels that read them.
# federation_concurrency_test drives the one ordered fan-out that serves
# both algorithm steps and merge-table parts, and the pinned traffic.
# algorithms_test reads the column buffers and bitmaps the complete-case
# gather walks word by word.
ASAN_SUITES=(net_transport_test net_process_test robustness_test
             encoding_test plan_test serving_test result_cache_test
             storage_test join_test smpc_test smpc_property_test
             pushdown_test federation_test common_test platform_test
             kernel_test column_sharing_test federation_concurrency_test
             algorithms_test)
cmake -B "$ROOT/build-asan" -S "$ROOT" -DMIP_SANITIZE=address
cmake --build "$ROOT/build-asan" -j "$JOBS" \
  --target "${ASAN_SUITES[@]}" mip_worker
ASAN_OPTIONS="halt_on_error=1" ctest --test-dir "$ROOT/build-asan" \
  --output-on-failure -j "$JOBS" --no-tests=error \
  -L "$(suite_regex "${ASAN_SUITES[@]}")"

echo "== perfbench self-test: tracing decorators are pass-through =="
# perfbench builds its own Release tree (.bench_build/) against ../src. Its
# self-test checks that TracingStorage and TracingTransport, which forward
# every TableStorage / Transport virtual, pass scans, ScanStats and replies
# through byte for byte — so an interface change that breaks the decorators
# fails here, not first in the benchmark.
(cd "$ROOT" && python3 perfbench/run.py --selftest)

echo "== determinism: MIP_THREADS=1 vs MIP_THREADS=8 output diff =="
# Morsel-driven execution must be byte-identical at any thread count (see
# DESIGN.md "Intra-worker parallelism"). Diff the full stdout of the
# deterministic end-to-end examples between a serial and a parallel run;
# any float divergence in the engine, algorithms, or federation fails CI.
# (engine_tour is excluded: it prints wall-clock timings.)
for example in quickstart epilepsy_study alzheimer_study; do
  MIP_THREADS=1 "$ROOT/build/examples/$example" > /tmp/mip_det_t1.txt
  MIP_THREADS=8 "$ROOT/build/examples/$example" > /tmp/mip_det_t8.txt
  diff -u /tmp/mip_det_t1.txt /tmp/mip_det_t8.txt || {
    echo "$example output differs between MIP_THREADS=1 and 8"; exit 1;
  }
  echo "$example: identical output at 1 and 8 threads"
done

echo "== determinism: MIP_OPTIMIZER=1 vs MIP_OPTIMIZER=0 output diff =="
# Every optimizer rule except the merge-aggregate decomposition is bit-exact
# (see DESIGN.md "Query planning & optimization"), and these examples do not
# run merge-aggregate SQL, so their full stdout must be byte-identical with
# the plan optimizer disabled. Any divergence means a rewrite rule changed
# row order, grouping order, or float arithmetic order.
for example in quickstart epilepsy_study alzheimer_study; do
  MIP_OPTIMIZER=1 "$ROOT/build/examples/$example" > /tmp/mip_opt_on.txt
  MIP_OPTIMIZER=0 "$ROOT/build/examples/$example" > /tmp/mip_opt_off.txt
  diff -u /tmp/mip_opt_on.txt /tmp/mip_opt_off.txt || {
    echo "$example output differs between MIP_OPTIMIZER=1 and 0"; exit 1;
  }
  echo "$example: identical output with optimizer on and off"
done

echo "== determinism: MIP_COST_MODEL=1 vs MIP_COST_MODEL=0 output diff =="
# The cost model only flips the *physical* join strategy (broadcast vs
# collect); both strategies are byte-identical by construction, so the
# ablation must not change a single output byte of the examples.
for example in quickstart epilepsy_study alzheimer_study; do
  MIP_COST_MODEL=1 "$ROOT/build/examples/$example" > /tmp/mip_cm_on.txt
  MIP_COST_MODEL=0 "$ROOT/build/examples/$example" > /tmp/mip_cm_off.txt
  diff -u /tmp/mip_cm_on.txt /tmp/mip_cm_off.txt || {
    echo "$example output differs between MIP_COST_MODEL=1 and 0"; exit 1;
  }
  echo "$example: identical output with cost model on and off"
done

echo "== smoke: E15/E19/E20 plan benchmarks (BENCH_plan.json) =="
# Doubles as an acceptance gate. E15: >= 5x fewer wire bytes for a
# ~1%-selective filter over a federated merge view, byte-identical results.
# E19: broadcast and collect byte-identical at every cohort size, the cost
# model flipping broadcast -> collect exactly once across the sweep, and
# broadcast shipping >= 5x fewer bytes on the smallest cohort. E20: with a
# 10 ms delay per site link, concurrent parts take <= 0.5x the serial wall
# time at 4, 16 and 64 sites, with byte-identical answers.
cmake --build "$ROOT/build" -j "$JOBS" --target bench_plan
(cd "$ROOT" && "$ROOT/build/bench/bench_plan")
[[ -s "$ROOT/BENCH_plan.json" ]] || { echo "BENCH_plan.json missing"; exit 1; }
python3 - "$ROOT/BENCH_plan.json" <<'PYEOF'
import json, sys
doc = json.load(open(sys.argv[1]))
assert doc["identical_results"] is True, "E15 pushdown changed results"
assert doc["wire_ratio"] >= 5.0, \
    f"E15 pushdown wire reduction {doc['wire_ratio']}x below 5x floor"
e19 = doc["e19"]
assert all(p["identical"] for p in e19["sweep"]), \
    "E19 broadcast and collect results diverged"
assert e19["sweep"][0]["chosen"] == "broadcast", \
    "E19 cost model did not pick broadcast for the smallest cohort"
assert e19["sweep"][-1]["chosen"] == "collect", \
    "E19 cost model did not pick collect for the largest cohort"
assert e19["flips"] <= 1, \
    f"E19 strategy flipped {e19['flips']} times across the sweep (want 1)"
assert e19["small_cohort_wire_ratio"] >= 5.0, \
    f"E19 broadcast wire win {e19['small_cohort_wire_ratio']}x below 5x floor"
e20 = doc["e20"]
for p in e20["points"]:
    assert p["identical"] is True, \
        f"E20 parallel parts changed results at {p['sites']} sites"
    assert p["parallel_ms"] <= 0.5 * p["serial_ms"], \
        f"E20 parallel {p['parallel_ms']} ms > 0.5x serial " \
        f"{p['serial_ms']} ms at {p['sites']} sites"
assert doc["pass"] is True, "bench_plan acceptance gates failed"
PYEOF

echo "== smoke: E14 wire-bytes benchmark (BENCH_net.json) =="
# The codec benchmark doubles as an acceptance gate: >= 2x fewer bytes on a
# dictionary-friendly table transfer, and the measured fallback keeping a
# pure-double vector within 5% of (and never above) the raw layout.
cmake --build "$ROOT/build" -j "$JOBS" --target bench_net
(cd "$ROOT" && "$ROOT/build/bench/bench_net")
[[ -s "$ROOT/BENCH_net.json" ]] || { echo "BENCH_net.json missing"; exit 1; }

echo "== smoke: E16 gateway serving benchmark (BENCH_serving.json) =="
# Acceptance gate: cached p50 >= 10x faster than cold, byte-identical
# replies, with QPS and p50/p99/p999 recorded for the report.
cmake --build "$ROOT/build" -j "$JOBS" --target bench_serving
(cd "$ROOT" && "$ROOT/build/bench/bench_serving")
[[ -s "$ROOT/BENCH_serving.json" ]] || {
  echo "BENCH_serving.json missing"; exit 1;
}

echo "== smoke: E17/E18 disk segment store benchmark (BENCH_storage.json) =="
# Acceptance gates: E17 — zone-map pruning skips >= 75% of segments on a
# selective scan, >= 2x faster at p50, results identical to the unpruned
# scan; a projected 2-column scan equals the full scan with the columns
# selected afterwards. E18 — on an unsorted high-cardinality key (zone maps useless), the
# IndexScan access path answers a point query >= 10x faster at p50 than the
# zone-map-only ablation, with byte-identical results across access path,
# thread count, and compaction, and the choice visible in EXPLAIN. CRC32 —
# the dispatched checksum (carry-less multiply where the CPU has it) equals
# the bytewise reference. Decode — the XOR-double, delta-int and dictionary
# blocks decode to their input and to a per-value varint reference decode.
# Layout — a segment is one file (its indexes are blocks inside it).
# Speeds are reported, not gated.
cmake --build "$ROOT/build" -j "$JOBS" --target bench_storage
(cd "$ROOT" && "$ROOT/build/bench/bench_storage")
[[ -s "$ROOT/BENCH_storage.json" ]] || {
  echo "BENCH_storage.json missing"; exit 1;
}
python3 - "$ROOT/BENCH_storage.json" <<'PYEOF'
import json, sys
doc = json.load(open(sys.argv[1]))
assert doc["results_identical"] is True, "E17 pruned scan changed results"
assert doc["projected_results_identical"] is True, \
    "E17 projected scan differs from the full scan with columns selected after"
assert doc["e18_results_identical"] is True, \
    "E18 index path / thread count / compaction changed result bytes"
assert doc["e18_explain_shows_index_scan"] is True, \
    "EXPLAIN no longer surfaces the IndexScan access path"
assert doc["e18_point_speedup"] >= 10.0, \
    f"index point-query speedup {doc['e18_point_speedup']}x below 10x floor"
assert doc["crc32_matches_reference"] is True, \
    "CRC32 disagrees with the bytewise reference"
assert doc["decode_matches_reference"] is True, \
    "a varint codec decode disagrees with the per-value reference decode"
assert doc["files_per_segment"] == 1, \
    f"{doc['files_per_segment']} files per segment, expected exactly 1"
assert doc["pass"] is True, "bench_storage acceptance gates failed"
PYEOF

echo "== smoke: E4/E9 SMPC benchmarks (BENCH_smpc.json) =="
# bench_smpc_schemes sweeps FT-vs-Shamir and the 10/50/100-site secure sum
# (per-site cost must stay sublinear in site count) and writes
# BENCH_smpc.json; the smoke fails on JSON parse errors. bench_spdz_offline
# prints the machine-parsed "SPDZ_OFFLINE ... speedup=..." line for the
# batched-dealer ablation; >= 2x is the portable floor asserted here. The
# batched dealer is single-threaded: its RNG stream is one serial chain,
# and moving it to a producer thread measured no gain on 4 vCPUs (see
# EXPERIMENTS.md E9).
cmake --build "$ROOT/build" -j "$JOBS" --target bench_smpc_schemes bench_spdz_offline
(cd "$ROOT" && "$ROOT/build/bench/bench_smpc_schemes")
[[ -s "$ROOT/BENCH_smpc.json" ]] || { echo "BENCH_smpc.json missing"; exit 1; }
python3 -m json.tool "$ROOT/BENCH_smpc.json" > /dev/null || {
  echo "BENCH_smpc.json is not valid JSON"; exit 1;
}
python3 - "$ROOT/BENCH_smpc.json" <<'PYEOF'
import json, sys
doc = json.load(open(sys.argv[1]))
assert doc["sublinear"] is True, "per-site cost grew superlinearly with sites"
assert doc["spdz_offline"]["speedup"] > 1.0, "batched dealer slower than scalar"
PYEOF
SPDZ_LINE="$("$ROOT/build/bench/bench_spdz_offline" | grep '^SPDZ_OFFLINE ')"
echo "$SPDZ_LINE"
SPEEDUP="$(sed -n 's/.*speedup=\([0-9.]*\).*/\1/p' <<< "$SPDZ_LINE")"
[[ -n "$SPEEDUP" ]] || { echo "SPDZ_OFFLINE line unparseable"; exit 1; }
python3 -c "import sys; sys.exit(0 if float('$SPEEDUP') >= 2.0 else 1)" || {
  echo "batched triple dealer speedup $SPEEDUP below 2x floor"; exit 1;
}

echo "== smoke: mip_worker daemon over localhost =="
# The daemon must come up, print its READY line with a real port, and exit
# cleanly when its stdin closes.
READY="$(echo quit | "$ROOT/build/tools/mip_worker" --id=smoke --port=0 \
  --dataset=linreg --rows=32 --seed=7 --weights=1.0,-1.0)"
echo "$READY"
[[ "$READY" == MIP_WORKER\ READY\ id=smoke\ port=* ]] || {
  echo "mip_worker READY line malformed"; exit 1;
}

echo "== smoke: gateway + 2 workers, 50 concurrent clients vs serial =="
# The full serving stack as separate OS processes: two mip_worker daemons,
# one mip_gateway federating them, and a mip_query loadgen. A 50-way
# concurrent run must produce byte-identical output to a serial run of the
# same request list (the acceptance criterion for the epoll serving path).
cmake --build "$ROOT/build" -j "$JOBS" --target mip_worker mip_gateway mip_query
SMOKE_DIR="$(mktemp -d)"
# Each daemon's lifetime is owned by its stdin FIFO: the shell holds the
# write end on an fd and closing it is a clean EOF shutdown (also exercising
# the EINTR-hardened stdin loop end-to-end).
cleanup_gateway_smoke() {
  exec 5>&- 6>&- 7>&- 8>&- 9>&- 2>/dev/null || true
  wait 2>/dev/null || true
  rm -rf "$SMOKE_DIR"
}
trap cleanup_gateway_smoke EXIT
mkfifo "$SMOKE_DIR/w0.in" "$SMOKE_DIR/w1.in" "$SMOKE_DIR/gw.in"
"$ROOT/build/tools/mip_worker" --id=hospital_0 --port=0 --dataset=linreg \
  --rows=80 --seed=21 < "$SMOKE_DIR/w0.in" > "$SMOKE_DIR/w0.log" &
exec 7> "$SMOKE_DIR/w0.in"
"$ROOT/build/tools/mip_worker" --id=hospital_1 --port=0 --dataset=linreg \
  --rows=80 --seed=22 < "$SMOKE_DIR/w1.in" > "$SMOKE_DIR/w1.log" &
exec 8> "$SMOKE_DIR/w1.in"
for log in w0.log w1.log; do
  for _ in $(seq 100); do
    grep -q READY "$SMOKE_DIR/$log" 2>/dev/null && break; sleep 0.1;
  done
  grep -q READY "$SMOKE_DIR/$log" || { echo "$log: worker not READY"; exit 1; }
done
W0_PORT="$(sed -n 's/.*port=\([0-9]*\).*/\1/p' "$SMOKE_DIR/w0.log")"
W1_PORT="$(sed -n 's/.*port=\([0-9]*\).*/\1/p' "$SMOKE_DIR/w1.log")"
"$ROOT/build/tools/mip_gateway" --port=0 --dataset=linreg \
  --worker="hospital_0:127.0.0.1:$W0_PORT" \
  --worker="hospital_1:127.0.0.1:$W1_PORT" \
  < "$SMOKE_DIR/gw.in" > "$SMOKE_DIR/gw.log" &
exec 9> "$SMOKE_DIR/gw.in"
for _ in $(seq 100); do
  grep -q READY "$SMOKE_DIR/gw.log" 2>/dev/null && break; sleep 0.1;
done
grep -q READY "$SMOKE_DIR/gw.log" || { echo "gateway not READY"; exit 1; }
GW_PORT="$(sed -n 's/.*port=\([0-9]*\).*/\1/p' "$SMOKE_DIR/gw.log")"
printf '%s\n' \
  "SELECT count(*) AS n FROM linreg_federated" \
  "SELECT avg(y) AS m FROM linreg_federated" \
  "SELECT min(x0) AS lo, max(x0) AS hi FROM linreg_federated" \
  > "$SMOKE_DIR/queries.sql"
"$ROOT/build/tools/mip_query" --port="$GW_PORT" --repeat=20 --concurrency=1 \
  < "$SMOKE_DIR/queries.sql" > "$SMOKE_DIR/serial.txt"
"$ROOT/build/tools/mip_query" --port="$GW_PORT" --repeat=20 --concurrency=50 \
  --tenant=loadgen < "$SMOKE_DIR/queries.sql" > "$SMOKE_DIR/concurrent.txt"
diff -u "$SMOKE_DIR/serial.txt" "$SMOKE_DIR/concurrent.txt" || {
  echo "concurrent gateway output differs from serial"; exit 1;
}
"$ROOT/build/tools/mip_query" --port="$GW_PORT" --metrics \
  > "$SMOKE_DIR/metrics.txt"
grep -q "cache_hits" "$SMOKE_DIR/metrics.txt" || {
  echo "gateway metrics missing"; exit 1;
}
grep -q 'link{id="master->hospital_0"}' "$SMOKE_DIR/metrics.txt" || {
  echo "gateway metrics missing the master->hospital_0 link latency"; exit 1;
}
echo "gateway smoke: 50-way concurrent output identical to serial"

echo "== smoke: persistence — ingest via --data-dir, restart, byte-diff =="
# First boot of a --data-dir worker ingests the synthetic dataset through the
# WAL'd storage engine and flushes it to disk segments. The restart uses a
# DIFFERENT --seed and --rows: if the answers still match byte-for-byte, the
# daemon is serving the persisted segments, not regenerating data.
mkfifo "$SMOKE_DIR/pw_a.in" "$SMOKE_DIR/pg_a.in" \
       "$SMOKE_DIR/pw_b.in" "$SMOKE_DIR/pg_b.in"
"$ROOT/build/tools/mip_worker" --id=persist --port=0 --dataset=linreg \
  --rows=64 --seed=21 --data-dir="$SMOKE_DIR/datadir" \
  < "$SMOKE_DIR/pw_a.in" > "$SMOKE_DIR/pw_a.log" &
PW_PID=$!
exec 5> "$SMOKE_DIR/pw_a.in"
for _ in $(seq 100); do
  grep -q READY "$SMOKE_DIR/pw_a.log" 2>/dev/null && break; sleep 0.1;
done
grep -q READY "$SMOKE_DIR/pw_a.log" || { echo "persist worker not READY"; exit 1; }
PW_PORT="$(sed -n 's/.*port=\([0-9]*\).*/\1/p' "$SMOKE_DIR/pw_a.log")"
"$ROOT/build/tools/mip_gateway" --port=0 --dataset=linreg \
  --worker="persist:127.0.0.1:$PW_PORT" \
  < "$SMOKE_DIR/pg_a.in" > "$SMOKE_DIR/pg_a.log" &
PG_PID=$!
exec 6> "$SMOKE_DIR/pg_a.in"
for _ in $(seq 100); do
  grep -q READY "$SMOKE_DIR/pg_a.log" 2>/dev/null && break; sleep 0.1;
done
grep -q READY "$SMOKE_DIR/pg_a.log" || { echo "persist gateway not READY"; exit 1; }
PG_PORT="$(sed -n 's/.*port=\([0-9]*\).*/\1/p' "$SMOKE_DIR/pg_a.log")"
printf '%s\n' \
  "SELECT count(*) AS n FROM linreg_federated" \
  "SELECT avg(y) AS m, sum(x0) AS s FROM linreg_federated" \
  "SELECT min(x1) AS lo, max(x1) AS hi FROM linreg_federated" \
  > "$SMOKE_DIR/persist_queries.sql"
"$ROOT/build/tools/mip_query" --port="$PG_PORT" --repeat=3 --concurrency=1 \
  < "$SMOKE_DIR/persist_queries.sql" > "$SMOKE_DIR/persist_before.txt"
# Clean shutdown (stdin EOF), then restart against the same data directory.
exec 5>&- 6>&-
wait "$PW_PID" "$PG_PID" 2>/dev/null || true
"$ROOT/build/tools/mip_worker" --id=persist --port=0 --dataset=linreg \
  --rows=999 --seed=99 --data-dir="$SMOKE_DIR/datadir" \
  < "$SMOKE_DIR/pw_b.in" > "$SMOKE_DIR/pw_b.log" &
PW_PID=$!
exec 5> "$SMOKE_DIR/pw_b.in"
for _ in $(seq 100); do
  grep -q READY "$SMOKE_DIR/pw_b.log" 2>/dev/null && break; sleep 0.1;
done
grep -q READY "$SMOKE_DIR/pw_b.log" || { echo "restarted worker not READY"; exit 1; }
PW_PORT="$(sed -n 's/.*port=\([0-9]*\).*/\1/p' "$SMOKE_DIR/pw_b.log")"
"$ROOT/build/tools/mip_gateway" --port=0 --dataset=linreg \
  --worker="persist:127.0.0.1:$PW_PORT" \
  < "$SMOKE_DIR/pg_b.in" > "$SMOKE_DIR/pg_b.log" &
PG_PID=$!
exec 6> "$SMOKE_DIR/pg_b.in"
for _ in $(seq 100); do
  grep -q READY "$SMOKE_DIR/pg_b.log" 2>/dev/null && break; sleep 0.1;
done
grep -q READY "$SMOKE_DIR/pg_b.log" || { echo "restarted gateway not READY"; exit 1; }
PG_PORT="$(sed -n 's/.*port=\([0-9]*\).*/\1/p' "$SMOKE_DIR/pg_b.log")"
"$ROOT/build/tools/mip_query" --port="$PG_PORT" --repeat=3 --concurrency=1 \
  < "$SMOKE_DIR/persist_queries.sql" > "$SMOKE_DIR/persist_after.txt"
diff -u "$SMOKE_DIR/persist_before.txt" "$SMOKE_DIR/persist_after.txt" || {
  echo "restarted --data-dir worker output differs (data regenerated?)"; exit 1;
}
exec 5>&- 6>&-
wait "$PW_PID" "$PG_PID" 2>/dev/null || true
echo "persistence smoke: restart with different seed served identical bytes"

echo "== smoke: mip_worker --data-dir reboot leaves MANIFEST byte-identical =="
# Two boots on one directory. The first seeds the store and flushes it; the
# second finds the dataset, so it must neither re-seed nor commit: both print
# READY, and the MANIFEST after the second boot equals the first's. No
# idx-*.mix index file may exist: a segment file holds its indexes.
REBOOT_DIR="$SMOKE_DIR/reboot"
for boot in 1 2; do
  READY="$(echo quit | "$ROOT/build/tools/mip_worker" --id=reboot --port=0 \
    --dataset=linreg --rows=48 --seed=5 --data-dir="$REBOOT_DIR")"
  [[ "$READY" == MIP_WORKER\ READY\ id=reboot\ port=* ]] || {
    echo "reboot smoke: boot $boot printed no READY line"; exit 1;
  }
  if [[ $boot == 1 ]]; then
    cp "$REBOOT_DIR/MANIFEST" "$SMOKE_DIR/manifest_boot1"
  fi
done
cmp "$SMOKE_DIR/manifest_boot1" "$REBOOT_DIR/MANIFEST" || {
  echo "second --data-dir boot rewrote MANIFEST (re-seeded?)"; exit 1;
}
if compgen -G "$REBOOT_DIR/idx-*.mix" > /dev/null; then
  echo "reboot smoke: an idx-*.mix index file exists; indexes belong in segments"
  exit 1
fi
echo "reboot smoke: both boots READY, MANIFEST unchanged, no index files"

echo "== OK =="
