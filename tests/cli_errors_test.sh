#!/bin/sh
# Bad input to the act CLI must end in one "fatal:" line and exit 1,
# never in an uncaught exception (SIGABRT, "terminate called").
#
#   sh tests/cli_errors_test.sh build/tools/act

set -u
act=$1
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
failures=0

# expect_fatal <name> <command...>
expect_fatal() {
    name=$1
    shift
    "$@" > "$work/stdout" 2> "$work/stderr"
    rc=$?
    if [ "$rc" -eq 1 ] && grep -q '^fatal: ' "$work/stderr" &&
        ! grep -q 'terminate called' "$work/stderr"; then
        echo "ok   $name: $(grep '^fatal: ' "$work/stderr" | head -n 1)"
    else
        echo "FAIL $name: exit $rc"
        cat "$work/stderr"
        failures=$((failures + 1))
    fi
}

# expect_fatal_naming <name> <text> <command...>: as expect_fatal, and
# stderr holds exactly one "fatal:" line, which names <text> (a path,
# or the reason the input was refused).
expect_fatal_naming() {
    name=$1
    text=$2
    shift 2
    "$@" > "$work/stdout" 2> "$work/stderr"
    rc=$?
    fatal_lines=$(grep -c '^fatal: ' "$work/stderr")
    if [ "$rc" -eq 1 ] && [ "$fatal_lines" -eq 1 ] &&
        grep '^fatal: ' "$work/stderr" | grep -qF "$text" &&
        ! grep -q 'terminate called' "$work/stderr"; then
        echo "ok   $name: $(grep '^fatal: ' "$work/stderr")"
    else
        echo "FAIL $name: exit $rc, $fatal_lines fatal line(s)"
        cat "$work/stderr"
        failures=$((failures + 1))
    fi
}

cat > "$work/plan.json" <<'EOF'
{
  "domain": "cpa_montecarlo",
  "items": 3000,
  "seed": 42,
  "config": {
    "node_nm": 14,
    "parameters": [
      {"name": "yield", "distribution": "uniform",
       "low": 0.8, "high": 0.95}
    ]
  }
}
EOF
sed 's/"items": 3000/"items": 1e300/' "$work/plan.json" \
    > "$work/huge_plan.json"

export ACT_HEARTBEAT=0
for i in 0 1 2; do
    if ! "$act" sweep --plan "$work/plan.json" --shards 3 \
        --shard-index $i --out "$work/part$i.json" > /dev/null; then
        echo "FAIL setup: cannot write partial $i"
        exit 1
    fi
done
# The same shards with a metrics doc riding along, so that
# --metrics-prom has a snapshot to write.
for i in 0 1 2; do
    if ! ACT_METRICS=1 "$act" sweep --plan "$work/plan.json" --shards 3 \
        --shard-index $i --out "$work/metrics$i.json" > /dev/null; then
        echo "FAIL setup: cannot write metrics partial $i"
        exit 1
    fi
done
# One partial whose merged document is larger than the JSON writer's
# 1 MiB buffer, so that writing it takes more than one flush.
sed 's/"items": 3000/"items": 100000/' "$work/plan.json" > "$work/big_plan.json"
if ! "$act" sweep --plan "$work/big_plan.json" --shards 1 --shard-index 0 \
    --out "$work/big.json" > /dev/null ||
    [ "$(wc -c < "$work/big.json")" -le 1048576 ]; then
    echo "FAIL setup: cannot write a partial larger than 1 MiB"
    exit 1
fi
head -c 200 "$work/part0.json" > "$work/truncated.json"
sed 's/"chunks": *\[/"chunks": 1, "unused": [/' "$work/part0.json" \
    > "$work/chunks_not_array.json"
sed 's/"chunk_begin": *[0-9]*,//' "$work/part0.json" \
    > "$work/no_chunk_begin.json"
# Shard 1 holds one chunk; replace that chunk's payload object with 5.
awk '
    state == 1 { match($0, /^ */); indent = substr($0, 1, RLENGTH)
                 state = 2; next }
    state == 2 { if ($0 == indent "}" || $0 == indent "},") {
                     sub(/}/, "5"); print; state = 3 }
                 next }
    state == 0 && /"chunks": \[$/ { state = 1 }
    { print }' "$work/part1.json" > "$work/chunk_not_object.json"

expect_fatal "cpa with a non-number" "$act" cpa abc
expect_fatal "cpa with an overflowing number" "$act" cpa 1e309
expect_fatal "flag with trailing characters" "$act" cpa 7 --yield 0.9x
expect_fatal "merge of a truncated partial" \
    "$act" merge "$work/truncated.json"
expect_fatal "merge of a partial whose chunks is not an array" \
    "$act" merge "$work/chunks_not_array.json"
expect_fatal "merge of a partial without chunk_begin" \
    "$act" merge "$work/no_chunk_begin.json"
expect_fatal "merge of a partial whose chunk payload has the wrong shape" \
    "$act" merge "$work/part0.json" "$work/chunk_not_object.json" \
    "$work/part2.json"
expect_fatal "sweep writing to a full device" \
    "$act" sweep --plan "$work/plan.json" --shards 3 --shard-index 0 \
    --out /dev/full
expect_fatal "plan with an out-of-range item count" \
    "$act" sweep --plan "$work/huge_plan.json"

# A trace event whose "ts" is not a number: the fatal names the file.
printf '{"traceEvents":[{"ts":"x","ph":"X","name":"a"}]}\n' \
    > "$work/t.json"
expect_fatal_naming "trace-merge of a trace with a string timestamp" \
    "$work/t.json" "$act" trace-merge "$work/merged.json" "$work/t.json"

# Prometheus snapshots go through the same checked writer as JSON.
expect_fatal_naming "--prom to a full device" /dev/full \
    "$act" cpa 7 --prom /dev/full
expect_fatal_naming "--prom into a missing directory" \
    "$work/missing/x.prom" "$act" cpa 7 --prom "$work/missing/x.prom"
expect_fatal_naming "merge --metrics-prom to a full device" /dev/full \
    "$act" merge "$work/metrics0.json" "$work/metrics1.json" \
    "$work/metrics2.json" --metrics-prom /dev/full
expect_fatal_naming "merge --metrics-prom into a missing directory" \
    "$work/missing/m.prom" "$act" merge "$work/metrics0.json" \
    "$work/metrics1.json" "$work/metrics2.json" \
    --metrics-prom "$work/missing/m.prom"

# Trace profiles go through the same checked writer: the explicit
# flush at the end of the command fails once, and the exit-time flush
# does not repeat it.
expect_fatal_naming "--trace to a full device" /dev/full \
    "$act" cpa 7 --trace /dev/full
expect_fatal_naming "--trace into a missing directory" \
    "$work/missing/t.json" "$act" cpa 7 --trace "$work/missing/t.json"

# Bad payloads are found before --out is written: no file is left.
expect_fatal "merge with a wrong-shape payload and --out" \
    "$act" merge "$work/part0.json" "$work/chunk_not_object.json" \
    "$work/part2.json" --out "$work/bad_merge.json"
if [ -e "$work/bad_merge.json" ]; then
    echo "FAIL merge with a wrong-shape payload left its --out file"
    failures=$((failures + 1))
fi

# A write that fails past the first buffer flush still ends in one
# fatal naming the path.
expect_fatal_naming "merge --out of a multi-flush document to a full device" \
    /dev/full "$act" merge "$work/big.json" --out /dev/full

# Counts and integer fields are read as integers: a negative, a
# fractional or an out-of-range number is refused, never cast.
cat > "$work/fleet_plan.json" <<'EOF'
{
  "domain": "fleet",
  "items": 20000,
  "seed": 42,
  "config": {
    "policies": ["uniform", "greedy"],
    "regions": [{"name": "tw", "profile": "solar", "region": "Taiwan",
                 "days": 7}],
    "jobs": {"horizon_hours": 168}
  }
}
EOF
cat > "$work/chiplet_plan.json" <<'EOF'
{"domain": "chiplet", "seed": 42,
 "config": {"logic_area_mm2": 800, "node_nm": 7, "max_chiplets": 4}}
EOF
cat > "$work/accel_plan.json" <<'EOF'
{"domain": "accel", "seed": 42, "config": {"nodes": [28, 7]}}
EOF
cat > "$work/device.json" <<'EOF'
{"name": "phone", "release_year": 2024,
 "ics": [{"name": "SoC", "kind": "logic", "area_mm2": 100,
          "node_nm": 7, "packages": 1}]}
EOF
for i in 0 1; do
    if ! "$act" sweep --plan "$work/fleet_plan.json" --shards 2 \
        --shard-index $i --out "$work/fleet$i.json" > /dev/null; then
        echo "FAIL setup: cannot write fleet partial $i"
        exit 1
    fi
done
for plan in chiplet accel; do
    if ! "$act" sweep --plan "$work/${plan}_plan.json" --shards 1 \
        --shard-index 0 --out "$work/$plan.json" > /dev/null; then
        echo "FAIL setup: cannot write the $plan partial"
        exit 1
    fi
done

# set_first <file> <key> <value> <out>: <file> with the first integer
# value of <key> replaced by <value>.
set_first() {
    sed "0,/\"$2\": [0-9][0-9]*/s//\"$2\": $3/" "$1" > "$4"
}

# reason <value>: the refusal the reader gives for <value>.
reason() {
    case $1 in
        -*) echo "is negative" ;;
        1e300) echo "out of integer range" ;;
        *) echo "not integral" ;;
    esac
}

for value in -1 1.5 1e300; do
    for key in jobs deferred migrated; do
        set_first "$work/fleet0.json" "$key" "$value" "$work/bad_fleet.json"
        expect_fatal_naming "fleet merge with $key $value" \
            "field '$key'" \
            "$act" merge "$work/bad_fleet.json" "$work/fleet1.json"
        if ! grep -qF "$(reason "$value")" "$work/stderr"; then
            echo "FAIL fleet merge with $key $value: not '$(reason "$value")'"
            failures=$((failures + 1))
        fi
    done
done

for value in 1e300 2.5; do
    set_first "$work/chiplet_plan.json" max_chiplets "$value" \
        "$work/bad_plan.json"
    expect_fatal_naming "chiplet plan with max_chiplets $value" \
        "$(reason "$value")" "$act" sweep --plan "$work/bad_plan.json"
    for key in packages release_year; do
        set_first "$work/device.json" "$key" "$value" \
            "$work/bad_device.json"
        expect_fatal_naming "device file with $key $value" \
            "$(reason "$value")" \
            "$act" device-file "$work/bad_device.json"
    done
    set_first "$work/chiplet.json" num_dies "$value" \
        "$work/bad_chiplet.json"
    expect_fatal_naming "chiplet merge with num_dies $value" \
        "$(reason "$value")" "$act" merge "$work/bad_chiplet.json"
    set_first "$work/accel.json" macs "$value" "$work/bad_accel.json"
    expect_fatal_naming "accel merge with macs $value" \
        "$(reason "$value")" "$act" merge "$work/bad_accel.json"
done
set_first "$work/chiplet_plan.json" max_chiplets 3e9 "$work/bad_plan.json"
expect_fatal_naming "chiplet plan with max_chiplets 3e9" \
    "got 3000000000" "$act" sweep --plan "$work/bad_plan.json"

if [ "$failures" -ne 0 ]; then
    echo "$failures case(s) failed"
    exit 1
fi
