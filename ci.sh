#!/usr/bin/env sh
# Offline CI gate: formatting, lints across the whole workspace, full
# release build, and the complete test suite — including the robustness
# proptests (tests/corruption.rs, tests/robustness.rs,
# tests/supervision.rs), which run as part of the default test pass,
# plus end-to-end trace-store, fail-operational and chaos gates on the
# CLI. No network access needed.
set -eu

cd "$(dirname "$0")"

echo "== cargo fmt --check =="
cargo fmt --check

echo "== cargo clippy (workspace) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== cargo doc (workspace, warnings are errors) =="
# Broken or private intra-doc links fail here, so doc comments cannot
# keep naming items that were renamed or deleted.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

echo "== cargo build --release =="
cargo build --release

echo "== cargo test =="
cargo test -q

echo "== graph-layer tests in release =="
# The benchmark times the release build, where integer arithmetic wraps
# on overflow instead of panicking as it does in the debug test pass.
# Run the index and Wait Graph tests, the two end-to-end identity gates
# over them, the check that the study's stream graphs (shared subtrees,
# coalesced samples) give what per-instance graphs give, and the gate on
# the bytes per event the graph layer holds, as they are built there.
cargo test -q --release -p tracelens-waitgraph
cargo test -q --release -p tracelens --test impact_oracle --test report_identity \
    --test stream_form --test graph_bytes

echo "== fault-injector tests in release =="
# The benchmark injects its dirty corpus with a release build, where the
# injector's u32 additions wrap instead of panicking: run the injector's
# tests as built there. Its reference check numbers ghost threads past
# u32::MAX, which panics in the debug pass and wraps here.
cargo test -q --release -p tracelens-faults

echo "== ingest tests in release =="
# The `.tlb` reader computes sizes from untrusted bytes, and release
# arithmetic wraps on overflow where the debug test pass panics: run the
# model crate's tests and the ingest, corruption and cached-report gates
# as built there. The model crate's tests include the seal property
# (crates/model/tests/seal.rs): the stream builder's insertion sort and
# push-time checks against a stable sort and a check after the last
# push, as the benchmark builds them.
cargo test -q --release -p tracelens-model
cargo test -q --release -p tracelens --test ingest --test corruption --test cached_report

echo "== exp_e2e (the end-to-end benchmark: build + unit tests) =="
# The benchmark is a package outside the workspace that calls the
# analysis crates' public functions, so the workspace build above does
# not compile it.
CARGO_TARGET_DIR=target cargo test -q --release --offline \
    --manifest-path crates/bench/src/bin/exp_e2e/Cargo.toml

echo "== telemetry overhead gate (attached no-op sink within 2% + 2 ms) =="
# A timing gate, so it runs alone, in release, on one test thread.
cargo test -q --release -p tracelens --test telemetry -- --ignored --test-threads 1

echo "== trace store (cache and layout identity) =="
# A cached study run must be byte-identical to the uncached one, with
# and without sanitizing (on this clean corpus sanitize changes
# nothing), and `pack -o` must write the very image the cold run wrote.
# A cache found corrupt part way through a streamed study falls back to
# the text without changing the report, and so does text that does not
# stream.
TS_DIR="$(mktemp -d)"
TL=target/release/tracelens
"$TL" simulate -o "$TS_DIR/ds.tlt" --traces 40 --seed 9 > /dev/null
# The corpus's bytes are pinned: a drift in `write_text` or in the CLI's
# write path changes this digest.
echo "08191a00e5264f982cc736492ba617f2c73145a7809417d5bdf49e15c2627f48  $TS_DIR/ds.tlt" \
    | sha256sum -c --quiet
"$TL" report "$TS_DIR/ds.tlt" -o "$TS_DIR/uncached.md" 2> /dev/null
"$TL" report "$TS_DIR/ds.tlt" --cache -o "$TS_DIR/cold.md" 2> /dev/null
test -s "$TS_DIR/ds.tlb"
"$TL" report "$TS_DIR/ds.tlt" --cache -o "$TS_DIR/warm.md" 2> /dev/null
"$TL" report "$TS_DIR/ds.tlt" --sanitize -o "$TS_DIR/sanitized.md" 2> /dev/null
"$TL" report "$TS_DIR/ds.tlt" --cache --sanitize -o "$TS_DIR/warm-sanitized.md" 2> /dev/null
"$TL" pack "$TS_DIR/ds.tlt" -o "$TS_DIR/packed.tlb" 2> /dev/null
cmp "$TS_DIR/uncached.md" "$TS_DIR/cold.md"
cmp "$TS_DIR/uncached.md" "$TS_DIR/warm.md"
cmp "$TS_DIR/uncached.md" "$TS_DIR/sanitized.md"
cmp "$TS_DIR/sanitized.md" "$TS_DIR/warm-sanitized.md"
cmp "$TS_DIR/ds.tlb" "$TS_DIR/packed.tlb"
# A warm `--cache` report streams the cache through the study, and the
# checksum is known only after the last stream. Flip the last byte, which
# lies in the last stream block: the fallback then fires after the study
# has run over every other stream. The report must still equal the
# uncached one, the cache must be repacked, and the next run must load it.
flip_last_byte() {
    python3 -c "
import sys
b = bytearray(open(sys.argv[1], 'rb').read())
b[-1] ^= 0x40
open(sys.argv[1], 'wb').write(b)
" "$1"
}
flip_last_byte "$TS_DIR/ds.tlb"
"$TL" report "$TS_DIR/ds.tlt" --cache -o "$TS_DIR/flipped.md" 2> "$TS_DIR/flipped.err"
cmp "$TS_DIR/uncached.md" "$TS_DIR/flipped.md"
grep -q 'binary cache corrupt; parsed text and repacked the cache' "$TS_DIR/flipped.err"
cmp "$TS_DIR/ds.tlb" "$TS_DIR/packed.tlb"
"$TL" report "$TS_DIR/ds.tlt" --cache -o "$TS_DIR/repacked.md" 2> "$TS_DIR/repacked.err"
grep -q '^ingest: loaded binary cache' "$TS_DIR/repacked.err"
cmp "$TS_DIR/uncached.md" "$TS_DIR/repacked.md"
# A warm `--cache --sanitize` report streams the cache as well, while
# each stream is one sanitize leaves as it is. Flip the last byte of the
# repacked cache: the fallback again fires after the last stream, and
# the report must equal the --sanitize text report.
flip_last_byte "$TS_DIR/ds.tlb"
"$TL" report "$TS_DIR/ds.tlt" --cache --sanitize -o "$TS_DIR/flipped-sanitized.md" \
    2> "$TS_DIR/flipped-sanitized.err"
grep -q 'binary cache corrupt; parsed text and repacked the cache' \
    "$TS_DIR/flipped-sanitized.err"
cmp "$TS_DIR/sanitized.md" "$TS_DIR/flipped-sanitized.md"
# `report FILE` streams text in the layout `simulate` writes (instances
# before traces) one trace at a time. Other layouts take the in-memory
# route, which the benchmark never runs: text with its instances last
# (the layout written before) is collected by the same reader, a table
# record after the last trace sends the study back to a whole parse, and
# stdin is always parsed whole. Each must give the canonical report,
# with and without --sanitize.
python3 -c "
import sys
lines = open(sys.argv[1]).read().splitlines(keepends=True)
instances = [l for l in lines if l.startswith('!instance')]
assert instances and lines.index(instances[-1]) < min(
    i for i, l in enumerate(lines) if l.startswith('!trace\t'))
rest = [l for l in lines if not l.startswith('!instance')]
open(sys.argv[2], 'w').writelines(rest + instances)
open(sys.argv[3], 'w').writelines(lines + ['!stack\t999999\tlate.sys!Late\n'])
" "$TS_DIR/ds.tlt" "$TS_DIR/legacy.tlt" "$TS_DIR/late.tlt"
for flag in "" --sanitize; do
    want="$TS_DIR/uncached.md"
    [ -n "$flag" ] && want="$TS_DIR/sanitized.md"
    for input in legacy late; do
        "$TL" report "$TS_DIR/$input.tlt" $flag -o "$TS_DIR/$input$flag.md" 2> /dev/null
        cmp "$want" "$TS_DIR/$input$flag.md"
    done
    "$TL" report - $flag -o "$TS_DIR/stdin$flag.md" < "$TS_DIR/ds.tlt" 2> /dev/null
    cmp "$want" "$TS_DIR/stdin$flag.md"
done
rm -rf "$TS_DIR"

echo "== exp_ingest smoke (binary load must beat the text parse) =="
# Small corpus; the binary also asserts in-process that the `.tlb` load
# is faster than the text parse and that interning stays off the top of
# the ingest profile.
ING_JSON="$(mktemp)"
TRACELENS_BENCH_OUT="$ING_JSON" \
    cargo run -q --release -p tracelens-bench --bin exp_ingest -- 120 2014 \
    > /dev/null
python3 -c "
import json, sys
j = json.load(open(sys.argv[1]))
walls = {m['mode']: m['wall_s'] for m in j['modes']}
assert walls['binary'] < walls['text-serial'], \
    f'binary load ({walls[\"binary\"]:.4f}s) not faster than text ({walls[\"text-serial\"]:.4f}s)'
assert j['intern_fraction_of_serial'] < 0.5, 'interning dominates ingest'
" "$ING_JSON"
rm -f "$ING_JSON"

echo "== fail-operational report (injected panics) =="
# A report over a faulty analysis run must exit 0 and account for the
# quarantined work in a non-empty Execution section.
SUP_DIR="$(mktemp -d)"
TL=target/release/tracelens
"$TL" simulate -o "$SUP_DIR/ds.tlt" --traces 40 --seed 9 > /dev/null
"$TL" report "$SUP_DIR/ds.tlt" --exec-faults seed=5,panic=0.3 \
    -o "$SUP_DIR/faulted.md" 2> /dev/null
grep -q '^## Execution$' "$SUP_DIR/faulted.md"
grep -q 'quarantined' "$SUP_DIR/faulted.md"
grep -q 'panic: injected fault' "$SUP_DIR/faulted.md"
rm -rf "$SUP_DIR"

echo "== chaos campaign (25 composite fault configs, every oracle) =="
# A seeded campaign over composite fault configurations — all four
# planes armed in random combinations — must pass every cross-cutting
# oracle with nothing for the minimizer to do.
CHAOS_DIR="$(mktemp -d)"
"$TL" chaos --seed 9 --runs 25 --repro-out "$CHAOS_DIR/repro.toml" \
    > "$CHAOS_DIR/campaign.txt" 2> /dev/null
grep -q 'violations: 0$' "$CHAOS_DIR/campaign.txt"
grep -q 'minimizer: idle' "$CHAOS_DIR/campaign.txt"
test ! -e "$CHAOS_DIR/repro.toml"

echo "== chaos efficacy (planted bug must be caught and minimized) =="
# The harness is tested in both directions: with a planted coverage-
# accounting bug the campaign must fail, and the minimized repro must
# shrink to at most two active planes and replay to the same violation.
if "$TL" chaos --seed 9 --runs 25 --inject-known-bug \
    --repro-out "$CHAOS_DIR/repro.toml" > /dev/null 2> /dev/null; then
    echo "chaos campaign missed the planted bug" >&2
    exit 1
fi
test -s "$CHAOS_DIR/repro.toml"
python3 -c "
import sys
knobs = {}
for line in open(sys.argv[1]):
    line = line.strip()
    if not line or line.startswith('#') or line.startswith('['):
        continue
    key, _, value = line.partition('=')
    knobs[key.strip()] = float(value)
active = sum([
    knobs['corruption_eps'] > 0,
    knobs['read_fault_rate'] > 0,
    knobs['exec_panic_rate'] > 0,
    knobs['torn_cache_per_mille'] > 0,
])
assert active <= 2, f'minimized repro arms {active} planes, expected <= 2'
" "$CHAOS_DIR/repro.toml"
if ! "$TL" chaos --replay "$CHAOS_DIR/repro.toml" --inject-known-bug \
    > /dev/null 2> /dev/null; then :; else
    echo "minimized repro did not replay to a violation" >&2
    exit 1
fi
"$TL" chaos --replay "$CHAOS_DIR/repro.toml" > /dev/null 2> /dev/null
rm -rf "$CHAOS_DIR"

if [ "${TRACELENS_CHAOS_FULL:-0}" = "1" ]; then
    echo "== chaos campaign, full (500 configs) =="
    "$TL" chaos --seed 9 --runs 500 > /dev/null 2> /dev/null
fi

echo "CI OK"
