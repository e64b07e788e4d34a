#!/usr/bin/env bash
# End-to-end CLI tests: exercises the shipped binaries the way a user would.
# Usage: run_cli_tests.sh <build_dir>
set -euo pipefail

BUILD_DIR=$1
WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT

LZSSZIP="$BUILD_DIR/tools/lzsszip"
ESTIMATE="$BUILD_DIR/tools/lzss_estimate"
GENRTL="$BUILD_DIR/tools/lzss_genrtl"
LZSSD="$BUILD_DIR/tools/lzssd"
CLIENT="$BUILD_DIR/tools/lzss_client"

fail() { echo "FAIL: $1" >&2; exit 1; }

# A mildly compressible input file.
head -c 200000 /dev/urandom > "$WORK/noise"
cat "$WORK/noise" "$WORK/noise" "$WORK/noise" > "$WORK/input"

# --- lzsszip: software path, zlib container ------------------------------
"$LZSSZIP" -l 6 "$WORK/input" "$WORK/out.zz" > /dev/null
"$LZSSZIP" -d "$WORK/out.zz" "$WORK/back" > /dev/null
cmp "$WORK/input" "$WORK/back" || fail "zlib roundtrip"

# --- lzsszip: gzip container ---------------------------------------------
"$LZSSZIP" -l 1 -f gzip "$WORK/input" "$WORK/out.gz" > /dev/null
"$LZSSZIP" -d "$WORK/out.gz" "$WORK/back2" > /dev/null
cmp "$WORK/input" "$WORK/back2" || fail "gzip roundtrip"

# --- lzsszip: hardware model path ----------------------------------------
"$LZSSZIP" --hw "$WORK/input" "$WORK/out_hw.zz" | grep -q "cycles/byte" \
  || fail "hw path must report cycle stats"
"$LZSSZIP" -d "$WORK/out_hw.zz" "$WORK/back3" > /dev/null
cmp "$WORK/input" "$WORK/back3" || fail "hw roundtrip"

# --- lzsszip: seekable archive format --------------------------------------
"$LZSSZIP" -f archive -b 64 -l 6 "$WORK/input" "$WORK/out.lzsa" | grep -q archive \
  || fail "archive compress"
"$LZSSZIP" -d "$WORK/out.lzsa" "$WORK/back4" | grep -q archive || fail "archive detect"
cmp "$WORK/input" "$WORK/back4" || fail "archive roundtrip"
"$LZSSZIP" --hw -f archive -b 64 "$WORK/input" "$WORK/out_hw.lzbc" | grep -q archive \
  || fail "hw archive compress"
"$LZSSZIP" -d "$WORK/out_hw.lzbc" "$WORK/back5" | grep -q archive || fail "hw archive detect"
cmp "$WORK/input" "$WORK/back5" || fail "hw archive roundtrip"
# A damaged archive fails with a message: a truncated file, and a bare
# header claiming one block per byte of 64 MiB, which must not size the
# output buffer.
head -c 100 "$WORK/out.lzsa" > "$WORK/truncated.lzbc"
printf 'LZBC\001\000\000\000\001\000\000\000\000\000\000\004\000\000\000\004\000\000\000\000' \
  > "$WORK/hostile.lzbc"
for f in truncated.lzbc hostile.lzbc; do
  rc=0
  "$LZSSZIP" -d "$WORK/$f" "$WORK/x" 2> "$WORK/err" || rc=$?
  [ "$rc" -eq 1 ] && grep -q "^error:" "$WORK/err" \
    || fail "lzsszip -d $f must exit 1 with error: (got $rc)"
done

# --- lzsszip: bad usage exits nonzero -------------------------------------
if "$LZSSZIP" -l 99 "$WORK/input" "$WORK/x" 2> /dev/null; then
  fail "invalid level must be rejected"
fi
if "$LZSSZIP" -d "$WORK/input" "$WORK/x" 2> /dev/null; then
  fail "decompressing garbage must fail"
fi
# -w takes 9..15: a zlib stream cannot declare a larger window, and the
# window size is a shift by this many bits.
for args in "-w 40" "-w 16 -l 9" "-w 8"; do
  rc=0
  # shellcheck disable=SC2086
  "$LZSSZIP" $args "$WORK/input" "$WORK/x" 2> /dev/null || rc=$?
  [ "$rc" -eq 2 ] || fail "lzsszip $args must print usage and exit 2 (got $rc)"
done
"$LZSSZIP" -w 9 -l 9 "$WORK/input" "$WORK/out_w9.zz" > /dev/null
"$LZSSZIP" -d "$WORK/out_w9.zz" "$WORK/back_w9" > /dev/null
cmp "$WORK/input" "$WORK/back_w9" || fail "-w 9 roundtrip"

# --- lzssd / lzss_client: retired match-finder names are unknown ----------
# Both reject the name while parsing arguments, before any socket is opened.
# "auto" named the retired size-routing policy.
for name in suffixarray auto; do
  rc=0
  timeout 10 "$LZSSD" --port 0 --matchfinder "$name" 2> /dev/null || rc=$?
  [ "$rc" -eq 2 ] || fail "lzssd --matchfinder $name must exit 2 (got $rc)"
  rc=0
  timeout 10 "$CLIENT" --port 1 --matchfinder "$name" ping 2> /dev/null || rc=$?
  [ "$rc" -eq 2 ] || fail "lzss_client --matchfinder $name must exit 2 (got $rc)"
done

# --- lzss_estimate ---------------------------------------------------------
"$ESTIMATE" --corpus wiki --mb 1 | grep -q "cycles/byte" || fail "estimate report"
"$ESTIMATE" --corpus x2e --mb 1 --analyze | grep -q "probes/position" \
  || fail "estimate --analyze"
"$ESTIMATE" --corpus wiki --mb 1 --sweep dict_bits=10,12 --csv > "$WORK/sweep.csv"
[ "$(wc -l < "$WORK/sweep.csv")" -eq 3 ] || fail "sweep csv must have header + 2 rows"
"$ESTIMATE" --corpus wiki --mb 1 --presets | grep -q "baseline-2007" || fail "estimate --presets"
"$ESTIMATE" --list | grep -q "x2e" || fail "corpus list"
if "$ESTIMATE" --sweep bogus=1 2> /dev/null; then
  fail "unknown sweep axis must be rejected"
fi

# --- lzss_genrtl ------------------------------------------------------------
"$GENRTL" --dict 13 --hash 12 -o "$WORK/rtl" > /dev/null
for f in lzss_pkg dual_port_bram huffman_tables lzss_memories lzss_top; do
  [ -s "$WORK/rtl/$f.vhd" ] || fail "missing $f.vhd"
done
grep -q "DICT_BITS        : natural := 13" "$WORK/rtl/lzss_pkg.vhd" || fail "genrtl generics"

echo "all CLI tests passed"
