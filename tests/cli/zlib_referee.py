#!/usr/bin/env python3
"""Seeded differential referee: CPython's zlib against lzsszip.

CPython's zlib is the reference implementation the paper targets, and it
shares no code with ours, so it referees our inflate and our deflate:

  1. zlib.compressobj streams -> `lzsszip -d`: every level 0-9, every
     wbits 9-15, the strategies Z_FILTERED, Z_HUFFMAN_ONLY, Z_RLE and
     Z_FIXED, Z_SYNC_FLUSH / Z_FULL_FLUSH splits, and gzip framing;
  2. our fixed and dynamic streams (software levels, window sizes, the hw
     model, gzip) -> zlib.decompress;
  3. truncated and bit-flipped streams -> `lzsszip -d`, which must exit
     non-zero without a signal or a sanitizer report, or else return the
     original bytes (a flip in padding bits is harmless).

The fixed matrix always runs in full; seeded random cases follow until the
time budget is spent. Every case is derived from --seed, so a failure
reproduces with the seed it prints.

Usage: zlib_referee.py <build_dir> [--seed N] [--budget-s S]
"""
import argparse
import gzip
import os
import random
import subprocess
import sys
import tempfile
import time
import zlib

STRATEGIES = {
    "Z_FILTERED": zlib.Z_FILTERED,
    "Z_HUFFMAN_ONLY": zlib.Z_HUFFMAN_ONLY,
    "Z_RLE": zlib.Z_RLE,
    "Z_FIXED": zlib.Z_FIXED,
}
FLUSHES = {"Z_SYNC_FLUSH": zlib.Z_SYNC_FLUSH, "Z_FULL_FLUSH": zlib.Z_FULL_FLUSH}
WORDS = (b"the of and to in is was for on that with as by at from lzss "
         b"window match literal huffman deflate block fpga stream").split()


def make_input(rng, kind, size):
    """One seeded payload of a given flavour."""
    if kind == "text":
        out = bytearray()
        while len(out) < size:
            out += rng.choice(WORDS) + (b"\n" if rng.random() < 0.08 else b" ")
        return bytes(out[:size])
    if kind == "runs":  # long runs: distance-1 and short-period matches
        out = bytearray()
        while len(out) < size:
            period = rng.randint(1, 9)
            unit = bytes(rng.randrange(256) for _ in range(period))
            out += unit * rng.randint(1, 600 // period + 1)
        return bytes(out[:size])
    if kind == "binary":  # random bytes with copied spans up to 40 KiB back
        out = bytearray(rng.randbytes(min(size, 64)))
        while len(out) < size:
            if rng.random() < 0.5:
                back = rng.randint(1, min(len(out), 40000))
                start = len(out) - back
                n = rng.randint(3, 300)
                for i in range(n):  # byte-wise, so overlapped copies repeat
                    out.append(out[start + i])
            else:
                out += rng.randbytes(rng.randint(1, 40))
        return bytes(out[:size])
    return rng.randbytes(size)  # "random": incompressible


class Referee:
    def __init__(self, build_dir, work):
        self.lzsszip = os.path.join(build_dir, "tools", "lzsszip")
        self.work = work
        self.cases = 0
        self.failures = []

    def path(self, name):
        return os.path.join(self.work, name)

    def fail(self, label, why):
        self.failures.append(f"{label}: {why}")
        print(f"FAIL {label}: {why}", file=sys.stderr)

    def inflate(self, stream):
        """Runs `lzsszip -d` on @stream; returns (returncode, stdout bytes, stderr)."""
        src, dst = self.path("in.z"), self.path("out.raw")
        with open(src, "wb") as f:
            f.write(stream)
        if os.path.exists(dst):
            os.remove(dst)
        proc = subprocess.run([self.lzsszip, "-d", src, dst], capture_output=True)
        out = None
        if proc.returncode == 0:
            with open(dst, "rb") as f:
                out = f.read()
        return proc.returncode, out, proc.stderr.decode(errors="replace")

    def ours_decodes(self, label, stream, expected):
        self.cases += 1
        rc, out, err = self.inflate(stream)
        if rc != 0:
            self.fail(label, f"lzsszip -d exited {rc}: {err.strip()}")
        elif out != expected:
            self.fail(label, f"wrong output ({len(out)} bytes, want {len(expected)})")

    def damaged_fails(self, label, stream, original):
        self.cases += 1
        rc, out, err = self.inflate(stream)
        if rc < 0:
            self.fail(label, f"killed by signal {-rc}")
        elif "Sanitizer" in err or "runtime error" in err:
            self.fail(label, f"sanitizer report: {err.strip()[:300]}")
        elif rc == 0 and out != original:
            self.fail(label, "damaged stream decoded to wrong bytes with exit 0")
        elif rc != 0 and not err.startswith("error: "):
            self.fail(label, f"exit {rc} without a typed error: {err.strip()[:300]}")

    def zlib_decodes(self, label, args, payload):
        self.cases += 1
        src, dst = self.path("plain"), self.path("ours.z")
        with open(src, "wb") as f:
            f.write(payload)
        proc = subprocess.run([self.lzsszip, *args, src, dst], capture_output=True)
        if proc.returncode != 0:
            self.fail(label, f"lzsszip {' '.join(args)} exited {proc.returncode}")
            return None
        with open(dst, "rb") as f:
            stream = f.read()
        try:
            back = gzip.decompress(stream) if "gzip" in args else zlib.decompress(stream)
        except zlib.error as e:
            self.fail(label, f"zlib rejects our stream: {e}")
            return None
        if back != payload:
            self.fail(label, "zlib decodes our stream to different bytes")
        return stream


def zlib_stream(data, level, wbits, strategy=zlib.Z_DEFAULT_STRATEGY, splits=(), flush=None):
    c = zlib.compressobj(level, zlib.DEFLATED, wbits, 9, strategy)
    out, prev = bytearray(), 0
    for cut in sorted(splits):
        out += c.compress(data[prev:cut]) + c.flush(flush)
        prev = cut
    return bytes(out + c.compress(data[prev:]) + c.flush())


def damage(ref, rng, label, stream, original):
    """Truncations at seeded points and seeded single-bit flips."""
    cuts = {0, 1, 5, len(stream) - 1, len(stream) - 4, len(stream) - 5}
    cuts.update(rng.randrange(len(stream)) for _ in range(4))
    for cut in sorted(c for c in cuts if 0 <= c < len(stream)):
        ref.damaged_fails(f"{label} truncated to {cut}", stream[:cut], original)
    for _ in range(6):
        pos, bit = rng.randrange(len(stream)), rng.randrange(8)
        flipped = bytearray(stream)
        flipped[pos] ^= 1 << bit
        ref.damaged_fails(f"{label} bit {bit} of byte {pos} flipped", bytes(flipped), original)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("build_dir")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--budget-s", type=float, default=10.0)
    args = ap.parse_args()
    rng = random.Random(args.seed)
    started = time.monotonic()
    kinds = ("text", "runs", "binary", "random")

    with tempfile.TemporaryDirectory() as work:
        ref = Referee(args.build_dir, work)
        inputs = [b"", b"a"] + [make_input(rng, kinds[i % 4], rng.choice((300, 5000, 70000)))
                                for i in range(12)]
        pick = lambda i: inputs[i % len(inputs)]

        # 1. zlib -> ours: the whole level x wbits grid, then strategies and flushes.
        damaged_sources = []
        for level in range(10):
            for wbits in range(9, 16):
                data = pick(level * 7 + wbits)
                label = f"zlib level {level} wbits {wbits} ({len(data)} B)"
                stream = zlib_stream(data, level, wbits)
                ref.ours_decodes(label, stream, data)
                if wbits == 15 and data:
                    damaged_sources.append((label, stream, data))
        for name, strategy in STRATEGIES.items():
            for i, level in enumerate((1, 6, 9)):
                data = pick(3 + i + len(name))
                ref.ours_decodes(f"zlib {name} level {level} ({len(data)} B)",
                                 zlib_stream(data, level, 15, strategy), data)
        for name, flush in FLUSHES.items():
            for level in (0, 1, 6, 9):
                data = make_input(rng, rng.choice(kinds), 40000)
                cuts = [rng.randrange(len(data)) for _ in range(rng.randint(1, 5))]
                label = f"zlib {name} level {level} splits {sorted(cuts)}"
                stream = zlib_stream(data, level, 15, splits=cuts, flush=flush)
                ref.ours_decodes(label, stream, data)
                damaged_sources.append((label, stream, data))
        for level in (1, 9):
            data = pick(level)
            ref.ours_decodes(f"gzip level {level}", gzip.compress(data, level), data)

        # 2. ours -> zlib: fixed and dynamic Huffman, windows, the hw model, gzip.
        ours = [["-l", str(lv), "-y", y] for lv in (1, 5, 9) for y in ("fixed", "dyn")]
        ours += [["-w", str(w), "-l", "6"] for w in (9, 12, 15)]
        ours += [["--hw"], ["--hw", "-l", "9"], ["-f", "gzip", "-l", "6"]]
        for i, extra in enumerate(ours):
            data = pick(i + 2)
            stream = ref.zlib_decodes(f"ours {' '.join(extra)} ({len(data)} B)", extra, data)
            if stream is not None and data and "gzip" not in extra:
                damaged_sources.append((f"ours {' '.join(extra)}", stream, data))

        # 3. damaged streams from both directions.
        for label, stream, data in damaged_sources:
            damage(ref, rng, label, stream, data)

        matrix_cases = ref.cases
        # 4. seeded random extras until the budget runs out.
        while time.monotonic() - started < args.budget_s and not ref.failures:
            data = make_input(rng, rng.choice(kinds), rng.randint(1, 120000))
            level, wbits = rng.randrange(10), rng.randint(9, 15)
            strategy = rng.choice([zlib.Z_DEFAULT_STRATEGY, *STRATEGIES.values()])
            cuts = [rng.randrange(len(data)) for _ in range(rng.randint(0, 3))]
            flush = rng.choice(list(FLUSHES.values()))
            label = f"random zlib level {level} wbits {wbits} strategy {strategy} ({len(data)} B)"
            stream = zlib_stream(data, level, wbits, strategy, cuts, flush)
            ref.ours_decodes(label, stream, data)
            damage(ref, rng, label, stream, data)

    elapsed = time.monotonic() - started
    if ref.failures:
        print(f"zlib referee (seed {args.seed}): {len(ref.failures)} of {ref.cases} cases "
              f"failed", file=sys.stderr)
        return 1
    print(f"zlib referee (seed {args.seed}): {ref.cases} cases agree "
          f"({matrix_cases} fixed, {ref.cases - matrix_cases} random) in {elapsed:.1f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
