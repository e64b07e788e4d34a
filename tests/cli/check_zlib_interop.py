#!/usr/bin/env python3
"""True zlib interoperability check.

Uses CPython's zlib (the reference implementation the paper targets) as an
independent referee:

  1. our lzsszip output (zlib and gzip containers, fixed and dynamic
     Huffman, software and hardware paths) must decompress with zlib;
  2. stock zlib output must decompress with our lzsszip;
  3. a COMPRESS served by lzssd on the hw backend, large enough to be
     matched as several parts primed with the window before them, must
     decompress with zlib, on the speed and ratio presets, and must be the
     same bytes on one engine as on the default width.

Usage: check_zlib_interop.py <build_dir>
"""
import gzip
import os
import re
import signal
import subprocess
import sys
import tempfile
import time
import zlib

build_dir = sys.argv[1]
lzsszip = os.path.join(build_dir, "tools", "lzsszip")
lzssd = os.path.join(build_dir, "tools", "lzssd")
lzss_client = os.path.join(build_dir, "tools", "lzss_client")


def run(*args):
    subprocess.run(args, check=True, stdout=subprocess.DEVNULL)


def served_hw_compress(work, requests, engines=None):
    """Sends each (src, preset id) of requests through a live lzssd's hw
    COMPRESS, on --engines engines or the default width; returns the
    responses."""
    log_path = os.path.join(work, "lzssd.log")
    args = [lzssd, "--port", "0", "--matchfinder", "hw"]
    if engines is not None:
        args += ["--engines", str(engines)]
    with open(log_path, "wb") as log:
        daemon = subprocess.Popen(args, stdout=log, stderr=subprocess.STDOUT)
    try:
        port = None
        for _ in range(100):
            with open(log_path, "rb") as f:
                m = re.search(rb"listening on port (\d+)", f.read())
            if m:
                port = m.group(1).decode()
                break
            assert daemon.poll() is None, "lzssd died at startup"
            time.sleep(0.1)
        assert port is not None, "lzssd never reported its port"
        responses = []
        for src, preset in requests:
            out = os.path.join(work, "served.zz")
            run(lzss_client, "--port", port, "--matchfinder", "hw", "--preset", str(preset),
                "compress", src, "-o", out)
            with open(out, "rb") as f:
                responses.append(f.read())
        return responses
    finally:
        daemon.send_signal(signal.SIGTERM)
        try:
            daemon.wait(timeout=10)
        except subprocess.TimeoutExpired:
            daemon.kill()
            daemon.wait()


def main():
    with tempfile.TemporaryDirectory() as work:
        src = os.path.join(work, "input")
        payload = (b"The quick brown fox jumps over the lazy dog. " * 2000
                   + bytes(range(256)) * 200)
        with open(src, "wb") as f:
            f.write(payload)
        # Above 100 KiB: several parts at the service's 16 KiB part size.
        assert len(payload) >= 100 * 1024

        # 1a. our zlib container (several code paths) -> stock zlib.
        for extra in (["-l", "1", "-y", "fixed"], ["-l", "9", "-y", "dyn"], ["--hw"]):
            out = os.path.join(work, "out.zz")
            run(lzsszip, *extra, src, out)
            with open(out, "rb") as f:
                assert zlib.decompress(f.read()) == payload, f"zlib rejects {extra}"

        # 1b. our gzip container -> stock gzip module.
        out = os.path.join(work, "out.gz")
        run(lzsszip, "-f", "gzip", "-l", "6", src, out)
        with open(out, "rb") as f:
            assert gzip.decompress(f.read()) == payload, "gzip module rejects our stream"

        # 2. stock zlib -> our inflate.
        for level in (1, 6, 9):
            ref = os.path.join(work, f"ref{level}.zz")
            with open(ref, "wb") as f:
                f.write(zlib.compress(payload, level))
            back = os.path.join(work, "back")
            run(lzsszip, "-d", ref, back)
            with open(back, "rb") as f:
                assert f.read() == payload, f"our inflate rejects zlib level {level}"

        # 2b. stock gzip -> our inflate.
        ref = os.path.join(work, "ref.gz")
        with open(ref, "wb") as f:
            f.write(gzip.compress(payload))
        back = os.path.join(work, "back2")
        run(lzsszip, "-d", ref, back)
        with open(back, "rb") as f:
            assert f.read() == payload, "our inflate rejects stock gzip"

        # 3. served hw COMPRESS -> stock zlib: the speed preset (parts primed
        # with its 4 KiB window) and a 96 KiB ratio request (preset 3, parts
        # primed with 32 KiB), on one engine and on the default width.
        ratio_src = os.path.join(work, "input96")
        ratio_payload = payload[:96 * 1024]
        with open(ratio_src, "wb") as f:
            f.write(ratio_payload)
        requests = [(src, 0), (ratio_src, 3)]
        narrow = served_hw_compress(work, requests, engines=1)
        wide = served_hw_compress(work, requests)
        assert narrow == wide, "the served bytes depend on the worker count"
        for served, expected in zip(wide, (payload, ratio_payload)):
            # The empty stored block that joins two parts: LEN 0000, NLEN FFFF.
            assert b"\x00\x00\xff\xff" in served, "the served stream has a single part"
            assert zlib.decompress(served) == expected, "zlib rejects a served hw COMPRESS"

    print("zlib interop: all directions verified")


if __name__ == "__main__":
    main()
