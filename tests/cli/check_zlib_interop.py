#!/usr/bin/env python3
"""True zlib interoperability check.

Uses CPython's zlib (the reference implementation the paper targets) as an
independent referee:

  1. our lzsszip output (zlib and gzip containers, fixed and dynamic
     Huffman, software and hardware paths) must decompress with zlib;
  2. stock zlib output must decompress with our lzsszip;
  3. a COMPRESS served by lzssd on the hw backend, large enough to be
     matched as several independent parts, must decompress with zlib.

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


def served_hw_compress(work, src, payload):
    """Sends src through a live lzssd's hw COMPRESS; zlib must decode it."""
    log_path = os.path.join(work, "lzssd.log")
    with open(log_path, "wb") as log:
        daemon = subprocess.Popen([lzssd, "--port", "0", "--matchfinder", "hw"],
                                  stdout=log, stderr=subprocess.STDOUT)
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
        out = os.path.join(work, "served.zz")
        run(lzss_client, "--port", port, "--matchfinder", "hw", "compress", src, "-o", out)
        with open(out, "rb") as f:
            served = f.read()
        # The empty stored block that joins two parts: LEN 0000, NLEN FFFF.
        assert b"\x00\x00\xff\xff" in served, "the served stream has a single part"
        assert zlib.decompress(served) == payload, "zlib rejects a served hw COMPRESS"
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
        # Above 100 KiB: several parts at the service's 32 KiB part size.
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

        # 3. a served hw COMPRESS -> stock zlib.
        served_hw_compress(work, src, payload)

    print("zlib interop: all directions verified")


if __name__ == "__main__":
    main()
