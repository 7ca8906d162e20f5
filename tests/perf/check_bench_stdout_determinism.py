#!/usr/bin/env python3
"""Pins the bench pipeline's core invariant: a bench binary's stdout is
byte-identical whether or not profiling is on (ctest leg
bench_stdout_determinism_test).

Runs the given bench binary (argv[1], e.g. build/bench/fig6_vary_n) at a
reduced scale plain and with --profile, and fails unless both stdouts are
byte-identical. The profile must ride on stderr; a byte of drift on stdout
means a figure reproduction would depend on how it was measured.
"""

import os
import subprocess
import sys


def run(binary, *flags):
    env = dict(os.environ, WSNQ_RUNS="2", WSNQ_ROUNDS="20")
    proc = subprocess.run([binary, "--threads=1", *flags],
                          capture_output=True, env=env)
    if proc.returncode != 0:
        print(f"{binary} {' '.join(flags)} exited "
              f"{proc.returncode}:\n{proc.stderr.decode()}", file=sys.stderr)
        sys.exit(1)
    return proc.stdout


def main():
    if len(sys.argv) != 2:
        print("usage: check_bench_stdout_determinism.py BENCH_BINARY",
              file=sys.stderr)
        return 2
    plain = run(sys.argv[1])
    profiled = run(sys.argv[1], "--profile")
    if profiled != plain:
        print(f"stdout of '--profile' differs from 'plain' "
              f"({len(profiled)} vs {len(plain)} bytes)", file=sys.stderr)
        return 1
    print(f"bench stdout determinism: '--profile' stdout byte-identical "
          f"({len(plain)} bytes)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
