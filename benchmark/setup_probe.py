"""One fresh start of the benchmark up to the point where a pass can begin.

Usage: python3 benchmark/setup_probe.py <workload> <seed>

Imports the program and builds the workload's inputs exactly as run.py
does, then prints "ready" and exits. run.py times this from process start
to the "ready" line to measure setup_s.
"""
import sys

import run

if __name__ == "__main__":
    run.prepare(sys.argv[1], int(sys.argv[2]))
    print("ready", flush=True)
