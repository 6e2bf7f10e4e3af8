#!/usr/bin/env python3
"""opwatd and opwat_query reject malformed numeric flags with exit 2.

    test_cli_flags.py path/to/opwatd path/to/opwat_query

Every case passes one bad integer flag value (a sign, a non-digit, or a
value out of range for the flag's type) and expects the usage text on
stderr and exit status 2, before opwatd builds a catalog or binds a
port and before opwat_query connects.  A case that is still running
after TIMEOUT_S seconds was accepted and is serving or building: it is
killed and reported, and the remaining cases are skipped.
"""

import subprocess
import sys

TIMEOUT_S = 10

# Keep --workers values small: a value that slips through starts that
# many threads.
OPWATD_CASES = [
    ["--port", "70000"],
    ["--port", "-1"],
    ["--port", "abc"],
    ["--port", ""],
    ["--port", " 80"],
    ["--port", "0", "--workers", "0"],
    ["--port", "0", "--workers", "abc"],
    ["--port", "0", "--workers", "-2"],
    ["--port", "0", "--workers", "257"],
    ["--port", "0", "--epochs", "-1"],
    ["--port", "0", "--epochs", "0"],
    ["--port", "0", "--epochs", "2x"],
    ["--port", "0", "--seed", "18446744073709551616"],
]

# --connect points at a port nothing listens on, so a case that slips
# through fails fast with a connection error (exit 1), not a hang.
QUERY_BASE = ["--connect", "127.0.0.1:1", "--op", "group-by", "--dim", "cls"]
QUERY_CASES = [
    ["--cls", "256"],
    ["--cls", "-1"],
    ["--asn", "4294967296"],
    ["--asn", "AS64512"],
    ["--ixp", "1.5"],
    ["--limit", "+10"],
    ["--retry", "-1"],
    ["--repeat", "1e3"],
]
QUERY_BAD_CONNECT = [
    ["--connect", "127.0.0.1:70000", "--op", "epochs"],
    ["--connect", "127.0.0.1:x", "--op", "epochs"],
]


def check(argv, failures):
    """Runs argv; returns False when it hung (the caller stops)."""
    try:
        proc = subprocess.run(argv, capture_output=True, text=True,
                              timeout=TIMEOUT_S, stdin=subprocess.DEVNULL)
    except subprocess.TimeoutExpired:
        failures.append(f"{argv[1:]}: still running after {TIMEOUT_S}s (value accepted)")
        return False
    if proc.returncode != 2:
        failures.append(f"{argv[1:]}: exit {proc.returncode}, want 2\n{proc.stderr[-500:]}")
    elif "usage:" not in proc.stderr:
        failures.append(f"{argv[1:]}: no usage text on stderr")
    return True


def main():
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    opwatd, opwat_query = sys.argv[1], sys.argv[2]
    cases = [[opwatd] + c for c in OPWATD_CASES]
    cases += [[opwat_query] + QUERY_BASE + c for c in QUERY_CASES]
    cases += [[opwat_query] + c for c in QUERY_BAD_CONNECT]
    failures = []
    for argv in cases:
        if not check(argv, failures):
            break
    for f in failures:
        print(f"FAIL {f}")
    if failures:
        return 1
    print(f"{len(cases)} bad-flag cases rejected with exit 2")
    return 0


if __name__ == "__main__":
    sys.exit(main())
