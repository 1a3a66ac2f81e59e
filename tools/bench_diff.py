#!/usr/bin/env python3
"""Diff two ablation-bench JSON reports (stdlib only).

Walks both documents in parallel and requires every modeled and counter
field to match exactly: numbers, strings, booleans, list lengths and key
sets.  Host-time fields (wall clock of the machine that ran the bench) vary
from run to run, so they are skipped by name and listed once.

Usage: bench_diff.py OLD.json NEW.json
Exits 0 when the reports agree, 1 listing every difference otherwise, and
2 on a missing or malformed input.

Example: compare a bench before and after a refactor that must not move a
modeled number:
    ./build-old/bench_ablation_delta --scale 8 > old.json
    ./build/bench_ablation_delta --scale 8 > new.json
    python3 tools/bench_diff.py old.json new.json
"""

import json
import sys

# Host-measured quantities: never expected to reproduce between runs.
HOST_TIME_FIELDS = frozenset({
    "measured_ms",
    "measured_gteps",
    "host_ms",
    "host_cpu_ms",
    "wall_ms",
    "setup_s",
    "peak_rss_mb",
})


def diff(old, new, path, out, skipped):
    if isinstance(old, dict) and isinstance(new, dict):
        for key in sorted(old.keys() | new.keys()):
            sub = f"{path}.{key}" if path else key
            if key in HOST_TIME_FIELDS:
                skipped.add(key)
            elif key not in new:
                out.append(f"{sub}: only in old")
            elif key not in old:
                out.append(f"{sub}: only in new")
            else:
                diff(old[key], new[key], sub, out, skipped)
    elif isinstance(old, list) and isinstance(new, list):
        if len(old) != len(new):
            out.append(f"{path}: {len(old)} entries -> {len(new)}")
        for i, (a, b) in enumerate(zip(old, new)):
            diff(a, b, f"{path}[{i}]", out, skipped)
    elif type(old) is not type(new) or old != new:
        out.append(f"{path}: {old!r} -> {new!r}")


def main(argv):
    if len(argv) != 3:
        print("usage: bench_diff.py OLD.json NEW.json", file=sys.stderr)
        return 2
    try:
        with open(argv[1]) as f:
            old = json.load(f)
        with open(argv[2]) as f:
            new = json.load(f)
    except (OSError, ValueError) as e:
        print(f"bench_diff: {e}", file=sys.stderr)
        return 2
    out, skipped = [], set()
    diff(old, new, "", out, skipped)
    if skipped:
        print("skipped host-time fields: " + ", ".join(sorted(skipped)))
    for line in out:
        print(line)
    print(f"{len(out)} difference(s)")
    return 1 if out else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
