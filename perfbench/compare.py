#!/usr/bin/env python3
"""Compare two result files written by perfbench/run.py.

    python3 perfbench/compare.py BEFORE.json AFTER.json

Prints each metric before and after with its relative change, and whether
the output digests match.  Results whose machine headers or run settings
differ are flagged, and the command then exits 1: their numbers are not
comparable.
"""

import json
import sys

SETTINGS = ("workload", "seed", "seconds", "trace", "smoke")


def compare(a, b):
    """Lines describing the comparison, and whether it is valid."""
    lines, valid = [], True
    for key in sorted(set(a["header"]) | set(b["header"])):
        if a["header"].get(key) != b["header"].get(key):
            valid = False
            lines.append(f"HEADER DIFFERS {key}: {a['header'].get(key)!r} vs "
                         f"{b['header'].get(key)!r}")
    for key in SETTINGS:
        if a.get(key) != b.get(key):
            valid = False
            lines.append(f"SETTING DIFFERS {key}: {a.get(key)!r} vs {b.get(key)!r}")
    same = a["digest"] == b["digest"]
    lines.append(f"digest {'identical' if same else 'DIFFERS'}: {a['digest'][:16]} "
                 f"vs {b['digest'][:16]}")
    for name, m in a["metrics"].items():
        if name not in b["metrics"]:
            lines.append(f"{name}: only in the first result")
            continue
        x, y = m["value"], b["metrics"][name]["value"]
        change = f"{(y - x) / x:+.1%}" if x else "n/a"
        lines.append(f"{name:32s} {x:12.6g} -> {y:12.6g} {m['unit']:6s} {change}")
    return lines, valid


def main(argv):
    if len(argv) != 2:
        sys.exit(__doc__)
    with open(argv[0], encoding="utf-8") as fa, open(argv[1], encoding="utf-8") as fb:
        lines, valid = compare(json.load(fa), json.load(fb))
    print("\n".join(lines))
    return 0 if valid else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
