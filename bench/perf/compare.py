#!/usr/bin/env python3
"""Compare two malisim-perf-v1 result files.

    python3 bench/perf/compare.py A.json B.json [--bench BENCHMARK.json]

A is the reference (the parent commit), B the candidate. For every
end-to-end metric of every workload in both files it prints each side's
median and quartiles, then a verdict against the metric's bound in
BENCHMARK.json (a share of A's median):

  worse / better  B's median is past the bound on that side of A's
  same            B's median is within the bound
  unresolved      the spread (IQR / median) of A or B is wider than the
                  bound, so the bound cannot tell a change from noise;
                  reported as better or worse only when every B value
                  beats, or loses to, every A value

Per-layer metrics are one value per file and have no bound: they are
printed side by side, and counts that differ are flagged.

Exit status: 1 when any verdict is "worse", else 0.
"""

import argparse
import json
import os
import sys


def spread(m):
    return (m["q3"] - m["q1"]) / abs(m["median"]) if m["median"] else 0.0


def verdict(a, b, bound, better):
    """Verdict for B against A; a and b hold median, q1, q3 and values."""
    sign = 1.0 if better == "lower" else -1.0
    # Positive when B is worse than A, as a share of A's median.
    change = sign * (b["median"] - a["median"]) / abs(a["median"])
    if max(spread(a), spread(b)) > bound:
        pairs = [sign * (y - x) for x in a["values"] for y in b["values"]]
        if all(d < 0 for d in pairs):
            return "better"
        if all(d > 0 for d in pairs):
            return "worse"
        return "unresolved"
    if change > bound:
        return "worse"
    if change < -bound:
        return "better"
    return "same"


def fmt(x):
    return f"{x:.5g}"


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("a")
    parser.add_argument("b")
    parser.add_argument("--bench", default=os.path.join(here, "..", "..",
                                                        "BENCHMARK.json"))
    args = parser.parse_args()
    with open(args.bench) as f:
        bench = json.load(f)
    with open(args.a) as f:
        a = json.load(f)
    with open(args.b) as f:
        b = json.load(f)
    for doc, path in ((a, args.a), (b, args.b)):
        if doc.get("schema") != "malisim-perf-v1":
            sys.exit(f"{path}: not a malisim-perf-v1 file")

    print(f"A: {args.a} (sha {a.get('git_sha')}, seed {a.get('seed')})")
    print(f"B: {args.b} (sha {b.get('git_sha')}, seed {b.get('seed')})")
    worse = 0
    for w in bench["workloads"]:
        name = w["name"]
        wa = a.get("workloads", {}).get(name)
        wb = b.get("workloads", {}).get(name)
        if wa is None or wb is None:
            continue
        print(f"\n{name}: A {'correct' if wa['correct'] else 'INCORRECT'}, "
              f"B {'correct' if wb['correct'] else 'INCORRECT'}; failed "
              f"{wa['failed']}/{wa['attempted']} vs "
              f"{wb['failed']}/{wb['attempted']}")
        for m in bench["end_to_end"]:
            ma = wa["metrics"].get(m["name"])
            mb = wb["metrics"].get(m["name"])
            if ma is None or mb is None:
                continue
            v = verdict(ma, mb, m["bound"], m["better"])
            worse += v == "worse"
            change = (mb["median"] - ma["median"]) / abs(ma["median"])
            print(f"  {m['name']:12s} {m['unit']:4s} "
                  f"A {fmt(ma['median']):>9s} [{fmt(ma['q1'])}, "
                  f"{fmt(ma['q3'])}]  B {fmt(mb['median']):>9s} "
                  f"[{fmt(mb['q1'])}, {fmt(mb['q3'])}]  "
                  f"{100 * change:+.1f}% (bound {100 * m['bound']:g}%, "
                  f"spread {100 * spread(ma):.1f}%/{100 * spread(mb):.1f}%)"
                  f"  {v}")

    la = a.get("layers", {}).get("metrics", {})
    lb = b.get("layers", {}).get("metrics", {})
    if la and lb:
        print("\nlayers (one sample each, no bound):")
        for m in bench["per_layer"]:
            if m["name"] not in la or m["name"] not in lb:
                continue
            x, y = la[m["name"]]["median"], lb[m["name"]]["median"]
            note = ""
            if m["unit"] == "count":
                note = "" if x == y else "  CHANGED"
            elif x:
                note = f"  {100 * (y - x) / abs(x):+.1f}%"
            print(f"  {m['name']:36s} {m['unit']:7s} {fmt(x):>11s} "
                  f"{fmt(y):>11s}{note}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
