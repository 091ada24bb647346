"""Summarize run records, or compare two sets of them.

    python3 perfbench/compare.py DIR              # medians and quartiles
    python3 perfbench/compare.py DIR --json OUT   # ... also written as JSON
    python3 perfbench/compare.py BASE_DIR NEW_DIR # NEW against BASE

Each run of perfbench/run.py writes a record (default directory
perfbench/out/records).  Runs are grouped by workload, pool and trace flag.
A comparison checks every end-to-end metric against its bound in
BENCHMARK.json and reports it as worse, within bound, or unresolved when
the base's own quartile spread is wider than the bound.  Records whose
kernel backend or assertion mode (__debug__) differ are never compared.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load(directory):
    groups: dict = {}
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        with open(path, encoding="utf-8") as fh:
            rec = json.load(fh)
        groups.setdefault((rec["workload"], rec["pool"], rec["trace"]), []).append(rec)
    return groups


def stats(values):
    values = list(values)
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0], "spread": 0.0, "runs": 1}
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0,
            "runs": len(values)}


def summarize(groups) -> dict:
    out = {}
    for (workload, pool, trace), recs in sorted(groups.items()):
        names = recs[0]["metrics"]
        out[f"{workload}/{pool}/trace{trace}"] = {
            "environment": recs[0]["environment"],
            "seeds": sorted(r["seed"] for r in recs),
            "attempted": sum(r["attempted"] for r in recs),
            "failed": sum(r["failed"] for r in recs),
            "metrics": {name: stats(r["metrics"][name] for r in recs) for name in names},
        }
        if trace:  # instance records and per-job enumeration counts of one traced run
            out[f"{workload}/{pool}/trace{trace}"]["instances"] = recs[0]["instances"]
    return out


def environment_key(rec):
    env = rec["environment"]
    return env["backend"], env["debug"]


def compare(base, new, bounds) -> int:
    keys = {environment_key(r) for recs in list(base.values()) + list(new.values()) for r in recs}
    if len(keys) > 1:
        print(f"refusing to compare: backend/__debug__ differ across records: {sorted(keys)}")
        return 2
    worse = 0
    for group in sorted(set(base) & set(new)):
        if group[2]:
            continue
        print(f"{group[0]} (pool {group[1]})")
        for name, bound in bounds.items():
            b = stats(r["metrics"][name] for r in base[group])
            n = stats(r["metrics"][name] for r in new[group])
            change = n["median"] / b["median"] - 1
            if b["spread"] > bound:
                verdict = "unresolved"
            elif change > bound:
                verdict = "WORSE"
                worse += 1
            else:
                verdict = "within bound"
            print(f"  {name:16} {b['median']:12.6g} -> {n['median']:12.6g}  "
                  f"{change:+7.1%}  spread {b['spread']:.1%}/{n['spread']:.1%}  "
                  f"bound {bound:.0%}  {verdict}")
    return 1 if worse else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("dirs", nargs="+", help="one record directory, or BASE and NEW")
    ap.add_argument("--json", help="write the summary of one directory here")
    args = ap.parse_args(argv)
    if len(args.dirs) == 1:
        summary = summarize(load(args.dirs[0]))
        for group, entry in summary.items():
            print(f"{group}: {len(entry['seeds'])} runs, "
                  f"{entry['failed']}/{entry['attempted']} failed jobs")
            for name, s in entry["metrics"].items():
                print(f"  {name:40} median {s['median']:12.6g}  "
                      f"q1 {s['q1']:12.6g}  q3 {s['q3']:12.6g}  spread {s['spread']:6.1%}")
        if args.json:
            with open(args.json, "w", encoding="utf-8") as fh:
                json.dump(summary, fh, indent=1, sort_keys=True)
                fh.write("\n")
        return 0
    if len(args.dirs) != 2:
        ap.error("give one directory to summarize or two to compare")
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
        bounds = {m["name"]: m["bound"] for m in json.load(fh)["end_to_end"]}
    return compare(load(args.dirs[0]), load(args.dirs[1]), bounds)


if __name__ == "__main__":
    sys.exit(main())
