#!/usr/bin/env python3
"""compare.py <parent/result.json> <change/result.json>

Is the second full set (`hf-benchmark run` -> out/result.json) no worse
than the first? Every end-to-end metric of every workload is held to its
bound in BENCHMARK.json. A metric the benchmark marks exact must be equal
bit for bit, whatever its bound, unless it is named after --moved (a change
that declares a virtual-clock or numerical move). A host metric that either
run reported as unresolved is printed as such, not as a regression. Exits 1
when anything is worse or differs. For two sets of one commit, run it both
ways round.
"""
import json
import os
import sys

args = sys.argv[1:]
moved = set()
if "--moved" in args:
    at = args.index("--moved")
    moved, args = set(args[at + 1:]), args[:at]
if len(args) != 2:
    sys.exit(__doc__)
parent, change = (json.load(open(path)) for path in args)
manifest = json.load(open(os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "BENCHMARK.json")))
exact = set(parent["exact_metrics"]) - moved
bad = 0
for workload, passes in parent["workloads"].items():
    theirs = change["workloads"][workload]
    unresolved = set(passes["e2e"]["unresolved"]) | set(theirs["e2e"]["unresolved"])
    for m in manifest["end_to_end"] + manifest["per_layer"]:
        name = m["name"]
        run = "e2e" if "bound" in m else "trace"
        a = passes[run]["result"]["metrics"][name]["value"]
        b = theirs[run]["result"]["metrics"][name]["value"]
        if name in exact:
            if a != b:
                bad += 1
                print(f"DIFFERS    {workload:<20} {name:<34} {a!r} -> {b!r} (exact)")
            elif "bound" in m:
                print(f"ok         {workload:<20} {name:<34} {a:.6g} identical (exact)")
            continue
        if "bound" not in m:
            continue
        worse = (b - a) / a if m["better"] == "lower" else (a - b) / a
        verdict = "ok"
        if worse > m["bound"]:
            verdict = "UNRESOLVED" if name in unresolved else "WORSE"
            bad += verdict == "WORSE"
        print(f"{verdict:<10} {workload:<20} {name:<34} {a:.6g} -> {b:.6g} "
              f"({-worse * 100:+.1f} %, bound {m['bound'] * 100:g} %)")
print("no worse within the bounds" if not bad else f"{bad} metrics worse or different")
sys.exit(1 if bad else 0)
