#!/usr/bin/env python3
"""Self-checks and steadiness runs for the benchmark (run from the checkout root).

    python3 ssebench/check.py oracle       # a dropped id must fail the run
    python3 ssebench/check.py determinism  # exact counts repeat per seed
    python3 ssebench/check.py steady --runs 10 [--workload W] [--out F]
    python3 ssebench/check.py compare A.json B.json

Without --workload, each check covers the workloads BENCHMARK.json lists.
`steady` runs each workload with seeds 1..runs and prints, per metric, the
median, the quartiles and the quartile spread as a share of the median
(statistics.quantiles(values, n=4)); it fails when a spread exceeds the
metric's bound in BENCHMARK.json. `--out` saves the table as JSON.
`compare` takes two saved tables of the same code and fails when a median
of the second is worse than the first's by more than the bound.
"""

import argparse
import json
import os
import statistics
import sys

sys.dont_write_bytecode = True
import run  # noqa: E402  (the sibling run.py)


def invoke(workload, seed, seconds, trace=0, extra=()):
    args = argparse.Namespace(workload=workload, seed=seed, seconds=seconds,
                              trace=trace)
    code, lines = run.run_binary(args, extra)
    meta = result = None
    for line in lines:
        obj = json.loads(line)
        if "meta" in obj:
            meta = obj["meta"]
        else:
            result = obj
    return code, meta, result


def check_oracle(workloads):
    ok = True
    for w in workloads:
        code, meta, result = invoke(w, 7, 2, extra=["--corrupt-one-reply"])
        bit = code == 1 and result is not None and not result["correct"]
        print("%-14s corrupted reply -> exit %d, correct=%s, failed=%s %s" %
              (w, code, result and result["correct"], result and
               result["failed"], "OK" if bit else "NOT DETECTED"))
        if meta:
            print("    first failure: %s" %
                  (meta["failed_ops"] or meta["failed_checks"])[:1])
        ok = ok and bit
    return ok


def check_determinism(workloads):
    ok = True
    for w in workloads:
        runs = [invoke(w, seed, 2)[1] for seed in (11, 11, 12)]
        if any(m is None for m in runs):
            print("%-14s a run failed" % w)
            ok = False
            continue
        a, b, c = (m["exact"] for m in runs)
        same = a == b
        changed = sorted(k for k in a if a[k] != c.get(k))
        print("%-14s seed 11 twice: %s; seed 12 changes %d of %d counts %s" %
              (w, "identical" if same else "DIFFERENT", len(changed), len(a),
               changed))
        if not same:
            for k in sorted(a):
                if a[k] != b.get(k):
                    print("    %s: %s vs %s" % (k, a[k], b.get(k)))
        ok = ok and same and len(changed) > 0
    return ok


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def check_steady(workloads, runs, trace, seconds, bounds, out):
    table = {}
    ok = True
    for w in workloads:
        values = {}
        for seed in range(1, runs + 1):
            code, meta, result = invoke(w, seed, seconds, trace)
            if result is None or not result["correct"]:
                print("%s seed %d: incorrect run (exit %d)" % (w, seed, code))
                return False
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print("%s seed %d done; sha256 %.0f ns before, %.0f ns after" %
                  (w, seed, meta["crypto_before"]["crypto.sha256_ns"],
                   meta["crypto_after"]["crypto.sha256_ns"]),
                  file=sys.stderr, flush=True)
        table[w] = {}
        for name, vals in values.items():
            med, q1, q3, s = spread(vals)
            table[w][name] = {"median": med, "q1": q1, "q3": q3,
                              "spread": s, "values": vals}
            bound = bounds.get(name)
            flag = ""
            if bound is not None:
                flag = "ok" if s < bound / 3 else (
                    "WITHIN BOUND" if s <= bound else "TOO NOISY")
                ok = ok and s <= bound
            print("%-14s %-44s median %12.4f  q1 %12.4f  q3 %12.4f  "
                  "spread %6.3f %s" % (w, name, med, q1, q3, s, flag))
    print(json.dumps(table))
    if out:
        with open(out, "w") as f:
            json.dump(table, f)
    return ok


def check_compare(paths, spec):
    """Second set's median against the first's, in the metric's worse
    direction, as a share of the first median."""
    first, second = (json.load(open(p)) for p in paths)
    ok = True
    for m in spec["end_to_end"]:
        for w in sorted(set(first) & set(second)):
            if m["name"] not in first[w] or m["name"] not in second[w]:
                continue
            a = first[w][m["name"]]["median"]
            b = second[w][m["name"]]["median"]
            worse = (b - a if m["better"] == "lower" else a - b) / a if a else 0
            bad = worse > m["bound"]
            ok = ok and not bad
            print("%-14s %-28s %12.4f -> %12.4f  worse by %+6.3f (bound %.2f)"
                  " %s" % (w, m["name"], a, b, worse, m["bound"],
                           "TOO FAR" if bad else "ok"))
    return ok


def main(argv):
    p = argparse.ArgumentParser()
    p.add_argument("check",
                   choices=("oracle", "determinism", "steady", "compare"))
    p.add_argument("tables", nargs="*", help="compare: two --out files")
    p.add_argument("--workload", choices=run.WORKLOADS)
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--trace", type=int, default=0)
    p.add_argument("--seconds", type=int)
    p.add_argument("--out")
    args = p.parse_args(argv)
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    if args.check == "compare":
        if len(args.tables) != 2:
            p.error("compare takes two tables")
        return 0 if check_compare(args.tables, spec) else 1
    if not run.build():
        return 2
    workloads = ([args.workload] if args.workload else
                 [w["name"] for w in spec["workloads"]])
    if args.check == "oracle":
        ok = check_oracle(workloads)
    elif args.check == "determinism":
        ok = check_determinism(workloads)
    else:
        ok = check_steady(workloads, args.runs, args.trace,
                          args.seconds or spec["run_seconds"], bounds,
                          args.out)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
