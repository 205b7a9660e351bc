#!/usr/bin/env python3
"""A/B-compares two commits on the repo benchmark (perfbench/run.py).

Usage, from the root of a checkout:

    python3 tools/perf_ab.py --parent HEAD~1 --change HEAD \\
        --workload suite-telemetry --seeds 1-10 --seconds 30 --trace 0

Each side is exported with `git archive` into its own directory under
--work-dir and built there by perfbench/run.py under its own
CARGO_TARGET_DIR. --repeat pairs of runs per seed (default one), both
sides on the same seed, in ABBA order (parent first on even pairs, change
first on odd ones). A pair fails unless both sides print a result with
`correct: true` and `failed: 0`; failed pairs are left out of the
statistics and make the exit status 1.

Every pair is appended as one JSON line to --record (default
<work-dir>/<workload>.jsonl). The summary prints, per metric, each side's
median [q1, q3], the pairs the change won, and whether the gap between
the medians exceeds the parent's interquartile range. --emit-rows also
prints one BENCH_perfbench.json row per metric. --replay FILE summarizes
a recorded JSONL file without building or running anything.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("suite-clean", "suite-telemetry", "sweep-faulty")


def load_metric_specs(trace):
    """Name -> (unit, better) of the metrics a run reports, in
    BENCHMARK.json order."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: (m["unit"], m["better"]) for m in bench[key]}


def quartiles(values):
    """(q1, median, q3) with linear interpolation between order statistics
    (the 'inclusive' method: q1 and q3 of [1, 2, 3, 4] are 1.75, 3.25)."""
    vals = sorted(values)
    if len(vals) == 1:
        return vals[0], vals[0], vals[0]
    q1, med, q3 = statistics.quantiles(vals, n=4, method="inclusive")
    return q1, med, q3


def pair_ok(pair):
    return all(isinstance(pair.get(side), dict)
               and pair[side].get("correct") is True
               and pair[side].get("failed") == 0
               for side in ("parent", "change"))


def summarize(pairs, specs):
    """Per-metric statistics over the pairs that passed. A metric is left
    out when some passing pair lacks it on either side."""
    good = [p for p in pairs if pair_ok(p)]
    out = []
    for name, (unit, better) in specs.items():
        try:
            a = [p["parent"]["metrics"][name]["value"] for p in good]
            b = [p["change"]["metrics"][name]["value"] for p in good]
        except KeyError:
            continue
        if not a:
            continue
        wins = sum(1 for x, y in zip(a, b)
                   if (y < x if better == "lower" else y > x))
        pq1, pmed, pq3 = quartiles(a)
        cq1, cmed, cq3 = quartiles(b)
        out.append({
            "metric": name, "unit": unit, "better": better,
            "parent": {"median": pmed, "q1": pq1, "q3": pq3},
            "change": {"median": cmed, "q1": cq1, "q3": cq3},
            "pairs": len(good), "wins": wins,
            "gap_exceeds_parent_iqr": abs(cmed - pmed) > (pq3 - pq1),
        })
    return out


def format_table(summary):
    def side(s):
        return f"{s['median']:.4g} [{s['q1']:.4g}, {s['q3']:.4g}]"

    lines = [f"{'metric':<34} {'unit':<14} {'parent median [q1, q3]':<30} "
             f"{'change median [q1, q3]':<30} {'wins':<7} gap>IQR"]
    for s in summary:
        lines.append(f"{s['metric']:<34} {s['unit']:<14} "
                     f"{side(s['parent']):<30} {side(s['change']):<30} "
                     f"{str(s['wins']) + '/' + str(s['pairs']):<7} "
                     f"{'yes' if s['gap_exceeds_parent_iqr'] else 'no'}")
    return "\n".join(lines)


def seed_label(seeds):
    lo, hi = min(seeds), max(seeds)
    if lo == hi:
        return str(lo)
    if sorted(seeds) == list(range(lo, hi + 1)):
        return f"{lo}-{hi}"
    return ",".join(str(s) for s in sorted(seeds))


def rows(summary, meta, pr):
    """BENCH_perfbench.json rows (its 'rows' schema), one per metric."""
    def side(s):
        return {k: round(s[k], 4) for k in ("median", "q1", "q3")}

    return [{
        "pr": pr, "commit": meta["parent_commit"],
        "change_commit": meta["change_commit"],
        "workload": meta["workload"], "metric": s["metric"],
        "unit": s["unit"], "parent": side(s["parent"]),
        "change": side(s["change"]), "pairs": s["pairs"],
        "run_seconds": meta["seconds"], "seeds": meta["seeds"],
        "wins": f"{s['wins']}/{s['pairs']}",
    } for s in summary]


def read_pairs(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def report(pairs, pr, emit_rows):
    if not pairs:
        print("perf_ab: no pairs", file=sys.stderr)
        return 1
    first = pairs[0]
    specs = load_metric_specs(first["trace"])
    summary = summarize(pairs, specs)
    failed = [p["seed"] for p in pairs if not pair_ok(p)]
    print(f"# {first['workload']}: parent {first['parent_commit']} vs "
          f"change {first['change_commit']}, {len(pairs)} pairs of "
          f"{first['seconds']} s, trace {first['trace']}")
    print(format_table(summary))
    if failed:
        print(f"# failed pairs (seeds): {failed}")
    good_seeds = [p["seed"] for p in pairs if pair_ok(p)]
    if emit_rows and good_seeds:
        meta = dict(first, seeds=seed_label(good_seeds))
        for row in rows(summary, meta, pr):
            print(json.dumps(row))
    return 1 if failed else 0


# -- running ------------------------------------------------------------------

def git(*args):
    return subprocess.run(["git", "-C", ROOT, *args], check=True,
                          capture_output=True, text=True).stdout.strip()


def export(rev, work_dir):
    """Exports `rev` with git archive; returns (short sha, source dir)."""
    sha = git("rev-parse", "--verify", rev + "^{commit}")
    src = os.path.join(work_dir, "src-" + sha)
    if not os.path.isdir(src):
        os.makedirs(src)
        archive = subprocess.Popen(["git", "-C", ROOT, "archive", sha],
                                   stdout=subprocess.PIPE)
        subprocess.run(["tar", "-x", "-C", src], stdin=archive.stdout,
                       check=True)
        archive.stdout.close()
        if archive.wait() != 0:
            raise RuntimeError(f"git archive {rev} failed")
    return git("rev-parse", "--short=7", sha), src


def run_side(src, args, seed, seconds):
    """One perfbench run; the parsed JSON result, or None on any failure."""
    env = dict(os.environ, CARGO_TARGET_DIR=os.path.join(src, ".bench_build"))
    done = subprocess.run(
        [sys.executable, os.path.join(src, "perfbench", "run.py"),
         "--workload", args.workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(args.trace)],
        cwd=src, env=env, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stderr[-2000:])
        return None
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        return None


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    lo_n, hi_n = int(lo), int(hi or lo)
    if lo_n < 0 or hi_n < lo_n:
        raise ValueError(text)
    return list(range(lo_n, hi_n + 1))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent")
    parser.add_argument("--change")
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seeds", help="inclusive range A-B, or one seed")
    parser.add_argument("--repeat", type=int, default=1,
                        help="pairs per seed")
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--emit-rows", action="store_true")
    parser.add_argument("--pr", type=int, default=None,
                        help="value of the rows' 'pr' field")
    parser.add_argument("--work-dir", default=os.path.join(ROOT, ".perf_ab"))
    parser.add_argument("--record", help="JSONL file the pairs append to")
    parser.add_argument("--replay", help="summarize a recorded JSONL file")
    args = parser.parse_args()

    if args.replay:
        return report(read_pairs(args.replay), args.pr, args.emit_rows)

    if not (args.parent and args.change and args.workload and args.seeds):
        parser.error("--parent, --change, --workload and --seeds are "
                     "required unless --replay is given")
    try:
        seeds = parse_seeds(args.seeds)
    except ValueError:
        parser.error("--seeds must be A-B with 0 <= A <= B")
    if args.seconds < 1 or args.repeat < 1:
        parser.error("--seconds and --repeat must be >= 1")
    seeds = [s for s in seeds for _ in range(args.repeat)]

    os.makedirs(args.work_dir, exist_ok=True)
    record = args.record or os.path.join(args.work_dir,
                                         args.workload + ".jsonl")
    sides = {"parent": export(args.parent, args.work_dir),
             "change": export(args.change, args.work_dir)}
    # A one-second run per side builds it, so no timed run pays for a build.
    for name, (_, src) in sides.items():
        if run_side(src, args, seeds[0], 1) is None:
            print(f"perf_ab: {name} side failed to build or run",
                  file=sys.stderr)
            return 2

    pairs = []
    for i, seed in enumerate(seeds):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        pair = {"workload": args.workload, "seconds": args.seconds,
                "trace": args.trace, "seed": seed,
                "order": "AB" if i % 2 == 0 else "BA",
                "parent_commit": sides["parent"][0],
                "change_commit": sides["change"][0]}
        for side in order:
            pair[side] = run_side(sides[side][1], args, seed, args.seconds)
        pairs.append(pair)
        with open(record, "a") as f:
            f.write(json.dumps(pair) + "\n")
        print(f"# pair {i + 1}/{len(seeds)} seed {seed} {pair['order']}: "
              f"{'ok' if pair_ok(pair) else 'FAILED'}", file=sys.stderr)
    return report(pairs, args.pr, args.emit_rows)


if __name__ == "__main__":
    sys.exit(main())
