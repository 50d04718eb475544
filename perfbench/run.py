#!/usr/bin/env python3
"""Build the benchmark from source and run it.

From the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
        Build perfbench/bench.exe with dune and run one workload. The last
        line of standard output is the JSON result.

    python3 perfbench/run.py --check
        Smoke mode: every workload at a tiny size, traced and untraced,
        must emit every metric BENCHMARK.json names, finite and with its
        unit. Then the determinism self-check: the transfer workload run
        twice with one seed must repeat its simulated-clock metrics, its
        allocation count and every layer count exactly, and a second seed
        must run clean.
"""

import argparse
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "bench.exe")


def die(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build():
    # The benchmark links the repository's libraries; without them there
    # is nothing to measure.
    for need in ("dune-project", "lib"):
        if not os.path.exists(os.path.join(ROOT, need)):
            die("no %s beside perfbench/: run from a checkout of the repository" % need)
    try:
        r = subprocess.run(
            ["dune", "build", "--root", ROOT, "./perfbench/bench.exe"],
            cwd=ROOT,
            stdout=sys.stderr,
        )
    except FileNotFoundError:
        die("dune not found")
    if r.returncode != 0 or not os.path.isfile(EXE):
        die("build failed")


def run_exe(args):
    r = subprocess.run([EXE] + args, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    if r.returncode != 0:
        die("bench.exe %s exited with %d" % (" ".join(args), r.returncode))
    lines = r.stdout.splitlines()
    result = json.loads(lines[-1])
    det = [l for l in lines if l.startswith("determinism: ")]
    return result, (det[0] if det else "")


def check():
    spec = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    bad = []

    def expect(ok, what):
        print(("ok   " if ok else "FAIL ") + what)
        if not ok:
            bad.append(what)

    # Smoke: every named metric, finite, with its unit.
    for w in spec["workloads"]:
        for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
            args = ["--workload", w["name"], "--seed", "7", "--seconds", "0",
                    "--trace", trace, "--smoke"]
            res, _ = run_exe(args)
            got = res["metrics"]
            expect(res["correct"], "%s trace %s: outputs correct" % (w["name"], trace))
            expect(sorted(got) == sorted(m["name"] for m in spec[key]),
                   "%s trace %s: emits exactly the %s metrics" % (w["name"], trace, key))
            for m in spec[key]:
                v = got.get(m["name"])
                expect(v is not None and isinstance(v["value"], (int, float))
                       and math.isfinite(v["value"]) and v["unit"] == m["unit"],
                       "%s trace %s: %s finite, in %s" % (w["name"], trace, m["name"], m["unit"]))

    # Determinism: the netsim workload repeats exactly per seed. Not
    # compared: wall-clock ratios, heap size, and promoted words, which
    # depend on which boxed floats Obs.Histogram happens to retain as the
    # min/max of Ilp's wall-clock run timings.
    w = "transfer-8k-aead-loss2"
    seeded = ["ratio", "words", "count"]
    unseeded = ["trace_overhead", "unattributed_share", "sender_share",
                "gc.promoted_words_per_adu"]
    for trace in ("0", "1"):
        args = ["--workload", w, "--seed", "42", "--seconds", "0", "--trace", trace, "--smoke"]
        (a, da), (b, db) = run_exe(args), run_exe(args)
        expect(da == db and da != "", "%s trace %s: same seed, same determinism line" % (w, trace))
        for name, v in a["metrics"].items():
            sim = name.startswith("latency_") or name == "goodput_mbps"
            if (sim or v["unit"] in seeded) and name not in unseeded:
                expect(v["value"] == b["metrics"][name]["value"],
                       "%s trace %s: %s repeats exactly" % (w, trace, name))
    res, _ = run_exe(["--workload", w, "--seed", "43", "--seconds", "0", "--trace", "0", "--smoke"])
    expect(res["correct"], "%s: a second seed runs clean" % w)
    print("check: %s" % ("PASS" if not bad else "%d FAILED" % len(bad)))
    return 0 if not bad else 1


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int)
    p.add_argument("--seconds", type=float)
    p.add_argument("--trace", type=int, choices=(0, 1))
    p.add_argument("--check", action="store_true")
    a = p.parse_args()
    build()
    if a.check:
        sys.exit(check())
    if a.workload is None or a.seed is None or a.seconds is None or a.trace is None:
        die("need --workload, --seed, --seconds and --trace (or --check)")
    r = subprocess.run([EXE, "--workload", a.workload, "--seed", str(a.seed),
                        "--seconds", str(a.seconds), "--trace", str(a.trace)], cwd=ROOT)
    sys.exit(r.returncode)


if __name__ == "__main__":
    main()
