#!/usr/bin/env python3
"""Smoke test of the paper-workload benchmark at minimal sizes.

    python3 paperbench/smoke_test.py

Runs every workload (ring63_pn included) for one pass untraced and traced,
and asserts that the last stdout line parses, that it carries exactly the
four result keys, and that every metric BENCHMARK.json names is emitted
with its unit. Then checks the
failure paths: a deliberately wrong stored pseudo-noise reference must make
the correctness check fail (exit 1, "correct": false), and a directory that
holds only the benchmark, without the psmn sources, must exit nonzero
without printing a result. Takes about two minutes.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
SCRATCH = os.path.join(ROOT, ".bench_out", "smoke")


def run(args, cwd=ROOT):
    proc = subprocess.run([sys.executable] + args, capture_output=True,
                          text=True, cwd=cwd, timeout=600)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, lines, proc.stderr


def result_of(lines):
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert isinstance(result["failed"], int)
    return result


def expect_metrics(result, specs, what):
    got = result["metrics"]
    assert set(got) == {m["name"] for m in specs}, (what, sorted(got))
    for m in specs:
        entry = got[m["name"]]
        assert set(entry) == {"value", "unit"}, (what, m["name"], entry)
        assert entry["unit"] == m["unit"], (what, m["name"], entry)
        assert isinstance(entry["value"], (int, float)), (what, m["name"])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    # ring63_pn runs by hand only (README.md, "Workloads"); test it too.
    workloads = [w["name"] for w in bench["workloads"]] + ["ring63_pn"]
    minimal = ["--seconds", "1", "--min-passes", "1"]

    for w in workloads:
        for trace, specs in ((0, bench["end_to_end"]), (1, bench["per_layer"])):
            rc, lines, err = run([RUN, "--workload", w, "--seed", "7",
                                  "--trace", str(trace)] + minimal)
            assert rc == 0, (w, trace, err[-2000:], lines[-20:])
            result = result_of(lines)
            assert result["correct"] is True, (w, trace, lines)
            expect_metrics(result, specs, "%s trace=%d" % (w, trace))
            for m in specs:  # the human-readable lines carry name and unit
                assert any(line.split()[:1] == [m["name"]] and
                           line.split()[-1] == m["unit"] for line in lines), \
                    (w, trace, m["name"])
            print("ok  %-10s trace=%d  %d metrics" % (w, trace, len(specs)))

    # A wrong stored reference must fail the pseudo-noise check.
    os.makedirs(SCRATCH, exist_ok=True)
    with open(os.path.join(HERE, "reference.json")) as f:
        ref = json.load(f)
    ref["pn_sigma"]["logic_path"] *= 1.01
    bad = os.path.join(SCRATCH, "wrong_reference.json")
    with open(bad, "w") as f:
        json.dump(ref, f)
    rc, lines, _ = run([RUN, "--workload", "table2", "--seed", "7",
                        "--trace", "0", "--reference-file", bad] + minimal)
    assert rc == 1, (rc, lines[-5:])
    assert result_of(lines)["correct"] is False
    assert any("pn_sigma.logic_path" in l and "FAIL" in l for l in lines)
    print("ok  wrong stored reference fails the correctness check")

    # Without the psmn sources the build fails: nonzero, no result line.
    bare = os.path.join(SCRATCH, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    for path in bench["paths"]:
        shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path),
                        ignore=shutil.ignore_patterns("__pycache__"))
    # command[0] is the python3 interpreter, which run() supplies.
    rc, lines, _ = run(bench["command"][1:] + [
        "--workload", workloads[0], "--seed", "1", "--seconds", "1",
        "--trace", "0"], cwd=bare)
    assert rc != 0 and not any(l.startswith("{") for l in lines), (rc, lines)
    shutil.rmtree(bare)
    print("ok  a checkout without the sources exits %d without a result" % rc)
    return 0


if __name__ == "__main__":
    sys.exit(main())
