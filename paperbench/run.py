#!/usr/bin/env python3
"""Paper-workload benchmark for psmn (see README.md in this directory).

Builds the psmn library, the `paperbench` measuring program and the
`netlist_runner` example from the sources of the checkout this directory sits
in, runs one workload, checks its outputs, prints every metric by name and
unit, and prints one JSON object as the last line of stdout:

    python3 paperbench/run.py --workload table2 --seed 1 --seconds 45 --trace 0

`--workload all` runs the three workloads in turn, one result line each,
and exits 1 if any of them fails a check. Modes beyond a measured run:

    --reference N   recompute the stored references: the seeded MC-N sigma of
                    each table2 circuit with its chi-square 95% interval, and
                    the pseudo-noise sigmas (writes reference.json)
    --reference-file F   check against F instead of reference.json

Exits nonzero, without a result line, when the build fails; exits 1 with
"correct": false when any correctness check fails.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
OUT = os.path.join(ROOT, ".bench_out")
DECKS = os.path.join(ROOT, "examples", "decks")
REFERENCE = os.path.join(HERE, "reference.json")
WORKLOADS = ("table2", "ring63_pn", "deck_sweep")
TABLE2 = ("logic_path", "ring_osc", "comparator")
CHILD_TIMEOUT_S = 170
JOBS = min(4, os.cpu_count() or 1)  # MC, sweep and RF pool slots

# Correctness tolerances, stated here and in README.md.
PN_SIGMA_REL_TOL = 1e-6     # pseudo-noise sigma vs its stored value
RECONCILE_TOL_PCT = 2.0     # sum of layer self times vs the workload wall

# CPU seconds the host speed probe (src/host_probe.cpp) takes on the
# reference host. The gated times are CPU seconds scaled by this over the
# probe's time next to the pass: CPU seconds on a host where the probe
# takes this long (README.md, "Noise").
PROBE_REF_S = 0.020

END_TO_END_UNITS = {
    "setup_s": "s",
    "sigma_cpu_s": "s",
    "pass_cpu_s": "s",
    "peak_rss_mb": "MB",
}

# Per-layer metrics of the traced run, with their units.
PER_LAYER_UNITS = {
    "circuit.parse_us": "us",
    "circuit.evals": "count",
    "circuit.eval_us": "us",
    "circuit.eval_share_est": "ratio",
    "numeric.factors": "count",
    "numeric.factor_us": "us",
    "numeric.solve_cols": "count",
    "numeric.solve_us_per_col": "us",
    "numeric.factor_nnz": "count",
    "numeric.lu_share_est": "ratio",
    "engine.transient_s": "s",
    "engine.dc_s": "s",
    "engine.newton_iters": "count",
    "engine.steps": "count",
    "engine.warmup_s": "s",
    "rf.pss_s": "s",
    "rf.pss_shooting_iters": "count",
    "rf.pss_steps": "count",
    "rf.pnoise_s": "s",
    "rf.lptv_solve_cols": "count",
    "core.mc_run_s": "s",
    "core.readout_s": "s",
    "core.mismatch_apply_us": "us",
    "runtime.busy_frac": "ratio",
    "runtime.slot_imbalance": "ratio",
    "runtime.retries": "count",
    "meas.s": "s",
    "self_s.circuit": "s",
    "self_s.engine": "s",
    "self_s.rf": "s",
    "self_s.core": "s",
    "self_s.runtime": "s",
    "self_s.meas": "s",
    "glue_s": "s",
    "reconcile_err_pct": "%",
    "trace_overhead_pct": "%",
}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the package; build output goes to stderr."""
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(["ninja", "--version"], capture_output=True).returncode == 0:
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            return False
    cmd = ["cmake", "--build", BUILD, "-j", str(JOBS)]
    return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode == 0


def run_child(args):
    """Runs the measuring program; returns its last-line JSON or raises."""
    exe = os.path.join(BUILD, "paperbench")
    proc = subprocess.run([exe] + args, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    if proc.stderr:
        log(proc.stderr.rstrip())
    if proc.returncode != 0:
        raise RuntimeError("paperbench exited with %d" % proc.returncode)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def runner_summary(deck, seed, samples, jobs):
    """The summary line netlist_runner prints for a deck's seeded sweep."""
    exe = os.path.join(BUILD, "netlist_runner")
    proc = subprocess.run(
        [exe, os.path.join(DECKS, deck), "--sweep", "mc:%d" % samples,
         "--seed", str(seed), "--probe", "out", "--jobs", str(jobs)],
        capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    for line in proc.stdout.splitlines():
        if line.startswith("summary:"):
            return line.strip()
    return "netlist_runner exit %d, no summary line" % proc.returncode


def chi2_quantile(p, k):
    """Wilson-Hilferty chi-square quantile (accurate to <0.1% at k >= 100)."""
    z = statistics.NormalDist().inv_cdf(p)
    c = 2.0 / (9.0 * k)
    return k * (1.0 - c + z * math.sqrt(c)) ** 3


def sigma_interval95(sigma, n):
    """Chi-square 95% confidence interval of a sample sigma from n samples."""
    k = n - 1
    return [sigma * math.sqrt(k / chi2_quantile(0.975, k)),
            sigma * math.sqrt(k / chi2_quantile(0.025, k))]


def median(values):
    return statistics.median(values) if values else 0.0


def pn_seconds(passes):
    """Pseudo-noise wall time of a run: each analysis's fastest pass, summed.

    The analyses are deterministic and repeat identically every pass, so
    their fastest repeat is their wall time on a quiet host.
    """
    return sum(min(p["pn_time"][k] for p in passes) for k in passes[0]["pn_time"])


def at_reference_speed(cpu_s, probe_s):
    """CPU seconds scaled to the reference host's speed."""
    return cpu_s * PROBE_REF_S / probe_s


def end_to_end(raw):
    """The end-to-end metrics of an untraced run.

    Each pass's CPU time is scaled by the host probe timed around that pass,
    and so is the mean of the set-ups repeated just before it. The first of
    those set-ups follows a pass and runs cold, about twice as long as the
    others; the mean of each group holds one of each, so its median over the
    run does not jump between the two.
    """
    passes = raw["passes"]
    setup_cpu = raw["setup_cpu_s"]
    reps = len(setup_cpu) // len(passes)
    setup = [at_reference_speed(statistics.mean(setup_cpu[i * reps:(i + 1) * reps]),
                                p["probe_s"])
             for i, p in enumerate(passes)]
    return {
        "setup_s": median(setup),
        "sigma_cpu_s": median([at_reference_speed(p["sigma_cpu_s"],
                                                  p["probe_s"])
                               for p in passes]),
        "pass_cpu_s": median([at_reference_speed(p["cpu_s"], p["probe_s"])
                              for p in passes]),
        "peak_rss_mb": raw["peak_rss_mb"],
    }


def workload_figures(raw, ref):
    """The workload's own figures, printed beside the gated metrics."""
    passes = raw["passes"]
    out = {}
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    out["failed_frac"] = (failed / attempted if attempted else 0.0, "ratio")
    out["pass_s"] = (median([p["wall_s"] for p in passes]), "s")
    out["host_probe_ms"] = (1e3 * median([p["probe_s"] for p in passes]), "ms")
    if raw["workload"] in ("table2", "ring63_pn"):
        out["pn_s"] = (pn_seconds(passes), "s")
    if raw["workload"] == "table2":
        rates = [p["mc_samples"] / p["mc_s"] for p in passes if p["mc_s"] > 0]
        out["mc_samples_per_s"] = (median(rates), "1/s")
        for c in TABLE2:
            pn = passes[0]["pn_sigma"][c]
            mc = ref["mc"][c]["sigma"]
            out["sigma_err_pct." + c] = (100.0 * abs(pn / mc - 1.0), "%")
        for c in TABLE2:
            pn_t = min(p["pn_time"][c] for p in passes)
            per_sample = median([p["mc_time"][c] / p["mc_n"][c]
                                 for p in passes if p["mc_n"].get(c)])
            out["speedup_vs_mc1000.%s.jobs%d" % (c, raw["jobs"])] = (
                1000.0 * per_sample / pn_t, "x")
    if raw["workload"] == "deck_sweep":
        rates = [p["scenarios"] / p["sweep_s"] for p in passes if p["sweep_s"] > 0]
        out["sweep_scenarios_per_s"] = (median(rates), "1/s")
    return out


def check(raw, ref, seed, jobs):
    """Seed-independent correctness checks; returns (name, ok, detail)."""
    results = []
    for key, stored in sorted(ref["pn_sigma"].items()):
        got = [p["pn_sigma"][key] for p in all_passes(raw)
               if key in p["pn_sigma"]]
        if not got:
            continue
        worst = max(abs(g / stored - 1.0) for g in got)
        results.append(("pn_sigma." + key, worst <= PN_SIGMA_REL_TOL,
                        "max rel err %.3g vs stored %.9g (tol %g)"
                        % (worst, stored, PN_SIGMA_REL_TOL)))
    for c in raw["checks"]:
        if c["name"].startswith("runner_summary."):
            deck = c["name"][len("runner_summary."):]
            want = runner_summary(deck, seed, 8, jobs)
            results.append((c["name"], want == c["detail"],
                            "benchmark '%s' vs netlist_runner '%s'"
                            % (c["detail"], want)))
        else:
            results.append((c["name"], c["ok"], c["detail"]))
    for i, t in enumerate(raw["traced"]):
        ok = (t["reconcile_err_pct"] <= RECONCILE_TOL_PCT
              and t["trace.bad_nesting"] == 0 and t["trace.stray_spans"] == 0)
        results.append(("trace_reconciles.pass%d" % i, ok,
                        "layer self times %.3f%% off the wall (tol %g%%), "
                        "%d unnested, %d stray spans"
                        % (t["reconcile_err_pct"], RECONCILE_TOL_PCT,
                           t["trace.bad_nesting"], t["trace.stray_spans"])))
    return results


def per_layer(raw):
    """Medians of the traced passes' layer metrics, plus tracing overhead."""
    traced = raw["traced"]
    out = {k: median([t[k] for t in traced]) for k in PER_LAYER_UNITS
           if k != "trace_overhead_pct"}
    untraced = median([p["wall_s"] for p in raw["passes"]])
    walls = median([p["wall_s"] for p in raw["traced_passes"]])
    out["trace_overhead_pct"] = 100.0 * (walls / untraced - 1.0) if untraced else 0.0
    return out


def reference_mode(samples, seed, jobs):
    raw = run_child(["--reference", str(samples), "--seed", str(seed),
                     "--jobs", str(jobs), "--decks", DECKS])
    ref = {
        "about": "Stored references of the paper-workload benchmark: "
                 "pseudo-noise sigmas (deterministic) and the seeded MC "
                 "sigma of each table2 circuit with its chi-square 95% "
                 "interval. Regenerate with run.py --reference.",
        "pn_sigma": raw["pn_sigma"],
        "mc": {},
    }
    for c in TABLE2:
        n = raw["mc_n"][c]
        sigma = raw["mc_sigma"][c]
        lo, hi = sigma_interval95(sigma, n)
        ref["mc"][c] = {"sigma": sigma, "samples": n, "seed": seed,
                        "ci95": [lo, hi]}
        pn = raw["pn_sigma"][c]
        print("%-11s pn %.6g  MC-%d %.6g  95%% CI [%.6g, %.6g]  pn/MC %.4f  "
              "sigma_err_pct %.2f" % (c, pn, n, sigma, lo, hi, pn / sigma,
                                      100.0 * abs(pn / sigma - 1.0)))
    with open(REFERENCE, "w") as f:
        json.dump(ref, f, indent=2, sort_keys=True)
        f.write("\n")
    print("wrote %s (MC took %.1f s)" % (REFERENCE, raw["mc_s"]))
    return 0


def run_workload(args, ref, workload):
    """Runs, checks and reports one workload; returns whether it is correct."""
    child = ["--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--jobs", str(JOBS), "--decks", DECKS]
    if args.min_passes:
        child += ["--min-passes", str(args.min_passes)]
    elif args.trace:
        child += ["--min-passes", "2"]
    raw = run_child(child)
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, "raw_%s.json" % workload), "w") as f:
        json.dump(raw, f)

    checks = check(raw, ref, args.seed, JOBS)
    correct = all(ok for _, ok, _ in checks)
    for name, ok, detail in checks:
        print("check %-40s %s  %s" % (name, "ok  " if ok else "FAIL", detail))

    passes = raw["passes"]
    print("workload %s: %d measured passes, jobs=%d, seed=%d"
          % (workload, len(passes), raw["jobs"], args.seed))
    for name, (value, unit) in workload_figures(raw, ref).items():
        print("  %-32s %14.6g %s" % (name, value, unit))
    if workload == "table2":
        for c in TABLE2:
            lo, hi = ref["mc"][c]["ci95"]
            pn = passes[0]["pn_sigma"][c]
            mc = ref["mc"][c]
            inside = lo <= pn <= hi
            print("  %-11s pn sigma %.6g vs MC-%d %.6g, 95%% CI [%.6g, %.6g]: "
                  "pn/MC %.4f, %s the interval"
                  % (c, pn, mc["samples"], mc["sigma"], lo, hi,
                     pn / mc["sigma"], "inside" if inside else "OUTSIDE"))

    if args.trace:
        values = per_layer(raw)
        units = PER_LAYER_UNITS
        path = os.path.join(OUT, "trace_%s.json" % workload)
        with open(path, "w") as f:
            json.dump({"workload": workload, "seed": args.seed,
                       "jobs": raw["jobs"], "metrics": values,
                       "traced_passes": raw["traced"]}, f, indent=2,
                      sort_keys=True)
        print("traced run written to %s" % os.path.relpath(path, ROOT))
    else:
        values = end_to_end(raw)
        units = END_TO_END_UNITS
    for name, unit in units.items():
        print("  %-32s %14.6g %s" % (name, values[name], unit))

    result = {
        "correct": correct,
        "attempted": sum(p["attempted"] for p in all_passes(raw)),
        "failed": sum(p["failed"] for p in all_passes(raw)),
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
    }
    print(json.dumps(result), flush=True)
    return correct


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=45.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--reference", type=int, metavar="N", default=0)
    ap.add_argument("--reference-file", default=REFERENCE)
    ap.add_argument("--min-passes", type=int, default=0,
                    help="lower bound on measured passes (smoke test: 1)")
    args = ap.parse_args()

    if not build():
        log("build failed")
        return 2
    if args.reference:
        return reference_mode(args.reference, args.seed, JOBS)
    if not args.workload:
        ap.error("--workload is required")
    with open(args.reference_file) as f:
        ref = json.load(f)
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    correct = [run_workload(args, ref, w) for w in workloads]
    return 0 if all(correct) else 1


def all_passes(raw):
    return raw["passes"] + raw["traced_passes"]


if __name__ == "__main__":
    sys.exit(main())
