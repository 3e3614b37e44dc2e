#!/usr/bin/env python3
"""The repository benchmark: one command per workload run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test
    python3 perfbench/run.py --ledger [--runs 10] [--workloads a,b]

Run it from the root of a checkout. It builds legofuzz and the measuring
program (perfbench/perfbench.ml) with dune, runs the workload under a
wall cap, checks the outputs and prints one JSON object as the last line
of standard output:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
workload runs untraced and then traced, and the metrics are the
per-layer ones plus trace.overhead_share. perfbench/README.md explains
the workloads, metrics and the first baseline.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

# The workloads BENCHMARK.json lists, in its order, with its "why" lines.
WORKLOADS = {
    "deep-campaign": "LEGO on PostgreSQL, 32k execs, campaign seed pinned to 1: the onset of the campaign-age cliff, where engine and prefix cache do the work",
    "young-grammar": "LEGO with grammar feedback, oracles, 2-session schedules; 4 dialects x campaign seed 1 x 10k execs: the front end",
    "farm-domains": "4-campaign farm (lego, sqlsmith, squirrel, sqlancer), 36k execs in 250-exec rounds on 2 domains: the round loop and the store",
}

# Runnable by name but not part of BENCHMARK.json: the process farm's
# coverage depends on which worker serves which campaign, so its runs do
# not repeat, and a campaign reloaded on a fresh epoch seed can write a
# store generation its own loader rejects (perfbench/README.md).
EXTRA_WORKLOADS = {
    "farm-procs": "the farm-domains spec over 2 worker processes: store reloads, promotion and worker balance",
}

END_TO_END = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("execs_per_s", "1/s"),
    ("late_execs_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("branches", "count"),
    ("coverage_keys", "count"),
    ("bugs", "count"),
]

PER_LAYER = (
    [
        ("driver.step_us.p50", "us"),
        ("driver.step_us.p99", "us"),
        ("driver.step_us.max", "us"),
        ("driver.tail_share", "share"),
        ("driver.tail_execute_share", "share"),
    ]
    + [("driver.window_execs_per_s.q%d" % q, "1/s") for q in (1, 2, 3, 4)]
    + [
        ("t90_coverage_s", "s"),
        ("core.mutate.s", "s"),
        ("core.mutate.calls", "count"),
        ("core.synthesize.s", "s"),
        ("core.synthesize.calls", "count"),
        ("core.instantiate.s", "s"),
        ("core.instantiate.calls", "count"),
        ("core.affinities", "count"),
        ("core.seeds", "count"),
        ("harness.execute.s", "s"),
        ("harness.grammar.s", "s"),
        ("harness.interesting_share", "share"),
        ("cache.hit_rate", "share"),
        ("cache.bypass_share", "share"),
        ("cache.evictions", "count"),
        ("cache.bytes_peak", "bytes"),
        ("cache.lookup.s", "s"),
        ("cache.restore.s", "s"),
        ("cache.capture.s", "s"),
        ("triage.s", "s"),
        ("reducer.s", "s"),
        ("reducer.tries", "count"),
        ("oracle.s", "s"),
        ("oracle.checks", "count"),
        ("oracle.logic_findings", "count"),
        ("schedule.phase_s", "s"),
        ("schedule.steps", "count"),
        ("session.switches", "count"),
        ("schedule.replay_mismatch", "count"),
        ("engine.statements", "count"),
        ("engine.rows_scanned_per_exec", "rows"),
        ("engine.sql_error_share", "share"),
    ]
    + [
        ("engine.stmt_us.%s.%s" % (cat, q), "us")
        for cat in ("ddl", "dml", "dql", "dcl", "tcl", "util")
        for q in ("p50", "p99")
    ]
    + [
        ("engine.snapshot_us.p50", "us"),
        ("engine.restore_us.p50", "us"),
        ("engine.snapshot_bytes.p50", "bytes"),
        ("sqlparser.parse_us.p50", "us"),
        ("sqlparser.parse_us.p99", "us"),
        ("farm.round_ms.p50", "ms"),
        ("farm.round_ms.p99", "ms"),
        ("farm.store.reloads", "count"),
        ("farm.store.reload_share", "share"),
        ("farm.store.save_ms.p50", "ms"),
        ("farm.store.load_ms.p50", "ms"),
        ("farm.store.merge_ms.p50", "ms"),
        ("farm.resume.preload_ms.p50", "ms"),
        ("farm.store.load_failures", "count"),
        ("farm.store.bytes_per_round", "bytes"),
        ("farm.worker.exec_imbalance", "ratio"),
        ("failed_ops_share", "share"),
        ("trace.overhead_share", "share"),
    ]
)

# Every process this script starts must end inside the 180 s a run may
# take; a measured program still running at its cap is killed and the
# run counts as failed, not as a slow number.
RUN_BUDGET_S = 170.0
BUILD_TIMEOUT_S = 850.0
WORK_DIR = ".perfbench"  # scratch, inside the checkout

# End-to-end times are calibrated: each repetition's are scaled by REF_S
# over the calibration kernel's time around it, so they read as seconds
# on the measuring VM at its usual speed (REF_S is the kernel's median
# time there). CALIBRATED gives each timed metric's power of the factor.
REF_S = 0.63
CALIBRATED = {"setup_s": 1, "wall_s": 1, "execs_per_s": -1,
              "late_execs_per_s": -1}


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


def build(smoke=False):
    """Build legofuzz and the measuring program; False when the checkout
    cannot be built (e.g. the repository sources are missing)."""
    for need in ("dune-project", os.path.join("bin", "legofuzz.ml"), "lib"):
        if not os.path.exists(need):
            log("no %s here: run from the root of a repository checkout" % need)
            return False
    targets = ["perfbench/perfbench.exe", "bin/legofuzz.exe"]
    if smoke:
        targets.append("perfbench/selftest.exe")
    try:
        p = subprocess.run(
            ["dune", "build", "--root", "."] + targets,
            capture_output=True, text=True, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        log("build failed: %s" % e)
        return False
    if p.returncode != 0:
        log("build failed:\n" + p.stdout + p.stderr)
        return False
    return True


def exe(name):
    return os.path.abspath(os.path.join("_build", "default", name))


RUNNING = []  # the process group being waited for, if any


def kill_running():
    for p in RUNNING:
        try:
            os.killpg(p.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        p.communicate()


def on_sigterm(signum, frame):
    kill_running()
    sys.exit(128 + signum)


def run_capped(argv, deadline, cwd=None):
    """Run argv in its own process group (farm workers included); kill the
    group at the deadline. Returns (stdout, returncode), or None when the
    cap was hit."""
    timeout = deadline - time.time()
    if timeout <= 0:
        return None
    p = subprocess.Popen(argv, stdout=subprocess.PIPE, cwd=cwd, text=True,
                         start_new_session=True)
    RUNNING.append(p)
    try:
        out, _ = p.communicate(timeout=timeout)
        return out, p.returncode
    except subprocess.TimeoutExpired:
        kill_running()
        return None
    finally:
        RUNNING.clear()


def measure(workload, seed, traced, deadline, smoke):
    """One run of the measuring program; its JSON result, or None."""
    argv = [exe("perfbench/perfbench.exe"), "--workload", workload,
            "--seed", str(seed), "--trace", "1" if traced else "0",
            "--legofuzz", exe("bin/legofuzz.exe"),
            "--work-dir", os.path.abspath(os.path.join(WORK_DIR, workload))]
    if smoke:
        argv.append("--smoke")
    got = run_capped(argv, deadline)
    if got is None:
        log("%s hit the wall cap" % workload)
        return None
    out, rc = got
    lines = out.strip().splitlines()
    if rc != 0 or not lines:
        log("%s exited with %d" % (workload, rc))
        return None
    return json.loads(lines[-1])


def cli_check(fingerprint, deadline):
    """Each campaign must match `legofuzz fuzz --json` for the same seed
    and flags: execs, branches, unique crashes and bug ids."""
    problems = []
    for camp in fingerprint:
        got = run_capped([exe("bin/legofuzz.exe")] + camp["cli"] + ["--json"],
                         deadline, cwd=WORK_DIR)
        if got is None or got[1] != 0:
            problems.append("legofuzz %s did not finish" % " ".join(camp["cli"]))
            continue
        summary = None
        for line in got[0].splitlines():
            ev = json.loads(line)
            if ev.get("type") == "summary":
                summary = ev
        execs, branches, crashes, bugs = camp["final"]
        if summary is None or (summary["execs"], summary["branches"],
                               summary["crashes_unique"],
                               summary["bugs"]) != (execs, branches, crashes, bugs):
            problems.append("legofuzz %s: summary %s, benchmark %s" % (
                " ".join(camp["cli"]), summary and [
                    summary["execs"], summary["branches"],
                    summary["crashes_unique"], summary["bugs"]],
                camp["final"]))
    return problems


def failed_checks(result):
    return ["%s: %s" % (c["name"], c["detail"])
            for c in result["checks"] if not c["ok"]]


def pick(metrics, names):
    return {name: {"value": metrics[name], "unit": unit}
            for name, unit in names if name in metrics}


def capped_result(names):
    return {"correct": False, "attempted": 1, "failed": 1,
            "metrics": {n: {"value": 0.0, "unit": u} for n, u in names}}


def calibrate(deadline):
    """Seconds the calibration kernel (`perfbench.exe --calibrate`) takes
    now, or None. Dirty file data is flushed first, so neither it nor the
    repetition after it waits for an earlier repetition's writes."""
    os.sync()
    got = run_capped([exe("perfbench/perfbench.exe"), "--calibrate"],
                     deadline)
    if got is None or got[1] != 0:
        return None
    return float(got[0].split()[-1])


def calibrated(rep, before, after):
    """A repetition's metrics with its times scaled to the reference
    speed: by REF_S over the mean of the calibrations just before and
    after it."""
    speed = REF_S / ((before + after) / 2)
    metrics = dict(rep["metrics"])
    for name, power in CALIBRATED.items():
        metrics[name] *= speed ** power
    return metrics


def run_once(workload, seed, seconds, trace, smoke=False):
    """Everything one benchmark run does after the build; the result dict."""
    start = time.time()
    deadline = start + RUN_BUDGET_S
    os.makedirs(WORK_DIR, exist_ok=True)
    names = PER_LAYER if trace else END_TO_END
    refs = [] if trace else [calibrate(deadline)]
    plain = measure(workload, seed, False, deadline, smoke)
    if plain is None or None in refs:
        return capped_result(names)
    problems = failed_checks(plain)
    result = plain
    metrics = dict(plain["metrics"])
    if not trace:
        # Repeat the workload, each time in a fresh process, while one more
        # repetition of the average length still ends within --seconds,
        # and calibrate between repetitions; timings report the median
        # calibrated repetition. The first repetition is a warm-up (page
        # cache, CPU frequency): when others follow, it is left out.
        # Outcomes must repeat exactly.
        reps = [plain]
        while True:
            refs.append(calibrate(deadline))
            if refs[-1] is None:
                return capped_result(names)
            spent = time.time() - start
            if spent + spent / len(reps) > min(seconds, RUN_BUDGET_S):
                break
            r = measure(workload, seed, False, deadline, smoke)
            if r is None:
                return capped_result(names)
            problems += failed_checks(r)
            if r["fingerprint"] != plain["fingerprint"]:
                problems.append("repetitions disagree on execs, branches, "
                                "bugs or checkpoints")
            reps.append(r)
        scaled = [calibrated(r, refs[i], refs[i + 1])
                  for i, r in enumerate(reps)]
        timed = scaled[1:] or scaled
        metrics = {n: statistics.median(m[n] for m in timed)
                   for n in plain["metrics"]}
        log("%s: %d repetitions, raw wall_s median %.4g s, calibration "
            "median %.4g s" % (
                workload, len(reps),
                statistics.median(r["metrics"]["wall_s"] for r in reps),
                statistics.median(refs)))
        result = {"attempted": sum(r["attempted"] for r in reps),
                  "failed": sum(r["failed"] for r in reps)}
    else:
        traced = measure(workload, seed, True, deadline, smoke)
        if traced is None:
            return capped_result(names)
        problems += failed_checks(traced)
        if traced["fingerprint"] != plain["fingerprint"]:
            problems.append("traced and untraced runs disagree on execs, "
                            "branches, bugs or checkpoints")
        if workload in ("deep-campaign", "young-grammar"):
            problems += cli_check(plain["fingerprint"], deadline)
        result = traced
        metrics = dict(traced["metrics"])
        metrics["trace.overhead_share"] = (
            traced["metrics"]["wall_s"] / plain["metrics"]["wall_s"] - 1.0)
    missing = [n for n, _ in names if n not in metrics]
    if missing:
        problems.append("metrics not measured: " + ", ".join(missing))
    for p in problems:
        log("check failed: " + p)
    return {"correct": not problems, "attempted": result["attempted"],
            "failed": result["failed"], "metrics": pick(metrics, names)}


# --- ledger: medians and quartiles over many seeds ---------------------

def spread(values):
    """(median, q1, q3, (q3 - q1) / median) by statistics.quantiles."""
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, ((q3 - q1) / med if med else 0.0)


def bounds():
    path = "BENCHMARK.json"
    if not os.path.exists(path):
        return {}
    with open(path) as f:
        return {m["name"]: m.get("bound") for m in json.load(f)["end_to_end"]}


def ledger(workloads, runs, first_seed, seconds):
    limit = bounds()
    for w in workloads:
        samples = {n: [] for n, _ in END_TO_END}
        for seed in range(first_seed, first_seed + runs):
            t0 = time.time()
            r = run_once(w, seed, seconds, 0)
            log("%s seed %d: %.1fs correct=%s" % (w, seed, time.time() - t0,
                                                  r["correct"]))
            for n in samples:
                samples[n].append(r["metrics"][n]["value"])
        print("\n%s (%d seeds from %d)" % (w, runs, first_seed))
        print("| metric | unit | median | q1 | q3 | spread | bound/3 |")
        print("|---|---|---|---|---|---|---|")
        for n, unit in END_TO_END:
            med, q1, q3, s = spread(samples[n])
            b = limit.get(n)
            flag = ""
            if b is not None and n != "setup_s" and s >= b / 3:
                flag = " !"
            print("| %s | %s | %.4g | %.4g | %.4g | %.3f%s | %s |" % (
                n, unit, med, q1, q3, s, flag,
                "%.3f" % (b / 3) if b is not None else "-"))
        sys.stdout.flush()


# --- self-test ---------------------------------------------------------

def self_test():
    ok = True

    def expect(name, cond):
        nonlocal ok
        print(("ok   " if cond else "FAIL ") + name)
        ok = ok and cond

    import re
    valid = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    for n, _ in END_TO_END + PER_LAYER:
        expect("metric name %s" % n, bool(valid.match(n)))
    all_names = [n for n, _ in END_TO_END + PER_LAYER]
    expect("metric names unique", len(all_names) == len(set(all_names)))
    for w in list(WORKLOADS) + list(EXTRA_WORKLOADS):
        expect("workload name %s" % w, bool(valid.match(w)))
        expect("workload why %s" % w, len(WORKLOADS.get(w, "")) <= 200)
    med, q1, q3, s = spread(list(range(1, 11)))
    expect("spread of 1..10", (med, q1, q3) == (5.5, 2.75, 8.25)
           and abs(s - 1.0) < 1e-12)
    med, q1, q3, s = spread([15, 20, 35, 40, 50])
    expect("spread of 5 values", (med, q1, q3) == (35, 17.5, 45.0))
    if os.path.exists("BENCHMARK.json"):
        with open("BENCHMARK.json") as f:
            bench = json.load(f)
        expect("BENCHMARK.json workloads",
               [(w["name"], w["why"]) for w in bench["workloads"]]
               == list(WORKLOADS.items()))
        expect("BENCHMARK.json end_to_end",
               [(m["name"], m["unit"]) for m in bench["end_to_end"]]
               == END_TO_END)
        expect("BENCHMARK.json per_layer",
               [(m["name"], m["unit"]) for m in bench["per_layer"]]
               == PER_LAYER)
    if not build(smoke=True):
        return 1
    p = subprocess.run([exe("perfbench/selftest.exe")], capture_output=True,
                       text=True)
    print(p.stdout, end="")
    expect("order statistics (perfbench/selftest.ml)", p.returncode == 0)
    # A tiny-budget run of every workload prints every named metric.
    for w in list(WORKLOADS) + list(EXTRA_WORKLOADS):
        for trace, names in ((0, END_TO_END), (1, PER_LAYER)):
            r = run_once(w, 1, 0, trace, smoke=True)
            expect("smoke %s --trace %d correct" % (w, trace), r["correct"])
            expect("smoke %s --trace %d prints every metric" % (w, trace),
                   sorted(r["metrics"]) == sorted(n for n, _ in names))
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload",
                    choices=sorted(list(WORKLOADS) + list(EXTRA_WORKLOADS)))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    ap.add_argument("--ledger", action="store_true")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads", default=",".join(WORKLOADS))
    args = ap.parse_args()
    signal.signal(signal.SIGTERM, on_sigterm)
    if args.self_test:
        return self_test()
    if not build():
        return 2
    if args.ledger:
        ledger(args.workloads.split(","), args.runs, args.first_seed,
               args.seconds)
        return 0
    if args.workload is None:
        ap.error("--workload is required")
    print(json.dumps(run_once(args.workload, args.seed, args.seconds,
                              args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
