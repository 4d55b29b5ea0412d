#!/usr/bin/env python3
"""Namer benchmark: one command, three workloads.

    python3 perfbench/run.py --workload scan20k|train1k|serve-java \
        --seed N --seconds S --trace 0|1

Run it from the root of a source checkout.  It builds the benchmark and
the `namer` CLI with dune, generates the workload's inputs from --seed,
measures for about --seconds seconds and checks every output.  A table of
every metric goes to stderr; the last line of stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer metrics
of a separate traced run (see README.md).  Scratch files live under
perfbench/_work and are removed at exit; traces are kept in perfbench/_out.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(HERE, "_work")
OUT = os.path.join(HERE, "_out")
BENCH = os.path.join(ROOT, "_build", "default", "perfbench", "bench.exe")
NAMER = os.path.join(ROOT, "_build", "default", "bin", "namer_cli.exe")

SETUP_REPS = 5
PHASE_TIMEOUT_S = 150
FILES_PER_REQUEST = 8
NPROC = os.cpu_count() or 1

# name -> (unit, the end-to-end metrics it should move, as metric@workload)
SCAN = "files_per_cpu_s@scan20k"
TRAIN = "files_per_cpu_s@train1k"
SERVE_P99 = "p99_ms@serve-java"
SERVE_RPS = "files_per_cpu_s@serve-java"
LAYERS = {
    "pylang.lex_us_per_file": ("us", [SCAN]),
    "pylang.parse_us_per_file": ("us", [SCAN]),
    "pylang.lower_us_per_file": ("us", [SCAN]),
    "pylang.alloc_per_src_byte": ("B/B", [SCAN]),
    "javalang.lex_us_per_file": ("us", [SERVE_P99, SERVE_RPS]),
    "javalang.parse_us_per_file": ("us", [SERVE_P99, SERVE_RPS]),
    "javalang.lower_us_per_file": ("us", [SERVE_P99, SERVE_RPS]),
    "javalang.alloc_per_src_byte": ("B/B", [SERVE_P99, SERVE_RPS]),
    "analysis.us_per_file": ("us", [SCAN]),
    "analysis.alloc_per_src_byte": ("B/B", [SCAN]),
    "namepath.astplus_us_per_file": ("us", [SCAN]),
    "namepath.extract_us_per_file": ("us", [SCAN]),
    "namepath.alloc_per_src_byte": ("B/B", [SCAN]),
    "namepath.paths_per_stmt": ("count", [SCAN]),
    "pattern.match_us_per_stmt": ("us", [SERVE_P99, SCAN]),
    "pattern.candidates_per_stmt": ("count", [SERVE_P99, SCAN]),
    "pattern.violation_ratio": ("ratio", [SERVE_P99, SCAN]),
    "mining.pairs_ms": ("ms", [TRAIN]),
    "mining.consistency_ms": ("ms", [TRAIN]),
    "mining.confusing_ms": ("ms", [TRAIN]),
    "mining.ordering_ms": ("ms", [TRAIN]),
    "mining.kept_ratio": ("ratio", [TRAIN]),
    "classifier.features_ms": ("ms", [TRAIN]),
    "ml.select_train_ms": ("ms", [TRAIN]),
    "parallel.speedup": ("ratio", [SCAN, TRAIN]),
    "scan_cache.find_us": ("us", [SERVE_P99, SERVE_RPS, "rss_growth_mb@serve-java"]),
    "scan_cache.store_us": ("us", [SERVE_P99, SERVE_RPS, "rss_growth_mb@serve-java"]),
    "scan_cache.hit_ratio": ("ratio", [SERVE_P99, SERVE_RPS, "rss_growth_mb@serve-java"]),
    "model.load_ms": ("ms", ["setup_s@serve-java"]),
    "serve.service_ms": ("ms", [SERVE_P99, SERVE_RPS]),
    "serve.lateness_ms": ("ms", [SERVE_P99, SERVE_RPS]),
    "serve.overloaded": ("count", [SERVE_P99, SERVE_RPS]),
    "serve.request_bytes": ("B", [SERVE_P99, SERVE_RPS]),
    "core.other_ms": ("ms", [SCAN]),
}

E2E_UNITS = {"setup_s": "s", "files_per_cpu_s": "files/cpu-s", "peak_rss_mb": "MB"}

# The default seed's scan20k reports and train1k results, pinned.
PINNED = {
    ("scan20k", 1): {"reports": 12367, "digest": "400fcddbd37ad48640d9e313d3427166"},
    ("train1k", 1): {"patterns": 1313, "violations": 1203, "precision": 0.712328767123},
}
MIN_TRACE_COVERAGE = 0.9


def log(msg):
    print(msg, file=sys.stderr, flush=True)


class Checks:
    """Output checks; each failed check counts in `failed`."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def add(self, attempted=1, failed=0):
        self.attempted += attempted
        self.failed += failed

    def expect(self, ok, what):
        self.add(1, 0 if ok else 1)
        if not ok:
            log("CHECK FAILED: " + what)


def child_env():
    env = dict(os.environ)
    env["XDG_STATE_HOME"] = os.path.join(WORK, "state")
    env["DUNE_CACHE"] = "disabled"
    return env


def build():
    r = subprocess.run(
        ["dune", "build", "--root", ROOT, "./perfbench/bench.exe", "./bin/namer_cli.exe"],
        cwd=ROOT,
        env=child_env(),
        stdout=sys.stderr,
        stderr=sys.stderr,
    )
    if r.returncode != 0 or not (os.path.exists(BENCH) and os.path.exists(NAMER)):
        log("build failed: this benchmark needs the Namer sources around perfbench/")
        sys.exit(2)


def phase(*args, timeout=PHASE_TIMEOUT_S):
    """Run one bench.exe phase in its own process.  Returns its JSON
    result and its resource usage."""
    argv = [BENCH] + [str(a) for a in args]
    p = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE)
    timer = threading.Timer(timeout, p.kill)
    timer.start()
    try:
        out = p.stdout.read()
        _, status, usage = os.wait4(p.pid, 0)
        p.returncode = os.waitstatus_to_exitcode(status)
    finally:
        timer.cancel()
        p.stdout.close()
    if p.returncode != 0:
        raise RuntimeError("bench.exe %s exited with %d" % (args[0], p.returncode))
    lines = out.decode().strip().splitlines()
    return json.loads(lines[-1]), usage


def rss_mb(usage):
    return usage.ru_maxrss / 1024.0


def cpu_of(usage):
    return usage.ru_utime + usage.ru_stime


def cpu_s(pid):
    """User plus system CPU seconds a live process has used."""
    with open("/proc/%d/stat" % pid) as f:
        fields = f.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def vm_rss_mb(pid):
    with open("/proc/%d/status" % pid) as f:
        for line in f:
            if line.startswith("VmRSS:"):
                return int(line.split()[1]) / 1024.0
    return float("nan")


class Daemon:
    """`namer serve` in its own process, configured as run by default."""

    def __init__(self, d):
        self.socket = os.path.join(d, "sock")
        self.log = open(os.path.join(d, "serve.log"), "wb")
        self.proc = subprocess.Popen(
            [NAMER, "serve", "--model", os.path.join(d, "model.nmdl"),
             "--socket", self.socket, "--cache-dir", os.path.join(d, "cache")],
            cwd=ROOT, env=child_env(), stdout=self.log, stderr=self.log,
        )

    def stop(self):
        """Drain and stop the daemon; returns its peak RSS in MB."""
        if self.proc.returncode is not None:
            return float("nan")
        self.proc.send_signal(signal.SIGTERM)
        timer = threading.Timer(30, self.proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(self.proc.pid, 0)
            self.proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            timer.cancel()
            self.log.close()
        return usage.ru_maxrss / 1024.0


def timed_passes(seconds, run_pass):
    """Fresh-process passes until the next one would overrun `seconds`."""
    results = []
    start = time.monotonic()
    while True:
        t0 = time.monotonic()
        results.append(run_pass())
        last = time.monotonic() - t0
        if time.monotonic() - start + last > seconds:
            return results


# ---------------------------------------------------------------- scan20k


def scan20k(seed, seconds, trace, checks):
    # every rep generates the corpus and trains; only the first writes it
    setups = []
    d = os.path.join(WORK, "scan")
    for k in range(SETUP_REPS):
        res, _ = phase("setup", "--workload", "scan20k", "--seed", seed, "--dir", d,
                       "--write", int(k == 0))
        setups.append(res["setup_cpu_s"])
        if k == 0:
            disk_write_s = res["disk_write_s"]
    # let the corpus reach the disk before timing: writeback competing
    # with the scan passes swings them by a fifth on a shared disk
    os.sync()
    pinned = PINNED.get(("scan20k", seed))
    if trace:
        res, _ = phase("trace-scan", "--dir", d, "--out", trace_file("scan20k"))
        checks.expect(res["composition_matches"], "scan20k: traced composition differs from Namer.scan_refs")
        checks.expect(res["jobs_match"], "scan20k: jobs=1 reports differ from jobs=nproc")
        if pinned:
            got = {"reports": res["reports"], "digest": res["digest"]}
            checks.expect(got == pinned, "scan20k: reports %s differ from the pinned %s" % (got, pinned))
        layers = dict(res["layers"], **{"parallel.speedup": res["parallel_speedup"]})
        return traced_metrics("scan20k", res, layers, checks), {}
    passes = timed_passes(seconds, lambda: phase("scan", "--dir", d))
    first = passes[0][0]
    keys = ("reports", "digest", "skipped")
    for res, _ in passes:
        checks.expect(all(res[k] == first[k] for k in keys), "scan20k: reports differ between passes")
    if pinned:
        got = {"reports": first["reports"], "digest": first["digest"]}
        checks.expect(got == pinned, "scan20k: reports %s differ from the pinned %s" % (got, pinned))
    walls = [r["wall_s"] for r, _ in passes]
    metrics = {
        "setup_s": statistics.median(setups),
        "files_per_cpu_s": first["files"] / statistics.median(r["cpu_s"] for r, _ in passes),
        "peak_rss_mb": statistics.median(rss_mb(u) for _, u in passes),
    }
    # a generated file the parser rejects is skipped by design (per-file
    # isolation), the same way on every pass; it is reported, not failed
    extra = {"passes": len(passes), "pass_wall_s": " ".join("%.2f" % w for w in walls),
             "files_per_s": first["files"] / statistics.median(walls),
             "reports": first["reports"],
             "files_skipped": first["skipped"], "disk_write_s": disk_write_s}
    return metrics, extra


# ---------------------------------------------------------------- train1k


def train1k(seed, seconds, trace, checks):
    if trace:
        res, _ = phase("trace-train", "--seed", seed, "--out", trace_file("train1k"))
        checks.expect(res["composition_matches"], "train1k: traced composition differs from Namer.build")
        pinned = PINNED.get(("train1k", seed))
        if pinned:
            checks.expect((res["patterns"], res["violations"]) == (pinned["patterns"], pinned["violations"]),
                          "train1k: pattern or violation count differs from the pinned one")
        layers = dict(res["layers"], **{"parallel.speedup": res["parallel_speedup"]})
        return traced_metrics("train1k", res, layers, checks), {}
    # Mining cost depends on the corpus a seed draws (by up to 40% between
    # seeds), so a pass builds two corpora, from the seed and a derived
    # one, and the metrics are per pass.
    seeds = (seed, seed + 100_003)
    passes = timed_passes(seconds, lambda: [phase("train", "--seed", s) for s in seeds])
    builds = [b for p in passes for b in p]
    first = passes[0][0][0]
    keys = ("patterns", "violations", "precision")
    for p in passes:
        for (res, _), (ref, _) in zip(p, passes[0]):
            checks.expect(all(res[k] == ref[k] for k in keys + ("skipped",)),
                          "train1k: builds differ between passes")
    # graded against the generator's injection log, independent of the
    # scanner: the classifier must beat reporting every violation
    for res, _ in passes[0]:
        base_rate = res["true_violations"] / max(1, res["violations"])
        checks.expect(res["true_violations"] > 0, "train1k: no mined pattern flags an injected issue")
        checks.expect(res["precision"] > base_rate,
                      "train1k: precision %.3f not above the %.3f of reporting every violation"
                      % (res["precision"], base_rate))
    pinned = PINNED.get(("train1k", seed))
    if pinned:
        checks.expect(all(abs(first[k] - pinned[k]) < 1e-9 for k in keys),
                      "train1k: patterns/violations/precision differ from the pinned values")
    files = sum(res["files"] for res, _ in passes[0])
    walls = [sum(res["wall_s"] for res, _ in p) for p in passes]
    metrics = {
        "setup_s": statistics.median(res["setup_cpu_s"] for res, _ in builds),
        "files_per_cpu_s": files / statistics.median(sum(r["cpu_s"] for r, _ in p) for p in passes),
        "peak_rss_mb": statistics.median(rss_mb(u) for _, u in builds),
    }
    extra = {
        "passes": len(passes),
        "pass_wall_s": " ".join("%.2f" % w for w in walls),
        "files_per_s": files / statistics.median(walls),
        "precision": first["precision"],
        "patterns": first["patterns"],
        "true_violations": first["true_violations"],
        "injections": first["injections"],
        "files_skipped": first["skipped"],
    }
    return metrics, extra


# ---------------------------------------------------------------- serve-java


def serve_java(seed, seconds, trace, checks):
    setups = []
    daemon = None
    try:
        for k in range(SETUP_REPS):
            if daemon:
                daemon.stop()
            d = os.path.join(WORK, "serve%d" % k)
            _, setup_usage = phase("setup", "--workload", "serve-java", "--seed", seed, "--dir", d)
            daemon = Daemon(d)
            res, warm_usage = phase("warm", "--socket", daemon.socket, "--seed", seed)
            setups.append(cpu_of(setup_usage) + cpu_of(warm_usage) + cpu_s(daemon.proc.pid))
            checks.expect(res["ok"] == res["warm_requests"], "serve-java: warm-up request failed")
        rss_warm = vm_rss_mb(daemon.proc.pid)
        if trace:
            res, _ = phase("trace-serve", "--socket", daemon.socket, "--seed", seed,
                              "--seconds", seconds / 2, "--dir", d, "--out", trace_file("serve-java"))
            daemon.stop()
            checks.add(res["attempted"], res["failed"])
            checks.expect(res["composition_matches"],
                          "serve-java: replayed reports differ from the daemon's responses")
            layers = dict(res["layers"], **{"serve." + k: v for k, v in res["serve"].items()})
            return traced_metrics("serve-java", res, layers, checks), {}
        cpu0 = cpu_s(daemon.proc.pid)
        res, _ = phase("load", "--socket", daemon.socket, "--seed", seed,
                          "--seconds", seconds, "--dir", d)
        daemon_cpu_s = cpu_s(daemon.proc.pid) - cpu0
        rss_end = vm_rss_mb(daemon.proc.pid)
        peak = daemon.stop()
    finally:
        if daemon:
            daemon.stop()
    checks.add(res["attempted"], res["failed"])
    checks.expect(res["sample_mismatched"] == 0,
                  "serve-java: %d sampled responses differ from in-process scans" % res["sample_mismatched"])
    metrics = {
        "setup_s": statistics.median(setups),
        "files_per_cpu_s": FILES_PER_REQUEST * res["ok"] / daemon_cpu_s,
        "peak_rss_mb": peak,
    }
    # latency and rates are printed, not bounded: on a shared host their
    # run-to-run spread is wider than any bound the benchmark may set
    extra = {
        "p50_ms": res["mid_p50_ms"],
        "p99_ms": res["mid_window_p99_ms"],
        "max_rps": res["max_rps"],
        "saturation_rps": res["saturation_rps"],
        "daemon_cpu_s": daemon_cpu_s,
        "mid_p90_ms": res["mid_p90_ms"],
        "mid_p99_whole_rung_ms": res["mid_p99_ms"],
        "max_rate": res["max_rate"],
        "rss_growth_mb": rss_end - rss_warm,
        "mid_samples": res["mid_samples"],
        "rungs": " ".join(
            "%g:%s" % (r["rate"], "ok" if r["passed"] else "miss") for r in res["rungs"]),
    }
    return metrics, extra


# ---------------------------------------------------------------- traced runs


def trace_file(workload):
    os.makedirs(OUT, exist_ok=True)
    return os.path.join(OUT, workload + ".trace.json")


def traced_metrics(workload, res, layers, checks):
    checks.expect(res["coverage"] >= MIN_TRACE_COVERAGE,
                  "%s: layer self times cover only %.1f%% of traced wall"
                  % (workload, 100 * res["coverage"]))
    log("%s traced run: layers cover %.1f%% of %.2f s traced wall; untraced %.2f s; "
        "tracing overhead %+.2f s (traced minus untraced)"
        % (workload, 100 * res["coverage"], res["traced_wall_s"], res["untraced_wall_s"],
           res["traced_wall_s"] - res["untraced_wall_s"]))
    log("%s per-file layer cost: %.3f ms (paper, section 5.1: %g ms per file)"
        % (workload, res["per_file_ms"], res["paper_per_file_ms"]))
    log("trace written to %s" % os.path.relpath(res["trace_file"], ROOT))
    return {name: float(layers.get(name, 0.0)) for name in LAYERS}


# ---------------------------------------------------------------- main

WORKLOADS = {"scan20k": scan20k, "train1k": train1k, "serve-java": serve_java}


def run(workload, seed, seconds, trace):
    """One workload: its checks, its metrics and their units."""
    shutil.rmtree(WORK, ignore_errors=True)
    os.makedirs(WORK)
    os.sync()
    checks = Checks()
    try:
        metrics, extra = WORKLOADS[workload](seed, seconds, trace, checks)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    units = {k: LAYERS[k][0] for k in LAYERS} if trace else E2E_UNITS
    log("%s seed=%d nproc=%d jobs=%d %s" % (workload, seed, NPROC, NPROC,
                                            "traced" if trace else "end-to-end"))
    for name, value in metrics.items():
        tag = "  moves " + ", ".join(LAYERS[name][1]) if trace else ""
        log("  %-30s %14.4f %-8s%s" % (name, value, units[name], tag))
    for name, value in extra.items():
        log("  %-30s %14s" % (name, value))
    log("  %-30s %14.4f ratio (%d of %d)" % (
        "failed_ratio", checks.failed / max(1, checks.attempted), checks.failed, checks.attempted))
    return checks, {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()
    build()
    names = sorted(WORKLOADS) if a.workload == "all" else [a.workload]
    results = {w: run(w, a.seed, a.seconds, bool(a.trace)) for w in names}
    attempted = sum(c.attempted for c, _ in results.values())
    failed = sum(c.failed for c, _ in results.values())
    if a.workload == "all":
        metrics = {w + "." + k: v for w, (_, m) in results.items() for k, v in m.items()}
    else:
        metrics = results[a.workload][1]
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
