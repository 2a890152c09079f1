"""Benchmark of the kisindim CLI, driven from outside the program.

    python3 perfbench/run.py --workload tables --seed 1 --seconds 30 --trace 0

Workloads (see workloads.py): `tables`, `search-cold`, `mixed-session`, or
`all` to run the three in turn.  Every request is an argv list passed to
`kisindim.cli.main` in a child interpreter (child.py) with a pinned
environment; stdout is captured and its sha256 compared with the digest
recorded in expected.json.  On `tables` the vertex counts at b = 10000 are
also checked against the acceptance table.  One client, closed loop: the next
request is sent when the previous answer is back, and at most one child runs
at a time.  `tables` and `mixed-session` use one child per pass; `search-cold`
starts one child per request, so the solver memo is cold as for a CLI user.

A run repeats passes over the seeded request stream until `--seconds` is
used (at least one pass).  With `--trace 0` it prints the end-to-end metrics;
with `--trace 1` it alternates untraced and traced passes (at least two of
each) and prints the per-layer metrics of tracer.py plus the tracing overhead.  The
last stdout line is one JSON object {correct, attempted, failed, metrics};
the line before it records the environment, the unscaled times and the
failure ratio.  The exit code is 0 only when every request succeeded with the
recorded output and the self-checks held.

Every reported time is in seconds at a reference host speed (see REF_CAL_S):
the children time a fixed pure-Python probe between requests, and each timed
interval is multiplied by REF_CAL_S over the median probe near it.
"""

from __future__ import annotations

import argparse
import bisect
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import workloads as wl
from tracer import WRAPPED

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DEADLINE_S = 170  # a run must end within 180 s
SETUP_PROBES = 7  # extra child starts per run, so setup_s is a median of many
# On a shared 2-vCPU Xeon VM the speed of pure-Python code drifted by more
# than 50 % over minutes and by up to 30 % within seconds, in CPU time as much
# as in wall time.  Scaling by a probe run between requests takes much of that
# out: over five seeds the spread (IQR / median) of wall_s fell from 8-26 % to
# 2-11 %.  REF_CAL_S is the probe time that counts as reference speed.
REF_CAL_S = 0.008
CAL_EVERY_S = 0.1  # least time between probes in one child
WINDOW_S = 0.5  # probes this close to a timed interval set its scale

END_TO_END = {"wall_s": "s", "req_p50_s": "s", "req_p90_s": "s", "setup_s": "s",
              "peak_rss_mb": "MB"}
PER_LAYER = {**{f"{g}.{m}": u for g in WRAPPED for m, u in (("calls", "count"),
                                                              ("self_s", "s"))},
             "polyhedra.extreme_points_of_sum.kept_ratio": "ratio",
             "solver.nodes": "count", "solver.nodes_per_s": "1/s",
             "solver.refusals": "count", "cli.stdout_bytes": "bytes",
             "trace.wall_s": "s", "trace.overhead_s": "s"}
# groups that must record calls on a workload whose metrics they are meant
# to move; checked (as a warning) in every traced run
MOVES = {
    "tables": ("polyhedra.in_cone", "polyhedra.extreme_points_of_sum",
               "polyhedra.cone_generators", "polyhedra.enumerate_vertices",
               "polyhedra.cone_hull", "bounds.k_polytopes", "cli.main"),
    "search-cold": ("solver.dim_exact", "kisin_model.cone_q", "kisin_model.transforms",
                    "kisin_model.dim_phi", "cli.main"),
    "mixed-session": tuple(WRAPPED),
}


class ChildDied(Exception):
    pass


def child_env() -> dict:
    """The caller's environment without KISIN_DIM_THREADS and PYTHON*, then
    a fixed hash seed and the checkout's src on the path."""
    env = {k: v for k, v in os.environ.items()
           if k != "KISIN_DIM_THREADS" and not k.startswith("PYTHON")}
    env.update(PYTHONHASHSEED="0", PYTHONPATH=str(SRC))
    return env


class Child:
    """One child interpreter; setup_s is spawn until kisindim.cli is imported."""

    def __init__(self, trace: bool, deadline: float):
        start = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-s", str(HERE / "child.py"), "--trace", str(int(trace))],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, cwd=ROOT,
            env=child_env())
        self.watchdog = threading.Timer(max(0.0, deadline - time.monotonic()),
                                        self.proc.kill)
        self.watchdog.daemon = True
        self.watchdog.start()
        ready = self._read().get("ready", "")
        self.setup_s = time.perf_counter() - start
        if not Path(ready).resolve().is_relative_to(SRC):
            self.close()
            raise ChildDied(f"child imported kisindim from {ready!r}, not {SRC}")

    def _read(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            raise ChildDied(f"child exited with code {self.proc.wait()}")
        return json.loads(line)

    def ask(self, message: list[str] | dict) -> dict:
        try:
            self.proc.stdin.write(json.dumps(message) + "\n")
            self.proc.stdin.flush()
        except BrokenPipeError as exc:
            raise ChildDied("child closed its input") from exc
        return self._read()

    def calibrate(self) -> float:
        """Seconds the child takes for the fixed host-speed probe."""
        return self.ask({"calibrate": 1})["cal_s"]

    def close(self) -> dict:
        """Close the child's input; returns its final report."""
        try:
            self.proc.stdin.close()
            return self._read()
        except (BrokenPipeError, ChildDied):
            return {}
        finally:
            self.proc.wait()
            self.watchdog.cancel()


def table_counts(argv: list[str], out: str) -> tuple[int, int]:
    """The (K, K + C*) vertex counts a `tables` answer reports."""
    if "--format" in argv and argv[argv.index("--format") + 1] == "json":
        doc = json.loads(out)
        return doc["K_vertex_count"], doc["K_plus_Cstar_vertex_count"]
    lines = out.splitlines()
    return (sum(x.startswith("K,") for x in lines),
            sum(x.startswith("K+C*,") for x in lines))


def check(argv: list[str], resp: dict, expected: dict) -> str | None:
    """Why the answer is wrong, or None."""
    if resp["rc"] != 0:
        return f"exit code {resp['rc']}: {resp['err'].strip()[:200]}"
    digest = hashlib.sha256(resp["out"].encode()).hexdigest()
    if expected.get(wl.key(argv)) != digest:
        return f"stdout digest {digest[:16]} differs from the recorded one"
    if argv[0] == "tables" and argv[argv.index("--b") + 1] == "10000":
        d = int(argv[argv.index("--d") + 1])
        counts = table_counts(argv, resp["out"])
        if counts != wl.TABLE_COUNTS[d]:
            return f"vertex counts {counts} != {wl.TABLE_COUNTS[d]}"
    return None


class SpeedLog:
    """The host-speed probe samples of a run, and the scaling they give."""

    def __init__(self):
        self.times: list[float] = []
        self.cals: list[float] = []

    def probe(self, child: Child) -> None:
        self.cals.append(child.calibrate())
        self.times.append(time.perf_counter())

    def factor(self, t0: float, t1: float) -> float:
        """REF_CAL_S over the median probe within WINDOW_S of [t0, t1]."""
        lo = bisect.bisect_left(self.times, t0 - WINDOW_S)
        hi = bisect.bisect_right(self.times, t1 + WINDOW_S)
        near = self.cals[lo:hi] or self.cals[max(0, lo - 1):lo + 1]
        return REF_CAL_S / statistics.median(near)


class Pass:
    """One pass over the request stream, in one child or one per request.

    Each child runs the host-speed probe right after it is ready, after any
    request that ends at least CAL_EVERY_S after the previous probe, and after
    its last request.  Probe round trips are left out of every time.
    """

    def __init__(self, workload, reqs, trace, expected, deadline, log: SpeedLog):
        self.log = log
        self.requests: list[tuple[float, float, float]] = []  # (start, end, seconds)
        self.setups: list[tuple[float, float]] = []
        self.rss_kb, self.traces, self.digests, self.errors = [], [], [], []
        self.failed = self.stdout_bytes = 0
        self.probe_time = 0.0
        cold = workload == "search-cold"
        child = None
        self.start = time.perf_counter()
        try:
            for argv in reqs:
                setup = 0.0
                if child is None:
                    spawned = time.perf_counter()
                    child = Child(trace, deadline)
                    self.setups.append((spawned, spawned + child.setup_s))
                    self._probe(child)
                    if cold:
                        setup = child.setup_s
                    else:
                        self.start, self.probe_time = time.perf_counter(), 0.0
                t0 = time.perf_counter()
                resp = child.ask(argv)
                t1 = time.perf_counter()
                self.requests.append((t0 - setup, t1, setup + t1 - t0))
                if cold:
                    self._finish(child)
                    child = None
                elif t1 - self.log.times[-1] >= CAL_EVERY_S:
                    self._probe(child)
                self.stdout_bytes += len(resp["out"].encode())
                self.digests.append(hashlib.sha256(resp["out"].encode()).hexdigest())
                problem = check(argv, resp, expected)
                if problem:
                    self.failed += 1
                    self.errors.append(f"{wl.key(argv)}: {problem}")
            self.end = time.perf_counter()
            if child is not None:
                self._finish(child)
            self.died = False
        except ChildDied as exc:
            self.end = time.perf_counter()
            lost = len(reqs) - len(self.digests)
            self.failed += lost
            self.errors.append(f"{exc}; {lost} requests unanswered")
            self.died = True
        self.wall = self.end - self.start - self.probe_time

    def _probe(self, child):
        t0 = time.perf_counter()
        self.log.probe(child)
        self.probe_time += self.log.times[-1] - t0

    def _finish(self, child):
        self._probe(child)
        final = child.close()
        self.rss_kb.append(final.get("maxrss_kb", 0))
        if final.get("trace"):
            self.traces.append(final["trace"])

    @property
    def speed(self) -> float:
        """Reference-speed factor over the whole pass."""
        return self.log.factor(self.start, self.end)

    def latencies(self, scaled: bool) -> list[float]:
        return [x * (self.log.factor(t0, t1) if scaled else 1.0)
                for t0, t1, x in self.requests]

    def wall_time(self, scaled: bool) -> float:
        if not scaled:
            return self.wall
        raw = sum(x for _, _, x in self.requests)
        return sum(self.latencies(True)) + (self.wall - raw) * self.speed


def merge(reports: list[dict], factor: float) -> dict:
    """Sum the tracer reports of one pass's children; times are scaled."""
    out = {"groups": {g: {"calls": 0, "self_s": 0.0} for g in WRAPPED}, "absent": set()}
    for key in ("nodes", "refusals", "candidates", "kept"):
        out[key] = sum(r[key] for r in reports)
    for r in reports:
        out["absent"].update(r["absent"])
        for g, v in r["groups"].items():
            out["groups"][g]["calls"] += v["calls"]
            out["groups"][g]["self_s"] += v["self_s"] * factor
    return out


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def end_to_end(passes: list[Pass], probes: list[tuple], rss_kb: list[int],
               log: SpeedLog, scaled: bool) -> dict:
    lat = [x for p in passes for x in p.latencies(scaled)]
    setups = probes + [s for p in passes for s in p.setups]
    return {
        "wall_s": statistics.median(p.wall_time(scaled) for p in passes),
        "req_p50_s": percentile(lat, 0.50),
        "req_p90_s": percentile(lat, 0.90),
        "setup_s": statistics.median((t1 - t0) * (log.factor(t0, t1) if scaled else 1.0)
                                     for t0, t1 in setups),
        "peak_rss_mb": max(rss_kb + [k for p in passes for k in p.rss_kb]) / 1024,
    }


def per_layer(workload: str, untraced: list[Pass],
              traced: list[Pass]) -> tuple[dict, list[str]]:
    """Per-layer metrics from the traced passes, and failed self-checks."""
    reports = [merge(p.traces, p.speed) for p in traced]
    first = reports[0]
    problems = []
    if len({r["nodes"] for r in reports}) != 1:
        problems.append(f"solver.nodes differs between traced passes: "
                        f"{[r['nodes'] for r in reports]}")
    if any(p.digests != untraced[0].digests for p in untraced + traced):
        problems.append("traced and untraced passes printed different stdout")
    out = {}
    for g in WRAPPED:
        out[f"{g}.calls"] = first["groups"][g]["calls"]
        out[f"{g}.self_s"] = statistics.median(r["groups"][g]["self_s"] for r in reports)
    dim_s = out["solver.dim_exact.self_s"]
    traced_wall = statistics.median(p.wall_time(True) for p in traced)
    out.update({
        "polyhedra.extreme_points_of_sum.kept_ratio":
            first["kept"] / first["candidates"] if first["candidates"] else 0.0,
        "solver.nodes": first["nodes"],
        "solver.nodes_per_s": first["nodes"] / dim_s if dim_s > 0 else 0.0,
        "solver.refusals": first["refusals"],
        "cli.stdout_bytes": traced[0].stdout_bytes,
        "trace.wall_s": traced_wall,
        "trace.overhead_s":
            traced_wall - statistics.median(p.wall_time(True) for p in untraced),
    })
    for name in sorted(first["absent"]):
        print(f"absent: {name} is not defined at this commit", file=sys.stderr)
    for g in MOVES[workload]:
        if out[f"{g}.calls"] == 0:
            print(f"warning: {g} recorded no calls on {workload}", file=sys.stderr)
    return out, problems


def git_commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    sources = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        sources.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)), "commit": git_commit(),
            "src_sha256": sources.hexdigest(), "PYTHONHASHSEED": "0",
            "KISIN_DIM_THREADS": None}


def run(workload: str, seed: int, seconds: float, trace: bool,
        expected: dict) -> tuple[dict, dict]:
    """The result object of one workload run, and a record of the run."""
    deadline = time.monotonic() + DEADLINE_S
    reqs = wl.stream(workload, seed)
    log = SpeedLog()
    rss_kb = []
    probes = []
    for i in range(SETUP_PROBES + 1):  # the first start warms caches, untimed
        spawned = time.perf_counter()
        child = Child(False, deadline)
        log.probe(child)
        rss_kb.append(child.close().get("maxrss_kb", 0))
        if i:
            probes.append((spawned, spawned + child.setup_s))
    passes: list[Pass] = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        traced = trace and len(passes) % 2 == 1
        passes.append(Pass(workload, reqs, traced, expected, deadline, log))
        now = time.perf_counter()
        if passes[-1].died or (len(passes) >= (4 if trace else 1)
                               and now - start + now - t0 > seconds):
            break
    failed = sum(p.failed for p in passes)
    problems = []
    if trace and not passes[-1].died:
        metrics, problems = per_layer(workload, passes[0::2], passes[1::2])
        units = PER_LAYER
    else:
        metrics = end_to_end(passes, probes, rss_kb, log, scaled=True)
        units = END_TO_END
    attempted = len(reqs) * len(passes)
    for msg in [e for p in passes for e in p.errors][:10] + problems:
        print(f"FAIL {workload}: {msg}", file=sys.stderr)
    print(f"{workload}: {len(passes)} passes x {len(reqs)} requests, "
          f"fail_ratio {failed / attempted:.4g} ({failed}/{attempted})",
          file=sys.stderr)
    for name, value in metrics.items():
        print(f"  {name} {value:.6g} {units[name]}", file=sys.stderr)
    record = {"workload": workload, "seed": seed, "trace": int(trace),
              "passes": len(passes), "requests_per_pass": len(reqs),
              "fail_ratio": failed / attempted,
              "probe_s_median": statistics.median(log.cals), "probes": len(log.cals)}
    if not trace:
        record["unscaled"] = end_to_end(passes, probes, rss_kb, log, scaled=False)
    result = {"correct": not failed and not problems, "attempted": attempted,
              "failed": failed,
              "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()}}
    return result, record


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=wl.WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (SRC / "kisindim" / "cli.py").is_file():
        print(f"no kisindim sources under {SRC}", file=sys.stderr)
        return 2
    expected = json.loads((HERE / "expected.json").read_text())
    env = environment()
    names = wl.WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        try:
            results[name], record = run(name, args.seed, args.seconds,
                                        bool(args.trace), expected)
        except ChildDied as exc:
            print(f"{name}: a child interpreter failed to start: {exc}", file=sys.stderr)
            return 1
        print(json.dumps({**record, "env": env}))
        if len(names) > 1:
            print(json.dumps(results[name]))
    result = results[names[0]] if len(names) == 1 else {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{n}.{m}": v for n, r in results.items()
                    for m, v in r["metrics"].items()}}
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
