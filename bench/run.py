"""storelab benchmark: the Monte Carlo runners, end to end and per layer.

Usage (from the repository root):

    python3 bench/run.py --workload {relax,violation,adaptive} --seed N \
        --seconds S --trace {0,1}

Every run is a fresh ``python3 bench/child.py`` process that loads a
config written from ``--seed`` and calls the public runner.  Nothing
under ``src/`` is changed.

``--trace 0`` repeats untraced runs for ``--seconds`` seconds and reports
medians over them:

- ``run_ref``: runner wall time, from the call until the CSV is written,
  divided by the wall time of the fixed reference loop in ``child.py``
  (``reference_s``), timed in the same process just before and just after
  the runner and averaged;
- ``episodes_per_ref``: oracle-scored episodes per reference-loop time,
  that is episodes / ``run_ref``;
- ``setup_s``: process start to the end of set-up (interpreter, numpy
  import, config parse and validation), median over every process
  started, including set-up-only ones;
- ``peak_rss_mb``: peak RSS of the runner process plus, when it fans out,
  ``workers`` times the largest worker's peak (an upper bound on the
  simultaneous total; pools run one at a time).

The run time is divided by the reference because the shared host the
benchmark was written on (2 vCPUs of an Intel Xeon VM) changes speed by up
to a factor of two for seconds to minutes at a time, in CPU time as much as
in wall time, so it is not time stolen by the hypervisor.  Over ten seeds
of 40-s invocations, the medians of raw runner wall time spread by 0.11
(relax), 0.05 (violation) and 0.15 (adaptive) of their median, as quartile
distance; the same runs divided by their reference spread by 0.07, 0.04
and 0.04.  The reference moves with the machine and not with the program,
so a program change still shows in full while most of the machine's drift
cancels.  The raw medians (``episodes_per_s``, ``run_s``,
``reference_s``) are printed on the text lines above the result.

Failed units are reported as ``failed`` out of ``attempted``: a run that
exits non-zero, fails an output check or does not reproduce the output
digest counts all its units; the violation CSV's ``failures`` column
counts failed rounds.

``--trace 1`` makes one untraced and one traced run at ``workers=1``
(plus, for a workload that fans out, one untraced run at its own worker
count, which counts pools and must give the same CSV digest) and reports
per-layer metrics ``<module>.<function>[.<policy_id>].<stat>`` built from
the spans of ``tracer.py``.

Workloads, and what each isolates:

- ``relax``: all four relaxation scenarios at ``workers=1``.  Each episode
  runs the threshold, budgeted and DP policies and one oracle; the
  demand-noise scenario gives oracle instances off the storage grid.  It
  makes no ``estimate`` or t/chi-squared quantile calls, so it is the
  "no change" side for estimation and refresh work.
- ``violation``: the violation curve over n = 10..10000 with a bootstrap
  resample of a 100k history, at ``workers=min(2, nproc)``.  Each round
  resamples, estimates, simulates the threshold policy and calls the
  oracle; the DP decide path is never called.  The runner starts a pool
  per n, so the fan-out layer shows here.
- ``adaptive``: the DP adaptive policy over a 2 x 2 warmup x refresh grid
  at ``workers=1``.  With stride 6 every episode re-estimates and
  rebuilds a full DP value table four times, and every grid point
  re-scores the same (round, episode) price streams.

Predicted movers (per-layer metric -> end-to-end metric it should move):

- ``metrics.offline_optimal.*`` and ``policies.backward_step.*`` ->
  ``episodes_per_ref`` most on violation, a lot on relax, little on adaptive;
- ``metrics.offline_optimal.distinct_frac`` (0.25 on adaptive and
  violation, 1.0 on relax) -> adaptive and violation only;
- ``model.simulate.*``, ``policies.decide.*``, ``policies.argmin_purchase.*``
  -> relax, not violation;
- ``policies.build_value_table.*``, ``estimation.estimate.*``,
  ``special.*``, ``policies.adaptive.refreshes`` -> adaptive a lot,
  violation somewhat, relax not at all (zero calls);
- ``prices.*``, ``config.load_history.self_s``, ``experiments.pool_starts``,
  ``experiments.runner.self_s`` -> violation ``run_ref``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from statistics import median, quantiles
from typing import Callable

from tracer import layer_stat, summarize

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
CHILD = BENCH / "child.py"
DIGESTS = BENCH / "digests.json"
WORK = ROOT / ".bench_work"

SETUP_SAMPLES = 5  # set-up-only processes per timed invocation
MIN_RUNS = 3
DEADLINE_S = 170.0  # the whole invocation, children included
TOL = 1e-9

RELAX_HEADER = "scenario,policy_id,mean_cost,regret,regret_stderr,cr_p50,cr_p95,cr_max"
VIOLATION_HEADER = "n,p_hat,stderr,violations,failures,rounds"
ADAPTIVE_HEADER = (
    "warmup,refresh,mean_cost,regret_vs_dp,stderr_vs_dp,"
    "regret_vs_offline,stderr_vs_offline"
)


class CheckError(Exception):
    """An output CSV does not parse or breaks an invariant."""


def _read_csv(path: Path, header: str) -> list[dict[str, str]]:
    lines = path.read_text(encoding="utf-8").splitlines()
    if not lines or lines[0] != header:
        raise CheckError(f"{path.name}: header {lines[:1]} != {header!r}")
    cols = header.split(",")
    rows = []
    for line in lines[1:]:
        fields = line.split(",")
        if len(fields) != len(cols):
            raise CheckError(f"{path.name}: row {line!r} has {len(fields)} fields")
        rows.append(dict(zip(cols, fields)))
    return rows


def _num(row: dict, key: str) -> float:
    try:
        value = float(row[key])
    except ValueError:
        raise CheckError(f"{key}={row[key]!r} is not a number") from None
    if not math.isfinite(value):
        raise CheckError(f"{key}={row[key]!r} is not finite")
    return value


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckError(message)


def check_relax(path: Path, cfg: dict) -> int:
    rows = _read_csv(path, RELAX_HEADER)
    expected = {(s, p) for s in cfg["scenarios"].split(",") for p in ("threshold", "budgeted", "dp")}
    _require({(r["scenario"], r["policy_id"]) for r in rows} == expected and len(rows) == len(expected),
             f"relax rows {[(r['scenario'], r['policy_id']) for r in rows]}")
    for r in rows:
        where = f"{r['scenario']}/{r['policy_id']}"
        for key in ("mean_cost", "regret_stderr"):
            _num(r, key)
        _require(_num(r, "regret") >= -TOL, f"{where}: regret {r['regret']} < 0")
        p50, p95, top = _num(r, "cr_p50"), _num(r, "cr_p95"), _num(r, "cr_max")
        _require(1 - TOL <= p50 <= p95 <= top, f"{where}: cr quantiles {p50}, {p95}, {top}")
    return 0


def check_violation(path: Path, cfg: dict) -> int:
    """Returns failed units: the rounds in the ``failures`` column."""
    rows = _read_csv(path, VIOLATION_HEADER)
    grid = sorted(int(n) for n in cfg["n_grid"].split(","))
    _require([int(r["n"]) for r in rows] == grid, f"violation n column {[r['n'] for r in rows]}")
    failed_rounds = 0
    for r in rows:
        rounds, violations, failures = int(r["rounds"]), int(r["violations"]), int(r["failures"])
        _require(rounds == int(cfg["rounds"]), f"n={r['n']}: rounds {rounds}")
        _require(0.0 <= _num(r, "p_hat") <= 1.0, f"n={r['n']}: p_hat {r['p_hat']}")
        _num(r, "stderr")
        _require(0 <= violations <= rounds, f"n={r['n']}: violations {violations} > rounds")
        _require(0 <= failures <= rounds - violations, f"n={r['n']}: failures {failures}")
        failed_rounds += failures
    return failed_rounds * int(cfg["eval_episodes"])


def check_adaptive(path: Path, cfg: dict) -> int:
    rows = _read_csv(path, ADAPTIVE_HEADER)
    _require(len(rows) == _grid_len(cfg, "warmup_grid") * _grid_len(cfg, "refresh_grid"),
             f"adaptive has {len(rows)} rows")
    for r in rows:
        for key in ("mean_cost", "regret_vs_dp", "stderr_vs_dp", "stderr_vs_offline"):
            _num(r, key)
        _require(_num(r, "regret_vs_offline") >= -TOL,
                 f"warmup={r['warmup']} refresh={r['refresh']}: "
                 f"regret_vs_offline {r['regret_vs_offline']} < 0")
    return 0


def _grid_len(cfg: dict, key: str) -> int:
    return len(cfg[key].split(","))


@dataclass(frozen=True)
class Workload:
    runner: str  # storelab subcommand
    config: dict[str, str]
    max_workers: int
    units: Callable[[dict], int]  # oracle-scored episodes per run
    check: Callable[[Path, dict], int]
    zero_calls: tuple[str, ...]  # per-layer counts that must stay 0


_INSTANCE = {"model": "normal", "mu": "10.0", "sigma": "2.0", "T": "24", "B": "5.0",
             "s0": "0.0", "demand": "constant:1.0", "alpha": "0.05", "clamp_m": "true",
             "G": "100", "K": "51"}

WORKLOADS = {
    "relax": Workload(
        runner="relax",
        config={**_INSTANCE, "kind": "relax",
                "scenarios": "baseline,ar1,lognormal,demand-noise", "episodes": "100"},
        max_workers=1,
        units=lambda c: _grid_len(c, "scenarios") * int(c["episodes"]),
        check=check_relax,
        zero_calls=("estimation.estimate.calls", "special.t_quantile.calls"),
    ),
    "violation": Workload(
        runner="violation-curve",
        config={**_INSTANCE, "kind": "violation-curve", "n_grid": "10,100,1000,10000",
                "verdict": "any", "resample_mode": "with-replacement",
                "history_size": "100000", "rounds": "100", "eval_episodes": "3"},
        max_workers=2,
        units=lambda c: _grid_len(c, "n_grid") * int(c["rounds"]) * int(c["eval_episodes"]),
        check=check_violation,
        zero_calls=("policies.decide.dp.calls",),
    ),
    "adaptive": Workload(
        runner="adaptive",
        config={**_INSTANCE, "kind": "adaptive", "family": "dp", "warmup_grid": "100,10000",
                "refresh_grid": "inf,6", "rounds": "4", "episodes": "8"},
        max_workers=1,
        units=lambda c: (_grid_len(c, "warmup_grid") * _grid_len(c, "refresh_grid")
                         * int(c["rounds"]) * int(c["episodes"])),
        check=check_adaptive,
        zero_calls=(),
    ),
}

END_TO_END = (("episodes_per_ref", "1/ref"), ("run_ref", "ref"), ("setup_s", "s"),
              ("peak_rss_mb", "MB"))


_STAT_UNITS = {"calls": "count", "self_s": "s", "p50_us": "us", "tail_us": "us"}


def _layer(name: str, stats: str) -> list[tuple[str, str]]:
    return [(f"{name}.{s}", _STAT_UNITS[s]) for s in stats.split(",")]


FULL = "calls,self_s,p50_us,tail_us"
PER_LAYER = (
    _layer("metrics.offline_optimal", FULL)
    + [("metrics.offline_optimal.distinct_frac", "ratio")]
    + _layer("policies.backward_step", "calls,self_s")
    + _layer("model.simulate", FULL)
    + [("model.feasible_purchase_range.calls", "count"), ("model.clamped_frac", "ratio")]
    + [m for pid in ("threshold", "budgeted", "dp", "adaptive")
       for m in _layer(f"policies.decide.{pid}", "calls,self_s")]
    + _layer("policies.argmin_purchase", "calls,self_s")
    + _layer("policies.build_value_table", FULL)
    + _layer("estimation.estimate", FULL)
    + [m for fn in ("t_quantile", "chi2_quantile", "normal_quantile")
       for m in _layer(f"special.{fn}", "calls,self_s")]
    + [("policies.adaptive.refreshes", "count")]
    + _layer("prices.generate", "calls,self_s")
    + _layer("prices.resample", "calls,self_s")
    + [("config.load_history.self_s", "s"), ("experiments.pool_starts", "count"),
       ("experiments.runner.self_s", "s"), ("trace.overhead_s", "s")]
)


# -- running children --------------------------------------------------------


@dataclass
class Run:
    units: int
    completed: bool = False  # the child exited 0, so its timings are valid
    failed: int = 0
    error: str = ""
    setup_s: float = 0.0
    run_s: float = 0.0
    wall_s: float = 0.0
    rss_mb: float = 0.0
    pool_starts: int = 0
    digest: str = ""
    reference_s: float = 0.0
    versions: dict | None = None


class Bench:
    def __init__(self, name: str, seed: int, work_dir: Path, deadline: float) -> None:
        self.name = name
        self.workload = WORKLOADS[name]
        self.seed = seed
        self.work_dir = work_dir
        self.deadline = deadline
        self.workers = min(self.workload.max_workers, os.cpu_count() or 1)
        self.config = {**self.workload.config, "seed": str(seed),
                       "out": str(work_dir / "out.csv")}
        self.config_path = work_dir / "bench.cfg"
        self.config_path.write_text(
            "".join(f"{k}={v}\n" for k, v in self.config.items()), encoding="utf-8")
        self.units = self.workload.units(self.config)
        recorded = json.loads(DIGESTS.read_text(encoding="utf-8")) if DIGESTS.is_file() else {}
        self.expected_digest = recorded.get(name, {}).get(str(seed))
        self.errors: list[str] = []

    def spawn(self, mode: str, workers: int, trace_out: Path | None = None) -> Run:
        out = Path(self.config["out"])
        out.unlink(missing_ok=True)
        cmd = [sys.executable, str(CHILD), str(self.config_path), self.workload.runner,
               str(workers), mode] + ([str(trace_out)] if trace_out else [])
        units = 0 if mode == "setup" else self.units
        t_spawn = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                text=True, start_new_session=True)
        try:
            stdout, stderr = proc.communicate(timeout=max(1.0, self.deadline - t_spawn))
        except subprocess.TimeoutExpired:
            stdout, stderr = "", "timed out"
        finally:
            _kill_group(proc)
        wall = time.monotonic() - t_spawn
        if proc.returncode != 0:
            return self._fail(Run(units, wall_s=wall), f"{mode} run exited "
                              f"{proc.returncode}: {stderr.strip()[-500:]}")
        rec = json.loads(stdout.strip().splitlines()[-1])
        children_kb = rec["maxrss_children_kb"] * workers if workers > 1 else 0
        run = Run(units, completed=True, setup_s=rec["t_setup"] - t_spawn,
                  run_s=rec["t_end"] - rec["t_call"], reference_s=rec["reference_s"],
                  wall_s=wall,
                  rss_mb=(rec["maxrss_self_kb"] + children_kb) / 1024.0,
                  pool_starts=rec["pool_starts"], versions=rec["versions"])
        if mode == "setup":
            return run
        try:
            run.failed = self.workload.check(out, self.config)
            run.digest = hashlib.sha256(out.read_bytes()).hexdigest()
        except (CheckError, OSError, ValueError, KeyError) as exc:
            return self._fail(run, f"{mode} run output: {exc}")
        if self.expected_digest is None:
            self.expected_digest = run.digest  # unrecorded seed: runs must agree
        if run.digest != self.expected_digest:
            return self._fail(run, f"{mode} run (workers={workers}) digest {run.digest} "
                              f"!= {self.expected_digest}")
        return run

    def _fail(self, run: Run, message: str) -> Run:
        run.failed = run.units
        run.error = message
        self.errors.append(message)
        return run


def _kill_group(proc: subprocess.Popen) -> None:
    """Stop the child and any worker it left, then reap the child."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()


# -- the two modes -------------------------------------------------------------


def _spread(values: list[float]) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q1, _, q3 = quantiles(values, n=4)
    return f"q1={q1:.6g} q3={q3:.6g} n={len(values)}"


def timed(bench: Bench, seconds: int) -> tuple[dict, list[Run], list[str]]:
    bench.spawn("setup", bench.workers)  # fills the page cache and bytecode cache
    setups = [bench.spawn("setup", bench.workers) for _ in range(SETUP_SAMPLES)]
    runs: list[Run] = []
    start = time.monotonic()
    while True:
        runs.append(bench.spawn("run", bench.workers))
        elapsed = time.monotonic() - start
        next_wall = median(r.wall_s for r in runs)
        if len(runs) >= MIN_RUNS and (elapsed + next_wall > seconds
                                      or not any(r.completed for r in runs)):
            break
        if time.monotonic() + 2 * next_wall > bench.deadline:
            break
    done = [r for r in runs if r.completed]
    if not done:
        raise RuntimeError("no run completed: " + "; ".join(bench.errors[-3:]))
    samples = {
        "episodes_per_ref": [r.units * r.reference_s / r.run_s for r in done],
        "run_ref": [r.run_s / r.reference_s for r in done],
        "setup_s": [r.setup_s for r in setups + runs if r.completed],
        "peak_rss_mb": [r.rss_mb for r in done],
    }
    raw = {
        "episodes_per_s": ([r.units / r.run_s for r in done], "1/s"),
        "run_s": ([r.run_s for r in done], "s"),
        "reference_s": ([r.reference_s for r in done], "s"),
    }
    metrics = {}
    notes = []
    for name, unit in END_TO_END:
        metrics[name] = {"value": median(samples[name]), "unit": unit}
        notes.append(f"{name} = {metrics[name]['value']:.6g} {unit} (median; "
                     f"{_spread(samples[name])})")
    for name, (values, unit) in raw.items():
        notes.append(f"raw {name} = {median(values):.6g} {unit} (median; {_spread(values)})")
    notes.append(f"runs = {len(runs)} ({len(done)} completed), {bench.units} episodes each, "
                 f"workers={bench.workers}")
    return metrics, runs, notes


def traced(bench: Bench) -> tuple[dict, list[Run], list[str]]:
    trace_file = bench.work_dir / "trace.json"
    bench.spawn("setup", 1)  # fills the page cache and bytecode cache
    plain = bench.spawn("run", 1)
    run = bench.spawn("trace", 1, trace_file)
    runs = [plain, run]
    pool_starts = run.pool_starts
    if bench.workers > 1:
        fanned = bench.spawn("pools", bench.workers)
        runs.append(fanned)
        pool_starts = fanned.pool_starts
    if not (run.completed and plain.completed):
        raise RuntimeError("traced run failed: " + "; ".join(bench.errors))
    dump = json.loads(trace_file.read_text(encoding="utf-8"))
    stats = summarize(dump["spans"])
    counters = dump["counters"]
    oracle_calls = stats.get("metrics.offline_optimal", {}).get("calls", 0)
    derived = {
        "metrics.offline_optimal.distinct_frac":
            counters.get("metrics.offline_optimal.distinct_inputs", 0) / max(oracle_calls, 1),
        "model.feasible_purchase_range.calls":
            counters.get("model.feasible_purchase_range.calls", 0),
        "model.clamped_frac":
            counters.get("model.clamped_slots", 0) / max(counters.get("model.decided_slots", 0), 1),
        "policies.adaptive.refreshes": counters.get("policies.adaptive.refreshes", 0),
        "experiments.pool_starts": pool_starts,
        "trace.overhead_s": run.run_s - plain.run_s,
    }
    metrics = {}
    notes = [f"spans = {len(dump['spans'])}; traced run_s = {run.run_s:.6g} s, "
             f"untraced run_s = {plain.run_s:.6g} s (workers=1)"]
    for name, unit in PER_LAYER:
        if name in derived:
            value, note = float(derived[name]), ""
        else:
            layer, stat = name.rsplit(".", 1)
            value, note = layer_stat(stats, layer, stat)
        metrics[name] = {"value": value, "unit": unit}
        notes.append(f"{name} = {value:.6g} {unit}" + (f" ({note})" if note else ""))
    for name in bench.workload.zero_calls:
        if metrics[name]["value"] != 0:
            bench.errors.append(f"{name} = {metrics[name]['value']:g}, expected 0: "
                                f"the {bench.name} workload no longer isolates its layer")
    return metrics, runs, notes


# -- machine facts ---------------------------------------------------------------


def _read(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8").strip()
    except OSError:
        return ""


def _git_commit() -> str:
    head = _read(str(ROOT / ".git" / "HEAD"))
    if head.startswith("ref: "):
        ref = head[5:]
        commit = _read(str(ROOT / ".git" / ref))
        if not commit:
            for line in _read(str(ROOT / ".git" / "packed-refs")).splitlines():
                if line.endswith(" " + ref):
                    commit = line.split()[0]
        return commit or "unknown"
    return head or "unknown"


def machine_facts(versions: dict | None) -> dict:
    cpu = next((line.split(":", 1)[1].strip() for line in _read("/proc/cpuinfo").splitlines()
                if line.startswith("model name")), "unknown")
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level = _read(str(index / "level"))
        if level in ("2", "3"):
            caches[f"L{level}"] = _read(str(index / "size"))
    return {"nproc": os.cpu_count(), "cpu": cpu, **caches, **(versions or {}),
            "commit": _git_commit()}


# -- entry point -------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    if not (ROOT / "src" / "storelab" / "__init__.py").is_file():
        print(f"storelab sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    WORK.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        bench = Bench(args.workload, args.seed, work_dir, deadline)
        try:
            if args.trace:
                metrics, runs, notes = traced(bench)
            else:
                metrics, runs, notes = timed(bench, args.seconds)
        except RuntimeError as exc:
            print(f"benchmark failed: {exc}", file=sys.stderr)
            return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    versions = next((r.versions for r in runs if r.versions), None)
    attempted = sum(r.units for r in runs)
    failed = sum(r.failed for r in runs)
    print(f"workload={args.workload} seed={args.seed} trace={args.trace}")
    print("machine: " + json.dumps(machine_facts(versions)))
    for line in notes:
        print(line)
    print(f"failed_frac = {failed / attempted:.6g} ratio ({failed} of {attempted} episodes)")
    for error in bench.errors:
        print(f"check failed: {error}")
    print(json.dumps({"correct": not bench.errors, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
