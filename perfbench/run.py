#!/usr/bin/env python3
"""tweetflow benchmark: end-to-end pipeline time per workload, or a traced
per-layer breakdown.

    python3 perfbench/run.py --workload fixture-200 --seed 0 --seconds 45 --trace 0

The program is taken from the ``src/`` of the checkout that holds this file.
Load is a closed loop with one client: one op (one or more
``python -m tweetflow.cli`` processes, run back to back) starts after the
previous one exits, and ops repeat while the next one would end, by the
median op so far, no later than half an op past ``--seconds``.

``--trace 0`` reports the end-to-end metrics of the subprocess ops: median op
wall time, input rows per second of it, median peak RSS and set-up time. The
times in the JSON line are at reference host speed: divided by the host's
speed factor, sampled with fixed reference work while the processes run
(see ``hostspeed.py``), because the shared VM's speed swings by up to 2x
within a run. The times as measured, the slowest op and the failure ratio are printed
and saved, not in the JSON line.
``--trace 1`` runs each op in this process twice, once untraced and once with
every public tweetflow function wrapped (see ``layertrace.py``), and reports the
per-layer metrics. Every op's outputs are hashed (all files but
``manifest.json``) and checked: fixture-200 at the default seed against
``tests/fixtures/golden_checksums.json``, the synthetic workloads at the
default seed against ``pins.json``, and at any other seed every op of the
run against the first.

The last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}``.
Stamped results and the span dump go to ``.perfbench-work/`` in the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
import traceback
from pathlib import Path

import hostspeed
import layertrace
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK_ROOT = ROOT / ".perfbench-work"
REQUIRED = (
    "src/tweetflow/cli.py",
    "scripts/generate_fixture.py",
    "tests/fixtures/pipeline.yaml",
    "tests/fixtures/corpus200.jsonl",
    "tests/fixtures/golden_checksums.json",
)
SETUP_MIN_REPEATS = 3    # set-ups per untraced run (setup_s is their median), and more
SETUP_MIN_SECONDS = 4.0  # while they have taken less than this, so cheap ones are steady
STARTUP_REPEATS = 5    # no-op `import tweetflow.cli` processes behind cli.startup_s
PROCESS_TIMEOUT_S = 150


# ---------------------------------------------------------------------------
# outputs

def output_hashes(out: Path) -> dict[str, str]:
    """sha256 of every file under `out` except the manifest, by relative path."""
    hashes = {}
    for path in sorted(out.rglob("*")):
        if path.is_file() and path.name != "manifest.json":
            hashes[path.relative_to(out).as_posix()] = hashlib.sha256(path.read_bytes()).hexdigest()
    return hashes


def digest(hashes: dict[str, str]) -> str:
    lines = "".join(f"{rel} {sha}\n" for rel, sha in sorted(hashes.items()))
    return hashlib.sha256(lines.encode("utf-8")).hexdigest()


class OutputCheck:
    """Decides whether one op's outputs are the expected bytes."""

    def __init__(self, workload: str, seed: int):
        self.expected_hashes = None
        self.expected_digest = None
        self.source = "first op of this run"
        if seed == workloads.DEFAULT_SEED:
            if workload == "fixture-200":
                golden = ROOT / "tests" / "fixtures" / "golden_checksums.json"
                self.expected_hashes = json.loads(golden.read_text(encoding="utf-8"))
                self.expected_digest = digest(self.expected_hashes)
                self.source = "tests/fixtures/golden_checksums.json"
            else:
                pins = json.loads((BENCH_DIR / "pins.json").read_text(encoding="utf-8"))
                self.expected_digest = pins[workload]
                self.source = "perfbench/pins.json"
        self.digests: list[str] = []

    def check(self, out: Path) -> bool:
        hashes = output_hashes(out)
        got = digest(hashes)
        self.digests.append(got)
        if self.expected_hashes is not None and hashes != self.expected_hashes:
            return False
        if self.expected_digest is None:
            self.expected_digest = got
        return got == self.expected_digest


# ---------------------------------------------------------------------------
# processes

def _env() -> dict[str, str]:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_process(argv: list[str], log_path: Path) -> tuple[int, float, float]:
    """Run one child to completion; returns (exit code, wall seconds, peak RSS MB)."""
    with log_path.open("ab") as log:
        started = time.perf_counter()
        proc = subprocess.Popen(argv, env=_env(), cwd=ROOT, stdin=subprocess.DEVNULL,
                                stdout=log, stderr=log)
        killer = threading.Timer(PROCESS_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted: leave no child behind
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def cli_argv(stage: str, config: Path) -> list[str]:
    return [sys.executable, "-m", "tweetflow.cli", stage, "--config", str(config)]


# ---------------------------------------------------------------------------
# set-up and ops

class Setup:
    """One workload instance: generated inputs, config and output directory."""

    def __init__(self, name: str, seed: int, work: Path):
        self.workload = workloads.WORKLOADS[name]
        self.work = work
        self.log = work / "pipeline.log"
        self.config = workloads.write_inputs(ROOT, name, seed, work)
        self.out = work / "out"
        if self.workload.stages == ("all",):
            # compile and page in the interpreter and the package, as one user run does
            self._must(run_process([sys.executable, "-c", "import tweetflow.cli"], self.log)[0],
                       "import tweetflow.cli")
        else:
            for stage in workloads.UPSTREAM_STAGES:
                self._must(run_process(cli_argv(stage, self.config), self.log)[0], stage)

    def _must(self, code: int, what: str) -> None:
        if code != 0:
            tail = self.log.read_text(encoding="utf-8", errors="replace")[-2000:]
            raise RuntimeError(f"set-up step {what!r} exited with {code}:\n{tail}")

    def clean(self) -> None:
        """Remove what the op is about to produce."""
        if self.workload.stages == ("all",):
            shutil.rmtree(self.out, ignore_errors=True)
        else:
            for stage in self.workload.stages:
                shutil.rmtree(self.out / stage, ignore_errors=True)

    def subprocess_op(self) -> tuple[bool, float, float, list[tuple[float, float]]]:
        """One op as a user runs it; returns (exit ok, wall seconds, peak RSS MB,
        the perf_counter span of each process)."""
        self.clean()
        wall = peak = 0.0
        spans = []
        for stage in self.workload.stages:
            started = time.perf_counter()
            code, seconds, rss = run_process(cli_argv(stage, self.config), self.log)
            spans.append((started, time.perf_counter()))
            wall += seconds
            peak = max(peak, rss)
            if code != 0:
                return False, wall, peak, spans
        return True, wall, peak, spans

    def inprocess_op(self) -> tuple[bool, float]:
        """The same op through `tweetflow.cli.main` in this process."""
        from tweetflow import cli

        self.clean()
        ok = True
        started = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            for stage in self.workload.stages:
                try:
                    ok = cli.main([stage, "--config", str(self.config)]) == 0
                except Exception:  # an uncaught error is this op's failure, as a crash would be
                    traceback.print_exc()
                    ok = False
                if not ok:
                    break
        return ok, time.perf_counter() - started

    def deduped_tweets(self) -> int:
        manifest = json.loads((self.out / "manifest.json").read_text(encoding="utf-8"))
        return manifest["stages"]["ingest"]["counts"]["after_dedup"]


def keep_going(started: float, seconds: float, durations: list[float]) -> bool:
    """Start another op while its expected midpoint falls inside the window."""
    elapsed = time.perf_counter() - started
    return elapsed + statistics.median(durations) / 2 < seconds


# ---------------------------------------------------------------------------
# statistics and reporting

def tail(values: list[float]) -> tuple[float, str]:
    """Highest percentile with at least 10 ops beyond it; the slowest op when
    the run has too few ops for that percentile to lie above the median."""
    ordered = sorted(values)
    n = len(ordered)
    if n - 10 > n / 2:
        return ordered[n - 11], f"p{100 * (n - 10) / n:.0f} of {n} ops"
    return ordered[-1], f"slowest of {n} ops (too few for a percentile with 10 beyond it)"


def stamp() -> dict:
    import numpy

    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=False)
        if done.returncode == 0:
            commit = done.stdout.strip()
    cpu = platform.processor() or "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "commit": commit,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpu": cpu,
    }


def report(args, stamp_: dict, metrics: dict, notes: dict, check: OutputCheck,
           attempted: int, failed: int, correct: bool, info: dict | None = None,
           samples: dict | None = None) -> dict:
    """Print every metric with its unit and sample count, save the stamped
    result, and return the final JSON line.

    `info` holds metrics that are printed and saved but left out of the JSON
    line; `samples` holds the raw per-op values, saved only.
    """
    info = info or {}
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print("  " + " ".join(f"{k}={v}" for k, v in stamp_.items()))
    for name, (value, unit) in {**metrics, **info}.items():
        note = notes.get(name, "")
        print(f"  {name:<40} {value:>14.6g} {unit:<8} {note}")
    print(f"  ops attempted={attempted} failed={failed} correct={str(correct).lower()}")
    distinct = sorted(set(check.digests))
    print(f"  output digest {', '.join(distinct) or 'none'} (checked against {check.source})")
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    saved = dict(result, info={name: {"value": v, "unit": u} for name, (v, u) in info.items()},
                 samples=samples or {}, stamp=stamp_, notes=notes, digests=distinct,
                 checked_against=check.source, workload=args.workload, seed=args.seed,
                 seconds=args.seconds, trace=args.trace)
    results_dir = WORK_ROOT / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    (results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(saved, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return result


# ---------------------------------------------------------------------------
# the two modes

def run_untraced(args, work: Path) -> dict:
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {max(cpus)})  # children inherit it; see hostspeed.py
    try:
        with hostspeed.Sampler() as sampler:
            return measure_untraced(args, work, sampler)
    finally:
        os.sched_setaffinity(0, cpus)


def measure_untraced(args, work: Path, sampler: hostspeed.Sampler) -> dict:
    setup_times, setup_spans, setup = [], [], None
    while len(setup_times) < SETUP_MIN_REPEATS or sum(setup_times) < SETUP_MIN_SECONDS:
        if setup is not None:
            shutil.rmtree(setup.work)
        started = time.perf_counter()
        setup = Setup(args.workload, args.seed, work / f"setup{len(setup_times)}")
        setup_spans.append((started, time.perf_counter()))
        setup_times.append(setup_spans[-1][1] - started)
    setup_factors = sampler.inside(setup_spans)
    if not setup_factors:
        raise RuntimeError(f"no host-speed sample inside {sum(setup_times):.3f} s of set-up")

    check = OutputCheck(args.workload, args.seed)
    walls, refs, rss, factors, failed = [], [], [], [], 0
    started = time.perf_counter()
    while not walls or keep_going(started, args.seconds, walls):
        ok, wall, peak, spans = setup.subprocess_op()
        inside = sampler.inside(spans)
        if not inside:
            raise RuntimeError(f"no host-speed sample inside a {wall:.3f} s op")
        factors += inside
        ok = ok and check.check(setup.out)
        if not ok and not failed:
            log_tail = setup.log.read_text(encoding="utf-8", errors="replace")[-2000:]
            print(f"perfbench: op {len(walls) + 1} failed; pipeline log ends:\n{log_tail}",
                  file=sys.stderr)
        failed += not ok
        walls.append(wall)
        refs.append(wall / statistics.mean(inside))
        rss.append(peak)

    n = len(walls)
    host_factor = statistics.mean(factors)
    wall_s = statistics.median(walls)
    wall_ref_s = statistics.median(refs)
    setup_s = statistics.median(setup_times)
    setup_factor = statistics.mean(setup_factors)
    tail_s, tail_note = tail(walls)
    rows = setup.workload.rows
    metrics = {
        "wall_ref_s": (wall_ref_s, "s"),
        "tweets_per_ref_s": (rows / wall_ref_s, "tweets/s"),
        "peak_rss_mb": (statistics.median(rss), "MB"),
        "setup_s": (setup_s / setup_factor, "s"),
    }
    # as measured, so moved by the host's speed; and too few ops per run for a
    # stable tail: reported, not part of the result line
    info = {
        "wall_s": (wall_s, "s"),
        "tweets_per_s": (rows / wall_s, "tweets/s"),
        "wall_s_tail": (tail_s, "s"),
        "setup_wall_s": (setup_s, "s"),
        "host_factor": (host_factor, "x"),
        "fail_ratio": (failed / n, "ratio"),
    }
    notes = {
        "wall_ref_s": f"median of {n} ops, each / mean host factor inside it",
        "tweets_per_ref_s": f"{rows} input rows / wall_ref_s",
        "peak_rss_mb": f"median of {n} ops (max over each op's processes)",
        "setup_s": f"median of {len(setup_times)} set-ups / mean factor of "
                   f"{len(setup_factors)} bursts inside them",
        "wall_s": f"median of {n} ops as measured",
        "tweets_per_s": f"{rows} input rows / wall_s",
        "wall_s_tail": tail_note,
        "setup_wall_s": f"median of {len(setup_times)} set-ups as measured",
        "host_factor": f"mean of {len(factors)} reference bursts inside the ops "
                       "(1 = reference speed)",
        "fail_ratio": f"{failed} of {n} ops failed",
    }
    samples = {"wall_s": walls, "wall_ref_s": refs, "peak_rss_mb": rss,
               "setup_wall_s": setup_times, "host_factor": factors}
    return report(args, stamp(), metrics, notes, check, n, failed, failed == 0, info, samples)


def run_traced(args, work: Path) -> dict:
    setup = Setup(args.workload, args.seed, work / "setup0")
    startup = []
    for _ in range(STARTUP_REPEATS):
        code, seconds, _ = run_process([sys.executable, "-c", "import tweetflow.cli"], setup.log)
        if code != 0:
            raise RuntimeError("`import tweetflow.cli` failed")
        startup.append(seconds)

    sys.path.insert(0, str(ROOT / "src"))
    tracer = layertrace.Tracer()
    tracer.install()   # imports every tweetflow module before the first timed op
    tracer.uninstall()

    check = OutputCheck(args.workload, args.seed)
    plain, traced, per_op, pairs = [], [], [], []
    failed = attempted = 0
    started = time.perf_counter()
    while not pairs or keep_going(started, args.seconds, pairs):
        op = len(pairs)
        durations = {}
        for traced_turn in (op % 2 == 1, op % 2 == 0):  # alternate which side runs first
            if traced_turn:
                tracer.install()
                tracer.begin_op(op)
            try:
                ok, seconds = setup.inprocess_op()
            finally:
                tracer.uninstall()
            ok = ok and check.check(setup.out)
            attempted += 1
            failed += not ok
            durations[traced_turn] = seconds
            if traced_turn and ok:
                per_op.append(layertrace.op_metrics(tracer, op, setup.deduped_tweets()))
        plain.append(durations[False])
        traced.append(durations[True])
        pairs.append(durations[False] + durations[True])
    tracer.dump(WORK_ROOT / "traces" / f"{args.workload}-seed{args.seed}.json")

    if not per_op:
        return report(args, stamp(), {}, {}, check, attempted, failed, False)
    combined, unstable = layertrace.combine(per_op)
    combined["cli.startup_s"] = statistics.median(startup)
    combined["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(plain)
    metrics = {name: (combined[name], layertrace.metric_unit(name)) for name in layertrace.metric_names()}
    n = len(per_op)
    notes = {name: f"median of {n} traced ops" for name, (_, unit) in metrics.items()
             if unit == "s"}
    notes["cli.startup_s"] = f"median of {STARTUP_REPEATS} processes"
    notes["trace.overhead_ratio"] = f"median traced / median untraced of {n} in-process ops"
    for name in unstable:
        notes[name] = "DIFFERS between traced ops"
    samples = {"traced_op_s": traced, "untraced_op_s": plain, "cli.startup_s": startup}
    result = report(args, stamp(), metrics, notes, check, attempted, failed,
                    failed == 0 and not unstable, samples=samples)
    share = layertrace.layer_self_table(combined)
    total = sum(seconds for _, seconds in share) or 1.0
    print("  self time by layer: " + ", ".join(
        f"{layer} {seconds:.3f}s ({100 * seconds / total:.0f}%)" for layer, seconds in share
        if seconds > 0))
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=list(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    missing = [rel for rel in REQUIRED if not (ROOT / rel).is_file()]
    if missing:
        print(f"perfbench: {ROOT} is not a tweetflow checkout; missing {', '.join(missing)}",
              file=sys.stderr)
        return 2

    # a terminated run unwinds like an interrupted one: children killed, work dir removed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    work = WORK_ROOT / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        if args.trace:
            result = run_traced(args, work)
        else:
            result = run_untraced(args, work)
    except RuntimeError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
