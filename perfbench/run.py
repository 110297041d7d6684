"""Benchmark of the torsioncalc CLI: four workloads, run as a user runs them.

    python3 perfbench/run.py --workload catalogue --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --smoke

Run from the root of a checkout.  ``--trace 0`` spawns the CLI repeatedly for
``--seconds`` and reports the end-to-end metrics (medians over the CLI runs);
``--trace 1`` runs the workload in-process with spans around each module's
public calls and reports the per-layer metrics.  Every verdict is checked
against the paper's known answer.  The last line of standard output is one
JSON object: correct, attempted, failed, metrics.  See NOTES.md.
"""

from __future__ import annotations

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
from pathlib import Path

from workloads import WORKLOADS, judge, smoke_workload

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

# End-to-end metrics and their units; the smoke mode checks them against
# BENCHMARK.json.
UNITS = {
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mib": "MiB",
    "setup_s": "s",
    "correct_share": "share",
}

SETUP_SPAWNS = 9
SETUP_CODE = "import sys\nfrom torsioncalc.cli import load_config\nload_config(sys.argv[1])"
CLI_TIMEOUT_S = 150


def cli_env(workers: int) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["TORSIONCALC_WORKERS"] = str(workers)
    return env


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def spawn(argv, env, out_path, err_path, timeout=CLI_TIMEOUT_S):
    """Run one process group to completion.

    Returns (wall seconds, CPU seconds, peak RSS in MiB, exit code).  CPU time
    and peak RSS come from wait4, so they cover the process and every child
    it waited for (the CLI joins its pool workers before it exits)."""
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            argv, cwd=ROOT, env=env, stdout=out, stderr=err,
            start_new_session=True,
        )
        timer = threading.Timer(timeout, _kill_group, (proc.pid,))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return (
        wall,
        usage.ru_utime + usage.ru_stime,
        usage.ru_maxrss / 1024,
        proc.returncode,
    )


def setup_seconds(config_path) -> float:
    """Median time to start an interpreter, import torsioncalc.cli and load
    the workload's config, over several spawns with __pycache__ warm."""
    argv = [sys.executable, "-c", SETUP_CODE, str(config_path)]
    env = cli_env(1)
    subprocess.run(argv, cwd=ROOT, env=env, check=True)  # warms __pycache__
    times = []
    for _ in range(SETUP_SPAWNS):
        t0 = time.perf_counter()
        subprocess.run(argv, cwd=ROOT, env=env, check=True)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def run_untraced(w, seed: int, seconds: float, work: Path):
    """CLI runs for ``seconds``, each on inputs from its own seed, then the
    first one again: its report bytes must repeat exactly."""
    env = cli_env(w.workers)

    def cli_run(k):
        cli_seed = w.cli_seed(seed, k)
        cfg = work / f"config-{k}.json"
        w.write_config(cfg, cli_seed)
        out, err = work / "report.json", work / "stderr.txt"
        argv = [sys.executable, "-m", "torsioncalc.cli", *w.argv(cfg, cli_seed)]
        wall, cpu, rss, code = spawn(argv, env, out, err)
        report = out.read_bytes() if code == 0 else b""
        if code != 0:
            print(f"  CLI exit {code}: {err.read_text(errors='replace')[-2000:]}")
        return (wall, cpu, rss), report, judge(w.name, report)

    w.write_config(work / "config-0.json", w.cli_seed(seed, 0))
    setup = setup_seconds(work / "config-0.json")

    samples = []
    attempted = failed = 0
    start = time.perf_counter()
    k = 0
    while True:
        sample, report, (a, f) = cli_run(k)
        samples.append(sample)
        attempted, failed = attempted + a, failed + f
        if k == 0:
            first_report = report
        print(f"  run {k}: wall {sample[0]:.3f} s cpu {sample[1]:.3f} s "
              f"rss {sample[2]:.1f} MiB failed {f}/{a}")
        if time.perf_counter() - start >= seconds:
            break
        k += 1

    # determinism: the first CLI run again, byte for byte
    sample, repeat, (a, f) = cli_run(0)
    samples.append(sample)
    attempted, failed = attempted + a + 1, failed + f + (repeat != first_report)
    print(f"  run 0 again: wall {sample[0]:.3f} s, report bytes "
          f"{'identical' if repeat == first_report else 'DIFFER'}")

    if w.cosmology:
        controls = (0, 0)
    else:
        import layers

        cli_seed = w.cli_seed(seed, 0)
        controls = layers.negative_controls(layers.control_workspace(w, cli_seed), cli_seed)
        print(f"  negative controls: {controls[0] - controls[1]} of {controls[0]} failed as they should")
    attempted, failed = attempted + controls[0], failed + controls[1]

    metrics = {
        "wall_s": statistics.median(s[0] for s in samples),
        "cpu_s": statistics.median(s[1] for s in samples),
        "peak_rss_mib": statistics.median(s[2] for s in samples),
        "setup_s": setup,
        "correct_share": 1.0 - failed / attempted,
    }
    print(f"  {len(samples)} CLI runs; failed_share {failed / attempted:.6g} "
          f"({failed} of {attempted} verdicts)")
    return attempted, failed, metrics, UNITS


def run_traced(w, seed: int):
    import layers

    attempted, failed, metrics = layers.traced_run(w, w.cli_seed(seed, 0))
    return attempted, failed, metrics, layers.UNITS


def run(w, seed: int, seconds: float, trace: bool):
    if trace:
        return run_traced(w, seed)
    WORK.mkdir(exist_ok=True)
    work = WORK / f"{w.name}-{os.getpid()}"
    work.mkdir()
    try:
        return run_untraced(w, seed, seconds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:  # another run is still using it
            pass


def result_line(attempted, failed, metrics, units) -> str:
    return json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    })


def smoke() -> int:
    """Every workload at dim 2, degree 1, untraced and traced twice: metric
    names and units must match BENCHMARK.json, every verdict must hold, every
    negative control must fail, and the exact counts must repeat."""
    import layers

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {
        False: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        True: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    for name in sorted(w["name"] for w in spec["workloads"]):
        w = smoke_workload(WORKLOADS[name])
        traced = []
        for trace in (False, True, True):
            print(f"smoke {name} trace={int(trace)}")
            attempted, failed, metrics, units = run(w, 7, 0, trace)
            got = {m: units[m] for m in metrics}
            if got != declared[trace]:
                problems.append(f"{name}: metrics {sorted(got.items())} != declared")
            if failed or not attempted:
                problems.append(f"{name}: {failed} of {attempted} verdicts failed")
            if trace:
                traced.append({c: metrics[c] for c in layers.COUNTS})
        if traced[0] != traced[1]:
            problems.append(f"{name}: counts differ between traced runs {traced}")
    for p in problems:
        print("smoke FAIL:", p)
    print("smoke ok" if not problems else "smoke failed")
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    if not (SRC / "torsioncalc" / "cli.py").is_file():
        print(f"no torsioncalc sources under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required")
    w = WORKLOADS[args.workload]
    print(f"workload {w.name}: torsioncalc {' '.join(w.command)}, dim {w.dimension}, "
          f"degree {w.degree}, instances {w.instances}, workers {w.workers}")
    attempted, failed, metrics, units = run(w, args.seed, args.seconds, bool(args.trace))
    for name, value in metrics.items():
        print(f"  {name:40s} {value:>16.6g} {units[name]}")
    print(result_line(attempted, failed, metrics, units))
    return 0


if __name__ == "__main__":
    sys.exit(main())
