"""votecert benchmark driver.

    python3 perfbench/run.py --workload lp-sweep|sp-iid|audit --seed N --seconds S --trace 0|1

Runs one workload as a closed loop with a single client: each job is one
votecert CLI command in a fresh child process, started only after the
previous one exits.  Every job's report passes through its correctness
gate.  With --trace 0 it times set-up and passes and prints the end-to-end
metrics; with --trace 1 it runs one untraced pass and one traced in-process
pass and prints the per-layer metrics.  The last stdout line is one JSON
object: {"correct", "attempted", "failed", "metrics"}.  A record of the run
(machine, Python, source revision, samples, spans) is written under
.perfbench-work/results/ in the checkout.
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
import statistics
import subprocess
import sys
import threading
import time
import traceback
from pathlib import Path

from tracing import Tracer, layer_metrics

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"
WORKLOADS = ("lp-sweep", "sp-iid", "audit")
SETUP_REPEATS = 3
# Job times on a shared 2-vCPU host vary by about 10% run to run; a median
# of at least two passes keeps a single slow stretch from setting a run's value.
MIN_PASSES = 2
RUN_BUDGET_S = 170.0  # jobs still running past this are killed and counted as failed


def _median_summary(samples: list[float]) -> dict:
    """Median, sample count, and the highest percentile with >= 10 samples beyond it."""
    out = {"median": statistics.median(samples), "samples": len(samples), "tail": None, "values": samples}
    for p in (99, 95, 90, 75, 50):
        if len(samples) * (100 - p) / 100 >= 10:
            value = statistics.quantiles(samples, n=100, method="inclusive")[p - 1]
            out["tail"] = {"percentile": p, "value": value}
            break
    return out


def _environment(seed: int) -> dict:
    cpu = platform.processor() or "unknown"
    with contextlib.suppress(OSError), open("/proc/cpuinfo") as fh:
        cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    git_sha = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            git_sha = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30, check=True
            ).stdout.strip()
    digest = hashlib.sha256()
    for path in sorted((SRC / "votecert").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "cpu_model": cpu,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "git_sha": git_sha,
        "source_sha256": digest.hexdigest(),
        "seed": seed,
    }


class Runner:
    """Runs one workload's set-up, passes and gates inside a private work dir."""

    def __init__(self, workload, deadline: float):
        self.wl = workload
        self.deadline = deadline
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.peak_rss_kb = 0
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        self.env = env

    def launch(self, args) -> tuple[float, int]:
        """Run `votecert <args>` in a child process; return (wall seconds, exit code)."""
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-m", "votecert.cli", *args], env=self.env, stdout=subprocess.DEVNULL
        )
        timer = threading.Timer(max(0.0, self.deadline - time.monotonic()), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        elapsed = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.peak_rss_kb = max(self.peak_rss_kb, usage.ru_maxrss)
        return elapsed, proc.returncode

    def setup(self) -> float:
        """Build and save the inputs, then one warm-up launch; return seconds."""
        start = time.perf_counter()
        self.wl.setup()
        _, code = self.launch(["--version"])
        if code != 0:
            raise RuntimeError(f"warm-up `votecert --version` exited with {code}")
        return time.perf_counter() - start

    def gate(self, job, code: int) -> None:
        """Count the job as attempted, and as failed on a non-zero exit or a gate problem."""
        self.attempted += 1
        if code != 0:
            problems = [f"exit code {code}"]
        else:
            try:
                with open(job.out) as fh:
                    problems = job.gate(json.load(fh))
            except (OSError, ValueError, KeyError, TypeError) as exc:
                problems = [f"unreadable report: {exc!r}"]
        if problems:
            self.failed += 1
            self.failures.extend(f"{job.name}: {p}" for p in problems)

    def subprocess_pass(self) -> tuple[float, dict[str, float]]:
        """One pass, each job in its own child process; returns (pass s, s per role)."""
        for job in self.wl.jobs:
            job.out.unlink(missing_ok=True)
        roles: dict[str, float] = {}
        codes = []
        start = time.perf_counter()
        for job in self.wl.jobs:
            elapsed, code = self.launch(job.args)
            roles[job.role] = roles.get(job.role, 0.0) + elapsed
            codes.append(code)
        pass_s = time.perf_counter() - start
        for job, code in zip(self.wl.jobs, codes):
            self.gate(job, code)
        return pass_s, roles

    def traced_pass(self, tracer) -> tuple[float, int]:
        """One pass in this process through the CLI entry point, under the tracer."""
        from votecert import cli

        def invoke(args) -> int:
            saved = sys.argv
            sys.argv = ["votecert", *args]
            try:
                with contextlib.redirect_stdout(io.StringIO()):
                    cli.main.main(args=list(args), prog_name="votecert", standalone_mode=False)
                return 0
            except SystemExit as exc:
                return exc.code if isinstance(exc.code, int) else int(exc.code is not None)
            except cli.click.ClickException as exc:
                return exc.exit_code
            except Exception:  # a crash fails this job, as it would a child process
                traceback.print_exc()
                return 1
            finally:
                sys.argv = saved

        for job in self.wl.jobs:
            job.out.unlink(missing_ok=True)
        codes = []
        tracer.install()
        try:
            start = time.perf_counter()
            for i, job in enumerate(self.wl.jobs):
                tracer.job = i
                codes.append(tracer.call("cli.main", invoke, job.args))
            traced_s = time.perf_counter() - start
        finally:
            tracer.uninstall()
        report_bytes = sum(job.out.stat().st_size for job in self.wl.jobs if job.out.exists())
        for job, code in zip(self.wl.jobs, codes):
            self.gate(job, code)
        return traced_s, report_bytes


def measure(runner: Runner, seconds: float) -> tuple[dict, dict]:
    """End-to-end metrics with tracing off: set-up repeats, then passes for `seconds`
    (at least MIN_PASSES)."""
    setups = [runner.setup() for _ in range(SETUP_REPEATS)]
    passes: list[float] = []
    roles: dict[str, list[float]] = {"main": [], "second": []}
    start = time.monotonic()
    while len(passes) < MIN_PASSES or (
        time.monotonic() - start + statistics.median(passes) <= seconds
        and time.monotonic() + statistics.median(passes) < runner.deadline
    ):
        pass_s, per_role = runner.subprocess_pass()
        passes.append(pass_s)
        for role, samples in roles.items():
            samples.append(per_role[role])
    samples = {"setup_s": setups, "pass_s": passes, "main_job_s": roles["main"], "second_job_s": roles["second"]}
    metrics = {name: (statistics.median(values), "s") for name, values in samples.items()}
    metrics["peak_rss_mb"] = (runner.peak_rss_kb / 1024, "MB")
    return metrics, {name: _median_summary(values) for name, values in samples.items()}


def measure_traced(runner: Runner) -> tuple[dict, dict, list[dict]]:
    """Per-layer metrics: an untraced pass, then a traced in-process pass."""
    runner.setup()
    untraced_s, _ = runner.subprocess_pass()
    tracer = Tracer()
    traced_s, report_bytes = runner.traced_pass(tracer)
    metrics = layer_metrics(tracer, traced_s, untraced_s, report_bytes)
    samples = {"untraced_pass_s": _median_summary([untraced_s]), "traced_pass_s": _median_summary([traced_s])}
    return metrics, samples, tracer.span_records()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="m = 3, n = 2 instances (smoke test)")
    args = parser.parse_args(argv)

    if not (SRC / "votecert" / "__init__.py").is_file():
        print(f"error: votecert sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    seed = workloads.DEFAULT_SEED if args.seed is None else args.seed
    tag = f"{args.workload}-seed{seed}-trace{args.trace}{'-tiny' if args.tiny else ''}"
    workdir = WORK / f"{tag}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        wl = workloads.build(args.workload, seed, workloads.TINY if args.tiny else workloads.FULL, workdir)
        runner = Runner(wl, deadline=time.monotonic() + RUN_BUDGET_S)
        spans: list[dict] = []
        if args.trace:
            metrics, samples, spans = measure_traced(runner)
        else:
            metrics, samples = measure(runner, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    record = {
        "workload": args.workload,
        "trace": args.trace,
        "tiny": args.tiny,
        "environment": _environment(seed),
        "jobs": [{"name": j.name, "role": j.role, "args": list(j.args)} for j in wl.jobs],
        "attempted": runner.attempted,
        "failures": runner.failures,
        "fail_ratio": {"failed": runner.failed, "attempted": runner.attempted},
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "samples": samples,
        "spans": spans,
    }
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    with open(results / f"{tag}.json", "w") as fh:
        json.dump(record, fh, indent=1)

    env = record["environment"]
    print(f"# votecert benchmark {tag}: {env['cpu_model']}, nproc={env['nproc']}, "
          f"python {env['python']}, git {env['git_sha']}")
    for name, (value, unit) in metrics.items():
        extra = f"  (median of {samples[name]['samples']})" if name in samples else ""
        print(f"{name:32s} {value:14.6f} {unit}{extra}")
    print(f"fail_ratio {runner.failed}/{runner.attempted} jobs")
    for failure in runner.failures:
        print(f"FAILED {failure}")
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
