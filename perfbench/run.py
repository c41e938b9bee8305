#!/usr/bin/env python3
"""Seeded closed-loop benchmark of the padicspec command line interface.

One client in one thread drives padicspec.cli.run_command in-process: the
next problem starts when the previous one returns.  Each workload is a
corpus of problem files generated from --seed by perfbench/corpus.py;
every answer is checked against what the generator planted, against the
previous pass, and (for the golden seed) against frozen digests.

    python3 perfbench/run.py --workload measure-tree --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30
    python3 perfbench/run.py --workload cli-batch --freeze-golden

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones
from a traced pass timed beside an untraced one.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
A fuller record (environment, per-command times, failures, layer shares)
goes to .perfbench-work/ in the checkout.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"
GOLDEN = Path(__file__).resolve().parent / "golden"
GOLDEN_SEED = 0
SETUP_SAMPLES = 15
PROBE_CAP_S = 3.0
TAIL_BEYOND = 10

sys.path.insert(0, str(ROOT))
from perfbench import corpus  # noqa: E402
from perfbench.refclock import NOMINAL_S, ReferenceClock  # noqa: E402
from perfbench.trace import Tracer  # noqa: E402

END_TO_END_UNITS = {
    "setup_s": "s",
    "corpus_s": "s",
    "problem_p50_ms": "ms",
    "problem_tail_ms": "ms",
    "pass_frac": "ratio",
    "peak_rss_mib": "MiB",
}

COMMANDS = (
    "lift", "digits", "classify", "spectral", "measure", "integral", "jordan",
    "hermite", "diam", "uncertainty", "kochubei", "euler", "certify-projection",
)

SPAN_METRICS = (  # <span>.calls counts calls, <span>.s sums self time
    "padic.teichmuller_lift.calls",
    "padic.teichmuller_lift.s",
    "padic.teichmuller_digits.s",
    "padic.classify_orbit.s",
    "finite_field.FqElement.__pow__.calls",
    "finite_field.FqElement.__pow__.s",
    "finite_field.finite_field.s",
    "unramified.sigma_fixed_points.s",
    "unramified.teichmuller_lift_ext.calls",
    "unramified.teichmuller_lift_ext.s",
    "unramified.ext_ring.s",
    "matrix.UMatrix.__mul__.calls",
    "matrix.UMatrix.__mul__.s",
    "matrix.UMatrix.window_pow.calls",
    "matrix.UMatrix.window_pow.s",
    "matrix.certify_orthogonal_projection.s",
    "spectral.hermite_digits_matrix.calls",
    "spectral.hermite_digits_matrix.s",
    "spectral.teichmuller_spectral.calls",
    "spectral.teichmuller_spectral.s",
    "spectral.spectral_measure.s",
    "spectral.spectral_integral.s",
    "spectral.spectrum_diameter.calls",
    "spectral.spectrum_diameter.s",
    "spectral.jordan_decompose.s",
    "spectral.uncertainty_check.calls",
    "spectral.uncertainty_check.s",
    "ladders.ops.s",
)

HOOK_METRICS = (  # accumulated by the span hooks in trace.py
    "padic.classify_orbit.steps",
    "unramified.sigma_fixed_points.points",
    "matrix.UMatrix.__mul__.n4.calls",
    "matrix.UMatrix.__mul__.n8.calls",
    "matrix.UMatrix.__mul__.n16.calls",
    "spectral.teichmuller_spectral.candidates",
    "spectral.teichmuller_spectral.kept",
    "spectral.spectral_measure.mul_calls",
    "spectral.spectral_measure.mul_s",
)


def per_layer_units() -> dict:
    """Every per-layer metric with its unit, in report order."""
    units = {"cli.self_s": "s"}
    units.update({f"cli.{cmd}.s": "s" for cmd in COMMANDS})
    for name in list(SPAN_METRICS) + list(HOOK_METRICS):
        units[name] = "s" if name.endswith((".s", "_s")) else "count"
    units["spectral.teichmuller_spectral.kept_ratio"] = "ratio"
    units["trace.overhead_frac"] = "ratio"
    return units


class Unavailable(Exception):
    """The checkout lacks the program under test."""


# -- environment -----------------------------------------------------------------


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(workload, seed, problems) -> dict:
    by_command = {}
    for pr in problems:
        by_command[pr.command] = by_command.get(pr.command, 0) + 1
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "git_commit": _git_commit(),
        "workload": workload,
        "seed": seed,
        "problems": len(problems),
        "problems_by_command": by_command,
        "tail_percentile": tail_percentile(len(problems)),
    }


# -- set-up and the program under test ----------------------------------------------

_SETUP_CHILD = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import padicspec, padicspec.cli\n"
    "ready = time.clock_gettime_ns(time.CLOCK_MONOTONIC)\n"
    "sys.path.insert(0, sys.argv[2])\n"
    "from perfbench.refclock import kernel\n"
    "durations = []\n"
    "for _ in range(3):\n"
    "    start = time.perf_counter()\n"
    "    kernel()\n"
    "    durations.append(time.perf_counter() - start)\n"
    "print(ready, *durations)\n"
)


def measure_setup() -> list:
    """Fresh-interpreter start plus `import padicspec`: (raw, scaled) seconds.

    The child prints the monotonic clock (shared by all processes) when
    the import returns, then times the reference kernel on its own core;
    the median of three kernel runs scales its set-up time.  The first
    child, which may compile bytecode, is not counted.
    """
    samples = []
    for i in range(SETUP_SAMPLES + 1):
        start = time.clock_gettime_ns(time.CLOCK_MONOTONIC)
        done = subprocess.run(
            [sys.executable, "-c", _SETUP_CHILD, str(SRC), str(ROOT)],
            capture_output=True, text=True, timeout=60, check=True, cwd=ROOT,
        )
        ready, *kernel_s = done.stdout.split()
        raw = (int(ready) - start) / 1e9
        if i:
            samples.append((raw, raw * NOMINAL_S / statistics.median(map(float, kernel_s))))
    return samples


def load_program():
    """Import padicspec from this checkout's src/, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    import padicspec
    import padicspec.cli

    if Path(padicspec.__file__).resolve().parent != (SRC / "padicspec").resolve():
        raise Unavailable(f"padicspec imported from {padicspec.__file__}, not {SRC}")
    ff = sys.modules["padicspec.finite_field"]
    ur = sys.modules["padicspec.unramified"]
    caches = (ff.finite_field, ff.build_modulus, ur.ext_ring)

    def clear_caches():
        for cached in caches:
            cached.cache_clear()

    return padicspec.cli, clear_caches


# -- problems on disk ----------------------------------------------------------------


def materialise(problems, workdir: Path) -> list:
    """Write each problem file; return the full argv of every problem."""
    if workdir.exists():
        shutil.rmtree(workdir)
    workdir.mkdir(parents=True)
    argvs = []
    for pr in problems:
        argv = list(pr.argv)
        if pr.doc is not None:
            path = workdir / f"{pr.pid}.json"
            path.write_text(json.dumps(pr.doc), encoding="utf-8")
            argv[1:1] = ["--in", str(path)]
        argvs.append(argv)
    return argvs


# -- timed passes ----------------------------------------------------------------------


def run_pass(cli, clear_caches, argvs, clock: ReferenceClock, verifier, label: str) -> list:
    """One closed-loop pass; each answer is checked as soon as it is timed.

    Returns (start, end, raw s, scaled s) per problem.
    """
    spans = []
    for index, argv in enumerate(argvs):
        clear_caches()
        gc.collect()
        clock.maybe_sample()
        buf = io.StringIO()
        start = time.perf_counter()
        try:
            status, error = cli.run_command(argv, buf), None
        except Exception as exc:  # an escaped exception is a failed problem
            status, error = None, f"{type(exc).__name__}: {exc}"
        end = time.perf_counter()
        spans.append((start, end))
        verifier.check(index, status, buf.getvalue(), error, label)
    clock.sample()
    return [(start, end, end - start, (end - start) * clock.scale(start, end))
            for start, end in spans]


def repeat_passes(budget_s: float, one_pass) -> list:
    """Passes until the next one would end past the budget; at least one."""
    start = time.perf_counter()
    results = []
    while True:
        results.append(one_pass())
        elapsed = time.perf_counter() - start
        if elapsed * (len(results) + 1) / len(results) > budget_s:
            return results


class Verifier:
    """Checks each answer; later passes must repeat the first pass's bytes."""

    def __init__(self, problems, golden):
        self.problems = problems
        self.golden = golden
        self.first = {}  # pid -> [exit status, sha256 of stdout]
        self.failures = []
        self.failed_problems = set()
        self.failed = 0

    def check(self, index, status, stdout, error, label):
        pr = self.problems[index]
        reason = self._reason(pr, status, stdout, error)
        if reason:
            self.failed += 1
            self.failed_problems.add(pr.pid)
            self.failures.append({"pass": label, "problem": pr.pid, "reason": reason})

    def _reason(self, pr, status, stdout, error):
        if error:
            return f"exception escaped: {error}"
        digest = [status, hashlib.sha256(stdout.encode()).hexdigest()]
        if pr.pid in self.first:
            if digest != self.first[pr.pid]:
                return "stdout or exit status differs from the first pass"
            return None
        self.first[pr.pid] = digest
        if status != pr.status:
            return f"exit status {status}, planted {pr.status}"
        if self.golden is not None and self.golden.get(pr.pid) != digest:
            return "stdout or exit status differs from the golden digest"
        try:
            return pr.check(json.loads(stdout))
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            return f"answer does not parse as planted: {type(exc).__name__}: {exc}"


# -- probes for known robustness defects ---------------------------------------------------

_PROBE_CHILD = (
    "import sys\n"
    "sys.path.insert(0, sys.argv.pop(1))\n"
    "from padicspec.cli import main\n"
    "main()\n"
)


def probe_specs(workdir: Path) -> list:
    """Inputs the CLI accepts but (at the time of writing) cannot finish cleanly."""
    v1000 = workdir / "probe-certify-v-1000.json"
    v1000.write_text(json.dumps({"p": 3, "m": 4, "entries": [
        {"v": -1000, "u": "1"}, {"v": 0, "u": "0"}, {"v": 0, "u": "0"}, {"v": 0, "u": "1"}]}))
    bigp = workdir / "probe-measure-p-1000003.json"
    bigp.write_text(json.dumps({"p": 1000003, "m": 2, "entries": [
        {"v": 0, "u": "1"}, {"v": 0, "u": "0"}, {"v": 0, "u": "0"}, {"v": 0, "u": "2"}]}))
    return [
        ("certify-projection v=-1000", ["certify-projection", "--in", str(v1000)]),
        ("lift p=2^61-1", ["lift", "--p", "2305843009213693951", "--m", "2", "--residue", "1"]),
        ("measure p=1000003", ["measure", "--in", str(bigp)]),
    ]


def run_probes(workdir: Path) -> list:
    """Each probe in its own child under PROBE_CAP_S; passes on exit 0/1/2 with JSON."""
    specs = probe_specs(workdir)
    children = [
        subprocess.Popen([sys.executable, "-c", _PROBE_CHILD, str(SRC), *argv],
                         stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, cwd=ROOT)
        for _, argv in specs
    ]
    deadline = time.monotonic() + PROBE_CAP_S
    results = []
    for (name, _), child in zip(specs, children):
        try:
            stdout, stderr = child.communicate(timeout=max(0.0, deadline - time.monotonic()))
            outcome = _probe_outcome(child.returncode, stdout, stderr)
        except subprocess.TimeoutExpired:
            child.kill()
            child.communicate()
            outcome = f"still running after {PROBE_CAP_S} s"
        results.append({"probe": name, "passed": outcome is None, "reason": outcome})
    return results


def _probe_outcome(code, stdout, stderr):
    last = (stderr.strip().splitlines() or [""])[-1]
    if code not in (0, 1, 2):
        return f"exit status {code} ({last})"
    try:
        if isinstance(json.loads(stdout), dict):
            return None
    except ValueError:
        pass
    return f"exit status {code} without a JSON document ({last})"


# -- metrics ---------------------------------------------------------------------------------


def tail_percentile(count: int) -> float:
    return 100.0 * (count - TAIL_BEYOND) / count


RAW, SCALED = 2, 3  # columns of a run_pass row


def problem_times(results, column: int) -> list:
    """Each problem's median time over the passes."""
    return [statistics.median(r[i][column] for r in results) for i in range(len(results[0]))]


def timing(results, column: int = SCALED) -> dict:
    times = sorted(problem_times(results, column))
    return {
        "corpus_s": sum(times),
        "problem_p50_ms": statistics.median(times) * 1e3,
        "problem_tail_ms": times[len(times) - TAIL_BEYOND - 1] * 1e3,
    }


def command_times(problems, results) -> dict:
    totals = dict.fromkeys(COMMANDS, 0.0)
    for pr, t in zip(problems, problem_times(results, SCALED)):
        totals[pr.command] += t
    return totals


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(results, setup, failed_problems: int, probes) -> dict:
    """The six end-to-end metrics; a problem that failed in any pass counts once."""
    count = len(results[0])
    passed = count - failed_problems + sum(p["passed"] for p in probes)
    return {
        "setup_s": statistics.median(scaled for _, scaled in setup),
        **timing(results),
        "pass_frac": passed / (count + len(probes)),
        "peak_rss_mib": peak_rss_mib(),
    }


def per_layer(problems, untraced, tracer, traced) -> tuple:
    """Per-pass layer metrics, and each span's share of a traced pass."""
    n = len(traced)
    values = {"cli.self_s": tracer.self_time["cli"] / n}
    for cmd, total in command_times(problems, untraced).items():
        values[f"cli.{cmd}.s"] = total
    for metric in SPAN_METRICS:
        span, kind = metric.rsplit(".", 1)
        values[metric] = (tracer.calls[span] if kind == "calls" else tracer.self_time[span]) / n
    for metric in HOOK_METRICS:
        values[metric] = tracer.counts[metric] / n
    candidates = values["spectral.teichmuller_spectral.candidates"]
    values["spectral.teichmuller_spectral.kept_ratio"] = (
        values["spectral.teichmuller_spectral.kept"] / candidates if candidates else 0.0)
    values["trace.overhead_frac"] = timing(traced)["corpus_s"] / timing(untraced)["corpus_s"] - 1.0
    traced_raw = statistics.mean(sum(row[RAW] for row in r) for r in traced)
    shares = {span: tracer.self_time[span] / n / traced_raw for span in sorted(tracer.self_time)}
    return values, shares


# -- one workload ------------------------------------------------------------------------------


def load_golden(workload: str, seed: int):
    if seed != GOLDEN_SEED:
        return None
    path = GOLDEN / f"{workload}.json"
    if not path.is_file():
        raise Unavailable(f"missing golden file {path}")
    return json.loads(path.read_text())["problems"]


def run_workload(args) -> dict:
    if not (SRC / "padicspec" / "__init__.py").is_file():
        raise Unavailable(f"no padicspec package under {SRC}")
    problems = corpus.build(args.workload, args.seed)
    workdir = WORK / f"{args.workload}-{args.seed}"
    argvs = materialise(problems, workdir)
    clock = ReferenceClock()
    cli, clear_caches = load_program()
    golden = None if args.freeze_golden else load_golden(args.workload, args.seed)
    verifier = Verifier(problems, golden)

    def one_pass(label):
        return lambda: run_pass(cli, clear_caches, argvs, clock, verifier, label)

    record = {"environment": environment(args.workload, args.seed, problems), "trace": args.trace}
    if not args.trace:
        setup = measure_setup()
        results = repeat_passes(args.seconds, one_pass("untraced"))
        probes = run_probes(workdir) if args.workload == "cli-batch" else []
        metrics = end_to_end(results, setup, len(verifier.failed_problems), probes)
        record.update(setup_raw_s=[raw for raw, _ in setup], probes=probes,
                      fail_frac=1.0 - metrics["pass_frac"])
        units = END_TO_END_UNITS
    else:
        untraced = repeat_passes(0.4 * args.seconds, one_pass("untraced"))
        tracer = Tracer()
        tracer.install()
        try:
            traced = repeat_passes(0.6 * args.seconds, one_pass("traced"))
        finally:
            tracer.uninstall()
        results = untraced + traced
        metrics, shares = per_layer(problems, untraced, tracer, traced)
        record.update(layer_shares_of_corpus_s=shares)
        units = per_layer_units()
    record.update(
        passes=len(results),
        raw_wall=timing(results, RAW),
        pass_raw_corpus_s=[sum(row[RAW] for row in r) for r in results],
        pass_scaled_corpus_s=[sum(row[SCALED] for row in r) for r in results],
        problem_spans=[[row[:2] for row in r] for r in results],
        reference_samples=[clock.ends, clock.durations],
        command_s=command_times(problems, results),
        failures=verifier.failures[:50],
    )
    if args.freeze_golden:
        write_golden(args.workload, verifier)
    return {
        "record": record,
        "summary": {
            "correct": not verifier.failures,
            "attempted": len(problems) * len(results),
            "failed": verifier.failed,
            "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
        },
    }


def write_golden(workload, verifier):
    if verifier.failures:
        raise SystemExit(f"refusing to freeze golden digests: {verifier.failures[:3]}")
    GOLDEN.mkdir(exist_ok=True)
    rows = ",\n".join(f"{json.dumps(pid)}: {json.dumps(v)}" for pid, v in sorted(verifier.first.items()))
    text = f'{{"seed": {GOLDEN_SEED}, "problems": {{\n{rows}\n}}}}\n'
    (GOLDEN / f"{workload}.json").write_text(text)


def report(args, outcome):
    record, summary = outcome["record"], outcome["summary"]
    env = record["environment"]
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"passes={record['passes']} problems={env['problems']}")
    print("environment " + json.dumps(env, sort_keys=True))
    for name, m in summary["metrics"].items():
        note = (f"  (p{env['tail_percentile']:.1f} of {env['problems']} problems)"
                if name == "problem_tail_ms" else "")
        print(f"  {name:44s} {m['value']:14.6f} {m['unit']}{note}")
    for probe in record.get("probes", []):
        state = "pass" if probe["passed"] else f"FAIL ({probe['reason']})"
        print(f"  probe {probe['probe']}: {state}")
    for failure in record["failures"][:10]:
        print(f"  failure {failure['problem']} [{failure['pass']}]: {failure['reason']}")
    WORK.mkdir(exist_ok=True)
    out = WORK / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps({**record, **summary}, indent=1, sort_keys=True) + "\n")
    print(json.dumps(summary))


def run_all(args) -> int:
    """Each workload in its own child process, so peak memory stays separate."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in corpus.WORKLOADS:
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, cwd=ROOT, timeout=900,
        )
        if done.returncode:
            sys.stderr.write(done.stderr)
            return done.returncode
        lines = done.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        part = json.loads(lines[-1])
        merged["correct"] &= part["correct"]
        merged["attempted"] += part["attempted"]
        merged["failed"] += part["failed"]
        for name, metric in part["metrics"].items():
            merged["metrics"][f"{workload}/{name}"] = metric
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=corpus.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=GOLDEN_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--freeze-golden", action="store_true",
                        help="check the golden seed's answers and rewrite its digests")
    args = parser.parse_args(argv)
    if args.freeze_golden:
        args.seed, args.trace, args.seconds = GOLDEN_SEED, 0, 0.0
    if args.workload == "all":
        return run_all(args)
    try:
        outcome = run_workload(args)
    except Unavailable as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    report(args, outcome)
    return 0


if __name__ == "__main__":
    sys.exit(main())
