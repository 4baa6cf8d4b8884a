"""gcmkit benchmark: seeded workloads driven through the real ``gcm`` CLI.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One closed-loop client (this process) runs one ``gcm`` command at a time,
each in a fresh interpreter with ``PYTHONPATH=src``, so no workload ever has
two gcm processes at once.  With ``--trace 0`` it runs rounds of ``gcm
--help``, the workload's setup fit and its fixed query script, at least three
and until ``--seconds`` have passed, and reports the end-to-end metrics as
medians over the rounds, scaled to a reference machine speed (see
PROBE_REFERENCE_S).  With ``--trace 1`` it runs the fit and the script once
plainly and once through ``shim.py``, which records spans around gcmkit's
public functions, and reports per-layer metrics; any traced stdout that
differs from the plain one is a failure.

Every command is checked: exit code 0, no traceback on stderr, a JSON
envelope with schema_version, command and seed, the workload's oracle checks
and byte-identical stdout across same-seed repeats.  The last line of stdout
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; the full record (machine, seeds, per-command timings and stdout
sha256) goes to ``.perfbench/results/``.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / ".perfbench"
MIN_ROUNDS = 3
# On a shared 2-CPU machine the speed of everything drifts by up to a third
# for minutes at a time with other tenants' load, far more than the spread of
# runs within one such spell.  So the end-to-end times are reported at a
# reference speed: each measured time is multiplied by PROBE_REFERENCE_S over
# the median of the speed probes taken before every spawn of the run.  The
# reference is the probe's median on an idle spell of the 2-CPU Xeon the
# benchmark was built on, where scaled and measured times agree.  The
# measured times and the factor are kept in the results file.
PROBE_REFERENCE_S = 0.011
# Every run must end within 180 s; a command still running at this deadline is
# killed and counted as failed.
RUN_DEADLINE_S = 170

# name -> unit, in the order BENCHMARK.json lists them.
END_TO_END = {
    "setup_s": "s",
    "session_s": "s",
    "cold_start_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
}
# error_rate and answer_err are gates, not timed metrics: error_rate is
# failed / attempted in the result line, and answer_err <= 1 is required for
# "correct".  Both are printed by name and stored in the results file.
GATES = {"error_rate": "ratio", "answer_err": "ratio"}

# Per-layer metrics of the traced run.  A span's self time is reported only
# for layers that every workload runs, so that no reported time is a constant
# zero; "attribution.self_s" and "stats.self_s" sum their modules' spans, and
# the other layers report counts.  The results file keeps every span's calls
# and self time under "layers".
_TIMED_SPANS = (
    "cli.run",
    "data.read_csv",
    "model.loads_model",
    "model.dumps_model",
    "mechanisms.fit_anm",
    "mechanisms.knn_predict",
    "mechanisms.encode",
    "sampling.draw_noise_values",
    "sampling.propagate_from_noise",
    "seeds.derive_seed",
    "shapley.setfn",
    "shapley.combine",
)
_TIMED_MODULES = ("attribution", "stats")
_COUNTED_SPANS = (
    "data.read_csv",
    "model.loads_model",
    "mechanisms.fit_anm",
    "mechanisms.fit_classifier",
    "mechanisms.knn_predict",
    "mechanisms.encode",
    "sampling.draw_noise_values",
    "sampling.propagate_from_noise",
    "sampling.counterfactual",
    "seeds.derive_seed",
    "shapley.setfn",
    "attribution.intrinsic_influence",
    "attribution.attribute_anomaly",
    "attribution.distribution_change",
    "attribution.arrow_strength",
    "stats.kl_divergence",
    "stats.fisher_z_test",
    "discovery.pc_skeleton",
    "discovery.orient",
    "validation.refute_graph",
    "validation.evaluate_mechanisms",
)
_COUNTER_UNITS = {
    "data.read_csv.cells": "cells",
    "model.loads_model.bytes": "bytes",
    "model.dumps_model.bytes": "bytes",
    "mechanisms.lbfgs.iters": "count",
    "mechanisms.lbfgs.converged": "count",
    "mechanisms.knn_predict.query_rows": "rows",
    "mechanisms.knn_predict.pairs": "pairs",
    "mechanisms.encode.rows": "rows",
    "sampling.draw_noise_values.values": "values",
    "shapley.setfn.distinct": "count",
    "stats.kl_divergence.pairs": "pairs",
    "stats.pairwise_independence_test.permutations": "count",
    "stats.pairwise_independence_test.n": "rows",
}


def per_layer_units():
    units = {"cli.import_s": "s"}
    units.update({f"{name}.self_s": "s" for name in _TIMED_SPANS + _TIMED_MODULES})
    units.update({f"{name}.calls": "count" for name in _COUNTED_SPANS})
    units.update(_COUNTER_UNITS)
    units["trace.overhead_s"] = "s"
    units["trace.unattributed_s"] = "s"
    return units


def speed_probe():
    """Seconds for a fixed pure-Python loop, taken before every spawn."""
    start = time.perf_counter()
    total = 0
    for i in range(200_000):
        total += i * i
    return time.perf_counter() - start


@dataclass
class Outcome:
    label: str
    wall_s: float
    cpu_s: float
    maxrss_kb: int
    code: int
    stdout: bytes
    stderr: str

    @property
    def sha256(self):
        return hashlib.sha256(self.stdout).hexdigest()


class Client:
    """Runs gcm commands one at a time in a work directory and checks them."""

    def __init__(self, work, workload):
        self.work = work
        self.workload = workload
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        self.attempted = 0
        self.failures = []
        self.oracles = []
        self.peak_rss_kb = 0
        self.deadline = time.perf_counter() + RUN_DEADLINE_S
        self.probes = []

    def spawn(self, label, argv):
        self.probes.append(speed_probe())
        out_path, err_path = self.work / ".stdout", self.work / ".stderr"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=self.work, env=self.env, stdout=out, stderr=err)
            watchdog = threading.Timer(max(self.deadline - start, 0.0), proc.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                watchdog.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.peak_rss_kb = max(self.peak_rss_kb, usage.ru_maxrss)
        return Outcome(
            label,
            wall,
            usage.ru_utime + usage.ru_stime,
            usage.ru_maxrss,
            proc.returncode,
            out_path.read_bytes(),
            err_path.read_text(encoding="utf-8", errors="replace"),
        )

    def gcm(self, label, args):
        return self.spawn(label, [sys.executable, "-m", "gcmkit", *args])

    def traced(self, label, args, spans_out):
        shim = str(Path(__file__).resolve().parent / "shim.py")
        return self.spawn(label, [sys.executable, shim, str(spans_out), label, *args])

    def fail(self, label, reason):
        self.failures.append(f"{label}: {reason}")

    def check(self, outcome, args, check=None, reference=None):
        """Count one operation and record why it failed, if it did."""
        self.attempted += 1
        label = outcome.label
        if outcome.code != 0:
            return self.fail(label, f"exit code {outcome.code}: {outcome.stderr.strip()[-300:]}")
        if "Traceback" in outcome.stderr:
            return self.fail(label, "traceback on stderr")
        if reference is not None and outcome.stdout != reference:
            return self.fail(label, "stdout differs from the first same-seed run")
        if args[0] == "--help":
            if not outcome.stdout.startswith(b"usage: gcm"):
                self.fail(label, "--help printed no usage")
            return
        try:
            payload = json.loads(outcome.stdout)
        except ValueError:
            return self.fail(label, "stdout is not one JSON document")
        expected = {"schema_version": 1, "command": args[0], "seed": self.workload.gcm_seed}
        got = {key: payload.get(key) for key in expected}
        if got != expected:
            return self.fail(label, f"envelope {got} != {expected}")
        if check is None:
            return
        try:
            for name, error, tolerance in check(payload):
                self.oracles.append({"command": label, "check": name, "error": error, "tolerance": tolerance})
        except (workloads.CheckFailed, KeyError, TypeError, ValueError) as exc:
            self.fail(label, f"oracle: {exc!r}")

    @property
    def answer_err(self):
        return max((o["error"] / o["tolerance"] for o in self.oracles), default=0.0)


def _setup(client, label):
    fit = client.gcm(label, client.workload.fit)
    model = (client.work / "model.json").read_bytes() if fit.code == 0 else b""
    return fit, model


def _check_fit(client, fit, model, reference_model):
    client.check(fit, client.workload.fit)
    if reference_model is not None and model != reference_model:
        client.fail(fit.label, "model file differs from the first same-seed fit")


def timed_run(client, seconds):
    """Rounds of --help, the setup fit and the script, until ``seconds`` have passed.

    Interleaving spreads each metric's samples over the whole run, so a slow
    spell of the machine touches all of them alike instead of one metric.
    """
    commands = client.workload.commands
    rounds = []
    started = time.perf_counter()
    while len(rounds) < MIN_ROUNDS or time.perf_counter() - started < seconds:
        cold = client.gcm("help", ["--help"])
        fit, model = _setup(client, f"fit#{len(rounds)}")
        outcomes = [client.gcm(c.label, c.argv) for c in commands]
        rounds.append((cold, fit, model, outcomes))

    first_cold, _, first_model, first = rounds[0]
    for cold, fit, model, outcomes in rounds:
        client.check(cold, ["--help"], reference=first_cold.stdout)
        _check_fit(client, fit, model, first_model)
        for command, outcome, ref in zip(commands, outcomes, first):
            # Later rounds must repeat the first byte for byte, so the oracles
            # need to look at the first round only.
            check = command.check if outcomes is first else None
            client.check(outcome, command.argv, check, reference=ref.stdout)

    def median_of(index, field):
        return statistics.median(getattr(r[3][index], field) for r in rounds)

    measured = {
        "setup_s": statistics.median(r[1].wall_s for r in rounds),
        # The script's time as the sum of each command's median over the rounds.
        "session_s": sum(median_of(i, "wall_s") for i in range(len(commands))),
        "cold_start_s": statistics.median(r[0].wall_s for r in rounds),
        "cpu_s": sum(median_of(i, "cpu_s") for i in range(len(commands))),
    }
    speed = PROBE_REFERENCE_S / statistics.median(client.probes)
    metrics = {name: value * speed for name, value in measured.items()}
    metrics["peak_rss_mb"] = client.peak_rss_kb / 1024.0
    record = {
        "measured_s": measured,
        "speed_factor": speed,
        "rounds": len(rounds),
        "cold_start_wall_s": [r[0].wall_s for r in rounds],
        "fits": [{"wall_s": r[1].wall_s, "cpu_s": r[1].cpu_s, "maxrss_kb": r[1].maxrss_kb} for r in rounds],
        "model_sha256": hashlib.sha256(first_model).hexdigest(),
        "commands": [
            {
                "label": command.label,
                "argv": command.argv,
                "stdout_sha256": first[i].sha256,
                "wall_s": [r[3][i].wall_s for r in rounds],
                "cpu_s": [r[3][i].cpu_s for r in rounds],
                "maxrss_kb": max(r[3][i].maxrss_kb for r in rounds),
            }
            for i, command in enumerate(commands)
        ],
    }
    return metrics, record


def _layer_totals(trace_files):
    """Calls and self time per span name, summed over the traced processes."""
    layers = {}
    for trace in trace_files:
        spans = trace["spans"]
        child_time = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child_time[parent] += end - start
        for (name, start, end, _), children in zip(spans, child_time):
            calls, self_s = layers.get(name, (0, 0.0))
            layers[name] = (calls + 1, self_s + (end - start) - children)
    return layers


def trace_run(client):
    """Plain then traced run of the fit and the script; per-layer metrics."""
    commands = client.workload.commands
    plain_fit, plain_model = _setup(client, "fit")
    _check_fit(client, plain_fit, plain_model, None)
    plain = [client.gcm(c.label, c.argv) for c in commands]
    for command, outcome in zip(commands, plain):
        client.check(outcome, command.argv, command.check)

    traced = []  # (outcome, spans file contents or None)
    jobs = [("fit", client.workload.fit, None)] + [(c.label, c.argv, c.check) for c in commands]
    for i, (label, argv, check) in enumerate(jobs):
        spans_out = client.work / f"spans-{i}.json"
        outcome = client.traced(f"traced:{label}", argv, spans_out)
        reference = plain_fit.stdout if i == 0 else plain[i - 1].stdout
        client.check(outcome, argv, check, reference=reference)
        if i == 0 and outcome.code == 0 and (client.work / "model.json").read_bytes() != plain_model:
            client.fail(outcome.label, "traced fit wrote a different model file")
        trace = json.loads(spans_out.read_text(encoding="utf-8")) if spans_out.exists() else None
        if trace is None:
            client.fail(outcome.label, "the shim wrote no spans")
        traced.append((outcome, trace))

    trace_files = [trace for _, trace in traced if trace is not None]
    layers = _layer_totals(trace_files)
    totals = {}
    for name, (calls, self_s) in layers.items():
        module = name.split(".")[0]
        totals[f"{name}.calls"] = calls
        totals[f"{name}.self_s"] = self_s
        totals[f"{module}.self_s"] = totals.get(f"{module}.self_s", 0.0) + self_s
    for trace in trace_files:
        for key, value in trace["counts"].items():
            totals[key] = totals.get(key, 0) + value
    unattributed = 0.0
    for outcome, trace in traced:
        if trace is not None:
            run_span = next(s for s in trace["spans"] if s[0] == "cli.run")
            unattributed += outcome.wall_s - trace["import_s"] - (run_span[2] - run_span[1])
    totals["cli.import_s"] = statistics.median(t["import_s"] for t in trace_files) if trace_files else 0.0
    totals["trace.overhead_s"] = sum(o.wall_s for o, _ in traced[1:]) - sum(o.wall_s for o in plain)
    totals["trace.unattributed_s"] = unattributed
    metrics = {name: totals.get(name, 0) for name in per_layer_units()}
    record = {
        "layers": {name: {"calls": calls, "self_s": self_s} for name, (calls, self_s) in sorted(layers.items())},
        "commands": [
            {
                "label": outcome.label,
                "plain_wall_s": plain_outcome.wall_s,
                "traced_wall_s": outcome.wall_s,
                "stdout_sha256": plain_outcome.sha256,
                "traced_stdout_sha256": outcome.sha256,
            }
            for plain_outcome, (outcome, _) in zip([plain_fit] + plain, traced)
        ],
    }
    return metrics, record


def machine_info():
    import numpy as np

    cpu_model = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu_model = next((line.split(":", 1)[1].strip() for line in handle if line.startswith("model name")), None)
    except OSError:
        pass
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    sha = None
    if (ROOT / ".git").exists():
        result = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True)
        sha = result.stdout.strip() or None
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": metadata.version("scipy"),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", f"default ({os.cpu_count()})"),
        "git_sha": sha,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True, help="workload seed; also passed to gcm as --seed")
    parser.add_argument("--seconds", type=float, required=True, help="run rounds of the workload until this many seconds have passed (at least 3 rounds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=sorted(workloads.SIZES), default="full")
    parser.add_argument("--results", type=Path, default=BENCH_DIR / "results")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "gcmkit" / "cli.py").is_file():
        print(f"perfbench: no gcmkit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    workload = workloads.build(args.workload, args.seed, args.scale)
    work = BENCH_DIR / "work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        for name, text in workload.files.items():
            (work / name).write_text(text, encoding="utf-8")
        client = Client(work, workload)
        if args.trace:
            metrics, record = trace_run(client)
            units = per_layer_units()
        else:
            metrics, record = timed_run(client, args.seconds)
            units = END_TO_END
    finally:
        shutil.rmtree(work, ignore_errors=True)

    gates = {
        "error_rate": len(client.failures) / max(client.attempted, 1),
        "answer_err": client.answer_err,
    }
    correct = not client.failures and gates["answer_err"] <= 1.0
    result = {
        "workload": args.workload,
        "workload_seed": args.seed,
        "gcm_seed": workload.gcm_seed,
        "scale": args.scale,
        "trace": args.trace,
        "seconds": args.seconds,
        "machine": machine_info(),
        "correct": correct,
        "attempted": client.attempted,
        "failed": len(client.failures),
        "failures": client.failures,
        "gates": gates,
        "oracles": client.oracles,
        "speed_probe_s": client.probes,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
        **record,
    }
    args.results.mkdir(parents=True, exist_ok=True)
    out = args.results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")

    for failure in client.failures:
        print(f"FAILED {failure}")
    for name, unit in GATES.items():
        print(f"{name} = {gates[name]:.6g} {unit}")
    for name, unit in units.items():
        print(f"{name} = {metrics[name]:.6g} {unit}")
    print(f"results: {out}")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": client.attempted,
                "failed": len(client.failures),
                "metrics": result["metrics"],
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
