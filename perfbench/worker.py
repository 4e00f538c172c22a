"""Child process of the benchmark: runs one phase of one workload.

``run.py`` starts this script with holderlab's ``src`` directory on
PYTHONPATH.  The worker imports holderlab, builds the workload's inputs from
the seed, makes one untimed warm-up call and prints ``READY``; the time from
process start to that line is one sample of ``setup_s``.  The first call in a
fresh process runs slower (a dim-64 campaign call ran 2.4x slower than later
ones), which is why warm-up is part of set-up and not of the timed calls.
Then, by phase:

- ``setup``: exit.
- ``measure``: time calls, each next to machine-speed probes, until
  ``--seconds`` have passed and at least ``workloads.latency_calls`` calls are
  in; check every output.
- ``reference``: the same for a fixed, small number of calls (used for the
  single-threaded BLAS reference).
- ``trace``: alternate untraced and traced units of work and report the
  per-layer metrics.

The worker ends with one line ``RESULT <json>``.  ``--traced-call`` runs one
traced CLI call in a fresh process for the one-shot workload.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import hashlib
import io
import json
import os
import platform
import statistics
import subprocess
import sys
from time import perf_counter

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import workloads as W  # noqa: E402

# campaign calls timed in the reference phase
REFERENCE_CALLS = 5
# traced units of work, at least, in the trace phase
MIN_TRACED_UNITS = 2


def emit(tag, payload=None):
    line = tag if payload is None else f"{tag} {json.dumps(payload)}"
    sys.__stdout__.write(line + "\n")
    sys.__stdout__.flush()


def import_holderlab():
    """Import holderlab.cli from the checkout's src; returns the import time."""
    t = perf_counter()
    import holderlab.cli

    import_s = perf_counter() - t
    src = os.path.join(os.getcwd(), "src")
    if not os.path.abspath(holderlab.cli.__file__).startswith(src + os.sep):
        raise SystemExit(f"holderlab imported from {holderlab.cli.__file__}, not from {src}")
    return import_s


def environment() -> dict:
    """Versions and the BLAS thread count, read from the loaded OpenBLAS."""
    import numpy as np

    env = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS", "unset"),
        "openblas": "not found",
        "blas_threads": None,
    }
    with open("/proc/self/maps") as fh:
        libs = sorted({ln.split()[-1] for ln in fh if "openblas" in ln and ".so" in ln})
    for path in libs:
        lib = ctypes.CDLL(path)
        for prefix, suffix in (("scipy_openblas_", "64_"), ("scipy_openblas_", ""), ("openblas_", "")):
            try:
                get_threads = getattr(lib, f"{prefix}get_num_threads{suffix}")
                get_config = getattr(lib, f"{prefix}get_config{suffix}")
            except AttributeError:
                continue
            get_threads.argtypes, get_threads.restype = [], ctypes.c_int
            get_config.argtypes, get_config.restype = [], ctypes.c_char_p
            env["openblas"] = get_config().decode()
            env["blas_threads"] = get_threads()
            env["openblas_library"] = os.path.basename(path)
            return env
    return env


# --- campaign workloads ---------------------------------------------------------------


class CampaignCalls:
    """Times ``holderlab campaign`` calls on one config and checks each output."""

    def __init__(self, workload, seed, out):
        from holderlab import campaign, cli

        self.cli, self.campaign = cli, campaign
        self.cfg = W.campaign_config(workload, seed)
        self.constant_one = workload in W.CONSTANT_ONE
        self.cfg_path = os.path.join(out, "config.json")
        with open(self.cfg_path, "w") as fh:
            json.dump(self.cfg, fh)
        self.out_dir = os.path.join(out, "report")
        self.problems, self.csv_shas = [], set()
        self.failures = self.attempted = 0

    def call(self) -> float:
        argv = ["campaign", self.cfg_path, "--out", self.out_dir]
        with contextlib.redirect_stdout(io.StringIO()):
            t = perf_counter()
            rc = self.cli.main(argv)
            dt = perf_counter() - t
        problems, failures, trials = W.check_campaign_call(
            self.out_dir, self.cfg, self.constant_one, rc
        )
        self.problems += problems
        self.failures += failures
        self.attempted += trials
        self.csv_shas.add(W.sha256_file(os.path.join(self.out_dir, "report.csv")))
        return dt

    def finish(self) -> dict:
        problems = self.problems + W.check_replay(
            self.out_dir, self.cfg, self.campaign, self.constant_one
        )
        if len(self.csv_shas) != 1:
            problems.append(f"report.csv differs across repetitions: {sorted(self.csv_shas)}")
        return {
            "problems": problems,
            "failures": self.failures,
            "attempted": self.attempted,
            "trials_per_call": W.trials_per_call(self.cfg),
            "config_seed": self.cfg["seed"],
            "csv_sha256": sorted(self.csv_shas)[0],
        }


def campaign_phase(args, import_s):
    calls = CampaignCalls(args.workload, args.seed, args.out)
    calls.call()  # warm-up, not timed
    calls.attempted = calls.failures = 0  # count the timed calls only
    emit("READY")
    if args.phase == "setup":
        return None
    if args.phase == "trace":
        return campaign_trace(calls, args, import_s)
    times, scales = [], []
    min_calls = REFERENCE_CALLS if args.phase == "reference" else W.latency_calls(
        args.workload, args.seconds
    )
    seconds = 0.0 if args.phase == "reference" else args.seconds
    start = perf_counter()
    while perf_counter() - start < seconds or len(times) < min_calls:
        dt, scale = W.timed(calls.call)
        times.append(dt)
        scales.append(scale)
    return {**calls.finish(), "times": times, "scales": scales, "import_s": import_s}


def campaign_trace(calls, args, import_s):
    import tracer as T

    tr = T.Tracer()
    untraced, traced = [], []
    start = perf_counter()
    while len(traced) < MIN_TRACED_UNITS or perf_counter() - start < args.seconds:
        untraced.append(calls.call())
        uninstall = T.install(tr)
        try:
            traced.append(calls.call())
        finally:
            uninstall()
        tr.keep_spans = False  # spans of the first traced unit are written out
    tr.write_spans(os.path.join(args.out, "spans.jsonl"))
    return traced_result(calls.finish(), tr, len(traced), untraced, traced, import_s)


def traced_result(result, tr, units, untraced, traced, import_s):
    """The per-layer metrics of a trace phase, per unit of work."""
    import tracer as T

    layers = T.layer_metrics(tr, units)
    layers["cli.import_s"] = import_s
    layers["trace_overhead_ratio"] = statistics.median(traced) / statistics.median(untraced)
    # failures over the traced and untraced calls alike
    layers["failed_ratio"] = result["failures"] / result["attempted"]
    return {**result, "layers": layers, "units": units}


# --- one-shot workload ----------------------------------------------------------------


def run_cli(argv, out, traced_dump=None):
    """One fresh-process CLI call: (wall s, exit code, stdout, peak RSS MB)."""
    if traced_dump is None:
        cmd = [sys.executable, "-m", "holderlab.cli"] + argv
    else:
        cmd = [sys.executable, os.path.abspath(__file__), "--traced-call", traced_dump, "--"] + argv
    with open(os.path.join(out, "cli-stderr.txt"), "ab") as err:
        t = perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err)
        with proc.stdout:
            stdout = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
        dt = perf_counter() - t
    proc.returncode = os.waitstatus_to_exitcode(status)
    return dt, proc.returncode, stdout.decode(), usage.ru_maxrss / 1024.0


class OneshotPass:
    """Runs the one-shot call list and checks every output; a call's stdout
    must also be byte-identical in every pass."""

    def __init__(self, seed, out):
        self.calls = W.oneshot_calls(seed)
        self.out = out
        self.first_stdout = {}
        self.problems = []
        self.attempted = self.failed = 0
        self.peak_rss_mb = 0.0

    def run(self, i, traced_dump=None) -> float:
        argv = self.calls[i]
        dt, rc, stdout, rss = run_cli(argv, self.out, traced_dump)
        problems = W.check_oneshot_output(argv, rc, stdout)
        if self.first_stdout.setdefault(i, stdout) != stdout:
            problems.append(f"{' '.join(argv)}: output differs between passes")
        self.problems += problems
        self.attempted += 1
        self.failed += rc != 0
        self.peak_rss_mb = max(self.peak_rss_mb, rss)
        return dt

    def finish(self) -> dict:
        joined = "".join(self.first_stdout[i] for i in range(len(self.calls)))
        return {
            "problems": self.problems,
            "failures": self.failed,
            "attempted": self.attempted,
            "peak_rss_mb": self.peak_rss_mb,
            "stdout_sha256": hashlib.sha256(joined.encode()).hexdigest(),
            "calls": [" ".join(c) for c in self.calls],
        }


def oneshot_phase(args, import_s):
    runs = OneshotPass(args.seed, args.out)
    warm = len(runs.calls) - 1
    runs.run(warm)  # warm-up: the light verify call, not timed
    runs.attempted = runs.failed = 0
    emit("READY")
    if args.phase == "setup":
        return None
    if args.phase == "trace":
        return oneshot_trace(runs, args)
    times, scales = [], []
    min_calls = W.latency_calls(args.workload, args.seconds)
    start = perf_counter()
    before = W.process_probe()
    while perf_counter() - start < args.seconds or len(times) < min_calls:
        for i in range(len(runs.calls)):
            times.append(runs.run(i))
            after = W.process_probe()  # also the probe before the next call
            scales.append(2.0 * W.PROCESS_PROBE_REF_S / (before + after))
            before = after
    # A process probe is one 0.15 s snapshot next to calls of 0.5-2 s; the
    # median of the five scales centred on a call tracks the calls better
    # (over ten seeds the p50 and tail spreads fell from 0.087 to 0.061).
    scales = [statistics.median(scales[max(0, i - 2) : i + 3]) for i in range(len(scales))]
    return {**runs.finish(), "times": times, "scales": scales, "import_s": import_s}


def oneshot_trace(runs, args):
    import tracer as T

    tr = T.Tracer()
    untraced, traced, import_s = [], [], []
    passes = 0
    start = perf_counter()
    while passes == 0 or perf_counter() - start < args.seconds:
        for i in range(len(runs.calls)):
            untraced.append(runs.run(i))
            dump_path = os.path.join(args.out, f"trace-{i}.json")
            traced.append(runs.run(i, traced_dump=dump_path))
            with open(dump_path) as fh:
                data = json.load(fh)
            if passes > 0:
                data["spans"] = []  # spans of the first traced pass are written out
            T.merge(tr, data)
            import_s.append(data["import_s"])
        passes += 1
    tr.write_spans(os.path.join(args.out, "spans.jsonl"))
    return traced_result(
        runs.finish(), tr, passes, untraced, traced, statistics.median(import_s)
    )


def traced_call(dump_path, argv):
    """Body of one traced fresh-process CLI call (``--traced-call``)."""
    import_s = import_holderlab()
    import tracer as T
    import holderlab.cli

    tr = T.Tracer()
    T.install(tr)
    tr.trial = " ".join(argv)
    try:
        rc = holderlab.cli.main(argv)
    finally:
        sys.stdout.flush()
        with open(dump_path, "w") as fh:
            json.dump({**T.dump(tr), "import_s": import_s}, fh)
    return rc


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=W.WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--phase", choices=["setup", "measure", "reference", "trace"])
    parser.add_argument("--out", help="directory for this phase's files")
    parser.add_argument("--traced-call", metavar="DUMP", help="run one traced CLI call")
    parser.add_argument("cli_args", nargs="*")
    args = parser.parse_args(argv)
    if args.traced_call:
        return traced_call(args.traced_call, args.cli_args)
    import_s = import_holderlab()
    os.makedirs(args.out, exist_ok=True)
    if args.workload == W.ONESHOT:
        result = oneshot_phase(args, import_s)
    else:
        result = campaign_phase(args, import_s)
    if result is not None:
        emit("RESULT", {**result, "env": environment()})
    return 0


if __name__ == "__main__":
    sys.exit(main())
