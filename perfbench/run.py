"""holderlab benchmark: one workload, measured end to end or traced per layer.

Run from the root of a holderlab checkout:

    python3 perfbench/run.py --workload campaign-small --seed 1 --seconds 15 --trace 0

Workloads: campaign-small, campaign-dim64, campaign-inverse, oneshot-cli (see
perfbench/README.md).  The seed generates the campaign config or the list of
CLI arguments; the program receives only those.  Every workload runs in child
processes of its own, one at a time, with the BLAS environment as the caller
has it.

With ``--trace 0`` the end-to-end metrics are measured, with times scaled to a
reference machine speed by a probe run around every timed operation
(``workloads.probe``); the raw times are printed beside them.  With
``--trace 1`` a traced run gives the per-layer metrics.  Every metric is printed by name with
its unit, and the last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import selectors
import shutil
import statistics
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import workloads as W  # noqa: E402

WORKER = os.path.join(HERE, "worker.py")
OUT_DIR = ".perfbench_out"
# set-up samples per run: fresh processes that import, build inputs and warm up
SETUP_SAMPLES = 5
# the whole run must end well within 180 s
DEADLINE_S = 170.0

END_TO_END_UNITS = {
    "trials_per_s": "trials/s",
    "oneshot_s_p50": "s",
    "oneshot_s_tail": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


class WorkerError(RuntimeError):
    pass


class Run:
    def __init__(self, args, root):
        self.args = args
        self.root = root
        self.start = perf_counter()
        self.out = os.path.join(root, OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}")
        shutil.rmtree(self.out, ignore_errors=True)
        os.makedirs(self.out)
        src = os.path.join(root, "src")
        path = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))

    def spawn(self, phase, tag, env=None):
        """Run one worker phase; returns (seconds to READY, result, peak RSS MB)."""
        cmd = [
            sys.executable, WORKER,
            "--workload", self.args.workload,
            "--seed", str(self.args.seed),
            "--seconds", str(self.args.seconds),
            "--phase", phase,
            "--out", os.path.join(self.out, tag),
        ]
        t0 = perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env or self.env, cwd=self.root)
        ready_s = result = None
        buf = b""
        try:
            with selectors.DefaultSelector() as sel:
                sel.register(proc.stdout, selectors.EVENT_READ)
                while True:
                    left = DEADLINE_S - (perf_counter() - self.start)
                    if left <= 0:
                        raise WorkerError(f"{phase} worker passed the {DEADLINE_S:.0f} s deadline")
                    if not sel.select(timeout=left):
                        continue
                    chunk = os.read(proc.stdout.fileno(), 1 << 16)
                    if not chunk:
                        break
                    buf += chunk
                    *lines, buf = buf.split(b"\n")
                    for line in lines:
                        if line == b"READY":
                            ready_s = perf_counter() - t0
                        elif line.startswith(b"RESULT "):
                            result = json.loads(line[7:])
        except BaseException:
            proc.kill()
            raise
        finally:
            proc.stdout.close()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode != 0 or ready_s is None:
            raise WorkerError(f"{phase} worker exited {proc.returncode}")
        if phase != "setup" and result is None:
            raise WorkerError(f"{phase} worker printed no result")
        return ready_s, result, usage.ru_maxrss / 1024.0


def print_env(env):
    print(
        "env: python {python}, numpy {numpy}, {openblas}, blas_threads {blas_threads}, "
        "nproc {nproc}, OPENBLAS_NUM_THREADS={OPENBLAS_NUM_THREADS}, "
        "OMP_NUM_THREADS={OMP_NUM_THREADS}".format(**env)
    )


def describe_inputs(workload, seed, result):
    if workload == W.ONESHOT:
        print(f"inputs: {len(result['calls'])} one-shot calls from seed {seed}")
        for call in result["calls"]:
            print(f"  holderlab {call}")
        print(f"one-shot stdout sha256 (first pass): {result['stdout_sha256']}")
    else:
        print(
            f"inputs: campaign config seed {result['config_seed']} from seed {seed}, "
            f"{result['trials_per_call']} trials per call"
        )
        print(f"report.csv sha256: {result['csv_sha256']}")


def timing_metrics(workload, seconds, times, setups, trials_per_call):
    """The end-to-end timing metrics from call times and set-up times."""
    latency = times[: W.latency_calls(workload, seconds)]
    if workload == W.ONESHOT:
        trials_per_s = len(times) / sum(times)
    else:
        trials_per_s = trials_per_call / statistics.median(times)
    return {
        "trials_per_s": trials_per_s,
        "oneshot_s_p50": statistics.median(latency),
        "oneshot_s_tail": W.tail_percentile(latency)[0],
        "setup_s": statistics.median(setups),
    }


def end_to_end(run: Run):
    args = run.args
    setups, setup_scales = [], []
    for i in range(SETUP_SAMPLES):
        phase = "measure" if i == SETUP_SAMPLES - 1 else "setup"
        (ready_s, result, worker_rss), scale = W.timed(lambda: run.spawn(phase, phase + str(i)))
        setups.append(ready_s)
        setup_scales.append(scale)
    times, scales = result["times"], result["scales"]
    trials_per_call = result.get("trials_per_call")
    raw = timing_metrics(args.workload, args.seconds, times, setups, trials_per_call)
    metrics = timing_metrics(
        args.workload,
        args.seconds,
        [t * k for t, k in zip(times, scales)],
        [t * k for t, k in zip(setups, setup_scales)],
        trials_per_call,
    )
    oneshot = args.workload == W.ONESHOT
    metrics["peak_rss_mb"] = result["peak_rss_mb"] if oneshot else worker_rss
    print_env(result["env"])
    describe_inputs(args.workload, args.seed, result)
    _, level, n = W.tail_percentile(times[: W.latency_calls(args.workload, args.seconds)])
    unit_of_work = "fresh-process CLI call" if oneshot else "campaign call"
    notes = {
        "trials_per_s": f"{len(times)} calls" if oneshot else f"median of {len(times)} calls",
        "oneshot_s_p50": f"median {unit_of_work}, first {n} of {len(times)} calls",
        "oneshot_s_tail": f"p{level:.1f} of the first {n} calls",
        "setup_s": f"median of {len(setups)} fresh-process set-ups",
        "peak_rss_mb": "max over CLI processes" if oneshot else "worker ru_maxrss",
    }
    probe_ref = W.PROCESS_PROBE_REF_S if oneshot else W.PROBE_REF_S
    print(
        f"machine speed: {'process ' if oneshot else ''}probe median "
        f"{1000 * probe_ref / statistics.median(scales):.3f} ms against {1000 * probe_ref:g} ms "
        "reference; times below are scaled to the reference speed, raw values in brackets"
    )
    for name, value in metrics.items():
        unit = END_TO_END_UNITS[name]
        raw_note = f"[raw {raw[name]:.6g} {unit}]  " if name in raw else ""
        print(f"{name} = {value:.6g} {unit}  {raw_note}({notes[name]})")
    failed_ratio = result["failures"] / result["attempted"]
    print(f"failed_ratio = {failed_ratio:.6g} ratio  ({result['failures']} of {result['attempted']})")
    if args.workload == "campaign-dim64":
        env = dict(run.env, OPENBLAS_NUM_THREADS="1")
        _, ref, _ = run.spawn("reference", "reference-blas1", env=env)
        ref_rate = ref["trials_per_call"] / statistics.median(
            [t * k for t, k in zip(ref["times"], ref["scales"])]
        )
        print(
            f"reference.blas1_trials_per_s = {ref_rate:.6g} trials/s  "
            f"(OPENBLAS_NUM_THREADS=1, blas_threads {ref['env']['blas_threads']}, "
            f"median of {len(ref['times'])} calls, scaled; "
            f"default threads: {metrics['trials_per_s']:.6g} trials/s)"
        )
        result["problems"] += ref["problems"]
        if ref["csv_sha256"] != result["csv_sha256"]:
            result["problems"].append("report.csv differs with OPENBLAS_NUM_THREADS=1")
    return result, metrics, END_TO_END_UNITS


LAYER_UNITS = {"calls": "count", "rng_calls": "count", "trials": "count", "failures": "count",
               "flops_computed": "flop", "bytes_written": "B"}


def layer_unit(name):
    last = name.rsplit(".", 1)[-1]
    if last in LAYER_UNITS:
        return LAYER_UNITS[last]
    return "ratio" if last.endswith("ratio") else "s"


def per_layer(run: Run):
    _, result, _ = run.spawn("trace", "trace")
    layers = result["layers"]
    print_env(result["env"])
    describe_inputs(run.args.workload, run.args.seed, result)
    unit = "pass of one-shot calls" if run.args.workload == W.ONESHOT else "campaign call"
    print(f"per-layer metrics per {unit}, from {result['units']} traced units "
          "(flops_computed are computed from call sizes, not measured)")
    for name in sorted(layers):
        print(f"{name} = {layers[name]:.6g} {layer_unit(name)}")
    layer_sum = sum(v for k, v in layers.items() if k.count(".") == 1 and k.endswith(".self_s"))
    print(f"layer self times sum to {layer_sum:.6g} s of {layers['traced_wall_s']:.6g} s traced wall")
    print(f"spans of the first traced unit: {os.path.join(run.out, 'trace', 'spans.jsonl')}")
    return result, layers, {name: layer_unit(name) for name in layers}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=W.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "holderlab", "cli.py")):
        print(f"error: {root} is not a holderlab checkout (no src/holderlab)", file=sys.stderr)
        return 2
    run = Run(args, root)
    try:
        result, metrics, units = per_layer(run) if args.trace else end_to_end(run)
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    with open(os.path.join(run.out, "result.json"), "w") as fh:
        json.dump({"metrics": metrics, "worker": result}, fh, indent=1)
    problems = result["problems"]
    for p in problems:
        print(f"INCORRECT: {p}", file=sys.stderr)
    print(f"correct: {not problems}")
    print(json.dumps({
        "correct": not problems,
        "attempted": result["attempted"],
        "failed": result["failures"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
