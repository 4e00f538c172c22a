"""Smoke test of the benchmark itself.  Run from the root of a checkout:

    python3 perfbench/smoke.py                  # every workload
    python3 perfbench/smoke.py campaign-small   # a subset

It checks that
- a different seed changes the generated inputs of every workload;
- the correctness checks catch a tampered report and a bad one-shot output;
- every metric named in BENCHMARK.json is printed by name with its unit, in
  the human-readable lines and in the final JSON line, with both values of
  --trace, and the names do not depend on the seed.

The benchmark runs with --seconds 0.1, so each run makes only the minimum
number of timed calls.  Exits 0 when every check passes.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import workloads as W  # noqa: E402

ROOT = os.getcwd()
SCRATCH = os.path.join(ROOT, ".perfbench_out", "smoke")
failures = []


def check(ok, what):
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        failures.append(what)


def seeds_change_inputs():
    for wl in W.CAMPAIGNS:
        check(W.campaign_config(wl, 1) != W.campaign_config(wl, 2), f"{wl}: seed changes config")
        check(W.campaign_config(wl, 1) == W.campaign_config(wl, 1), f"{wl}: seed fixes config")
    check(W.oneshot_calls(1) != W.oneshot_calls(2), "oneshot-cli: seed changes calls")
    check(W.oneshot_calls(1) == W.oneshot_calls(1), "oneshot-cli: seed fixes calls")


def tampering_is_caught():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from holderlab import campaign, cli

    cfg = dict(W.campaign_config("campaign-small", 1), trials=2)
    os.makedirs(SCRATCH, exist_ok=True)
    cfg_path = os.path.join(SCRATCH, "config.json")
    with open(cfg_path, "w") as fh:
        json.dump(cfg, fh)
    out = os.path.join(SCRATCH, "report")
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main(["campaign", cfg_path, "--out", out])
    problems, _, _ = W.check_campaign_call(out, cfg, True, rc)
    problems += W.check_replay(out, cfg, campaign, True)
    check(not problems, f"untouched report passes ({problems[:1]})")

    def tampered(name, edit):
        path = os.path.join(out, name)
        with open(path) as fh:
            original = fh.read()
        with open(path, "w") as fh:
            fh.write(edit(original))
        try:
            return W.check_replay(out, cfg, campaign, True)
        finally:
            with open(path, "w") as fh:
                fh.write(original)

    def bump_csv(text):
        lines = text.splitlines(keepends=True)
        fields = lines[1].split(",")
        fields[5] = repr(float(fields[5]) * (1 + 1e-15))
        lines[1] = ",".join(fields)
        return "".join(lines)

    def bump_json(text):
        report = json.loads(text)
        report["cells"][0]["max_ratio"] *= 1 + 1e-15
        return json.dumps(report)

    def other_trial(text):
        report = json.loads(text)
        digest = report["cells"][0]["argmax_digest"].split(":")
        digest[2] = str(1 - int(digest[2]))
        report["cells"][0]["argmax_digest"] = ":".join(digest)
        return json.dumps(report)

    check(bool(tampered("report.csv", bump_csv)), "max_ratio changed in report.csv is caught")
    check(bool(tampered("report.json", bump_json)), "max_ratio changed in report.json is caught")
    check(bool(tampered("report.json", other_trial)), "argmax digest changed is caught")
    with open(os.path.join(out, "counterexamples.json"), "w") as fh:
        fh.write("[]")
    problems, _, _ = W.check_campaign_call(out, cfg, True, 0)
    check(bool(problems), "counterexamples.json in a constant-1 campaign is caught")
    check(bool(W.check_campaign_call(out, cfg, False, 3)[0]), "exit code 3 is caught")
    argv = ["mpnorm", "--symbol", "alpha"]
    bad = json.dumps({"lower": 5.0, "upper": 4.0, "lower_le_upper": False})
    check(bool(W.check_oneshot_output(argv, 0, bad)), "mpnorm lower_le_upper false is caught")
    check(bool(W.check_oneshot_output(argv, 2, "")), "one-shot exit code 2 is caught")


def run(workload, seed, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "0.1", "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
    lines = proc.stdout.strip().splitlines()
    check(proc.returncode == 0 and bool(lines), f"{workload} seed {seed} trace {trace} exits 0")
    if proc.returncode != 0 or not lines:
        print(proc.stderr[-2000:])
        return None, lines
    return json.loads(lines[-1]), lines


def metrics_are_printed(workloads):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        declared = {m["name"]: m["unit"] for m in bench[key]}
        for wl in workloads:
            names = []
            for seed in (1, 2) if wl == workloads[0] else (1,):
                result, lines = run(wl, seed, trace)
                if result is None:
                    continue
                check(result["correct"], f"{wl} seed {seed} trace {trace} is correct")
                got = {k: v["unit"] for k, v in result["metrics"].items()}
                check(got == declared, f"{wl} trace {trace}: JSON metrics and units match {key}")
                printed = all(
                    any(ln.startswith(f"{name} = ") and f" {unit}" in ln for ln in lines)
                    for name, unit in declared.items()
                )
                check(printed, f"{wl} trace {trace}: every metric printed with its unit")
                names.append(sorted(result["metrics"]))
            if len(names) == 2:
                check(names[0] == names[1], f"{wl} trace {trace}: metric names do not depend on seed")


def main(argv) -> int:
    workloads = argv or list(W.WORKLOADS)
    seeds_change_inputs()
    tampering_is_caught()
    metrics_are_printed(workloads)
    shutil.rmtree(SCRATCH, ignore_errors=True)
    print(f"{len(failures)} check(s) failed" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
