"""tools/golden.py --compare on two small hand-written golden sets."""

import json
import math
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CELL = {
    "argmax_digest": "1:0:9:dim8", "dim": 8, "failures": 0, "max_ratio": 165.8,
    "min_ratio": 131.9, "norm": "schatten:1", "p": 1.0, "q50": 146.4, "q99": 165.6,
    "theta": 1.5, "trials": 32,
}


def _golden_set(path, cell, stdout):
    os.makedirs(path / "inverse-s1")
    (path / "inverse-s1" / "report.json").write_text(json.dumps({"cells": [cell]}))
    os.makedirs(path / "cli-oneshot-0")
    for part, text in (("stdout", stdout), ("stderr", ""), ("exit", "0\n")):
        (path / "cli-oneshot-0" / part).write_text(text)


def _compare(tmp_path, a, b, stdout_a="{}\n", stdout_b="{}\n"):
    _golden_set(tmp_path / "a", a, stdout_a)
    _golden_set(tmp_path / "b", b, stdout_b)
    return subprocess.run(
        [sys.executable, os.path.join(ROOT, "tools", "golden.py"), "--compare",
         str(tmp_path / "a"), str(tmp_path / "b")],
        capture_output=True, text=True, timeout=120,
    )


def test_compare_reads_min_ratio_from_report_json(tmp_path):
    # report.csv has no min_ratio column: the constant of inverse and reverse
    out = _compare(tmp_path, CELL, {**CELL, "min_ratio": math.nextafter(131.9, 200.0)})
    assert out.returncode == 0, out.stdout
    assert "1 of 1 cells changed (0 in their argmax_digest)" in out.stdout
    assert "largest relative change of min_ratio: 2.15e-16\n" in out.stdout
    assert "largest relative change of max_ratio: 0\n" in out.stdout


@pytest.mark.parametrize("value", [131.9 * (1.0 + 1e-9), math.inf, math.nan])
def test_compare_fails_when_min_ratio_moves_beyond_the_bound(tmp_path, value):
    out = _compare(tmp_path, CELL, {**CELL, "min_ratio": value})
    assert out.returncode == 1, out.stdout
    assert "inverse-s1 cell 0 min_ratio: 131.9 -> " in out.stdout


def test_compare_reads_nan_as_equal_to_nan(tmp_path):
    cell = {**CELL, "q50": math.nan, "min_ratio": math.inf}
    out = _compare(tmp_path, cell, dict(cell))
    assert out.returncode == 0, out.stdout
    assert "0 of 1 calls differ" in out.stdout
    assert "0 of 1 cells changed" in out.stdout


@pytest.mark.parametrize(
    "stdout_a, stdout_b, where",
    [
        # one JSON object on both sides: the keys whose values differ, each
        # number with its relative change
        (
            '{"lower": 2.372, "lower_le_upper": true, "upper": 4.0}\n',
            '{"lower": 2.403, "lower_le_upper": true, "upper": 4.0}\n',
            "stdout (lower 0.013)",
        ),
        (
            '{"lower": NaN, "upper": 4.0, "x": 1}\n',
            '{"lower": NaN, "upper": Infinity}\n',
            "stdout (upper inf, x)",
        ),
        # otherwise the part alone
        ("wrote a (1 cells)\n", "wrote b (1 cells)\n", "stdout"),
        ("[1, 2]\n", "[1, 3]\n", "stdout"),
        ('{"lower": 1.0}\n', "not json\n", "stdout"),
    ],
    ids=["one-key", "nan-inf-missing", "text", "list", "one-side"],
)
def test_compare_names_the_keys_of_a_json_stdout_that_differ(
    tmp_path, stdout_a, stdout_b, where
):
    out = _compare(tmp_path, CELL, dict(CELL), stdout_a, stdout_b)
    assert out.returncode == 0, out.stdout
    assert "1 of 1 calls differ in stdout, stderr or exit code\n" in out.stdout
    assert f"  cli-oneshot-0: {where}\n" in out.stdout
