"""The campaign's JSON outputs: ``campaign.indented_json`` against
``json.dumps`` with ``indent=2, sort_keys=True``, and ``cli._atomic_write``."""

import dataclasses
import importlib.util
import json
import math
import os
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from holderlab import cli
from holderlab.campaign import GRID_KEYS, CampaignConfig, indented_json, run_campaign
from holderlab.errors import HolderLabError

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _dumps(obj):
    return json.dumps(obj, indent=2, sort_keys=True)


def _outcome(encode, obj):
    """The text ``encode`` gives of ``obj``, or the type of the error it raises."""
    try:
        return encode(obj)
    except (TypeError, ValueError) as exc:
        return type(exc)


EDGE_FLOATS = [math.nan, math.inf, -math.inf, -0.0, 5e-324, 2.2250738585072009e-308, 1e308]
FLOATS = st.one_of(st.floats(), st.sampled_from(EDGE_FLOATS))
# non-ASCII text, control characters, quotes and backslashes
TEXT = st.one_of(st.text(), st.text(alphabet="\n\t\x00\x1f\"\\{}[],:é€😀 a"))
SCALARS = st.one_of(st.none(), st.booleans(), st.integers(), FLOATS, TEXT)
EMPTY = st.sampled_from([[], {}, ()])
# the keys of one dict: strings, or numbers and bools (which sort together), or None
KEY_KINDS = [TEXT, st.one_of(st.integers(), FLOATS, st.booleans()), st.none()]
FLAT_DICTS = st.dictionaries(TEXT, st.one_of(SCALARS, EMPTY), min_size=1, max_size=6)


def _containers(children):
    return st.one_of(
        st.lists(children, max_size=5),
        st.lists(children, max_size=5).map(tuple),
        *(st.dictionaries(keys, children, max_size=5) for keys in KEY_KINDS),
        st.lists(FLAT_DICTS, max_size=5),  # the cells of a report
    )


VALUES = st.recursive(
    st.one_of(
        SCALARS,
        EMPTY,
        st.lists(FLAT_DICTS, min_size=1, max_size=5),
        # the matrices of a counterexample
        st.integers(1, 4).flatmap(
            lambda n: st.lists(st.lists(FLOATS, min_size=n, max_size=n), min_size=n, max_size=n)
        ),
    ),
    _containers,
    max_leaves=40,
)


@settings(max_examples=400, deadline=None)
@given(VALUES)
def test_indented_json_is_the_text_of_json_dumps(obj):
    assert _outcome(indented_json, obj) == _outcome(_dumps, obj)


@settings(max_examples=100, deadline=None)
@given(st.dictionaries(st.one_of(st.integers(), TEXT), st.one_of(SCALARS, VALUES), max_size=5))
def test_indented_json_of_mixed_keys_raises_where_json_dumps_does(obj):
    # an int and a str key do not sort: both raise, on a flat dict or not
    assert _outcome(indented_json, obj) == _outcome(_dumps, obj)


@pytest.mark.parametrize(
    "obj",
    [
        {"a": [{"b": 1}, {"c": "},\n    {"}]},  # a boundary's text inside a string
        [{"a": {}}, {"a": []}, {"b": {}}],  # empty containers inside the cells
        {"z": [[1.0, -0.0], [math.nan, math.inf]], 2: None},
        {1: {"x": [1]}, 2.5: [], True: {"y": {}}, math.nan: 1},
        {None: [[], [[]], [{}]]},
        [[], (), {}, [[[]]], "x"],
    ],
)
def test_indented_json_on_edge_shapes(obj):
    assert _outcome(indented_json, obj) == _outcome(_dumps, obj)


# the payload of a counterexample's input matrix
MATRIX = {"re": [[0.5, -1.25], [2.0, 1e-300]], "im": [[0.0, -0.0], [3.5, 0.25]]}


@pytest.mark.parametrize(
    "obj",
    [
        [[1.0]],  # 1 x 1
        {"im": [[0.0]], "re": [[-2.5]]},
        [[math.nan, math.inf], [-math.inf, -0.0]],
        {"inputs": [MATRIX, MATRIX], "ratio": math.inf},
        [[1.0, 2.0], (3.0, 4.0)],  # a tuple row
        [[1.0], [], [2.0]],  # an empty row
        [[1.0], ()],
        [[[], []], [1.0]],  # rows that hold empty containers
        [[1.0, []], [[], 2.0]],
        [[{}], [{}]],
        [["],\n  [", 1.0], ["],\n    [", 2.0]],  # a boundary's text inside a string
        [[1.0, 2.0], {"a": 1}],  # rows of both kinds
        [[None, True, "x"], [False, -3, 2**70]],
    ],
)
def test_indented_json_on_matrix_rows(obj):
    assert _outcome(indented_json, obj) == _outcome(_dumps, obj)


ROWS = st.lists(st.lists(st.one_of(SCALARS, EMPTY), max_size=4), min_size=1, max_size=4)


@settings(max_examples=200, deadline=None)
@given(st.one_of(ROWS, st.dictionaries(st.sampled_from(["im", "re"]), ROWS)))
def test_indented_json_of_rows_is_the_text_of_json_dumps(obj):
    assert _outcome(indented_json, obj) == _outcome(_dumps, obj)


def _golden(monkeypatch):
    """tools/golden.py as a module; the environment variable and sys.path
    entries its import sets are undone after the test."""
    monkeypatch.setattr(os, "environ", dict(os.environ))
    monkeypatch.setattr(sys, "path", list(sys.path))
    path = os.path.join(ROOT, "tools", "golden.py")
    spec = importlib.util.spec_from_file_location("golden", path)
    golden = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(golden)
    return golden


def test_indented_json_on_every_golden_payload(monkeypatch):
    # report.to_dict() and the forced counterexamples of every golden config;
    # a claim selects counterexamples alone, so the forced run's report is
    # the config's report
    golden = _golden(monkeypatch)
    for name, cfg in golden.campaigns().items():
        try:
            config = CampaignConfig.from_dict(cfg)
        except HolderLabError:
            continue
        with golden._forced_claims():
            report, forced = run_campaign(config)
        payload = report.to_dict()
        assert report.to_json() == indented_json(payload) == _dumps(payload), name
        assert indented_json(forced) == _dumps(forced), name


def test_config_to_dict_is_that_of_asdict_on_every_golden_config(monkeypatch):
    # asdict's dict, with the grid axes as lists, in field order; the dict
    # owns its ensemble, so no change to it reaches the config
    golden = _golden(monkeypatch)
    for name, cfg in golden.campaigns().items():
        try:
            config = CampaignConfig.from_dict(cfg)
        except HolderLabError:
            continue
        want = dataclasses.asdict(config)
        for key in GRID_KEYS:
            want[key] = list(want[key])
        got = config.to_dict()
        assert got == want and list(got) == list(want), name
        assert all(type(got[key]) is list for key in GRID_KEYS), name
        if config.ensemble is not None:
            before = json.dumps(config.ensemble, sort_keys=True)
            got["ensemble"]["name"] = "changed"
            for value in got["ensemble"].values():
                if isinstance(value, list):
                    value.append(-1.0)
            assert json.dumps(config.ensemble, sort_keys=True) == before, name
            assert config.to_dict()["ensemble"] == want["ensemble"], name


# --- the atomic writes ---------------------------------------------------------


@pytest.fixture
def no_umask(monkeypatch):
    def umask(mask):
        raise AssertionError("os.umask called")

    monkeypatch.setattr(os, "umask", umask)


def test_atomic_write_replaces_a_file_without_the_umask(tmp_path, no_umask):
    path = tmp_path / "report.json"
    path.write_text("old and longer")
    cli._atomic_write(str(path), "new")
    assert path.read_text() == "new"
    assert os.listdir(tmp_path) == ["report.json"]


@pytest.mark.parametrize("fails", ["write", "replace"])
def test_atomic_write_leaves_no_temporary_file_when_it_fails(fails, tmp_path, monkeypatch):
    path = tmp_path / "report.json"
    path.write_text("old")
    text = "\ud800" if fails == "write" else "new"  # a lone surrogate does not encode

    def replace(src, dst):
        raise OSError("replace failed")

    if fails == "replace":
        monkeypatch.setattr(os, "replace", replace)
    with pytest.raises((UnicodeEncodeError, OSError)):
        cli._atomic_write(str(path), text)
    assert os.listdir(tmp_path) == ["report.json"]
    assert path.read_text() == "old"


def test_atomic_write_writes_utf8_into_an_existing_directory_only(tmp_path, no_umask):
    path = tmp_path / "report.json"
    cli._atomic_write(str(path), "é€😀\n")
    assert path.read_bytes() == "é€😀\n".encode()
    missing = tmp_path / "gone" / "report.json"
    with pytest.raises(FileNotFoundError):
        cli._atomic_write(str(missing), "text")
    assert sorted(os.listdir(tmp_path)) == ["report.json"]


def test_atomic_write_passes_over_a_stale_temporary_name(tmp_path, monkeypatch, no_umask):
    # the first name it tries is already on disk, as if a killed run left it
    tried, real_open = [], os.open

    def open_(name, *args):
        if not tried:
            with open(name, "w") as fh:
                fh.write("stale")
        tried.append(name)
        return real_open(name, *args)

    monkeypatch.setattr(os, "open", open_)
    path = tmp_path / "report.csv"
    cli._atomic_write(str(path), "fresh")
    assert path.read_text() == "fresh"
    assert len(tried) == 2 and tried[0] != tried[1]
    assert sorted(os.listdir(tmp_path)) == sorted(["report.csv", os.path.basename(tried[0])])
    with open(tried[0]) as fh:
        assert fh.read() == "stale"
