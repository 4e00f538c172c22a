"""Spans around calls into holderlab's public functions, recorded from outside.

``install`` wraps every public function of the traced modules and rebinds the
name in the defining module and in every holderlab module that imported it
with ``from ... import`` (for example ``holderlab.campaign.sample`` and
``holderlab.verify.eig_hermitian``).  It also wraps ``SeedState.rng`` and the
``eval``/``deriv`` callables of every ``ScalarFunction`` built while it is
installed.  The returned function restores the originals, so one process can
time the same work traced and untraced.

A span has a name, start, end, parent span and trial id.  Spans are kept in
memory and written out by ``write_spans`` when the run ends.  A span's self
time is its duration minus the durations of its child spans; because every
span lies inside the root span (``cli.main``), the self times of all spans sum
to the root spans' durations.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
from collections import defaultdict
from time import perf_counter

import numpy as np

LAYERS = ("ensembles", "spectral", "norms", "functions", "verify", "doi", "campaign", "cli")
# private helpers that carry a per-layer metric of their own
PRIVATE = {"cli._atomic_write"}

# Flop counts are computed from call sizes with textbook models, not measured:
# Hermitian eigendecomposition with vectors 9n^3 complex operations (Golub and
# Van Loan's symmetric QR count) plus the n^3 reconstruction product, and
# singular values only (8/3)n^3 for a square matrix; one complex operation is
# counted as four real flops.
COMPLEX_FLOP = 4.0


def _eigh_flops(a) -> float:
    n = np.shape(a)[0]
    return COMPLEX_FLOP * (9.0 + 1.0) * n**3


def _svd_flops(x) -> float:
    m, n = np.shape(x)[-2:]
    k = min(m, n)
    return COMPLEX_FLOP * (4.0 * m * n * k - 4.0 * k**3 / 3.0)


class Tracer:
    def __init__(self):
        self.spans = []  # (name, start, end, parent index, trial)
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.extra = defaultdict(float)  # counters filled by hooks
        self.trial = None
        self.keep_spans = True  # aggregates are always kept, spans while this is set
        self.root_wall = 0.0
        self._stack = []  # [span index or -1, time covered by children]

    def call(self, name, fn, args, kwargs, hook=None):
        if hook is not None:
            hook(self, args, kwargs, None, before=True)
        parent = self._stack[-1][0] if self._stack else -1
        idx = -1
        if self.keep_spans:
            idx = len(self.spans)
            self.spans.append(None)
        frame = [idx, 0.0]
        self._stack.append(frame)
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self._stack.pop()
            dur = end - start
            if idx >= 0:
                self.spans[idx] = (name, start, end, parent, self.trial)
            self.self_s[name] += dur - frame[1]
            self.calls[name] += 1
            if self._stack:
                self._stack[-1][1] += dur
            else:
                self.root_wall += dur
        if hook is not None:
            hook(self, args, kwargs, result, before=False)
        return result

    def write_spans(self, path: str):
        with open(path, "w") as fh:
            for name, start, end, parent, trial in self.spans:
                fh.write(json.dumps([name, start, end, parent, trial]) + "\n")


# --- hooks: counters read at the call boundary ------------------------------------


def _trial_from_seed(tracer, args, kwargs, result, before):
    # sample_inputs(verifier, dim, seed, ensemble): seed.path is (0, cell, trial)
    if before:
        path = args[2].path
        tracer.trial = f"{path[1]}:{path[2]}"


def _eigh_hook(tracer, args, kwargs, result, before):
    if before:
        tracer.extra["spectral.eig_hermitian.flops_computed"] += _eigh_flops(args[0])


def _svd_hook(tracer, args, kwargs, result, before):
    if before:
        tracer.extra["norms.singular_values.flops_computed"] += _svd_flops(args[0])


def _campaign_hook(tracer, args, kwargs, result, before):
    if not before:
        report, _ = result
        tracer.extra["campaign.trials"] += sum(c.trials for c in report.cells)
        tracer.extra["campaign.failures"] += sum(c.failures for c in report.cells)


def _mp_lower_hook(tracer, args, kwargs, result, before):
    if not before:
        tracer.extra["doi.mp_lower.attempts"] += result.trials + result.resampled
        tracer.extra["doi.mp_lower.resampled"] += result.resampled


def _write_hook(tracer, args, kwargs, result, before):
    if before:
        tracer.extra["cli.bytes_written"] += len(args[1].encode())


HOOKS = {
    "campaign.sample_inputs": _trial_from_seed,
    "campaign.run_campaign": _campaign_hook,
    "spectral.eig_hermitian": _eigh_hook,
    "norms.singular_values": _svd_hook,
    "doi.empirical_mp_lower": _mp_lower_hook,
    "cli._atomic_write": _write_hook,
}


def _wrap(tracer, name, fn):
    hook = HOOKS.get(name)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        return tracer.call(name, fn, args, kwargs, hook)

    return traced


def install(tracer: Tracer):
    """Wrap the traced functions; returns a function that restores them."""
    modules = {layer: importlib.import_module(f"holderlab.{layer}") for layer in LAYERS}
    loaded = [m for n, m in sys.modules.items() if n == "holderlab" or n.startswith("holderlab.")]
    restore = []

    def rebind(orig, wrapper):
        for mod in loaded:
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, attr, wrapper)
                    restore.append((mod, attr, orig))

    for layer, mod in modules.items():
        for attr, obj in list(vars(mod).items()):
            name = f"{layer}.{attr}"
            if not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                continue
            if attr.startswith("_") and name not in PRIVATE:
                continue
            rebind(obj, _wrap(tracer, name, obj))

    seed_state = modules["ensembles"].SeedState
    rng = seed_state.rng
    seed_state.rng = _wrap(tracer, "ensembles.SeedState.rng", rng)
    restore.append((seed_state, "rng", rng))

    scalar = modules["functions"].ScalarFunction
    init = scalar.__init__

    @functools.wraps(init)
    def traced_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        object.__setattr__(self, "eval", _wrap(tracer, "functions.eval", self.eval))
        object.__setattr__(self, "deriv", _wrap(tracer, "functions.deriv", self.deriv))

    scalar.__init__ = traced_init
    restore.append((scalar, "__init__", init))

    def uninstall():
        for owner, attr, orig in reversed(restore):
            setattr(owner, attr, orig)

    return uninstall


# --- per-layer metrics --------------------------------------------------------------

def layer_metrics(tracer: Tracer, units: int) -> dict:
    """Per-layer metrics per unit of work (one campaign call, or one pass of
    one-shot calls), from the spans of ``units`` identical traced units."""
    layer_self = defaultdict(float)
    for name, s in tracer.self_s.items():
        layer_self[name.split(".", 1)[0]] += s

    def count(total):
        return total // units if total % units == 0 else total / units

    def calls(name):
        return count(tracer.calls.get(name, 0))

    def self_s(name):
        return tracer.self_s.get(name, 0.0) / units

    def prefixed_calls(prefix, exclude=()):
        return count(
            sum(c for n, c in tracer.calls.items() if n.startswith(prefix) and n not in exclude)
        )

    attempts = tracer.extra["doi.mp_lower.attempts"]
    m = {
        "ensembles.calls": prefixed_calls("ensembles.", exclude={"ensembles.SeedState.rng"}),
        "ensembles.self_s": layer_self["ensembles"] / units,
        "ensembles.rng_calls": calls("ensembles.SeedState.rng"),
        "campaign.self_s": layer_self["campaign"] / units,
        "campaign.trials": count(int(tracer.extra["campaign.trials"])),
        "campaign.failures": count(int(tracer.extra["campaign.failures"])),
        "verify.calls": prefixed_calls("verify.verify_"),
        "verify.self_s": layer_self["verify"] / units,
        "verify.inverse_apply.self_s": self_s("verify.inverse_apply"),
        "functions.eval.calls": calls("functions.eval"),
        "functions.eval.self_s": self_s("functions.eval"),
        "functions.deriv.calls": calls("functions.deriv"),
        "functions.deriv.self_s": self_s("functions.deriv"),
        "functions.seminorm.calls": calls("functions.seminorm"),
        "functions.seminorm.self_s": self_s("functions.seminorm"),
        "functions.self_s": layer_self["functions"] / units,
        "spectral.eig_hermitian.calls": calls("spectral.eig_hermitian"),
        "spectral.eig_hermitian.self_s": self_s("spectral.eig_hermitian"),
        "spectral.eig_hermitian.flops_computed": tracer.extra[
            "spectral.eig_hermitian.flops_computed"
        ] / units,
        "spectral.op_norm.calls": calls("spectral.op_norm"),
        "spectral.op_norm.self_s": self_s("spectral.op_norm"),
        "spectral.self_s": layer_self["spectral"] / units,
        "norms.singular_values.calls": calls("norms.singular_values"),
        "norms.singular_values.self_s": self_s("norms.singular_values"),
        "norms.singular_values.flops_computed": tracer.extra[
            "norms.singular_values.flops_computed"
        ] / units,
        "norms.self_s": layer_self["norms"] / units,
        "doi.empirical_mp_lower.self_s": self_s("doi.empirical_mp_lower"),
        "doi.schur_apply.calls": calls("doi.schur_apply"),
        "doi.mp_lower.resample_ratio": (
            tracer.extra["doi.mp_lower.resampled"] / attempts if attempts else 0.0
        ),
        "doi.fourier_sobolev_bound.calls": calls("doi.fourier_sobolev_bound"),
        "doi.fourier_sobolev_bound.self_s": self_s("doi.fourier_sobolev_bound"),
        "doi.dyadic_upper_bound.self_s": self_s("doi.dyadic_upper_bound"),
        "doi.self_s": layer_self["doi"] / units,
        "cli.write_s": self_s("cli._atomic_write"),
        "cli.bytes_written": count(int(tracer.extra["cli.bytes_written"])),
        "cli.self_s": layer_self["cli"] / units,
        "traced_wall_s": tracer.root_wall / units,
    }
    return m


def merge(into: Tracer, data: dict):
    """Add the aggregates another process dumped with ``dump`` to ``into``."""
    for name, s in data["self_s"].items():
        into.self_s[name] += s
    for name, c in data["calls"].items():
        into.calls[name] += c
    for name, v in data["extra"].items():
        into.extra[name] += v
    into.root_wall += data["root_wall"]
    offset = len(into.spans)
    for name, start, end, parent, trial in data["spans"]:
        into.spans.append((name, start, end, parent + offset if parent >= 0 else -1, trial))


def dump(tracer: Tracer) -> dict:
    return {
        "self_s": dict(tracer.self_s),
        "calls": dict(tracer.calls),
        "extra": dict(tracer.extra),
        "root_wall": tracer.root_wall,
        "spans": tracer.spans,
    }
