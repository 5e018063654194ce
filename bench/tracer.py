"""Per-layer call counts and self times, recorded from the benchmark's side.

The tracer replaces the listed public names of lagflow, and the numpy/scipy
entry points lagflow calls, by wrappers that open a span.  A span's self
time is its duration minus the time of the traced spans nested in it.  A
name already open on the span stack is not traced again, so recursion
(``dumps_canonical``) and the nested decoders count once per outer call.
The package itself is not edited: the wrappers are installed on the module
and class attributes for a traced round and removed after it, and they only
record while ``enabled()`` is active, which the benchmark sets around its
calls into the program and not around its own checks.
"""

from __future__ import annotations

import contextlib
import re
import subprocess
import sys
import time
from collections import Counter, defaultdict
from functools import wraps
from pathlib import Path

import numpy as np
import scipy.linalg

import lagflow
import lagflow.flow
import lagflow.grassmann
import lagflow.intersect
import lagflow.linalg
import lagflow.serialize
import lagflow.universal

# (layer, function) -> where the original lives; functions are patched in
# every lagflow module that binds the same object
FUNCTIONS = [
    ("linalg", "as_complex_matrix", lagflow.linalg),
    ("linalg", "symmetrize", lagflow.linalg),
    ("linalg", "require_hermitian", lagflow.linalg),
    ("linalg", "require_unitary", lagflow.linalg),
    ("linalg", "hermitian_eig", lagflow.linalg),
    ("linalg", "numeric_kernel", lagflow.linalg),
    ("linalg", "subspace_intersection_basis", lagflow.linalg),
    ("linalg", "orthonormalize", lagflow.linalg),
    ("optimize", "linear_sum_assignment", lagflow.flow),
    ("optimize", "minimize", lagflow.intersect),
    ("grassmann", "switched_graph", lagflow.grassmann),
    ("grassmann", "cayley_graph", lagflow.grassmann),
    ("grassmann", "lagrangian_to_unitary", lagflow.grassmann),
]
# numpy/scipy entry points, looked up as module attributes at call time and
# counted only when the direct caller is a lagflow module
LAPACK = [
    ("eigvalsh", np.linalg),
    ("eigh", np.linalg),
    ("eigvals", np.linalg),
    ("svd", np.linalg),
    ("schur", scipy.linalg),
]
METHODS = [
    ("grassmann.LagrangianFrame", lagflow.grassmann.LagrangianFrame, "__init__"),
    ("flow.HermitianPath.value_at", lagflow.flow.HermitianPath, "value_at"),
    ("flow.HermitianPath.derivative_at", lagflow.flow.HermitianPath, "derivative_at"),
    ("flow.LagrangianPath.frame_at", lagflow.flow.LagrangianPath, "frame_at"),
    ("universal.UnitaryLoop.value_at", lagflow.universal.UnitaryLoop, "value_at"),
    ("intersect.MeshedFamily.value_at", lagflow.intersect.MeshedFamily, "value_at"),
]
SERIALIZE_DECODERS = [name for name in lagflow.serialize.__all__ if name.startswith("decode_")]

SPAN_NAMES = ([f"{layer}.{fn}" for layer, fn, _ in FUNCTIONS]
              + [f"lapack.{fn}" for fn, _ in LAPACK]
              + [name for name, _, _ in METHODS]
              + ["serialize.decode", "serialize.dumps_canonical"])


def _lagflow_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "lagflow" or name.startswith("lagflow."))]


class Tracer:
    """Span counts and self times for one traced round."""

    def __init__(self):
        self.calls: Counter[str] = Counter()
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.located = 0
        self._active = False
        self._open: set[str] = set()
        self._child: list[float] = []
        self._patches: list[tuple[object, str, object]] = []

    @contextlib.contextmanager
    def enabled(self):
        self._active = True
        try:
            yield
        finally:
            self._active = False

    def _wrap(self, name: str, fn, lagflow_callers_only: bool = False):
        tracer = self

        @wraps(fn)
        def traced(*args, **kwargs):
            if not tracer._active or name in tracer._open:
                return fn(*args, **kwargs)
            if lagflow_callers_only and not sys._getframe(1).f_globals.get(
                    "__name__", "").startswith("lagflow"):
                return fn(*args, **kwargs)
            tracer._open.add(name)
            tracer._child.append(0.0)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                nested = tracer._child.pop()
                if tracer._child:
                    tracer._child[-1] += elapsed
                tracer.calls[name] += 1
                tracer.self_s[name] += elapsed - nested
                tracer._open.discard(name)

        return traced

    def _set(self, owner, attr: str, value):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _patch_everywhere(self, original, wrapper):
        for module in _lagflow_modules():
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._set(module, attr, wrapper)

    def _count_located(self, fn):
        tracer = self

        @wraps(fn)
        def counted(*args, **kwargs):
            points = fn(*args, **kwargs)
            if tracer._active:
                tracer.located += len(points)
            return points

        return counted

    def install(self):
        for layer, fn_name, home in FUNCTIONS:
            original = getattr(home, fn_name)
            self._patch_everywhere(original, self._wrap(f"{layer}.{fn_name}", original))
        for fn_name, module in LAPACK:
            original = getattr(module, fn_name)
            self._set(module, fn_name, self._wrap(f"lapack.{fn_name}", original,
                                                  lagflow_callers_only=True))
        for name, cls, attr in METHODS:
            self._set(cls, attr, self._wrap(name, cls.__dict__[attr]))
        for fn_name in SERIALIZE_DECODERS:
            original = getattr(lagflow.serialize, fn_name)
            self._patch_everywhere(original, self._wrap("serialize.decode", original))
        original = lagflow.serialize.dumps_canonical
        self._patch_everywhere(original, self._wrap("serialize.dumps_canonical", original))
        original = lagflow.intersect.locate_crossings
        self._patch_everywhere(original, self._count_located(original))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def metrics(self) -> dict[str, tuple[float, str]]:
        out: dict[str, tuple[float, str]] = {}
        for name in SPAN_NAMES:
            out[f"{name}.calls"] = (self.calls[name], "count")
            out[f"{name}.self_s"] = (self.self_s[name], "s")
        runs = self.calls["optimize.minimize"]
        out["intersect.minimize.accept_ratio"] = (self.located / runs if runs else 0.0, "ratio")
        return out


_IMPORTTIME = re.compile(r"import time:\s*(\d+)\s*\|\s*(\d+)\s*\|(\s*)(\S+)")


def import_profile(root: Path, env: dict) -> tuple[float, float]:
    """(seconds to import lagflow.cli, seconds of that spent in scipy.optimize).

    Measured in a fresh interpreter; the second figure is the cumulative
    time ``-X importtime`` gives scipy.optimize, 0 when it is not imported.
    """
    code = ("import time; t = time.perf_counter(); import lagflow.cli; "
            "print(time.perf_counter() - t)")
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", code], cwd=root,
                          env=env, capture_output=True, text=True, timeout=120, check=True)
    optimize_us = 0
    for line in proc.stderr.splitlines():
        match = _IMPORTTIME.match(line)
        if match and match.group(4) == "scipy.optimize":
            optimize_us = int(match.group(2))
    return float(proc.stdout.strip().splitlines()[-1]), optimize_us * 1e-6
