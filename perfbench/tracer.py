"""Outside-in span tracer for gevlab.

The tracer replaces selected gevlab functions by timing wrappers, without
touching the package's files.  gevlab modules bind helpers with
``from .series import certify_log_series``, so a function is replaced in
every ``gevlab.*`` namespace that holds it; each namespace gets its own
wrapper, which records the namespace a call went through (``via``).
Methods are patched on the class that defines them.

A span is (wrapper id, start, end, parent span, unit id) plus two payload
fields filled from the call's result or argument: ``tag`` (a small code,
such as the certificate route) and ``amount`` (a size, such as the number
of series terms).  Spans live in compact in-memory arrays and are written
once, at the end of the run.
"""

from __future__ import annotations

import importlib
import sys
import time
from array import array

import numpy as np

from layers import ROUTES, STATUSES, WRAPPED_FUNCTIONS, WRAPPED_METHODS


def _size(obj) -> float:
    size = getattr(obj, "size", None)
    return float(size) if size is not None else float(len(obj))


def _certificate_payload(args, kwargs, cert) -> tuple[int, float]:
    code = ROUTES.index(cert.route) * len(STATUSES) + STATUSES.index(cert.status.value)
    return code, float(cert.terms_used)


def _first_arg_size(args, kwargs, _result) -> tuple[int, float]:
    return -1, _size(args[0])


def _second_arg_size(args, kwargs, _result) -> tuple[int, float]:
    # bound methods: args[0] is the instance
    return -1, _size(args[1])


# payload extractors by qualified name; unnamed wrappers record no payload
_PAYLOAD = {
    "series.certify_log_series": _certificate_payload,
    "logdomain.logsumexp": _first_arg_size,
    "spectral_core.eigenvalues": _second_arg_size,
}


class Tracer:
    """Span store and the set of installed wrappers."""

    def __init__(self) -> None:
        self.labels: list[tuple[str, str]] = []  # wrapper id -> (qualified name, via)
        self.unit = -1
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []
        self._wrappers: dict[tuple[str, str], object] = {}
        self.clear()

    # -- span storage ------------------------------------------------------

    def clear(self) -> None:
        self.wid = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.unit_of = array("i")
        self.tag = array("i")
        self.amount = array("d")

    def snapshot(self) -> dict:
        """The stored spans as numpy arrays (copies)."""
        return {
            "wid": np.frombuffer(self.wid, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "unit": np.frombuffer(self.unit_of, dtype=np.int32).copy(),
            "tag": np.frombuffer(self.tag, dtype=np.int32).copy(),
            "amount": np.frombuffer(self.amount, dtype=np.float64).copy(),
        }

    # -- wrappers ----------------------------------------------------------

    def _wrapper(self, fn, qualname: str, via: str):
        key = (qualname, via)
        if key in self._wrappers:
            return self._wrappers[key]
        wid = len(self.labels)
        self.labels.append(key)
        payload = _PAYLOAD.get(qualname)
        stack = self._stack
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            i = len(tracer.start)
            tracer.wid.append(wid)
            tracer.parent.append(stack[-1] if stack else -1)
            tracer.unit_of.append(tracer.unit)
            tracer.tag.append(-1)
            tracer.amount.append(0.0)
            tracer.end.append(0.0)
            stack.append(i)
            tracer.start.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.end[i] = clock()
                stack.pop()
            if payload is not None:
                tracer.tag[i], tracer.amount[i] = payload(args, kwargs, out)
            return out

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", qualname)
        self._wrappers[key] = traced
        return traced

    def install(self) -> None:
        """Replace every listed function and method by its wrapper."""
        if self._restore:
            raise RuntimeError("tracer already installed")
        for home in {q.split(".")[0] for q in WRAPPED_FUNCTIONS} | {m for m, _, _ in WRAPPED_METHODS}:
            importlib.import_module(f"gevlab.{home}")
        modules = {
            name: mod for name, mod in sys.modules.items()
            if mod is not None and (name == "gevlab" or name.startswith("gevlab."))
        }
        for qualname in WRAPPED_FUNCTIONS:
            home, attr = qualname.split(".")
            original = getattr(modules[f"gevlab.{home}"], attr)
            for mod_name, mod in modules.items():
                for name, value in list(vars(mod).items()):
                    if value is original:
                        via = mod_name.rpartition(".")[2] if "." in mod_name else mod_name
                        self._restore.append((mod, name, value))
                        setattr(mod, name, self._wrapper(original, qualname, via))
        for home, cls_name, attr in WRAPPED_METHODS:
            cls = getattr(modules[f"gevlab.{home}"], cls_name)
            original = vars(cls)[attr]
            self._restore.append((cls, attr, original))
            setattr(cls, attr, self._wrapper(original, f"{home}.{attr}", cls_name))

    def uninstall(self) -> None:
        for owner, name, value in reversed(self._restore):
            setattr(owner, name, value)
        self._restore.clear()
