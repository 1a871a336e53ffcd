"""Per-layer spans for the traced run, recorded from outside the program.

`Tracer.install` replaces the public functions of each qahd module, under
every name the package binds them to, with wrappers that time each call.
A span's self time is its duration minus the durations of the wrapped
calls made inside it; a layer's inclusive time counts only its outermost
call, so a function that reaches itself through another is not counted
twice.  Besides times the wrappers count calls, atoms leaving
`canonicalize`, points on which `pair` evaluates the bump, and rays that
`identify` samples.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import Counter, defaultdict

# layer -> the (module, attribute) bindings through which it is reached
LAYERS = {
    "expr.parse": [("qahd.expr", "parse"), ("qahd.cli", "parse")],
    "expr.eval_expr": [("qahd.expr", "eval_expr"), ("qahd.cli", "eval_expr")],
    "logform.canonicalize": [("qahd.logform", "canonicalize"),
                             ("qahd.cli", "canonicalize")],
    "logform.reduced": [("qahd.logform", "AngularPart.reduced")],
    "logform.eval_form": [("qahd.logform", "eval_form"), ("qahd.operators", "eval_form")],
    "operators.verify_qahd": [("qahd.operators", "verify_qahd")],
    "operators.op_power": [("qahd.operators", "op_power"), ("qahd.pairing", "op_power")],
    "operators.dilate": [("qahd.operators", "dilate")],
    "operators.delta": [("qahd.operators", "delta")],
    "operators.euler": [("qahd.operators", "euler")],
    "pairing.pair": [("qahd.pairing", "pair")],
    "pairing.bump": [("qahd.pairing", "TestFunction.values")],
    "identify.sample_ray": [("qahd.identify", "sample_ray")],
    "identify.prony_recover": [("qahd.identify", "prony_recover")],
    "cli.emit": [("qahd._json", "dumps")],
}


def _atoms(multiform) -> int:
    return sum(len(h.atoms) for f in multiform.forms for h in f.coeffs)


def _points(args) -> int:
    points = args[-1]
    return int(points.size // points.shape[0])


# layer -> (counter name, function of (args, result) giving the count)
COUNTS = {
    "logform.canonicalize": ("logform.atoms_out", lambda args, res: _atoms(res)),
    "pairing.bump": ("pairing.nodes", lambda args, res: _points(args)),
    "identify.sample_ray": ("identify.probes", lambda args, res: 1),
}


class Tracer:
    def __init__(self):
        self.inclusive = defaultdict(float)  # seconds, outermost calls only
        self.self_time = defaultdict(float)  # seconds
        self.calls = Counter()
        self.counts = Counter()
        self._stack: list = []  # child-time accumulators of open spans
        self._open = Counter()
        self._saved: list = []

    def _wrap(self, layer, fn):
        counter = COUNTS.get(layer)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._stack.append(0.0)
            self._open[layer] += 1
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                child = self._stack.pop()
                self._open[layer] -= 1
                if self._stack:
                    self._stack[-1] += dt
                self.self_time[layer] += dt - child
                if not self._open[layer]:
                    self.inclusive[layer] += dt
                self.calls[layer] += 1
            if counter is not None:
                self.counts[counter[0]] += counter[1](args, result)
            return result

        return traced

    def install(self) -> None:
        for layer, bindings in LAYERS.items():
            for module_name, attr in bindings:
                owner = importlib.import_module(module_name)
                *path, name = attr.split(".")
                for part in path:
                    owner = getattr(owner, part)
                original = getattr(owner, name)
                self._saved.append((owner, name, original))
                setattr(owner, name, self._wrap(layer, original))

    def uninstall(self) -> None:
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)

    def snapshot(self) -> dict:
        """Totals so far: {layer: [inclusive_s, self_s, calls]} and counts."""
        layers = {
            layer: [self.inclusive[layer], self.self_time[layer], self.calls[layer]]
            for layer in LAYERS
        }
        return {"layers": layers, "counts": dict(self.counts)}
