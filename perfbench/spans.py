"""In-memory span tracer for the ``fidest`` package, installed from outside.

The tracer wraps a fixed list of public functions, plus the constructors and
``draw`` methods of the sampler classes, on every ``fidest`` module object
that holds them.  Names re-bound by ``from .f2 import ...`` are therefore
wrapped too, so calls made inside the package are traced.  Each call records
one span ``[name, start, end, parent]`` in a list; nothing is written until
the caller asks.  ``uninstall`` puts every original object back.

A listed function that does not exist is reported in ``absent`` and skipped.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import time
from collections import defaultdict

# Functions traced, as (module, attribute); the span name is "module.attribute".
FUNCTIONS = (
    ("f2", "pauli_coefficients"),
    ("f2", "fwht"),
    ("f2", "pauli_expectation"),
    ("f2", "f2_rank"),
    ("states", "depolarize"),
    ("states", "sample_component"),
    ("states", "born_probabilities"),
    ("states", "haar_random"),
    ("states", "phase_strip"),
    ("states", "exact_fidelity"),
    ("estimation", "run_estimator"),
    ("estimation", "dfe_shot"),
    ("estimation", "fofe_shot"),
    ("estimation", "nldfe_shot"),
    ("estimation", "fofe_outcome_distribution"),
    ("estimation", "phase_difference_table"),
    ("estimation", "build_qwc_partition"),
    ("estimation", "median_of_means"),
    ("magic", "norms"),
    ("magic", "haar_stripped_l1_estimate"),
    ("magic", "hypergraph_derivative_matrix"),
    ("tomography", "mub_family"),
    ("tomography", "jacobi_eigh"),
    ("tomography", "estimate_coefficients"),
)

# Sampler classes are found at install time: every class defined in
# fidest.samplers that has a draw method.
SAMPLER_BUILD = "samplers.build"
SAMPLER_DRAW = "samplers.draw"

# Counters read from a traced function's return value.
COUNTERS = {
    "states.depolarize": ("states.depolarize.components",
                          lambda out: len(getattr(out, "components", ()))),
    "estimation.build_qwc_partition": ("estimation.qwc_groups",
                                       lambda out: len(getattr(out, "groups", ()))),
}


def _package_modules():
    return [mod for name, mod in list(sys.modules.items())
            if mod is not None and (name == "fidest" or name.startswith("fidest."))]


class Tracer:
    """Wraps the listed functions while installed; see the module docstring.

    With ``capture=True`` the tracer also keeps every sampler it sees built
    and every QWC partition returned, in ``captured``.
    """

    def __init__(self, functions=FUNCTIONS, capture: bool = False):
        self.functions = tuple(functions)
        self.capture = capture
        self.names: list[str] = []
        self.spans: list[list] = []
        self.counters: dict[str, int] = defaultdict(int)
        self.captured: list = []
        self.absent: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._stack: list[int] = []
        self._patched: list[tuple] = []
        self._wrappers: list = []

    # -- installation -------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _wrap(self, name: str, fn, after=None):
        name_id = self._name_id(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name_id, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if after is not None:
                after(args, out)
            return out

        self._wrappers.append(wrapper)
        return wrapper

    def _after(self, name: str):
        hooks = []
        if name in COUNTERS:
            counter, count = COUNTERS[name]

            def bump(args, out, counter=counter, count=count):
                self.counters[counter] += count(out)
            hooks.append(bump)
        if self.capture and name == "estimation.build_qwc_partition":
            hooks.append(lambda args, out: self.captured.append(out))
        if self.capture and name == SAMPLER_BUILD:
            hooks.append(lambda args, out: self.captured.append(args[0]))
        if not hooks:
            return None

        def after(args, out):
            for hook in hooks:
                hook(args, out)
        return after

    def _patch(self, owner, attr: str, new) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self) -> "Tracer":
        modules = _package_modules()
        for mod_name, attr in self.functions:
            name = f"{mod_name}.{attr}"
            home = sys.modules.get(f"fidest.{mod_name}")
            original = getattr(home, attr, None)
            if not callable(original):
                self.absent.append(name)
                continue
            wrapper = self._wrap(name, original, self._after(name))
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is original:
                        self._patch(mod, key, wrapper)
        samplers = sys.modules.get("fidest.samplers")
        for cls in sampler_classes(samplers):
            for attr, name in (("__init__", SAMPLER_BUILD), ("draw", SAMPLER_DRAW)):
                if attr in vars(cls):
                    self._patch(cls, attr,
                                self._wrap(name, vars(cls)[attr], self._after(name)))
        return self

    def uninstall(self) -> bool:
        """Restore every patched object; True when no wrapper is left on any
        fidest module or sampler class."""
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()
        wrappers = {id(w) for w in self._wrappers}
        owners = _package_modules() + sampler_classes(sys.modules.get("fidest.samplers"))
        return not any(id(val) in wrappers
                       for owner in owners for val in vars(owner).values())

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- results ------------------------------------------------------------

    def summary(self) -> dict:
        """Per span name: calls and total self time."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls = [0] * len(self.names)
        self_s = [0.0] * len(self.names)
        for i, (name_id, start, end, _) in enumerate(self.spans):
            calls[name_id] += 1
            self_s[name_id] += (end - start) - child[i]
        return {name: {"calls": calls[i], "self_s": self_s[i]}
                for i, name in enumerate(self.names)}

    def root_time(self) -> float:
        """Time covered by spans that have no traced parent."""
        return sum(end - start for _, start, end, parent in self.spans
                   if parent < 0)

    def inclusive_time(self, names) -> float:
        """Time inside spans of the given names, counting nested ones once."""
        ids = {self._name_ids[n] for n in names if n in self._name_ids}
        total = 0.0
        for name_id, start, end, parent in self.spans:
            if name_id not in ids:
                continue
            while parent >= 0 and self.spans[parent][0] not in ids:
                parent = self.spans[parent][3]
            if parent < 0:
                total += end - start
        return total

    def nesting_errors(self, tol: float = 1e-9) -> int:
        """Spans that end outside their parent or have negative self time."""
        child = [0.0] * len(self.spans)
        bad = 0
        for _, start, end, parent in self.spans:
            if parent >= 0:
                p = self.spans[parent]
                child[parent] += end - start
                bad += start < p[1] - tol or end > p[2] + tol
        for i, (_, start, end, _) in enumerate(self.spans):
            bad += (end - start) - child[i] < -tol
        return bad

    def write(self, path: str) -> None:
        with gzip.open(path, "wt") as fh:
            json.dump({"names": self.names, "spans": self.spans}, fh)


def sampler_classes(samplers_module) -> list:
    if samplers_module is None:
        return []
    return [obj for obj in vars(samplers_module).values()
            if isinstance(obj, type)
            and obj.__module__ == samplers_module.__name__
            and callable(getattr(obj, "draw", None))]
