"""Spans around radialeit's public functions, recorded from outside the library.

For the duration of a traced run, every module attribute that refers to one
of the functions in ``SPANS`` or ``COUNTS`` is rebound to a timing wrapper.
The library looks these names up at call time (``operator.dual_route``,
``profiles.project``, the ``gauss_legendre`` each module imported, ...), so
its internal calls go through the wrappers too.  Spans are kept in memory
with parent links and aggregated when the run ends; nothing under ``src/``
changes, and every binding is restored on exit.
"""

from __future__ import annotations

import time
from collections import defaultdict

# layer -> functions recorded as spans (self time = span minus child spans)
SPANS = {
    "cli": ("main",),
    "numerics": ("gauss_legendre",),
    "jacobi": ("build_family", "evaluate_table", "monomial_coefficients"),
    "kernels": ("jacobi_table", "legendre_table"),
    "profiles": ("project", "moment_integral", "norm_ball_profile"),
    "operator": (
        "dual_route", "spectrum_series", "spectrum_moment", "verify_decay_bound",
        "forward_matrix", "invert", "truncation_error",
    ),
    "oracle": ("cross_validate", "brute_force_entry", "gradient_identity"),
}
# layer -> functions only counted (too many calls for a span each)
COUNTS = {"numerics": ("log_factorial_ratio",)}
LAYERS = tuple(SPANS)


def _key(name: str, args: tuple):
    """The argument a call's ``repeat_frac`` is judged on, if any."""
    if name == "numerics.gauss_legendre":
        return args[0]
    if name == "jacobi.build_family":
        return args[:2]
    return None


class Tracer:
    """Context manager that installs the wrappers into ``modules`` (layer name
    -> module object) and removes them again.  Layers or functions that do
    not exist are skipped, and their metrics stay 0."""

    def __init__(self, modules: dict) -> None:
        self.modules = modules
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.counts: dict[str, int] = defaultdict(int)  # "<name>.calls", ".points", ".cells", ...
        self.errors: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._seen_keys: dict[str, set] = defaultdict(set)
        self._counted_exc: list[BaseException] = []
        self._restore: list[tuple[object, str, object]] = []

    def _span_wrapper(self, name: str, layer: str, fn):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([name, clock(), None, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self._count_error(layer, exc)
                raise
            finally:
                spans[idx][2] = clock()
                stack.pop()
            self._count(name, args, result)
            return result

        return wrapper

    def _count_wrapper(self, name: str, layer: str, fn):
        counts = self.counts
        key = name + ".calls"

        def wrapper(*args, **kwargs):
            counts[key] += 1
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                self._count_error(layer, exc)
                raise

        return wrapper

    def _count_error(self, layer: str, exc: BaseException) -> None:
        # an exception is charged once, to the innermost layer it left
        if not any(e is exc for e in self._counted_exc):
            self._counted_exc.append(exc)
            self.errors[layer] += 1

    def _count(self, name: str, args: tuple, result) -> None:
        self.counts[name + ".calls"] += 1
        key = _key(name, args)
        if key is not None:
            seen = self._seen_keys[name]
            if key in seen:
                self.counts[name + ".repeats"] += 1
            seen.add(key)
        if name == "numerics.gauss_legendre":
            self.counts[name + ".points"] += int(args[0])
        elif name == "jacobi.evaluate_table":
            self.counts[name + ".cells"] += int(result.size)

    def __enter__(self) -> "Tracer":
        wrappers = {}
        for table, make in ((SPANS, self._span_wrapper), (COUNTS, self._count_wrapper)):
            for layer, names in table.items():
                for fname in names:
                    fn = getattr(self.modules.get(layer), fname, None)
                    if fn is not None:
                        wrappers[id(fn)] = (fn, make(f"{layer}.{fname}", layer, fn))
        for mod in self.modules.values():
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._restore.append((mod, attr, value))
                    setattr(mod, attr, hit[1])
        return self

    def __exit__(self, *exc) -> None:
        for mod, attr, value in reversed(self._restore):
            setattr(mod, attr, value)
        self._restore.clear()

    def self_times(self) -> dict[str, float]:
        """Total self time in seconds per span name."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for (name, start, end, _), c in zip(self.spans, child):
            out[name] += end - start - c
        return out
