"""In-process tracing of cycloderiv's public functions, from outside the package.

``Tracer.installed()`` replaces each traced function under every name the
package binds it to (``harness.adjugate``, ``innerness.solve_unique``,
``cli.classify``, ...) and each traced method on its class, then restores the
originals. A binding left pointing at an original raises ``MissedBinding``.

Spans are aggregated as they close, per name: calls, time of the outermost
calls (recursion is not counted twice) and self time (duration minus the time
covered by traced child spans). Each span also counts the ``det`` calls made
inside it, which gives the determinants per ``solve_unique`` or ``adjugate``
call and per swept pair.
"""

from __future__ import annotations

import functools
import inspect
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter

from checks import totient

# (module, attribute or Class.method, span name)
FUNCTIONS = (
    ("cli", "main", "cli.main"),
    ("harness", "sweep", "harness.sweep"),
    ("harness", "reproduce_tables", "harness.reproduce_tables"),
    ("harness", "verify_theorem", "harness.verify_theorem"),
    ("harness", "counterexample_suite", "harness.counterexample_suite"),
    ("innerness", "classify", "innerness.classify"),
    ("innerness", "MultiplierMatrix.__init__", "innerness.MultiplierMatrix"),
    ("intlinalg", "det", "intlinalg.det"),
    ("intlinalg", "solve_unique", "intlinalg.solve_unique"),
    ("intlinalg", "adjugate", "intlinalg.adjugate"),
    ("intlinalg", "mat_vec", "intlinalg.mat_vec"),
    ("endomorphisms", "leibniz_check", "endomorphisms.leibniz_check"),
    ("endomorphisms", "sum_powers", "endomorphisms.sum_powers"),
    ("quotient", "CyclotomicRing.__init__", "quotient.CyclotomicRing"),
    # __rmul__ is an alias bound when the class was created, so it is wrapped
    # on its own; both are split into ring and scalar products per call.
    ("quotient", "RingElement.__mul__", "quotient.mul"),
    ("quotient", "RingElement.__rmul__", "quotient.mul"),
    ("polynomials", "cyclotomic_poly", "polynomials.cyclotomic_poly"),
    ("reporting", "render", "reporting.render"),
    ("reporting", "write_text", "reporting.write_text"),
)


class MissedBinding(RuntimeError):
    pass


@dataclass
class Stat:
    calls: int = 0
    depth: int = 0
    seconds: float = 0.0  # outermost calls only
    self_seconds: float = 0.0
    det_inside: int = 0  # det calls made during outermost calls
    det_expected: int = 0  # what the current kernels' identities predict


def _max_bits(value) -> int:
    """Largest bit length among the integers in an intlinalg argument or result."""
    if isinstance(value, int):
        return abs(value).bit_length()
    values = getattr(value, "entries", None)
    if values is None and hasattr(value, "numerators"):
        values = (*value.numerators, value.denominator)
    if values is None:
        values = value
    return max((abs(x) for x in values), default=0).bit_length()


class Tracer:
    def __init__(self) -> None:
        self.stats: dict[str, Stat] = {}
        self.bytes_written = 0
        self.max_int_bits = 0
        self.det_max_dim = 0
        self._stack: list[list[float]] = []  # [start, child seconds] per open span
        self._linalg_depth = 0

    def stat(self, name: str) -> Stat:
        return self.stats.setdefault(name, Stat())

    # -- hooks, run outside the span they belong to ----------------------------

    def _before(self, name: str, args: tuple) -> None:
        if name.startswith("intlinalg."):
            if self._linalg_depth == 0:
                # Nested intlinalg calls only see minors or column swaps of
                # these inputs, so scanning the outermost call's inputs suffices.
                self.max_int_bits = max([self.max_int_bits, *(_max_bits(a) for a in args)])
            self._linalg_depth += 1

    def _after(self, name: str, stat: Stat, args: tuple, result) -> None:
        if name.startswith("intlinalg."):
            self.max_int_bits = max(self.max_int_bits, _max_bits(result))
            d = args[0].rows
            if name == "intlinalg.det":
                self.det_max_dim = max(self.det_max_dim, d)
            elif name == "intlinalg.solve_unique":
                stat.det_expected += d + 1
            elif name == "intlinalg.adjugate":
                stat.det_expected += d * d if d >= 2 else 0
        elif name == "harness.sweep":
            stat.det_expected += (totient(result.n) + 2) * len(result.records)
        elif name == "reporting.write_text":
            self.bytes_written += len(args[0].encode("utf-8"))

    def _wrap(self, name: str, fn):
        stack = self._stack
        det = self.stat("intlinalg.det")
        split_mul = name == "quotient.mul"
        stat = None if split_mul else self.stat(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            hook_start = perf_counter()
            if split_mul:
                s = self.stat("quotient.mul_scalar" if isinstance(args[1], int)
                              else "quotient.mul_ring")
            else:
                s = stat
            self._before(name, args)
            det_before = det.calls
            s.depth += 1
            frame = [perf_counter(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - frame[0]
                s.calls += 1
                s.depth -= 1
                s.self_seconds += duration - frame[1]
                if s.depth == 0:
                    s.seconds += duration
                    s.det_inside += det.calls - det_before
                if name.startswith("intlinalg."):
                    self._linalg_depth -= 1
            self._after(name, s, args, result)
            if stack:
                # The parent's self time excludes this span and the hooks around it.
                stack[-1][1] += perf_counter() - hook_start
            return result

        return traced

    # -- installation ---------------------------------------------------------

    @contextmanager
    def installed(self):
        """Trace every binding of the functions in FUNCTIONS while the block runs."""
        modules = [m for key, m in sys.modules.items()
                   if key == "cycloderiv" or key.startswith("cycloderiv.")]
        patches = []  # (owner, attribute, original)
        try:
            for module_name, attr, name in FUNCTIONS:
                module = sys.modules[f"cycloderiv.{module_name}"]
                if "." in attr:
                    cls_name, method = attr.split(".")
                    owner = getattr(module, cls_name)
                    original = vars(owner)[method]
                    patches.append((owner, method, original))
                    setattr(owner, method, self._wrap(name, original))
                    continue
                original = getattr(module, attr)
                traced = self._wrap(name, original)
                for m in modules:
                    for key, value in list(vars(m).items()):
                        if value is original:
                            patches.append((m, key, original))
                            setattr(m, key, traced)
            self._check_bindings(modules, {id(p[2]) for p in patches})
            yield self
        finally:
            for owner, attr, original in reversed(patches):
                setattr(owner, attr, original)

    @staticmethod
    def _check_bindings(modules, originals: set[int]) -> None:
        for m in modules:
            namespaces = [(m.__name__, vars(m))]
            namespaces += [(f"{m.__name__}.{k}", vars(c)) for k, c in vars(m).items()
                           if inspect.isclass(c)]
            for where, namespace in namespaces:
                for key, value in namespace.items():
                    if id(value) in originals:
                        raise MissedBinding(f"{where}.{key} still points at the untraced function")

    # -- results --------------------------------------------------------------

    def counts(self) -> dict:
        """Every count the trace records; two runs of the same calls must agree on all."""
        out = {f"{k}.calls": s.calls for k, s in self.stats.items()}
        out.update({f"{k}.det_inside": s.det_inside for k, s in self.stats.items() if s.det_inside})
        out.update(bytes=self.bytes_written, max_int_bits=self.max_int_bits,
                   det_max_dim=self.det_max_dim)
        return out

    def identities(self) -> dict:
        """det calls the current kernels should make inside each span, against those seen."""
        return {
            name: {"expected": self.stats[name].det_expected,
                   "observed": self.stats[name].det_inside}
            for name in ("intlinalg.solve_unique", "intlinalg.adjugate", "harness.sweep")
            if name in self.stats and self.stats[name].calls
        }
