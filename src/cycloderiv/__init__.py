"""Exact-arithmetic toolkit for twisted derivations of cyclotomic integer rings.

Everything runs over arbitrary-precision integers: polynomial and power-basis
arithmetic, endomorphism pairs and the derivations they induce, each pair's
determinant as the resultant ``Res(Phi_n, delta)`` and its closed-form
inverse, inner/outer classification with exact witnesses, and batch sweep
drivers with deterministic serialized reports. ``intlinalg`` holds the
integer matrices the CLI prints and reference elimination routines that the
package itself does not call.

The public names resolve on first use (PEP 562): ``_HOMES`` lists each one
under the module that defines it, and ``__getattr__`` imports that module
when the name is first read. The value is looked up in its home module on
every access, never copied into this namespace, so a rebinding there (a test
double, a tracer) is what ``cycloderiv.<name>`` returns.
"""

from importlib import import_module

__version__ = "0.1.0"

_HOMES = {
    "arith": ("is_prime", "totient", "units"),
    "polynomials": ("Polynomial", "cyclotomic_poly"),
    "quotient": ("QuotientRing", "CyclotomicRing", "RingElement"),
    "endomorphisms": (
        "Endomorphism",
        "TwistedPair",
        "TwistedDerivation",
        "LeibnizReport",
        "sum_powers",
        "leibniz_check",
        "telescope_check",
        "verify_theorem",
        "TheoremVerdict",
    ),
    "intlinalg": (
        "IntMatrix",
        "IntVector",
        "SingularMatrixError",
        "det",
        "adjugate",
        "mat_vec",
        "solve_unique",
    ),
    "innerness": ("MultiplierMatrix", "RatVector", "Classification", "classify"),
    "predictions": ("RingForm", "Valuation", "valuate"),
    "harness": (
        "sweep",
        "SweepReport",
        "PairRecord",
        "counterexample_suite",
        "CounterexampleCase",
        "reproduce_tables",
        "TableArtifact",
        "TableBlock",
    ),
    "reporting": ("render",),
}
_HOME = {name: module for module, names in _HOMES.items() for name in names}

__all__ = ["__version__", *_HOME]


def __getattr__(name: str):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f".{module}", __name__), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *_HOME})
