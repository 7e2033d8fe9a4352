"""Toolkit for regular ternary m-gonal forms.

An m-gonal form is a sum a_1 P_m(x_1) + ... + a_k P_m(x_k) where
P_m(x) = ((m-2)x^2 - (m-4)x)/2 is the x-th generalized m-gonal number
(x ranges over all of Z).  The package provides:

* exact local (p-adic) representation tests for diagonal lattices and for
  the congruence-constrained "shifted" forms that m-gonal forms turn into
  (`localrep`),
* Watson-type descent steps that trade an m-gonal form for one with
  smaller coefficients while controlling its value set (`watson`),
* the density bookkeeping psi/eta for counting local exceptions
  (`density`), the family of prime-product inequalities that power the
  coefficient bounds (`prodineq`), and the end-to-end replay of the
  finiteness bounds for regular ternary m-gonal forms (`pipeline`),
* global representation scans and regularity checks (`regcheck`),
* a command line interface (`cli`).

Importing the package loads none of these modules.  Each name of
`__all__` is looked up in the module that defines it on first use
(PEP 562), so a process compiles only the layers it runs.
"""

import importlib

__version__ = "0.1.0"

# the module that defines each exported name
_EXPORTS = {
    "MGonalForm": "polygonal",
    "ShiftedForm": "polygonal",
    "polygonal_number": "polygonal",
    "constants": "polygonal",
    "represents_over_zp": "localrep",
    "locally_represented": "localrep",
    "psi": "density",
    "eta": "density",
    "regularity_scan": "regcheck",
}


def __getattr__(name):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)


__all__ = [
    "__version__",
    "MGonalForm",
    "ShiftedForm",
    "polygonal_number",
    "constants",
    "represents_over_zp",
    "locally_represented",
    "psi",
    "eta",
    "regularity_scan",
]
