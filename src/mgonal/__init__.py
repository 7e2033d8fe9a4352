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
"""

__version__ = "0.1.0"

from .polygonal import MGonalForm, ShiftedForm, polygonal_number, constants
from .localrep import represents_over_zp, locally_represented
from .density import psi, eta


def __getattr__(name):
    # `regcheck` builds numpy arrays at import; it loads on first use of
    # `regularity_scan`, so importing the package does not load numpy
    if name == "regularity_scan":
        from .regcheck import regularity_scan
        return regularity_scan
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


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
