"""Executable kernel for countable set pieces and sigma-locales.

Layers, bottom up: budget-indexed semi-decisions; enumerated countable
sets with detachable subsets; finite distributive lattices standing in
for sigma-frames, plus the free sigma-frame on a finite set; formal
cover presentations with saturation and bounded derivation search;
overtness, congruences, and the Booleanization quotient; stock
generators; and a small CLI over declaration files.
"""

from .pairing import *
from .semidecision import *
from .enumeration import *
from .reports import *
from .sigma_frame import *
from .formal_cover import *
from .booleanization import *
from .generators import *

# Each module lists the names it defines in its own __all__; each star
# import also binds the submodule's name, which the union reads.
__all__ = sorted(pairing.__all__ + semidecision.__all__
                 + enumeration.__all__ + reports.__all__
                 + sigma_frame.__all__ + formal_cover.__all__
                 + booleanization.__all__ + generators.__all__)
