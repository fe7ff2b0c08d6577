"""Package-wide numeric defaults.

All tolerances and budgets are artifact choices; none are dictated by the
underlying mathematics.  Command-line flags override them per run.
"""

from __future__ import annotations

#: Working precision (bits) of the CLI's ``--precision``.
DEFAULT_PRECISION_BITS = 192

#: Hard ceiling (bits) for certified refinement loops (classification,
#: exact sign determination).  Generous: legitimate degree<=8 inputs decide
#: far below this; hitting it signals a reducible/degenerate input.
MAX_CERTIFY_BITS = 8192

#: Default state budget for breadth-first spectrum searches.  A search state
#: peaks at about 88.6 B (tracemalloc, x^8-x^6-1 to depth 16), so ~0.9 GB.
DEFAULT_STATE_BUDGET = 10_000_000

#: Default relative deduplication tolerance of a non-monic base's search.
DEFAULT_NUMERIC_TOL = 1e-9

#: Cap (bits) on the scale a^D of an exact window of a non-monic base.
MAX_SCALE_BITS = 1024
