"""Global tuning knobs for the reproduction.

These defaults are sized for the pure-Python engine running on a single
core.  The experiment harness reads :func:`full_scale` to decide whether
to run the paper's full-size English word lists (hours of CPU) or the
scaled defaults documented in DESIGN.md / EXPERIMENTS.md.
"""

from __future__ import annotations

import os
from dataclasses import dataclass


@dataclass
class Limits:
    """Resource guards for the width-reduction algorithms.

    Attributes:
        max_compat_pairs: Upper bound on the number of pairwise
            compatibility checks performed when building one
            compatibility graph (Algorithm 3.3, one height).  When the
            bound would be exceeded the graph is built for the
            ``max_columns_exact`` lowest-degree candidates only and the
            remaining columns are kept unmerged; this trades optimality
            for bounded runtime and is reported by the caller.
        max_columns_exact: Number of columns above which the guard kicks
            in (``max_columns_exact ** 2`` should stay close to
            ``max_compat_pairs``).
        sift_widthsum_node_limit: Node-count threshold below which
            sifting uses the exact sum-of-widths cost at every
            candidate position (the paper's cost function, kept at
            O(width of one section) per swap).  Larger BDDs fall back
            to the classical live-node-count proxy, which is O(1) per
            swap.
        sift_max_growth: Abort growing a sifting direction when the BDD
            exceeds this multiple of its size at the start of the move.
    """

    max_compat_pairs: int = 6_000_000
    max_columns_exact: int = 2400
    sift_widthsum_node_limit: int = 6_000
    sift_max_growth: float = 1.6


LIMITS = Limits()

#: Spellings read as "off" by :func:`env_flag`, case-insensitively.
_FALSY = ("0", "false", "no", "off")


def env_flag(name: str, default: bool = False) -> bool:
    """Boolean environment read, case- and whitespace-insensitive.

    An unset or empty variable yields ``default``; any of ``0``,
    ``false``, ``no``, ``off`` (in any letter case) reads as False and
    everything else as True.  Every boolean environment knob in the
    repo goes through this helper so ``REPRO_TT_FASTPATH=False`` and
    ``REPRO_SELFCHECK=OFF`` mean what they say instead of silently
    enabling the feature.
    """
    raw = os.environ.get(name, "")
    raw = raw.strip().lower()
    if not raw:
        return default
    return raw not in _FALSY


def env_int(name: str, default: int, *, lo: int | None = None, hi: int | None = None) -> int:
    """Integer environment read with clamping; malformed values yield
    ``default`` rather than crashing a long-lived process on a typo."""
    raw = os.environ.get(name, "").strip()
    try:
        value = int(raw) if raw else default
    except ValueError:
        value = default
    if lo is not None:
        value = max(lo, value)
    if hi is not None:
        value = min(hi, value)
    return value


def full_scale() -> bool:
    """Return True when the paper's full-size word lists are requested.

    Controlled by the ``REPRO_FULL_SCALE`` environment variable.
    """
    return env_flag("REPRO_FULL_SCALE", False)


def word_list_sizes() -> tuple[int, ...]:
    """Word-list sizes used by the Table 4 / Table 6 experiments."""
    if full_scale():
        return (1730, 3366, 4705)
    return (400, 800, 1200)
