"""Size and time units used throughout the package.

The paper reports cache sizes in KB/MB, insertion rates in KB/s, and
overheads in instruction counts.  All internal bookkeeping is done in
plain integers (bytes, virtual instructions); these helpers exist so
that display code never hand-rolls the conversions.
"""

from __future__ import annotations

KB = 1024
MB = 1024 * KB


def kib(n_bytes: float) -> float:
    """Return *n_bytes* expressed in KiB."""
    return n_bytes / KB


def mib(n_bytes: float) -> float:
    """Return *n_bytes* expressed in MiB."""
    return n_bytes / MB


def format_bytes(n_bytes: float) -> str:
    """Render a byte count the way the paper does (KB below 1 MB,
    otherwise MB with one decimal).

    >>> format_bytes(512)
    '512 B'
    >>> format_bytes(736 * KB)
    '736.0 KB'
    >>> format_bytes(34.2 * MB)
    '34.2 MB'
    """
    if n_bytes < KB:
        return f"{n_bytes:.0f} B"
    if n_bytes < MB:
        return f"{n_bytes / KB:.1f} KB"
    return f"{n_bytes / MB:.1f} MB"


def format_rate(bytes_per_second: float) -> str:
    """Render an insertion rate in KB/s as in Figure 3."""
    return f"{bytes_per_second / KB:.1f} KB/s"


def format_percent(fraction: float) -> str:
    """Render a fraction as a percentage with one decimal."""
    return f"{fraction * 100:.1f}%"
