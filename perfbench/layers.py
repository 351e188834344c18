"""Per-layer host time and call counts from a cProfile run.

A layer is a ``repro`` package, with ``sim.kernel``/``sim.resources``
and ``ftl.gc`` split out by module.  Each profiled function's self time
and call count go to the most specific layer that owns its file.
Functions outside ``repro`` (builtins, the standard library, the
benchmark's probes) own no layer: their self time goes to the layers
that called them, split by the time spent under each caller, and their
calls are not counted.  The rest of ``repro`` (``sim.stats``,
``superblock``, ...) and time no layer called is ``other``.
"""

from __future__ import annotations

import os
import pstats
from typing import Dict, Optional, Tuple

LAYERS = ("sim.kernel", "sim.resources", "noc", "flash", "controller",
          "core", "ftl", "ftl.gc", "host", "reliability", "workloads",
          "other")

FuncKey = Tuple[str, int, str]


def layer_of(filename: str, package_dir: str) -> Optional[str]:
    """The layer owning *filename*, or ``None`` outside *package_dir*."""
    prefix = package_dir.rstrip(os.sep) + os.sep
    if not filename.startswith(prefix):
        return None
    parts = filename[len(prefix):].split(os.sep)
    if len(parts) < 2:
        return "other"
    module = f"{parts[0]}.{os.path.splitext(parts[-1])[0]}"
    if module in LAYERS:
        return module
    return parts[0] if parts[0] in LAYERS else "other"


def layer_profile(stats: pstats.Stats,
                  package_dir: str) -> Dict[str, float]:
    """``<layer>.self_s`` and ``<layer>.calls`` for every layer.

    *package_dir* is the directory of the ``repro`` package profiled.
    """
    table = stats.stats
    shares_cache: Dict[FuncKey, Dict[str, float]] = {}

    def shares(func: FuncKey, depth: int = 0) -> Dict[str, float]:
        """How *func*'s self time splits over layers (fractions)."""
        owner = layer_of(func[0], package_dir)
        if owner is not None:
            return {owner: 1.0}
        if func in shares_cache:
            return shares_cache[func]
        callers = table[func][4] if func in table else {}
        weights = {caller: edge[2] for caller, edge in callers.items()}
        total = sum(weights.values())
        if depth >= 8 or not callers or total <= 0:
            return {"other": 1.0}
        shares_cache[func] = {"other": 1.0}  # cycle guard
        split: Dict[str, float] = {}
        for caller, weight in weights.items():
            for layer, part in shares(caller, depth + 1).items():
                split[layer] = split.get(layer, 0.0) + part * weight / total
        shares_cache[func] = split
        return split

    self_s = dict.fromkeys(LAYERS, 0.0)
    calls = dict.fromkeys(LAYERS, 0)
    for func, (_cc, ncalls, tottime, _ct, _callers) in table.items():
        owner = layer_of(func[0], package_dir)
        if owner is not None:
            calls[owner] += ncalls
        for layer, part in shares(func).items():
            self_s[layer] += tottime * part
    metrics: Dict[str, float] = {}
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = self_s[layer]
        metrics[f"{layer}.calls"] = calls[layer]
    return metrics
