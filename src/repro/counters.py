"""One reader for every statistics panel: a statistics dataclass declares
each counter once, as a field, and :func:`counters` flattens it."""

from __future__ import annotations

from dataclasses import fields, is_dataclass
from typing import Dict

__all__ = ["counters"]


def counters(stats: object, prefix: str = "") -> Dict[str, float]:
    """The panel of statistics dataclass ``stats``, each key ``prefix + name``.

    Every int or float field is read as a float under its field name, or
    under the name its ``"panel"`` metadata gives (``"panel": False`` leaves
    it out).  A field holding another statistics dataclass is flattened under
    ``name_``; lists are skipped.  Each name in the class's ``panel_derived``
    tuple is then read as an attribute: a number under ``name``, a dict as one
    ``name_key`` entry per key.
    """
    panel: Dict[str, float] = {}
    for spec in fields(stats):
        name = spec.metadata.get("panel", spec.name)
        if name is False:
            continue
        value = getattr(stats, spec.name)
        if is_dataclass(value):
            panel.update(counters(value, f"{prefix}{name}_"))
        elif isinstance(value, (int, float)):
            panel[prefix + name] = float(value)
    for name in getattr(stats, "panel_derived", ()):
        value = getattr(stats, name)
        if isinstance(value, dict):
            for key, item in value.items():
                panel[f"{prefix}{name}_{key}"] = float(item)
        else:
            panel[prefix + name] = float(value)
    return panel
