"""Persisted compiled routing artifacts (instant service restarts).

The routing engine pays a one-time preprocessing cost before it can answer
queries: the CSR compile, plus the ALT landmark trees ("csr+alt") or the
contraction hierarchy ("ch").
All of it is a pure function of the road network, so a service restart (or a
repeated benchmark run) that rebuilds the same network should never pay for
preprocessing twice.  This module provides the two pieces the engines need:

* :func:`network_fingerprint` -- a stable content hash of a
  :class:`~repro.roadnet.graph.RoadNetwork`.  Only what distances depend on
  is hashed (the vertex set and the weighted undirected edge set, both in
  canonical order); planar coordinates feed the grid index, not the routing
  engines, and are deliberately excluded so re-embedding a network does not
  invalidate its routing artifacts.
* :class:`ArtifactCache` -- a directory of ``.npz`` files keyed by
  ``{kind}-{fingerprint}[-params].npz``.  ``kind`` names the artifact
  ("csr", "alt", "ch"), ``params`` captures build knobs that change the
  artifact's content (e.g. the ALT landmark count), and the fingerprint
  ties the file to the exact network it was compiled from, so a mutated
  network can never be served stale arrays.  The "ch" payload is the upward
  CSR the point queries climb; the engine ignores any further arrays an
  older build stored beside it.

Writes are atomic (temp file + ``os.replace``) so a crashed process never
leaves a half-written artifact behind, and loads treat any unreadable or
corrupt file as a miss -- the engine silently rebuilds and overwrites.
NumPy is required for the ``.npz`` container; without it the cache reports
itself unavailable and every engine simply builds from scratch, exactly as
if no cache directory had been configured.
"""

from __future__ import annotations

import hashlib
import os
import struct
import time
import zipfile
from pathlib import Path
from typing import Dict, Mapping, Optional

from repro.roadnet.graph import RoadNetwork

try:  # NumPy provides the .npz container; the cache is inert without it.
    import numpy as _np
except ImportError:  # pragma: no cover - exercised via the fallback tests
    _np = None

__all__ = ["network_fingerprint", "ArtifactCache"]

#: Bytes of the hex digest used in file names (collision-safe at cache scale).
FINGERPRINT_CHARS = 20

#: How many times :meth:`ArtifactCache.save` retries a failed atomic rename.
REPLACE_ATTEMPTS = 4

#: First retry backoff in seconds (doubles per attempt; ~0.35 s worst case).
REPLACE_BACKOFF_SECONDS = 0.05


def network_fingerprint(network: RoadNetwork) -> str:
    """Return a stable content hash of the network's routing-relevant state.

    The hash covers the vertex list and the weighted adjacency **in
    iteration order** -- exactly the order the CSR compiler walks -- with
    weights hashed bit-for-bit via their IEEE-754 encoding.  Hashing the
    iteration order (rather than a canonicalised edge set) is deliberate:
    the engines guarantee bit-identical answers across restarts, and a
    Dijkstra's tie-breaking between equal-length paths depends on the array
    order the graph was compiled in.  A fingerprint hit therefore certifies
    that the cached arrays are the ones a fresh compile would produce, not
    merely an isomorphic network.  Deterministic generators and ingest
    pipelines rebuild in the same order, so restarts still hit the cache.
    Planar coordinates feed the grid index, not the routing engines, and do
    not participate.
    """
    hasher = hashlib.sha256()
    pack_vertex = struct.Struct("<q").pack
    pack_arc = struct.Struct("<qd").pack
    hasher.update(struct.pack("<qq", network.vertex_count, network.edge_count))
    for vertex in network.vertices():
        hasher.update(pack_vertex(vertex))
        for neighbour, weight in network.neighbours_view(vertex).items():
            hasher.update(pack_arc(neighbour, weight))
    return hasher.hexdigest()


class ArtifactCache:
    """A directory of ``.npz`` compiled-routing artifacts keyed by content.

    The cache is a plain mapping from ``(kind, fingerprint, params)`` to a
    dict of named arrays; what those arrays mean is the owning engine's
    business (:mod:`repro.roadnet.routing` holds the encode/decode logic for
    each artifact kind).  Misses -- absent file, corrupt file, NumPy not
    installed -- all answer ``None``, so callers follow one pattern::

        arrays = cache.load("ch", fingerprint)
        if arrays is None:
            arrays = build()          # the expensive part
            cache.save("ch", fingerprint, arrays)
    """

    def __init__(self, directory: "os.PathLike[str] | str") -> None:
        self.directory = Path(directory)

    @property
    def available(self) -> bool:
        """``True`` when artifacts can actually be (de)serialised."""
        return _np is not None

    @staticmethod
    def fingerprint(network: RoadNetwork) -> str:
        """Convenience alias for :func:`network_fingerprint`."""
        return network_fingerprint(network)

    def path_for(self, kind: str, fingerprint: str, params: str = "") -> Path:
        """The cache file an artifact lives at (whether or not it exists)."""
        suffix = f"-{params}" if params else ""
        return self.directory / f"{kind}-{fingerprint[:FINGERPRINT_CHARS]}{suffix}.npz"

    def load(
        self, kind: str, fingerprint: str, params: str = ""
    ) -> Optional[Dict[str, "object"]]:
        """Return the artifact's arrays, or ``None`` on any kind of miss."""
        if _np is None:
            return None
        path = self.path_for(kind, fingerprint, params)
        try:
            with _np.load(path, allow_pickle=False) as payload:
                return {name: payload[name] for name in payload.files}
        except (OSError, ValueError, KeyError, EOFError, zipfile.BadZipFile):
            # Absent, truncated or corrupt: treat as a miss; the engine
            # rebuilds and save() atomically replaces the bad file.
            # (BadZipFile covers a file with a valid zip magic but a
            # truncated body -- np.load raises it directly, and it is not
            # an OSError/ValueError subclass.)
            return None

    def save(
        self, kind: str, fingerprint: str, arrays: Mapping[str, "object"], params: str = ""
    ) -> Optional[Path]:
        """Atomically persist an artifact; returns its path (None if disabled).

        The final rename is retried with exponential backoff
        (:data:`REPLACE_ATTEMPTS` attempts starting at
        :data:`REPLACE_BACKOFF_SECONDS`): two processes warming the same
        cache directory concurrently can collide on the target -- Windows
        refuses to replace a file another process holds open, and network
        filesystems surface transient ``EBUSY``/``EACCES`` -- and since
        both writers produce identical bytes for the same fingerprint, a
        short wait and a second attempt is the correct resolution, not a
        lost artifact.
        """
        if _np is None:
            return None
        target = self.path_for(kind, fingerprint, params)
        tmp = target.with_name(f".{target.name}.{os.getpid()}.tmp")
        try:
            # mkdir inside the guard: an unwritable or file-shadowed cache
            # directory must degrade to "nothing persisted", never crash an
            # engine that just paid for its build.
            self.directory.mkdir(parents=True, exist_ok=True)
            with open(tmp, "wb") as handle:
                _np.savez(handle, **{name: _np.asarray(value) for name, value in arrays.items()})
            backoff = REPLACE_BACKOFF_SECONDS
            for attempt in range(REPLACE_ATTEMPTS):
                try:
                    os.replace(tmp, target)
                    break
                except OSError:
                    if attempt == REPLACE_ATTEMPTS - 1:
                        raise
                    time.sleep(backoff)
                    backoff *= 2
        except OSError:
            try:
                tmp.unlink(missing_ok=True)
            except OSError:
                pass  # e.g. the "directory" is actually a file
            return None
        return target
