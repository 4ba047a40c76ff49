"""Consistent-hash routing for the diagnosis cluster.

The gateway routes every request by its job's ``content_hash`` so that
one circuit/measurement content always lands on the same replica —
that replica's content-addressed
:class:`~repro.service.cache.ResultCache` and learned
:class:`~repro.core.learning.ExperienceBase` stay hot for *its shard*
of the traffic (the locality argument behind the fleet cache, scaled
out).  :class:`HashRing` is the routing function:

* each replica id owns ``vnodes`` points on a 64-bit ring (sha256 of
  ``"<id>#<v>"``), so load spreads evenly even with few replicas;
* a key routes to the first replica point clockwise from the key's own
  ring position; :meth:`preference` keeps walking and returns *all*
  replicas in ring order — the failover sequence;
* membership changes are **minimal**: removing a replica only moves
  the keys that replica owned (they shift to their next-clockwise
  neighbour); every other key keeps its route.  Replica *ids* are
  stable across restarts, so a replica that dies and comes back on a
  new port reclaims exactly its old shard.

Pure data structure — no I/O, no clocks — so routing decisions are
identical in every process that evaluates them.
"""

from __future__ import annotations

import bisect
import hashlib
from typing import Dict, Iterable, List, Optional, Tuple

__all__ = ["HashRing"]

_HEX_DIGITS = set("0123456789abcdef")


def _position(label: str) -> int:
    """A 64-bit ring position: the first 8 bytes of sha256(label)."""
    digest = hashlib.sha256(label.encode()).digest()
    return int.from_bytes(digest[:8], "big")


def _key_position(key: str) -> int:
    """Ring position of a routing key.

    Job content hashes are already sha256 hex — their leading 64 bits
    are uniform, so they map straight onto the ring; anything else is
    hashed first.
    """
    head = key[:16].lower()
    if len(head) == 16 and set(head) <= _HEX_DIGITS:
        return int(head, 16)
    return _position(key)


class HashRing:
    """A consistent-hash ring over replica ids, with virtual nodes."""

    def __init__(self, nodes: Iterable[str] = (), vnodes: int = 64) -> None:
        if vnodes < 1:
            raise ValueError("need at least one virtual node per replica")
        self.vnodes = vnodes
        self._nodes: Dict[str, Tuple[int, ...]] = {}
        self._points: List[int] = []  # sorted ring positions
        self._owners: List[str] = []  # owner of each position, same order
        for node in nodes:
            self.add(node)

    # ------------------------------------------------------------------
    # Membership
    # ------------------------------------------------------------------
    @property
    def nodes(self) -> List[str]:
        return sorted(self._nodes)

    def __len__(self) -> int:
        return len(self._nodes)

    def __contains__(self, node: str) -> bool:
        return node in self._nodes

    def add(self, node: str) -> None:
        """Insert ``node`` (idempotent); only its own keys re-route."""
        if node in self._nodes:
            return
        positions = []
        for v in range(self.vnodes):
            point = _position(f"{node}#{v}")
            index = bisect.bisect(self._points, point)
            self._points.insert(index, point)
            self._owners.insert(index, node)
            positions.append(point)
        self._nodes[node] = tuple(positions)

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    def route(self, key: str) -> Optional[str]:
        """The primary replica for ``key`` (None on an empty ring)."""
        preferred = self.preference(key, count=1)
        return preferred[0] if preferred else None

    def preference(self, key: str, count: Optional[int] = None) -> List[str]:
        """Replicas for ``key`` in failover order, primary first.

        Walks the ring clockwise from the key's position, collecting
        each distinct replica the first time one of its virtual nodes
        appears; ``count`` truncates the list (default: every member).
        """
        if not self._points:
            return []
        limit = len(self._nodes) if count is None else min(count, len(self._nodes))
        start = bisect.bisect(self._points, _key_position(key)) % len(self._points)
        found: List[str] = []
        seen = set()
        for step in range(len(self._points)):
            owner = self._owners[(start + step) % len(self._points)]
            if owner not in seen:
                seen.add(owner)
                found.append(owner)
                if len(found) >= limit:
                    break
        return found

    def snapshot(self) -> Dict:
        """Ring shape for ``/metrics``: members and vnode count."""
        return {"nodes": self.nodes, "vnodes": self.vnodes, "points": len(self._points)}
