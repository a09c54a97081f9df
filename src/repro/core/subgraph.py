"""Matching subgraphs (Definition 6), merged from cursor paths.

A K-matching subgraph contains at least one representative element per
keyword and is connected.  Here it arises by merging one cursor path per
keyword at a common connecting element; its cost is the sum of the merged
paths' costs — shared elements deliberately count once **per path**
(Section V), which both rewards tight connections and makes path costs
locally computable for top-k.

During exploration, elements are integer ids (interned per query for
speed); :meth:`MatchingSubgraph.translated` converts a finished subgraph
back to summary-graph element keys.
"""

from __future__ import annotations

from typing import Callable, FrozenSet, Hashable, List, Sequence, Tuple

from repro.summary.elements import is_edge_key


#: order_key is a pure function of the element set, so repeated queries
#: (which rediscover the same subgraphs) share one computed string.  The
#: cache is cleared wholesale at the cap rather than LRU-tracked — the
#: entries are tiny and recomputation is cheap.
_ORDER_KEYS: dict = {}
_ORDER_KEY_CAP = 4096


class MatchingSubgraph:
    """A candidate result of the exploration: merged paths + their cost."""

    __slots__ = (
        "connecting_element", "paths", "elements", "cost", "_order_key", "_partition",
    )

    def __init__(
        self,
        connecting_element: Hashable,
        paths: Sequence[Sequence[Hashable]],
        cost: float,
    ):
        if not paths:
            raise ValueError("a matching subgraph needs at least one path")
        elements: FrozenSet[Hashable] = frozenset(
            element for path in paths for element in path
        )
        object.__setattr__(self, "connecting_element", connecting_element)
        object.__setattr__(self, "paths", tuple(tuple(p) for p in paths))
        object.__setattr__(self, "elements", elements)
        object.__setattr__(self, "cost", float(cost))

    def __setattr__(self, name, value):  # pragma: no cover - guard
        raise AttributeError("MatchingSubgraph is immutable")

    @classmethod
    def from_parts(
        cls,
        connecting_element: Hashable,
        paths: Sequence[Sequence[Hashable]],
        elements: FrozenSet[Hashable],
        cost: float,
    ) -> "MatchingSubgraph":
        """Trusted constructor for callers that already hold the merged
        element set (the exploration loop's deduplication key is exactly
        it): skips recomputing the frozenset from the paths.  The caller
        guarantees ``elements`` equals the union of ``paths``."""
        self = cls.__new__(cls)
        object.__setattr__(self, "connecting_element", connecting_element)
        object.__setattr__(self, "paths", tuple(tuple(p) for p in paths))
        object.__setattr__(self, "elements", elements)
        object.__setattr__(self, "cost", float(cost))
        return self

    @property
    def canonical_key(self) -> FrozenSet[Hashable]:
        """Identity for deduplication: the element set.

        Different connecting elements or path decompositions can assemble
        the same subgraph; the candidate list keeps only the cheapest.
        """
        return self.elements

    @property
    def order_key(self) -> str:
        """Canonical string over the element set, for deterministic
        ranking among equal-cost candidates (independent of the order in
        which exploration discovered them)."""
        cached = getattr(self, "_order_key", None)
        if cached is None:
            cached = _ORDER_KEYS.get(self.elements)
            if cached is None:
                cached = repr(self._sorted_elements())
                if len(_ORDER_KEYS) >= _ORDER_KEY_CAP:
                    _ORDER_KEYS.clear()
                _ORDER_KEYS[self.elements] = cached
            object.__setattr__(self, "_order_key", cached)
        return cached

    def translated(self, decode: Callable[[Hashable], Hashable]) -> "MatchingSubgraph":
        """A copy with every element mapped through ``decode``."""
        return MatchingSubgraph(
            decode(self.connecting_element),
            [[decode(e) for e in path] for path in self.paths],
            self.cost,
        )

    def _sorted_elements(self) -> List[Hashable]:
        """The one canonical element order: ranking ties and the order in
        which query mapping walks the subgraph both derive from it."""
        return sorted(self.elements, key=repr)

    def partition(self) -> Tuple[Tuple[Hashable, ...], Tuple[Hashable, ...]]:
        """``(edge keys, vertex keys)``, each in canonical order; computed
        once per subgraph."""
        cached = getattr(self, "_partition", None)
        if cached is None:
            edges: List[Hashable] = []
            vertices: List[Hashable] = []
            for key in self._sorted_elements():
                (edges if is_edge_key(key) else vertices).append(key)
            cached = (tuple(edges), tuple(vertices))
            object.__setattr__(self, "_partition", cached)
        return cached

    def edge_keys(self) -> List[Hashable]:
        """Edge elements of the subgraph (4-tuple keys)."""
        return list(self.partition()[0])

    def vertex_keys(self) -> List[Hashable]:
        """Vertex elements of the subgraph."""
        return list(self.partition()[1])

    def __len__(self) -> int:
        return len(self.elements)

    def __repr__(self):
        return (
            f"MatchingSubgraph(connecting={self.connecting_element!r}, "
            f"elements={len(self.elements)}, cost={self.cost:.3f})"
        )
