"""Label hierarchies: partially ordered label sets under a single virtual root.

A hierarchy is a DAG of labels in which every node is reachable from the
root by following child -> parent edges upward.  Multiple parents are
allowed (some techniques sit under more than one rhetorical appeal).  The
root is a bookkeeping device: it is never a member of a label set and it
never earns credit during scoring.

Non-root labels have a fixed order, ``LabelHierarchy.labels`` (sorted by
name).  Over that order the hierarchy keeps an ``L x L`` closure matrix,
built on first use, so closing many label sets is one boolean matrix
product.  numpy is imported inside the functions that build arrays, so
parsing a hierarchy and extending label sets do not load it.
"""

from __future__ import annotations

import hashlib
from collections.abc import Iterable
from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "HierarchyError",
    "UnknownLabelError",
    "LabelHierarchy",
    "parse_hierarchy",
]


class HierarchyError(ValueError):
    """Structurally invalid hierarchy or malformed hierarchy file."""


class UnknownLabelError(HierarchyError):
    """A label that is not a node of the active hierarchy."""


@dataclass(frozen=True)
class LabelHierarchy:
    """Immutable label DAG with precomputed strict-ancestor sets.

    ``labels`` is the sorted tuple of non-root labels.  ``closure[j, k]`` is
    True iff ``labels[k]`` is ``labels[j]`` or one of its ancestors, so row
    ``j`` is the closed set of ``labels[j]``; it is built on first use.

    Build instances through :func:`parse_hierarchy` or
    :meth:`LabelHierarchy.from_edges`; both validate the structure.
    """

    root: str
    nodes: frozenset[str]
    edges: frozenset[tuple[str, str]]  # (child, parent)
    _ancestors: dict[str, frozenset[str]] = field(compare=False, repr=False)
    labels: tuple[str, ...] = field(compare=False, repr=False)
    _index: dict[str, int] = field(compare=False, repr=False)

    @classmethod
    def from_edges(cls, root: str, edges: Iterable[tuple[str, str]]) -> "LabelHierarchy":
        """Validate and index a hierarchy given as (child, parent) pairs.

        Raises HierarchyError for duplicate edges, parents that are never
        introduced as nodes, a root used as a child, or any cycle.
        """
        if not root:
            raise HierarchyError("root name must be nonempty")
        edge_list: list[tuple[str, str]] = []
        seen: set[tuple[str, str]] = set()
        for child, parent in edges:
            if not child or not parent:
                raise HierarchyError("edge endpoints must be nonempty names")
            if child == root:
                raise HierarchyError(f"root {root!r} cannot appear as a child")
            if (child, parent) in seen:
                raise HierarchyError(f"duplicate edge {child!r} -> {parent!r}")
            seen.add((child, parent))
            edge_list.append((child, parent))

        nodes = {root} | {c for c, _ in edge_list}
        for child, parent in edge_list:
            if parent not in nodes:
                raise HierarchyError(
                    f"unknown parent reference {parent!r} (never introduced as a node)"
                )

        parents: dict[str, set[str]] = {n: set() for n in nodes}
        children: dict[str, set[str]] = {n: set() for n in nodes}
        for child, parent in edge_list:
            parents[child].add(parent)
            children[parent].add(child)

        # Kahn order, parents before children.  Every non-root node has at
        # least one parent, so any node left unprocessed sits on a cycle.
        remaining = {n: len(parents[n]) for n in nodes}
        order = [root]
        ancestors: dict[str, frozenset[str]] = {root: frozenset()}
        head = 0
        while head < len(order):
            node = order[head]
            head += 1
            for child in children[node]:
                remaining[child] -= 1
                if remaining[child] == 0:
                    anc: set[str] = set()
                    for p in parents[child]:
                        anc.add(p)
                        anc |= ancestors[p]
                    anc.discard(root)
                    ancestors[child] = frozenset(anc)
                    order.append(child)
        if len(order) != len(nodes):
            stuck = sorted(n for n in nodes if n not in ancestors)
            raise HierarchyError(f"cycle detected involving {stuck[0]!r}")

        labels = tuple(sorted(nodes - {root}))
        return cls(
            root=root,
            nodes=frozenset(nodes),
            edges=frozenset(edge_list),
            _ancestors=ancestors,
            labels=labels,
            _index={label: j for j, label in enumerate(labels)},
        )

    @cached_property
    def closure(self) -> np.ndarray:
        """The read-only ``(L, L)`` boolean closure matrix over ``labels``."""
        import numpy as np

        closure = np.eye(len(self.labels), dtype=bool)
        for j, label in enumerate(self.labels):
            closure[j, [self._index[a] for a in self._ancestors[label]]] = True
        closure.setflags(write=False)
        return closure

    # -- queries ---------------------------------------------------------

    def ancestors(self, label: str) -> frozenset[str]:
        """Strict ancestors of ``label``, root excluded."""
        try:
            return self._ancestors[label]
        except KeyError:
            raise UnknownLabelError(f"unknown label {label!r}") from None

    def extend(self, labels: Iterable[str]) -> frozenset[str]:
        """Close a label set upward: the labels plus all their ancestors.

        The result never contains the root.  Extension is extensive,
        monotone and idempotent.
        """
        out: set[str] = set()
        for label in labels:
            if label == self.root:
                raise HierarchyError("the virtual root cannot appear in a label set")
            out.add(label)
            out |= self.ancestors(label)
        return frozenset(out)

    def closed_rows(self, label_sets: Iterable[Iterable[str]]) -> np.ndarray:
        """Close each label set upward, as one boolean row over ``labels``.

        Row ``i`` is True exactly at the labels of ``extend(label_sets[i])``.
        Sets are read one at a time, in order, and the first bad label
        raises what :meth:`extend` raises: HierarchyError for the root,
        UnknownLabelError for a label outside the hierarchy.
        """
        import numpy as np

        rows: list[int] = []
        cols: list[int] = []
        n = 0
        for labels in label_sets:
            for label in labels:
                j = self._index.get(label)
                if j is None:
                    if label == self.root:
                        raise HierarchyError("the virtual root cannot appear in a label set")
                    raise UnknownLabelError(f"unknown label {label!r}")
                rows.append(n)
                cols.append(j)
            n += 1
        hits = np.zeros((n, len(self.labels)), dtype=bool)
        hits[rows, cols] = True
        return hits @ self.closure

    def is_consistent(self, labels: Iterable[str]) -> bool:
        """True iff the set already contains every ancestor of its members."""
        labels = frozenset(labels)
        return self.extend(labels) == labels

    def non_root_labels(self) -> frozenset[str]:
        return self.nodes - {self.root}

    def leaves(self) -> frozenset[str]:
        """Nodes that are never a parent (the assignable techniques)."""
        parent_side = {p for _, p in self.edges}
        return self.nodes - parent_side

    def fingerprint(self) -> str:
        """Hex digest of the canonical structure (root plus sorted edges).

        Insensitive to comments, blank lines and edge order in the source
        file; two files describing the same DAG share a fingerprint.
        """
        canon = self.root + "\n" + "\n".join(
            f"{c}\t{p}" for c, p in sorted(self.edges)
        )
        return hashlib.sha256(canon.encode("utf-8")).hexdigest()


def parse_hierarchy(text: str) -> LabelHierarchy:
    """Parse the hierarchy file format.

    Line 1 names the root.  Every further non-comment line is
    ``child<TAB>parent``.  Lines starting with ``#`` and blank lines are
    ignored.  Only a newline ends a line, not a form feed or U+2028.
    Raises HierarchyError on empty input, a second bare root line,
    malformed edges, duplicate edges, unknown parent references and
    cycles.
    """
    root: str | None = None
    edges: list[tuple[str, str]] = []
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if root is None:
            if "\t" in line:
                raise HierarchyError(f"line {lineno}: root line must be a bare name")
            root = line
            continue
        if "\t" not in line:
            raise HierarchyError(
                f"line {lineno}: expected child<TAB>parent, got a bare name "
                "(multiple roots declared?)"
            )
        parts = [p.strip() for p in line.split("\t") if p.strip()]
        if len(parts) != 2:
            raise HierarchyError(f"line {lineno}: expected exactly two fields")
        edges.append((parts[0], parts[1]))
    if root is None:
        raise HierarchyError("empty hierarchy file")
    return LabelHierarchy.from_edges(root, edges)
