"""The :class:`LabeledGraph` core data structure.

A labeled graph is a finite connected simple graph ``(V, E)`` together
with one or more *label layers*.  A layer is a named total function from
nodes to labels; the effective label of a node, in the sense of the
paper's single labeling function ``l(v) = <l_1(v), ..., l_k(v)>``, is the
tuple of its per-layer values in layer order (:meth:`LabeledGraph.label`).

Every node also carries a *port numbering*: its incident edges are
numbered ``0 .. deg(v) - 1``.  Port numbers are local — the two endpoints
of an edge number it independently — exactly as in the port-numbering
message-passing model.  By default ports are assigned in sorted neighbor
order, which keeps constructions deterministic; callers may supply an
explicit numbering.

Instances are immutable: all mutating-style operations (adding a layer,
relabeling) return a new graph.  Immutability is what makes it safe for
views, quotients and simulations to share graphs freely.
"""

from __future__ import annotations

from collections.abc import Callable, Hashable, Iterable, Iterator, Mapping, Sequence
from typing import Any

from repro.exceptions import GraphError, LabelingError

Node = Hashable
Label = Any
Edge = tuple[Node, Node]


class _SortKey:
    """Total order on arbitrary node ids: by type name, then the natural
    order within a type when values are comparable, else by repr.

    Node ids are usually homogeneous (all ints or all strings), in which
    case this reduces to the natural order; mixing or non-orderable types
    stays deterministic instead of raising ``TypeError``.
    """

    __slots__ = ("value", "type_name")

    def __init__(self, value: Any) -> None:
        self.value = value
        self.type_name = type(value).__name__

    def __lt__(self, other: "_SortKey") -> bool:
        if self.type_name != other.type_name:
            return self.type_name < other.type_name
        try:
            if self.value == other.value:
                return False
            result = self.value < other.value
            if isinstance(result, bool):
                return result
        except TypeError:
            pass
        return repr(self.value) < repr(other.value)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, _SortKey) and self.value == other.value


def _sort_key(value: Any) -> _SortKey:
    return _SortKey(value)


class LabeledGraph:
    """A finite connected simple graph with label layers and port numbers.

    Parameters
    ----------
    edges:
        Iterable of undirected edges ``(u, v)``.  Loops and duplicate
        edges are rejected (the model only considers simple graphs).
    nodes:
        Optional explicit node set; must be a superset of the endpoints.
        A single isolated node is permitted only for the 1-node graph
        (any larger graph must be connected, hence has no isolated node).
    layers:
        Mapping from layer name to a node->label mapping.  Every layer
        must label every node.
    ports:
        Optional explicit port numbering: ``ports[v]`` is a sequence of
        ``deg(v)`` distinct neighbors, listed in port order.  When
        omitted, neighbors are numbered in sorted order.
    check_connected:
        Validate connectivity (default ``True``).  Factor/quotient code
        always produces connected graphs, but tests may want fragments.
    """

    __slots__ = (
        "_nodes",
        "_adjacency",
        "_edges",
        "_layers",
        "_ports",
        "_port_of",
        "_hash",
        "_csr",
    )

    def __init__(
        self,
        edges: Iterable[Edge],
        nodes: Iterable[Node] | None = None,
        layers: Mapping[str, Mapping[Node, Label]] | None = None,
        ports: Mapping[Node, Sequence[Node]] | None = None,
        check_connected: bool = True,
    ) -> None:
        adjacency: dict[Node, list] = {}
        edge_set: set = set()
        for u, v in edges:
            if u == v:
                raise GraphError(f"loop edge ({u!r}, {u!r}) is not allowed in a simple graph")
            key = frozenset((u, v))
            if key in edge_set:
                raise GraphError(f"parallel edge ({u!r}, {v!r}) is not allowed in a simple graph")
            edge_set.add(key)
            adjacency.setdefault(u, []).append(v)
            adjacency.setdefault(v, []).append(u)

        if nodes is not None:
            for node in nodes:
                adjacency.setdefault(node, [])
        if not adjacency:
            raise GraphError("a labeled graph must have at least one node")

        self._nodes: tuple[Node, ...] = tuple(sorted(adjacency, key=_sort_key))
        self._adjacency: dict[Node, tuple[Node, ...]] = {
            v: tuple(sorted(neighbors, key=_sort_key)) for v, neighbors in adjacency.items()
        }
        self._edges: frozenset[frozenset[Node]] = frozenset(edge_set)

        if check_connected and not self._connected():
            raise GraphError(
                f"graph with {len(self._nodes)} nodes and {len(self._edges)} edges is not connected"
            )

        self._layers: dict[str, dict[Node, Label]] = {}
        if layers is not None:
            for name, mapping in layers.items():
                self._layers[name] = self._validate_layer(name, mapping)

        self._ports: dict[Node, tuple[Node, ...]] = {}
        self._port_of: dict[Node, dict[Node, int]] = {}
        if ports is None:
            for v in self._nodes:
                self._ports[v] = self._adjacency[v]
        else:
            for v in self._nodes:
                if v not in ports:
                    raise GraphError(f"port numbering missing for node {v!r}")
                ordering = tuple(ports[v])
                if sorted(ordering, key=_sort_key) != list(self._adjacency[v]):
                    raise GraphError(
                        f"port numbering of node {v!r} must be a permutation of its "
                        f"neighbors {self._adjacency[v]!r}, got {ordering!r}"
                    )
                self._ports[v] = ordering
        for v in self._nodes:
            self._port_of[v] = {u: port for port, u in enumerate(self._ports[v])}
        self._hash: int | None = None
        self._csr = None  # lazily built CSR mirror (repro.graphs.csr)

    # ------------------------------------------------------------------
    # Basic structure
    # ------------------------------------------------------------------

    @property
    def nodes(self) -> tuple[Node, ...]:
        """All nodes, in the deterministic sorted order."""
        return self._nodes

    @property
    def num_nodes(self) -> int:
        return len(self._nodes)

    @property
    def num_edges(self) -> int:
        return len(self._edges)

    def edges(self) -> Iterator[Edge]:
        """Yield each undirected edge once, as a sorted pair, in sorted order."""
        pairs = [tuple(sorted(edge, key=_sort_key)) for edge in self._edges]
        for u, v in sorted(pairs, key=lambda p: (_sort_key(p[0]), _sort_key(p[1]))):
            yield (u, v)

    def has_node(self, v: Node) -> bool:
        return v in self._adjacency

    def has_edge(self, u: Node, v: Node) -> bool:
        return frozenset((u, v)) in self._edges

    def neighbors(self, v: Node) -> tuple[Node, ...]:
        """Neighbors of ``v`` in sorted order (the set Γ(v))."""
        try:
            return self._adjacency[v]
        except KeyError:
            raise GraphError(f"unknown node {v!r}") from None

    def degree(self, v: Node) -> int:
        return len(self.neighbors(v))

    def _connected(self) -> bool:
        start = self._nodes[0]
        seen = {start}
        frontier = [start]
        while frontier:
            current = frontier.pop()
            for neighbor in self._adjacency[current]:
                if neighbor not in seen:
                    seen.add(neighbor)
                    frontier.append(neighbor)
        return len(seen) == len(self._nodes)

    # ------------------------------------------------------------------
    # Ports
    # ------------------------------------------------------------------

    def ports(self, v: Node) -> tuple[Node, ...]:
        """Neighbors of ``v`` in port order: ``ports(v)[i]`` sits on port ``i``."""
        try:
            return self._ports[v]
        except KeyError:
            raise GraphError(f"unknown node {v!r}") from None

    def port_to_neighbor(self, v: Node, port: int) -> Node:
        neighbors = self.ports(v)
        if not 0 <= port < len(neighbors):
            raise GraphError(
                f"node {v!r} has ports 0..{len(neighbors) - 1}, got port {port}"
            )
        return neighbors[port]

    def neighbor_to_port(self, v: Node, u: Node) -> int:
        self.ports(v)
        try:
            return self._port_of[v][u]
        except KeyError:
            raise GraphError(f"{u!r} is not a neighbor of {v!r}") from None

    # ------------------------------------------------------------------
    # Label layers
    # ------------------------------------------------------------------

    def _validate_layer(self, name: str, mapping: Mapping[Node, Label]) -> dict[Node, Label]:
        missing = [v for v in self._nodes if v not in mapping]
        if missing:
            raise LabelingError(
                f"layer {name!r} does not label nodes {missing!r}"
            )
        extra = [v for v in mapping if v not in self._adjacency]
        if extra:
            raise LabelingError(f"layer {name!r} labels unknown nodes {extra!r}")
        return {v: mapping[v] for v in self._nodes}

    @property
    def layer_names(self) -> tuple[str, ...]:
        return tuple(self._layers)

    def has_layer(self, name: str) -> bool:
        return name in self._layers

    def layer(self, name: str) -> dict[Node, Label]:
        """The node->label mapping of one layer (a fresh dict)."""
        try:
            return dict(self._layers[name])
        except KeyError:
            raise LabelingError(
                f"no layer named {name!r}; available: {self.layer_names!r}"
            ) from None

    def label_of(self, v: Node, name: str) -> Label:
        try:
            layer = self._layers[name]
        except KeyError:
            raise LabelingError(
                f"no layer named {name!r}; available: {self.layer_names!r}"
            ) from None
        if v not in layer:
            raise GraphError(f"unknown node {v!r}")
        return layer[v]

    def label(self, v: Node) -> tuple[Label, ...]:
        """The composed label ``<l_1(v), ..., l_k(v)>`` over all layers."""
        if v not in self._adjacency:
            raise GraphError(f"unknown node {v!r}")
        return tuple(self._layers[name][v] for name in self._layers)

    def with_layer(self, name: str, mapping: Mapping[Node, Label]) -> "LabeledGraph":
        """A new graph with layer ``name`` added or replaced."""
        layers = {n: dict(m) for n, m in self._layers.items()}
        layers[name] = dict(mapping)
        return self._replace(layers=layers)

    def without_layer(self, name: str) -> "LabeledGraph":
        """A new graph with layer ``name`` removed."""
        if name not in self._layers:
            raise LabelingError(
                f"no layer named {name!r}; available: {self.layer_names!r}"
            )
        layers = {n: dict(m) for n, m in self._layers.items() if n != name}
        return self._replace(layers=layers)

    def with_only_layers(self, names: Sequence[str]) -> "LabeledGraph":
        """A new graph keeping exactly the given layers, in the given order."""
        for name in names:
            if name not in self._layers:
                raise LabelingError(
                    f"no layer named {name!r}; available: {self.layer_names!r}"
                )
        layers = {name: dict(self._layers[name]) for name in names}
        return self._replace(layers=layers)

    def map_layer(self, name: str, fn: Callable[[Node, Label], Label]) -> "LabeledGraph":
        """A new graph with ``fn(v, old_label)`` applied across one layer."""
        old = self.layer(name)
        return self.with_layer(name, {v: fn(v, old[v]) for v in self._nodes})

    def _replace(
        self,
        layers: dict[str, dict[Node, Label]] | None = None,
        ports: Mapping[Node, Sequence[Node]] | None = None,
    ) -> "LabeledGraph":
        return LabeledGraph(
            edges=[tuple(edge) for edge in self._edges],
            nodes=self._nodes,
            layers=self._layers if layers is None else layers,
            ports=self._ports if ports is None else ports,
            check_connected=False,
        )

    def with_ports(self, ports: Mapping[Node, Sequence[Node]]) -> "LabeledGraph":
        """A new graph with an explicit port numbering."""
        return self._replace(ports=ports)

    def relabel_nodes(self, mapping: Mapping[Node, Node]) -> "LabeledGraph":
        """A new graph with node ids renamed by a bijection."""
        if sorted(mapping, key=_sort_key) != list(self._nodes):
            raise GraphError("relabeling must cover exactly the node set")
        if len(set(mapping.values())) != len(self._nodes):
            raise GraphError("relabeling must be injective")
        edges = [(mapping[u], mapping[v]) for u, v in self.edges()]
        layers = {
            name: {mapping[v]: label for v, label in layer.items()}
            for name, layer in self._layers.items()
        }
        ports = {
            mapping[v]: [mapping[u] for u in order] for v, order in self._ports.items()
        }
        return LabeledGraph(
            edges=edges,
            nodes=[mapping[v] for v in self._nodes],
            layers=layers,
            ports=ports,
            check_connected=False,
        )

    # ------------------------------------------------------------------
    # Derived structure
    # ------------------------------------------------------------------

    def closed_neighborhood(self, v: Node) -> tuple[Node, ...]:
        """The set {v} ∪ Γ(v), sorted."""
        return tuple(sorted((v,) + self.neighbors(v), key=_sort_key))

    def _csr_mirror(self):
        """The memoized flat-array mirror (see :mod:`repro.graphs.csr`)."""
        csr = self._csr
        if csr is None:
            from repro.graphs.csr import CSRGraph

            csr = self._csr = CSRGraph(self)
        return csr

    def nodes_within(self, v: Node, hops: int) -> tuple[Node, ...]:
        """All nodes at distance at most ``hops`` from ``v`` (the set H^hops(v))."""
        if hops < 0:
            raise GraphError(f"hops must be nonnegative, got {hops}")
        if hops == 0:
            return (v,)
        csr = self._csr_mirror()
        nodes = self._nodes
        # Index order is the node sort order, so the ascending index list
        # maps straight to the sorted node tuple.
        return tuple(map(nodes.__getitem__, csr.within_idx(csr.index[v], hops)))

    def distance(self, u: Node, v: Node) -> int:
        """Hop distance between ``u`` and ``v`` (BFS on the CSR mirror)."""
        if not self.has_node(u):
            raise GraphError(f"unknown node {u!r}")
        if not self.has_node(v):
            raise GraphError(f"unknown node {v!r}")
        if u == v:
            return 0
        csr = self._csr_mirror()
        hops = csr.distance_idx(csr.index[u], csr.index[v])
        if hops < 0:
            raise GraphError(f"nodes {u!r} and {v!r} are not connected")
        return hops

    # ------------------------------------------------------------------
    # Equality / hashing / repr
    # ------------------------------------------------------------------

    def structure_key(self) -> tuple:
        """A value determining the graph up to *identity* (same node ids,
        edges, layers in order, and ports) — not up to isomorphism."""
        return (
            self._nodes,
            tuple(sorted(self.edges(), key=lambda p: (_sort_key(p[0]), _sort_key(p[1])))),
            # Layer insertion order is part of graph identity by contract
            # (it is the order label() composes layer values in), so
            # iterating .items() here is deliberate, not incidental.
            tuple(  # repro-lint: disable=DET002
                (name, tuple((v, _freeze(layer[v])) for v in self._nodes))
                for name, layer in self._layers.items()
            ),
            tuple((v, self._ports[v]) for v in self._nodes),
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LabeledGraph):
            return NotImplemented
        return self.structure_key() == other.structure_key()

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(self.structure_key())
        return self._hash

    def __getstate__(self) -> dict:
        # Caches are dropped: the CSR mirror is rebuilt lazily on demand,
        # and the structure-key hash is salted per process
        # (PYTHONHASHSEED), so neither may travel across pickling.
        return {
            "_nodes": self._nodes,
            "_adjacency": self._adjacency,
            "_edges": self._edges,
            "_layers": self._layers,
            "_ports": self._ports,
            "_port_of": self._port_of,
        }

    def __setstate__(self, state: dict) -> None:
        self._nodes = state["_nodes"]
        self._adjacency = state["_adjacency"]
        self._edges = state["_edges"]
        self._layers = state["_layers"]
        self._ports = state["_ports"]
        self._port_of = state["_port_of"]
        self._hash = None
        self._csr = None

    def __repr__(self) -> str:
        return (
            f"LabeledGraph(n={self.num_nodes}, m={self.num_edges}, "
            f"layers={list(self._layers)!r})"
        )


# Exact types returned as they are, before the isinstance chain below
# (which would return them unchanged too, only slower).
_ATOMS = frozenset({str, int, bool, float, type(None), bytes})


def _freeze(value: Any) -> Any:
    """Recursively convert a label into a hashable value for keys."""
    if type(value) in _ATOMS:
        return value
    if isinstance(value, (list, tuple)):
        return tuple(
            [item if type(item) in _ATOMS else _freeze(item) for item in value]
        )
    if isinstance(value, dict):
        return tuple(sorted((k, _freeze(v)) for k, v in value.items()))
    if isinstance(value, set):
        return tuple(sorted(_freeze(v) for v in value))
    return value
