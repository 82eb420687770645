"""Feasible overlay construction for multi-substream live streaming.

The stream is split into M substreams; a topology assigns every peer exactly
M incoming connections (with repetition allowed: the same uploader may carry
several substreams for the same downloader), never lets a node upload more
than its capacity, and must leave M edge-disjoint paths from the peercaster
(node 0) to every peer.

Construction follows a spare-bandwidth admission argument. With F tracking
the spare upload capacity of the connected part of the network (initially
``u_0 - M``), any unadmitted peer i with ``u_i + F >= M`` can be admitted:
it receives exactly M connections from connected peers with residual
capacity, after which ``F := F + u_i - M``. Keeping F non-negative keeps the
whole construction feasible by induction.

A policy is a triple:

* ordering — ``growing`` admits peers in arrival (index) order, deferring any
  peer that fails the spare-capacity guard until capacity recovers;
  ``fixed`` knows all peers up front and picks the guard-passing peer with the
  best score.
* score — ``random``, ``closest`` (argmin over eligible uploaders j of
  delay(i, j)) or ``least_delay`` (argmin of d_j + delay(i, j), where d_j is
  j's delay from the peercaster through the overlay).
* diversity — how the M uploads are spread: ``none`` repeats the raw argmin,
  ``diverse`` takes, for each pick, the open uploader with the fewest picks
  this round, ties to the lowest score, then the lowest node id (so the picks
  walk the open uploaders in score order, one per uploader per pass), and
  ``small_world`` uses the diverse rule for M-1 picks and chooses the final
  uploader uniformly at random.

Random-score policies exist in one diversity mode only, giving 14 policies in
total: FR, GR, and the fixed/growing x closest/least-delay x
diverse/none/small-world grid.
"""

from __future__ import annotations

import bisect
import contextlib
import io
import operator
import re
from dataclasses import dataclass
from itertools import chain
from types import MappingProxyType

import numpy as np

from .delay_space import DelaySpace
from .rng import make_rng

FIXED = "fixed"
GROWING = "growing"
RANDOM = "random"
CLOSEST = "closest"
LEAST_DELAY = "least_delay"
NONE = "none"
DIVERSE = "diverse"
SMALL_WORLD = "small_world"

_SCORE_CODE = {CLOSEST: "C", LEAST_DELAY: "D"}
_DIVERSITY_CODE = {DIVERSE: "D", NONE: "N", SMALL_WORLD: "S"}
_CODE_SCORE = {v: k for k, v in _SCORE_CODE.items()}
_CODE_DIVERSITY = {v: k for k, v in _DIVERSITY_CODE.items()}

_EDGES_HEADER = "uploader,downloader,multiplicity"
_CAPS_HEADER = "node,u,residual_u"

#: Every expressible policy, in canonical order.
ALL_POLICY_CODES = (
    "FR", "GR",
    "FCD", "FCN", "FCS", "FDD", "FDN", "FDS",
    "GCD", "GCN", "GCS", "GDD", "GDN", "GDS",
)


class TopologyBuildError(Exception):
    """Base class for construction failures."""


class AdmissionStuck(TopologyBuildError):
    """No unadmitted peer passes the spare-capacity guard ``u_i + F >= M``."""

    def __init__(self, stuck: tuple[int, ...], f: int, m: int):
        self.stuck = tuple(int(i) for i in stuck)
        self.F = int(f)
        self.M = int(m)
        super().__init__(
            f"admission stuck with F={f}: no remaining peer has u_i + F >= {m}; "
            f"unadmitted peers: {list(self.stuck)}"
        )

    def __reduce__(self):
        # Exception pickles its args, the message alone; rebuild from the fields.
        return type(self), (self.stuck, self.F, self.M)


class CapacityExhausted(TopologyBuildError):
    """Fewer than M upload units remain among connected peers (should be
    unreachable when the admission guard is respected)."""


@dataclass(frozen=True)
class PolicySpec:
    """One of the 14 construction policies."""

    ordering: str
    score: str
    diversity: str = NONE

    def __post_init__(self) -> None:
        if self.ordering not in (FIXED, GROWING):
            raise ValueError(f"unknown ordering {self.ordering!r}")
        if self.score not in (RANDOM, CLOSEST, LEAST_DELAY):
            raise ValueError(f"unknown score {self.score!r}")
        if self.diversity not in (NONE, DIVERSE, SMALL_WORLD):
            raise ValueError(f"unknown diversity mode {self.diversity!r}")
        if self.score == RANDOM and self.diversity != NONE:
            raise ValueError("random-score policies admit only the plain diversity mode")

    @property
    def code(self) -> str:
        head = "F" if self.ordering == FIXED else "G"
        if self.score == RANDOM:
            return head + "R"
        return head + _SCORE_CODE[self.score] + _DIVERSITY_CODE[self.diversity]

    @classmethod
    def from_code(cls, code: str) -> "PolicySpec":
        c = code.strip().upper()
        ordering = {"F": FIXED, "G": GROWING}.get(c[:1])
        if ordering is not None and len(c) == 2 and c[1] == "R":
            return cls(ordering, RANDOM, NONE)
        if (
            ordering is not None
            and len(c) == 3
            and c[1] in _CODE_SCORE
            and c[2] in _CODE_DIVERSITY
        ):
            return cls(ordering, _CODE_SCORE[c[1]], _CODE_DIVERSITY[c[2]])
        raise ValueError(f"unknown policy code {code!r}; expected one of {ALL_POLICY_CODES}")


@dataclass(frozen=True)
class SimParams:
    """Per-build parameters shared by every cell: the substream count M, the
    peercaster's capacity u0 and the peer capacity choices. The one place
    their defaults are written."""

    m: int = 4
    u0: int = 16
    capacity_choices: tuple[int, ...] = (1, 5, 10, 16)

    def __post_init__(self) -> None:
        if self.m < 1:
            raise ValueError("M must be at least 1")
        if self.u0 < self.m:
            raise ValueError(f"u0={self.u0} cannot be below M={self.m}")
        ch = tuple(int(c) for c in self.capacity_choices)
        if not ch or any(c < 0 for c in ch):
            raise ValueError("capacities must be a non-empty list of non-negative ints")
        object.__setattr__(self, "capacity_choices", ch)


@dataclass(frozen=True)
class CapacityProfile:
    """Upload capacities u_i, in connection units, for every node."""

    u: np.ndarray

    def __post_init__(self) -> None:
        u = np.asarray(self.u, dtype=np.int64).copy()
        if u.ndim != 1 or u.shape[0] < 1:
            raise ValueError("u must be a one-dimensional array with at least one entry")
        if (u < 0).any():
            raise ValueError("upload capacities must be non-negative")
        u.flags.writeable = False
        object.__setattr__(self, "u", u)

    @property
    def n_nodes(self) -> int:
        return int(self.u.shape[0])

    @classmethod
    def sample(
        cls,
        n_nodes: int,
        rng: np.random.Generator,
        choices: tuple[int, ...] = SimParams.capacity_choices,
        u0: int = SimParams.u0,
    ) -> "CapacityProfile":
        """Draw peer capacities uniformly from ``choices``; the peercaster gets ``u0``."""
        u = rng.choice(np.asarray(choices, dtype=np.int64), size=n_nodes)
        u[0] = u0
        return cls(u)


class Topology:
    """A built overlay: multigraph edges plus leftover upload capacity.

    The stored form is the canonical edge arrays (:meth:`edge_arrays`):
    uploader, downloader and multiplicity, one int64 entry per distinct
    edge, sorted by (uploader, downloader), with both ends node ids in
    ``0..n_nodes-1`` and a positive multiplicity. ``residual_u`` holds one
    entry per node. Both constructors raise ValueError otherwise.

    ``edges`` is a read-only view mapping (uploader, downloader) to
    multiplicity, made from the arrays on first use, so it runs in canonical
    order however the topology was made. Instances are immutable.
    """

    def __init__(self, n_nodes: int, edges: dict[tuple[int, int], int], residual_u: np.ndarray):
        pairs = np.fromiter(chain.from_iterable(edges), np.int64, 2 * len(edges)).reshape(-1, 2)
        mult = np.fromiter(edges.values(), np.int64, len(edges))
        order = np.lexsort((pairs[:, 1], pairs[:, 0]))
        self._store(n_nodes, pairs[order, 0], pairs[order, 1], mult[order], residual_u)

    @classmethod
    def from_arrays(cls, n_nodes: int, up, down, mult, residual_u) -> "Topology":
        """The topology whose canonical edge arrays are copies of ``up``,
        ``down`` and ``mult``: their keys ``up * n_nodes + down`` must be
        strictly increasing."""
        topology = cls.__new__(cls)
        topology._store(n_nodes, up, down, mult, residual_u)
        return topology

    def _store(self, n_nodes, up, down, mult, residual_u) -> None:
        n = self.n_nodes = int(n_nodes)
        arrays = np.array([up, down, mult], dtype=np.int64)
        if arrays.ndim != 2:
            raise ValueError(f"edge arrays must be 1-D, got shape {arrays.shape[1:]}")
        if arrays.shape[1] and arrays[2].min() <= 0:
            raise ValueError(f"edge multiplicities must be positive, got {int(arrays[2].min())}")
        edge = lambda r: tuple(arrays[:2, r].tolist())
        outside = np.flatnonzero(((arrays[:2] < 0) | (arrays[:2] >= n)).any(axis=0))
        if len(outside):
            raise ValueError(f"edge {edge(outside[0])} has an end outside the nodes 0..{n - 1}")
        keys = arrays[0] * n + arrays[1]
        unordered = np.flatnonzero(keys[1:] <= keys[:-1])
        if len(unordered):
            r = unordered[0]
            raise ValueError(f"edge {edge(r + 1)} follows edge {edge(r)}; edges must be "
                             "distinct and sorted by (uploader, downloader)")
        self.residual_u = np.array(residual_u, dtype=np.int64)
        if self.residual_u.shape != (n,):
            raise ValueError(f"residual_u has shape {self.residual_u.shape}, expected ({n},)")
        self.residual_u.flags.writeable = False
        arrays.flags.writeable = False
        self._edge_arrays = tuple(arrays)
        self._edges = None

    @property
    def edges(self) -> MappingProxyType:
        """(uploader, downloader) -> multiplicity, a read-only view."""
        if self._edges is None:
            # The keys share one int object per node instead of holding two
            # per edge: 0.27 against 0.53 MB for 3955 edges over 1000 nodes.
            node = np.arange(self.n_nodes, dtype=object)
            up, down = (node[a].tolist() for a in self._edge_arrays[:2])
            self._edges = dict(zip(zip(up, down), self._edge_arrays[2].tolist()))
        return MappingProxyType(self._edges)

    def edge_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(uploader, downloader, multiplicity) int64 arrays, one entry per
        distinct edge, sorted by (uploader, downloader): the canonical edge
        order every consumer reads. The stored form, read-only."""
        return self._edge_arrays

    def _node_totals(self, nodes: np.ndarray, what: str) -> np.ndarray:
        """Exact int64 sums of the multiplicities by ``nodes``, one of the
        edge arrays. Raises ValueError naming the lowest node whose sum
        leaves the int64 range: that sum wraps by a multiple of 2**64, so it
        lies at least 2**63 from its float64 estimate, where an exact sum
        lies within a rounding error far below 2**62."""
        mult = self._edge_arrays[2]
        total = np.zeros(self.n_nodes, dtype=np.int64)
        np.add.at(total, nodes, mult)
        estimate = np.bincount(nodes, weights=mult, minlength=self.n_nodes)
        wrapped = np.flatnonzero(np.abs(estimate - total) >= 2.0**62)
        if len(wrapped):
            raise ValueError(f"the {what} connections of node {int(wrapped[0])} sum beyond the int64 range")
        return total

    def in_multiplicity(self) -> np.ndarray:
        """Incoming connections per node, exactly."""
        return self._node_totals(self._edge_arrays[1], "incoming")

    def out_multiplicity(self) -> np.ndarray:
        """Outgoing connections per node, exactly."""
        return self._node_totals(self._edge_arrays[0], "outgoing")

    def upload_capacity(self) -> np.ndarray:
        """Reconstruct u from residuals and realised uploads."""
        return self.residual_u + self.out_multiplicity()

    def to_csv(self, edges_path, caps_path) -> None:
        """Write the edge and capacity files :func:`read_topology_csv` reads."""
        caps = (np.arange(self.n_nodes), self.upload_capacity(), self.residual_u)
        for path, header, columns in ((edges_path, _EDGES_HEADER, self.edge_arrays()),
                                      (caps_path, _CAPS_HEADER, caps)):
            rows = map(",".join, zip(*(map(str, c.tolist()) for c in columns)))
            with open(path, "w", encoding="ascii", newline="\n") as f:
                f.write("\n".join(chain([header], rows, [""])))


def _reject(path, bad: np.ndarray, reason) -> None:
    """Raise ValueError at the first row where ``bad`` holds, saying ``reason(row)``."""
    if len(rows := np.flatnonzero(bad)):
        raise ValueError(f"{reason(rows[0])} in {path}, line {rows[0] + 2}")


def read_ascii(path) -> str:
    """The text of ``path`` as every reader takes it: ASCII with line ends as
    written, a foreign byte as the text ``\\xNN``, which no reader takes as a
    value."""
    with open(path, encoding="ascii", errors="backslashreplace", newline="") as f:
        return f.read()


def _shown(field: str) -> str:
    """``field`` as an error message shows it: its repr, or past 24
    characters that of its first and last 8, then its length."""
    return repr(field) if len(field) <= 24 else f"{field[:8] + '...' + field[-8:]!r} ({len(field)} characters)"


def _read_rows(path, header: str) -> np.ndarray:
    """The int64 table of a file with ``header``; row r is on line r + 2.

    A body that passes :func:`_plain` and that ``np.loadtxt`` parses into
    k columns is taken as parsed: inside that set ``loadtxt`` refuses an
    empty field, a ``-`` that is not a leading sign and a ragged row, as the
    grammar does, and every field fits int64. Any other body is walked by
    :func:`_walk_rows`, the one source of grammar messages, and then parsed.
    """
    head, _, body = read_ascii(path).partition("\n")
    if head != header:
        raise ValueError(f"unexpected header {_shown(head)} in {path}, line 1; expected {header!r}")
    k = header.count(",") + 1
    if not body:  # loadtxt would warn of no data
        return np.empty((0, k), dtype=np.int64)
    parse = lambda: np.loadtxt(io.StringIO(body), dtype=np.int64, delimiter=",", ndmin=2)
    if _plain(body):
        with contextlib.suppress(ValueError):
            if (table := parse()).shape[1] == k:
                return table
    _walk_rows(path, body, k)
    return parse()


def _plain(body: str) -> bool:
    """Whether ``body`` holds only digits, ``,``, ``-`` and ``\\n``, and
    every field, split at both separators, is 1 to 18 characters long, sign
    included, but the empty one after a final newline. So no line is blank
    and no field leaves int64 (numpy 1.x ``loadtxt`` casts an overflow with
    no error)."""
    raw = body.encode("ascii")
    if raw.translate(None, b"0123456789,-\n"):
        return False
    b = np.frombuffer(raw, dtype=np.uint8)
    step = np.diff(np.flatnonzero((b == 44) | (b == 10)), prepend=-1, append=len(b))  # field length + 1
    return step[:-1].min(initial=2) >= 2 and step.max() <= 19


def _walk_rows(path, body: str, k: int) -> None:
    """Raise ValueError at the first line of ``body`` that is not k
    comma-separated signed decimal fields in the int64 range."""
    # Walk, in file order, each line that is not k fields of at most 18 digits
    # (one lookahead per line keeps memory flat; the empty tail after a final
    # newline is not a line). It is malformed, or a row with a longer field,
    # which must still lie in int64: numpy 1.x loadtxt parses an integer that
    # overflows it as a float and casts it, with no error. So loadtxt sees
    # only int64 fields, which it parses exactly.
    field = "-?[0-9]{1,18}"
    for miss in re.finditer(r"^(?!%s(?:,%s){%d}$).*" % (field, field, k - 1), body, re.M):
        if (at := miss.start()) == len(body):
            break
        fields = miss[0].split(",") if miss[0] else []
        if len(fields) != k:
            reason = f"expected {k} fields, got {len(fields)}"
        elif bad := [v for v in fields if not re.fullmatch("-?[0-9]+", v)]:
            reason = f"invalid literal for int() with base 10: {_shown(bad[0])}"
        # Past the sign and leading zeros, a field of more than 19 digits is
        # outside int64, so int() never sees more (Python refuses 4300).
        elif all(len(mag := v.lstrip("-").lstrip("0")) <= 19 and int(mag or 0) < 2**63 + (v[0] == "-")
                 for v in fields):
            continue
        else:
            reason = f"a field of [{', '.join(map(_shown, fields))}] is outside the int64 range"
        raise ValueError(f"{reason} in {path}, line {len(body[:at].splitlines()) + 2}")


def read_topology_csv(edges_path, caps_path) -> tuple[Topology, CapacityProfile]:
    """Read a topology written by :meth:`Topology.to_csv` (both files).

    Each file holds its header line, then ``\\n``-ended lines (the last
    ``\\n`` may be missing) of three comma-separated, optionally signed ASCII
    decimal integers in the int64 range; blank lines, CR, spaces, quotes,
    ``+``, ``_`` and non-ASCII bytes are rejected. The capacity file lists
    nodes 0..n-1 once each, in any order, with u >= 0 and ``residual_u`` u
    less the node's outgoing connections; the edge file lists each pair of
    them at most once, with a positive multiplicity. Raises ValueError
    naming the file and line of the first row that breaks a rule.

    A body of only digits, ``,``, ``-`` and ``\\n``, with no blank line and
    no field past 18 characters, is parsed by one ``np.loadtxt`` and one
    pass over its bytes: there ``loadtxt`` refuses what the grammar refuses,
    and every field fits int64. Any other body, or one ``loadtxt`` refuses,
    is walked line by line with one regular expression, which names the
    first bad line; each row with a field of 19 or more characters, which
    may leave int64, is range-checked by its digit count and, for at most 19
    digits past the sign and leading zeros, a Python int. Only then does
    ``loadtxt`` parse it. The edge rows, in any order in the file, become
    the canonical arrays of :meth:`Topology.from_arrays`, with no dict in
    between.
    """
    caps = _read_rows(caps_path, _CAPS_HEADER)
    node, u_rows, residual_rows = caps.T
    n = len(caps)
    if not n:
        raise ValueError(f"capacity file {caps_path} lists no nodes")
    _reject(caps_path, u_rows < 0, lambda r: f"negative upload capacity {u_rows[r]} for node {node[r]}")
    _reject(caps_path, (node < 0) | (node >= n), lambda r: f"node {node[r]} is outside 0..{n - 1}")
    _reject(caps_path, np.bincount(node)[node] > 1, lambda r: f"node {node[r]} is listed more than once")
    u, residual = caps[np.argsort(node), 1:].T
    edges = _read_rows(edges_path, _EDGES_HEADER)
    up, down, mult = edges.T
    pair = lambda r: tuple(edges[r, :2].tolist())
    _reject(edges_path, ((edges[:, :2] < 0) | (edges[:, :2] >= n)).any(axis=1),
            lambda r: f"edge {pair(r)} references a node outside the capacity file")
    _reject(edges_path, mult <= 0, lambda r: f"non-positive multiplicity {mult[r]} for edge {pair(r)}")
    _, first, inverse = np.unique(up * n + down, return_index=True, return_inverse=True)
    listed = first[inverse]  # the first row of each row's edge
    _reject(edges_path, listed != np.arange(len(edges)),
            lambda r: f"edge {pair(r)} is already listed on line {listed[r] + 2}")
    # With no edge repeated, ``first`` is the row order of the canonical sort.
    topology = Topology.from_arrays(n, *edges[first].T, residual)
    try:
        out_mult = topology.out_multiplicity()[node]
    except ValueError as exc:
        raise ValueError(f"{exc} in {edges_path}") from None
    _reject(caps_path, residual_rows != u_rows - out_mult, lambda r: f"residual_u {residual_rows[r]} for "
            f"node {node[r]} is not its u {u_rows[r]} less its {out_mult[r]} outgoing connections")
    return topology, CapacityProfile(u)


#: Scans over fewer entries score every entry exactly; longer ones first rule
#: entries out by their proxy scores. About the break-even: n=1000 builds of
#: FCS, FDN and GDD cost the same with this cutoff, 1024 or none, and about
#: 10% more with 256.
_PRUNE_MIN = 512


def _widen(x):
    """An upper bound on the exact score of any entry whose proxy score is at
    most ``x``, and on the proxy score of any entry whose exact score is at
    most ``x``. Exact scores are ``np.hypot`` delays, proxy scores those of
    :meth:`DelaySpace.proxy_delays_from`, both with ``d +`` under least-delay.

    Both take the same rounded differences dx, dy; let h be the exact
    sqrt(dx**2 + dy**2). In units u = 2**-53: ``np.hypot`` is within 1 ulp,
    2u * h, or 2**-1074 once subnormal. Each square carries u relative, or
    2**-1075 absolute where it falls below the normal range (an underflowed
    square may round up to the least subnormal), and the sum u more, exact
    when subnormal. So the sum is h**2 * (1 +- 2.1u) +- 2**-1074, its sqrt
    lies within 1.1u * h + 2**-537 of h, and the sqrt's rounding adds u: the
    proxy is within 2.1u * h + 2**-536 of h, so proxy and delay differ by at
    most 4.2u of either one plus 2**-535. The ``d +`` rounds each side by u
    more, relative to a sum of non-negative terms, so an exact and a proxy
    score each lie within 6.5u of the other plus 2**-534. ``x * (1 + 2**-46)
    + 2**-530`` (128u, and 16 times the absolute term) covers that and the
    two roundings of its own. No square may overflow: ``BuildState`` keeps
    to exact scores when the coordinate extents' squares could.
    """
    return x * (1 + 2.0**-46) + 2.0**-530


class BuildState:
    """Mutable state of one construction run. Internal to :func:`build`;
    exposed so the admission steps can be driven and inspected one at a time.

    Every delay is at most D = ``np.hypot`` of the coordinate extents, so
    every score the builder forms is at most n * D: an overlay delay of at
    most n - 1 hops plus one more hop. Raises ValueError when n * (M + 1) * D,
    that bound with a factor M + 1 of headroom, is not finite, where scores
    could overflow to inf and tie.

    Both orderings admit from one ready set (:meth:`select_next_peer`).
    Admission order is recorded only by :meth:`admit_next`'s return values
    and the insertion order of ``edges``.

    The open list (:attr:`open_ids`) keeps the connected nodes with residual
    capacity left, in admission order: an admitted peer with u_i > 0 joins
    its end, and an uploader whose residual reaches 0 is found by one
    comparison over the list and leaves it by one slice shift. Uploader
    picks and rescores scan it, not every connected node.

    Diversity is no score term: a diverse pick takes the open uploader with
    the fewest picks this round, ties to the lowest score, then the lowest
    node id. :meth:`select_uploaders` sorts its at most M contenders by
    (score, id) once and walks them in Python: ``none`` takes each entry's
    residual in turn, ``diverse`` one pick per entry per pass, skipping
    those that ran out; random picks index open positions.

    :meth:`update_after_admission` checks every uploader (connected, with
    the capacity asked of it) before it changes anything, so a refused
    update leaves the state as it was. It sets ``d[peer]``, the lowest
    ``d[j] + delay(peer, j)`` over the uploaders j, from the exact scores
    of the scan that picked them: under least-delay the scan's lowest
    score, under closest ``d[j] +`` score over the scored picks. Only
    random picks (FR, GR, the closest small-world tail) query their delays.

    A least-delay cache is not refreshed on admission; :meth:`_rescore_rivals`
    rescores the candidates whose cached scores tie the lowest within
    rounding, once per coordinate site.

    Scans of at least ``_PRUNE_MIN`` entries (uploader picks, rescores and
    the closest-cache refresh) rule out by proxy scores the entries that
    cannot matter, then decide on exact scores of the rest, by the same
    comparisons and tie rules as a full scan.
    """

    def __init__(
        self,
        space: DelaySpace,
        caps: CapacityProfile,
        policy: PolicySpec,
        m: int = SimParams.m,
        seed: int = 0,
    ):
        n = space.n_nodes
        if caps.n_nodes != n:
            raise ValueError(f"capacity profile covers {caps.n_nodes} nodes, space has {n}")
        if m < 1:
            raise ValueError("M must be at least 1")
        if n < 2:
            raise ValueError("need at least one peer besides the peercaster")
        if int(caps.u[0]) < m:
            raise ValueError(f"peercaster capacity u_0={int(caps.u[0])} is below M={m}")
        with np.errstate(over="ignore"):
            extent = np.ptp(space.coords, axis=0)
            bound = n * (m + 1) * np.hypot(*extent)
            # No difference exceeds the extents, and rounding is monotone, so
            # no proxy square or sum overflows when the extents' do not.
            proxy_ok = bool(np.isfinite(extent[0] * extent[0] + extent[1] * extent[1]))
        if not np.isfinite(bound):
            raise ValueError(
                f"coordinate extents {extent.tolist()} are too wide: scores up to "
                f"n*(M+1)*hypot(extents) overflow"
            )

        self.space = space
        self.policy = policy
        self.M = int(m)
        self.n = n
        self.u = caps.u
        self.residual = self.u.copy()
        self.rng = make_rng(seed, "build")  # policy-independent label: FR and GR share streams

        self.F = int(self.u[0]) - self.M
        self.d = np.full(n, np.inf)
        self.d[0] = 0.0
        self.edges: dict[tuple[int, int], int] = {}

        self.n_connected = 1
        # The open list: the connected ids with residual > 0 in admission
        # order, a prefix of this buffer. The peercaster starts open: u_0 >= M >= 1.
        self._open = np.zeros(n, dtype=np.int64)
        self._n_open = 1
        self.unadmitted_mask = np.ones(n, dtype=bool)
        self.unadmitted_mask[0] = False

        # Random-score policies admit in arrival order, like growing ones, so
        # FR and GR build identical topologies under the same seed.
        self._arrival_order = policy.ordering == GROWING or policy.score == RANDOM

        # Fixed scored policies keep a best-eligible-uploader cache per
        # unadmitted peer, invalidated when the cached uploader exhausts.
        self._best_score: np.ndarray | None = None
        self._best_up: np.ndarray | None = None
        if not self._arrival_order:
            # A fresh array; d[0] == 0, so closest == least_delay here.
            self._best_score = space.delays_from(0)
            self._best_score[0] = np.inf
            self._best_up = np.zeros(n, dtype=np.int64)

        self._proxy_ok = proxy_ok
        # The last scored pick of select_uploaders: (peer, uploaders, d[peer]
        # through them).
        self._offer: tuple[int, tuple[int, ...], float] | None = None

    # -- helpers ---------------------------------------------------------

    @property
    def open_ids(self) -> np.ndarray:
        """Connected nodes with residual capacity left, in admission order."""
        return self._open[: self._n_open]

    def done(self) -> bool:
        return self.n_connected == self.n

    def _scan(self, i: int, k: int) -> tuple[np.ndarray | None, np.ndarray, np.ndarray]:
        """Peer i's exact scores of the open entries (at least ``k``) that
        can be among its k lowest in any tie order, as (kept open
        positions, ascending, or None for all; kept ids; scores).
        Scans of at least ``_PRUNE_MIN`` entries keep each proxy score at
        most the k-th smallest proxy score widened twice: the k entries with
        the smallest proxies score at most one widening above it, so the
        k-th smallest exact score does too, and an entry scoring at most
        that has a proxy at most one widening more (:func:`_widen`)."""
        ids, near = self.open_ids, None
        if len(ids) > k and len(ids) >= _PRUNE_MIN and self._proxy_ok:
            q = self.space.proxy_delays_from(i, ids)
            if self.policy.score == LEAST_DELAY:
                q += self.d[ids]
            kth = np.partition(q, k - 1)[k - 1]
            near = (q <= _widen(_widen(kth))).nonzero()[0]
            ids = ids[near]
        score = self.space.delays_from(i, ids)
        if self.policy.score == LEAST_DELAY:
            score = self.d[ids] + score
        return near, ids, score

    # -- admission steps -------------------------------------------------

    def select_next_peer(self) -> int:
        """The next peer to admit under the policy, from the ready set: the
        unadmitted peers that pass the spare-capacity guard. Arrival order
        admits its lowest id, fixed order its lowest (score, id). Raises
        AdmissionStuck if the ready set is empty."""
        # With F >= M every unadmitted peer passes the guard (u_i >= 0).
        ready, narrowed = self.unadmitted_mask, self.F < self.M
        if narrowed:
            ready = ready & (self.u + self.F >= self.M)
        first = int(ready.argmax())  # the lowest ready id, if any
        if not ready[first]:
            raise AdmissionStuck(tuple(np.flatnonzero(self.unadmitted_mask)), self.F, self.M)
        if self._arrival_order:
            return first

        # Admitted peers score inf, so unnarrowed the cache is the score
        # vector. Cached scores are exact while the cached uploader has
        # capacity left and only under-estimate once it exhausts, so validating
        # the winner (and re-scoring it if stale) converges on the true argmin.
        # A least-delay cache may also sit a rounding step above the true
        # score; _rescore_rivals settles the candidates where that matters.
        while True:
            scores = np.where(ready, self._best_score, np.inf) if narrowed else self._best_score
            peer = int(scores.argmin())  # the first minimum: ties go to the lowest node id
            best = scores[peer]
            if self.residual[self._best_up[peer]] <= 0:
                self._rescore(peer)
            elif self.policy.score == CLOSEST or not self._rescore_rivals(peer, scores, best):
                return peer

    def select_uploaders(self, peer: int) -> list[int]:
        """Choose the peer's M uploaders (repetition allowed), respecting
        residual capacities connection by connection. Changes no build
        state; :meth:`update_after_admission` applies the result. A scored
        pick keeps the peer's overlay delay through these uploaders, taken
        from the scan's scores, for that update to reuse."""
        open_ids, m, diversity = self.open_ids, self.M, self.policy.diversity
        n_open = len(open_ids)
        walked = 0 if self.policy.score == RANDOM else m - 1 if diversity == SMALL_WORLD else m

        # Scored picks walk the open entries in (score, id) order: ``none``
        # takes each entry's residual in turn, the diverse rule one pick per
        # entry per pass. Either way they come from the first ``walked``
        # entries in that order, the contenders of the ``walked``-th score.
        chosen: list[int] = []
        left: dict[int, int] = {}  # open position -> units left this round
        if walked:
            near, ids, score = self._scan(peer, walked)
            first = np.lexsort((ids, score))[:walked]
            top_ids, best = ids[first], score[first]
            if near is not None:
                first = near[first]
            rr, top = self.residual[top_ids].tolist(), top_ids.tolist()
            if diversity == NONE:
                for j, r in zip(top, rr):
                    chosen += [j] * min(r, m - len(chosen))
            else:
                # Pass k takes, in order, every entry with more than k units.
                chosen = [j for k in range(walked) for j, r in zip(top, rr) if r > k][:walked]
            if len(chosen) < walked:
                raise self._exhausted(peer, chosen)
            # via: the lowest d[j] + delay(peer, j) over the scored picks j.
            if self.policy.score == LEAST_DELAY:
                # The lowest score of every open entry, pruned ones included,
                # so no other pick, random ones too, goes below it.
                via = float(best[0])
            else:
                # Every open entry has a unit, so the picks take a prefix of top.
                k = len(set(chosen))
                via = min(map(operator.add, self.d[top_ids[:k]].tolist(), best[:k].tolist()))
            if walked < m:
                left = {p: r - chosen.count(j) for p, j, r in zip(first.tolist(), top, rr)}

        # Random picks draw among the open entries, in admission order, less
        # the open positions ``gone`` (ascending) that this round used up.
        gone = sorted(p for p, r in left.items() if r == 0)
        while len(chosen) < m:
            if len(gone) == n_open:
                raise self._exhausted(peer, chosen)
            p = int(self.rng.integers(n_open - len(gone)))
            for g in gone:
                if g > p:
                    break
                p += 1
            j = int(open_ids[p])
            left[p] = left.get(p, int(self.residual[j])) - 1
            if left[p] == 0:
                bisect.insort(gone, p)
            chosen.append(j)
        if walked:
            # A small-world tail: a least-delay scan's lowest score bounds
            # its delay, a closest one queries it.
            if walked < m and self.policy.score != LEAST_DELAY:
                via = min(via, self._via(peer, np.array(chosen[walked:])))
            self._offer = (peer, tuple(chosen), via)
        return chosen

    def _exhausted(self, peer: int, chosen: list[int]) -> CapacityExhausted:
        return CapacityExhausted(
            f"no residual upload capacity among connected peers "
            f"(picked {len(chosen)}/{self.M} for peer {peer})"
        )

    def _via(self, peer: int, ids) -> float:
        """The lowest ``d[j] + delay(peer, j)`` over the connected ids ``ids``."""
        return min((self.d[ids] + self.space.delays_from(peer, ids)).tolist())

    def update_after_admission(self, peer: int, uploaders: list[int]) -> None:
        """Commit an admission: record edges, decrement capacities, set the
        peer's overlay delay d, update F, and refresh selection caches.
        Checks every uploader first, so a refused update changes nothing.

        ``d[peer]`` is the one :meth:`select_uploaders` kept when its scan
        picked these uploaders for this peer, else (random picks, or
        uploaders from elsewhere) one ``delays_from`` call over them gives
        it. Both are the same sums of the same ``np.hypot`` delays, and ``d``
        of a connected node never changes."""
        if len(uploaders) != self.M:
            raise ValueError(f"expected exactly {self.M} uploaders, got {len(uploaders)}")
        if not self.unadmitted_mask[peer]:
            raise ValueError(f"peer {peer} is already connected")
        mult: dict[int, int] = {}
        for j in uploaders:
            mult[j] = mult.get(j, 0) + 1
        left = []
        for j, c in mult.items():
            if self.unadmitted_mask[j]:
                raise ValueError(f"uploader {j} is not connected yet")
            left.append(int(self.residual[j]) - c)
            if left[-1] < 0:
                raise CapacityExhausted(f"uploader {j} driven past its capacity")

        offer = self._offer
        if offer is not None and offer[0] == peer and offer[1] == tuple(uploaders):
            self.d[peer] = offer[2]
        else:
            self.d[peer] = self._via(peer, np.fromiter(mult, np.int64, len(mult)))
        for (j, c), r in zip(mult.items(), left):
            self.edges[(j, peer)] = c
            self.residual[j] = r
            if r == 0:
                self._close(j)
        u_peer = int(self.u[peer])
        self.F += u_peer - self.M

        self.unadmitted_mask[peer] = False
        if self._best_score is not None:
            self._best_score[peer] = np.inf
        if u_peer > 0:
            self._open[self._n_open] = peer
            self._n_open += 1
        self.n_connected += 1
        if self._best_score is not None and self.policy.score == CLOSEST:
            self._refresh_fixed_cache(peer)  # least-delay: see _rescore_rivals

    def _close(self, j: int) -> None:
        """Drop uploader j, whose residual just reached 0, from the open list."""
        k = self._n_open
        p = int((self._open[:k] == j).argmax())
        self._open[p : k - 1] = self._open[p + 1 : k]
        self._n_open = k - 1

    def _rescore(self, i: int) -> None:
        """Recompute peer i's best eligible uploader from scratch. The
        admission guard keeps F + M > 0 upload units available, so some
        connected uploader is always open."""
        _, ids, score = self._scan(i, 1)
        k = int(score.argmin())  # the first minimum: ties go to the earliest admitted
        self._best_score[i] = score[k]
        self._best_up[i] = int(ids[k])

    def _rescore_rivals(self, peer: int, scores: np.ndarray, best: float) -> bool:
        """Least-delay only: rescore every candidate other than ``peer``
        whose cached score lies within rounding of ``best``, ``peer``'s (its
        uploader is open). True if one of those scores changed.

        A least-delay cache skips the refresh on admission, which scores
        each unadmitted peer t against the new node and, in exact
        arithmetic, never improves one: d[new] + delay(new, t) is at least
        d[j] + delay(j, t) for the uploader j that set d[new], and j was open
        when t's cache last looked, or joined since and so on back. In units
        of 2**-53, a delay carries at most 3 (coordinate difference,
        ``np.hypot`` within 1 ulp) and each sum 1 more, so one link of such
        a chain undercuts by at most 10 units, relative. A chain has at most
        n links: ``n * 2**-46`` relative (128 units per link) plus
        ``n * 2**-1000`` for subnormal results bounds the undercut, so a
        candidate beyond that window scores above ``best`` against every
        open uploader.

        A rescore sets V_t, t's lowest score over the open uploaders. A cache
        refreshed after every admission (``ReferenceBuildState``) has scored
        every open uploader, so it holds V_t while its uploader is open and
        at most V_t once that closes; as it rescores a winner whose uploader
        closed, it admits the lowest-id argmin of V. Here, once no rescore
        changes a score, the rivals hold V_t, the others score above
        ``best``, and V_peer <= ``best``: ``peer`` is that argmin. Its own
        cache may stay behind: :meth:`select_uploaders` rescans anyway.

        A rescore depends on the rival only through its coordinates, so one
        rescore per coordinate site sets every rival at that site.
        """
        window = best * (1 + self.n * 2.0**-46) + self.n * 2.0**-1000
        rivals = (scores <= window).nonzero()[0]
        if len(rivals) == 1:  # peer alone: its own score is ``best``
            return False
        rivals = rivals[rivals != peer]
        coords = self.space.coords[rivals]
        _, first, inverse = np.unique(coords, axis=0, return_index=True, return_inverse=True)
        old, heads = self._best_score[rivals], rivals[first]
        for q in heads.tolist():
            self._rescore(q)
        head = heads[inverse.ravel()]  # numpy 2.0.x shapes the inverse (k, 1)
        self._best_score[rivals] = self._best_score[head]
        self._best_up[rivals] = self._best_up[head]
        return bool((self._best_score[rivals] != old).any())

    def _refresh_fixed_cache(self, new_node: int) -> None:
        """Let the newly admitted node improve unadmitted peers' cached
        closest-uploader scores."""
        if self.residual[new_node] <= 0:
            return
        targets = np.flatnonzero(self.unadmitted_mask)
        if len(targets) >= _PRUNE_MIN and self._proxy_ok:
            # A target whose delay beats its cached score has a proxy at most
            # one widening above that score.
            proxy = self.space.proxy_delays_from(new_node, targets)
            targets = targets[proxy <= _widen(self._best_score[targets])]
        if not len(targets):
            return
        vec = self.space.delays_from(new_node, targets)
        better = vec < self._best_score[targets]
        ids = targets[better]
        self._best_score[ids] = vec[better]
        self._best_up[ids] = new_node

    def admit_next(self) -> int:
        peer = self.select_next_peer()
        uploaders = self.select_uploaders(peer)
        self.update_after_admission(peer, uploaders)
        return peer

    def topology(self) -> Topology:
        return Topology(self.n, self.edges, self.residual)


def build(
    space: DelaySpace,
    caps: CapacityProfile,
    policy: PolicySpec,
    m: int = SimParams.m,
    seed: int = 0,
) -> Topology:
    """Build a feasible topology over ``space`` under ``policy``.

    Deterministic in ``seed``. Raises :class:`AdmissionStuck` when the
    spare-capacity guard blocks every remaining peer.
    """
    state = BuildState(space, caps, policy, m, seed)
    while not state.done():
        state.admit_next()
    return state.topology()
