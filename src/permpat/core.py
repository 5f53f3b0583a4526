"""Core types and operations for permutations as labeled point sets.

A permutation here is a finite set of labeled points in general position:
no two points share an x- or y-coordinate.  Labels are arbitrary positive
integers; the *reduced* form relabels 1..n by increasing x and moves the
points onto the grid [n] x [n] while preserving both coordinate orders.
Everything downstream (width, decompositions, pattern matching) only ever
looks at the two coordinate orders, so reduction is the canonical form.

Also provided: merge sequences (the protocol objects of the width
machinery), grid witnesses, and parsers/formatters for the one-line text
interchange formats.
"""

from __future__ import annotations

import random as _random
from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, NamedTuple, Optional, Sequence, Set, Tuple


class ParseError(ValueError):
    """Malformed text input."""


class ValidationError(ValueError):
    """Structurally invalid object or argument (bad labels, bad steps, ...)."""


class SizeCapError(ValueError):
    """Input exceeds a documented size cap of an exhaustive routine."""


class Point(NamedTuple):
    x: int
    y: int


class Permutation:
    """Immutable labeled point set in general position.

    ``placement`` maps label -> Point.  Labels must be positive and
    distinct (they are dict keys, so distinctness is free); coordinates
    must be positive and pairwise distinct per axis.
    """

    __slots__ = ("_placement", "_labels", "_xrank", "_yrank")

    def __init__(self, placement: Mapping[int, Point]):
        pl: Dict[int, Point] = {}
        xs: Set[int] = set()
        ys: Set[int] = set()
        for label, p in placement.items():
            if not isinstance(label, int) or label < 1:
                raise ValidationError("labels must be positive integers, got %r" % (label,))
            if type(p) is not Point or type(p.x) is not int or type(p.y) is not int:
                p = Point(int(p[0]), int(p[1]))
            if p.x < 1 or p.y < 1:
                raise ValidationError("coordinates must be positive, got %r for label %d" % (p, label))
            if p.x in xs:
                raise ValidationError("general position violated: duplicate x-coordinate %d" % p.x)
            if p.y in ys:
                raise ValidationError("general position violated: duplicate y-coordinate %d" % p.y)
            xs.add(p.x)
            ys.add(p.y)
            pl[label] = p
        self._placement = pl
        self._labels = tuple(sorted(pl))
        self._xrank: Optional[Dict[int, int]] = None
        self._yrank: Optional[Dict[int, int]] = None

    # -- basic accessors ------------------------------------------------

    def __len__(self) -> int:
        return len(self._placement)

    def __contains__(self, label: int) -> bool:
        return label in self._placement

    @property
    def labels(self) -> Tuple[int, ...]:
        return self._labels

    def point(self, label: int) -> Point:
        try:
            return self._placement[label]
        except KeyError:
            raise ValidationError("label %r not in permutation" % (label,)) from None

    @property
    def points(self) -> Tuple[Point, ...]:
        """Points in label order."""
        return tuple(self._placement[l] for l in self._labels)

    def pairs(self) -> Tuple[Tuple[int, Point], ...]:
        return tuple((l, self._placement[l]) for l in self._labels)

    # -- derived orderings ----------------------------------------------

    def _ranks(self) -> Tuple[Dict[int, int], Dict[int, int]]:
        if self._xrank is None:
            by_x = sorted(self._labels, key=lambda l: self._placement[l].x)
            by_y = sorted(self._labels, key=lambda l: self._placement[l].y)
            self._xrank = {l: i + 1 for i, l in enumerate(by_x)}
            self._yrank = {l: i + 1 for i, l in enumerate(by_y)}
        return self._xrank, self._yrank  # type: ignore[return-value]

    def xrank(self, label: int) -> int:
        return self._ranks()[0][label]

    def yrank(self, label: int) -> int:
        return self._ranks()[1][label]

    def by_x(self) -> Tuple[int, ...]:
        """Labels ordered by increasing x-coordinate."""
        xr = self._ranks()[0]
        return tuple(sorted(self._labels, key=xr.__getitem__))

    def pattern(self) -> Tuple[int, ...]:
        """One-line word of the reduced form: y-ranks read in x-order."""
        xr, yr = self._ranks()
        word = [0] * len(self)
        for l in self._labels:
            word[xr[l] - 1] = yr[l]
        return tuple(word)

    def one_line(self) -> str:
        return " ".join(str(v) for v in self.pattern())

    # -- equality --------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Permutation):
            return NotImplemented
        return self._placement == other._placement

    def __hash__(self) -> int:
        return hash(self.pairs())

    def __repr__(self) -> str:
        if len(self) <= 12 and self._labels == tuple(range(1, len(self) + 1)):
            return "Permutation(%s)" % self.one_line()
        return "Permutation(<%d points>)" % len(self)


class MergeStep(NamedTuple):
    """Replace rectangles i and j by their bounding box, indexed k."""

    i: int
    j: int
    k: int


@dataclass(frozen=True)
class MergeSequence:
    """A sequence of merge steps; over an n-point permutation, step p must
    create index n + p (originals are 1..n, merged boxes continue upward)."""

    steps: Tuple[MergeStep, ...]

    def __init__(self, steps: Iterable[Sequence[int]]):
        norm = tuple(MergeStep(int(a), int(b), int(c)) for (a, b, c) in steps)
        object.__setattr__(self, "steps", norm)

    @classmethod
    def _of_steps(cls, steps: Iterable[MergeStep]) -> "MergeSequence":
        """Wrap MergeSteps of ints, such as the builder's, without rebuilding each."""
        seq = object.__new__(cls)
        object.__setattr__(seq, "steps", tuple(steps))
        return seq

    def __len__(self) -> int:
        return len(self.steps)

    def __iter__(self):
        return iter(self.steps)

    def __getitem__(self, idx):
        return self.steps[idx]


@dataclass(frozen=True)
class GridWitness:
    """An r x r gridding: r-1 column cuts, r-1 row cuts, and one witness
    point per cell.  A cut value is the inclusive right/upper boundary of
    the cell on its left/below; ``witnesses[j][i]`` is the point for row
    j+1 (bottom-to-top), column i+1 (left-to-right)."""

    col_cuts: Tuple[int, ...]
    row_cuts: Tuple[int, ...]
    witnesses: Tuple[Tuple[Point, ...], ...]

    def __init__(self, col_cuts, row_cuts, witnesses):
        cc = tuple(int(c) for c in col_cuts)
        rc = tuple(int(c) for c in row_cuts)
        for cuts, what in ((cc, "column"), (rc, "row")):
            if any(b <= a for a, b in zip(cuts, cuts[1:])):
                raise ValidationError("%s cuts must be strictly increasing: %r" % (what, cuts))
        if len(cc) != len(rc):
            raise ValidationError(
                "cut counts differ: %d column cuts vs %d row cuts" % (len(cc), len(rc)))
        r = len(cc) + 1
        wt = tuple(tuple(Point(int(p[0]), int(p[1])) for p in row) for row in witnesses)
        if len(wt) != r or any(len(row) != r for row in wt):
            raise ValidationError("witness matrix must be %d x %d" % (r, r))
        object.__setattr__(self, "col_cuts", cc)
        object.__setattr__(self, "row_cuts", rc)
        object.__setattr__(self, "witnesses", wt)

    @property
    def r(self) -> int:
        return len(self.col_cuts) + 1


Embedding = Dict[int, int]  # pattern label -> target label


# ---------------------------------------------------------------------------
# parsing / formatting
# ---------------------------------------------------------------------------

def parse_permutation(text: str) -> Permutation:
    """Parse one-line notation: n distinct integers 1..n, whitespace-separated.

    Position i (1-based) holds value v; the point set is {(i, v)} with
    label i.  The result is its own reduced form.
    """
    tokens = text.split()
    if not tokens:
        raise ParseError("empty permutation text (length 0 is not parseable)")
    values: List[int] = []
    for tok in tokens:
        try:
            v = int(tok)
        except ValueError:
            raise ParseError("bad token %r: not an integer" % (tok,)) from None
        values.append(v)
    n = len(values)
    seen: Set[int] = set()
    for tok, v in zip(tokens, values):
        if not 1 <= v <= n:
            raise ParseError("bad token %r: value out of range 1..%d" % (tok, n))
        if v in seen:
            raise ParseError("bad token %r: duplicate value" % (tok,))
        seen.add(v)
    return Permutation({i + 1: Point(i + 1, v) for i, v in enumerate(values)})


def parse_merge_sequence(text: str) -> MergeSequence:
    """Parse lines of ``i j k``; blank lines and ``#`` comments are skipped."""
    steps = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 3:
            raise ParseError("line %d: expected 'i j k', got %r" % (lineno, raw))
        try:
            i, j, k = (int(p) for p in parts)
        except ValueError:
            raise ParseError("line %d: non-integer field in %r" % (lineno, raw)) from None
        steps.append((i, j, k))
    return MergeSequence(steps)


def format_merge_sequence(seq: MergeSequence) -> str:
    return "\n".join("%d %d %d" % (s.i, s.j, s.k) for s in seq)


def parse_grid_witness(text: str) -> GridWitness:
    """Parse ``cols:`` / ``rows:`` cut lines followed by r*r ``x y`` witness
    lines in row-major order (rows bottom-to-top)."""
    lines = [l.strip() for l in text.splitlines() if l.strip() and not l.strip().startswith("#")]
    if len(lines) < 3:
        raise ParseError("grid witness needs a cols: line, a rows: line and witness points")
    if not lines[0].startswith("cols:") or not lines[1].startswith("rows:"):
        raise ParseError("grid witness must start with 'cols:' then 'rows:' lines")
    try:
        col_cuts = [int(t) for t in lines[0][len("cols:"):].split()]
        row_cuts = [int(t) for t in lines[1][len("rows:"):].split()]
    except ValueError:
        raise ParseError("non-integer cut value in grid witness header") from None
    r = len(col_cuts) + 1
    pts = lines[2:]
    if len(pts) != r * r:
        raise ParseError("expected %d witness points, got %d" % (r * r, len(pts)))
    rows = []
    for j in range(r):
        row = []
        for i in range(r):
            parts = pts[j * r + i].split()
            if len(parts) != 2:
                raise ParseError("bad witness point line %r" % (pts[j * r + i],))
            row.append(Point(int(parts[0]), int(parts[1])))
        rows.append(tuple(row))
    return GridWitness(col_cuts, row_cuts, rows)


def format_grid_witness(w: GridWitness) -> str:
    lines = ["cols: " + " ".join(str(c) for c in w.col_cuts),
             "rows: " + " ".join(str(c) for c in w.row_cuts)]
    for row in w.witnesses:
        for p in row:
            lines.append("%d %d" % (p.x, p.y))
    return "\n".join(lines)


def parse_embedding(text: str) -> Embedding:
    emb: Embedding = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ParseError("line %d: expected 'pattern-label target-label'" % lineno)
        try:
            a, b = int(parts[0]), int(parts[1])
        except ValueError:
            raise ParseError("line %d: non-integer label" % lineno) from None
        if a in emb:
            raise ParseError("line %d: duplicate pattern label %d" % (lineno, a))
        emb[a] = b
    return emb


def format_embedding(emb: Embedding) -> str:
    return "\n".join("%d %d" % (a, emb[a]) for a in sorted(emb))


# ---------------------------------------------------------------------------
# permutation operations
# ---------------------------------------------------------------------------

def reduce(points: Iterable[Point]) -> Permutation:
    """Reduced permutation of a point collection: label i goes to the point
    with the i-th smallest x, placed at (x-rank, y-rank)."""
    pts = [Point(int(p[0]), int(p[1])) for p in points]
    if len({p.x for p in pts}) != len(pts):
        raise ValidationError("general position violated: duplicate x-coordinate in input")
    if len({p.y for p in pts}) != len(pts):
        raise ValidationError("general position violated: duplicate y-coordinate in input")
    by_x = sorted(pts)
    ys = sorted(p.y for p in pts)
    yrank = {y: i + 1 for i, y in enumerate(ys)}
    return Permutation({i + 1: Point(i + 1, yrank[p.y]) for i, p in enumerate(by_x)})


def restrict(perm: Permutation, labels: Iterable[int]) -> Permutation:
    """Sub-permutation on a subset of labels (labels and coordinates kept)."""
    subset = set(labels)
    missing = subset - set(perm.labels)
    if missing:
        raise ValidationError("labels not in permutation: %s" % sorted(missing))
    return Permutation({l: perm.point(l) for l in subset})


def verify_embedding(pattern: Permutation, target: Permutation, emb: Mapping[int, int]) -> bool:
    """Check that emb maps the pattern's points to target points preserving
    both coordinate orders (injectively).  Non-total maps or images outside
    the target are validation errors; order violations just return False.
    """
    slabels = pattern.labels
    if set(emb.keys()) != set(slabels):
        raise ValidationError("embedding is not a total map on the pattern's labels")
    image = list(emb.values())
    for t in image:
        if t not in target:
            raise ValidationError("embedding image %r is not a target label" % (t,))
    if len(set(image)) != len(image):
        return False
    pts_s = [pattern.point(l) for l in slabels]
    pts_t = [target.point(emb[l]) for l in slabels]
    m = len(slabels)
    for a in range(m):
        for b in range(a + 1, m):
            if (pts_s[a].x < pts_s[b].x) != (pts_t[a].x < pts_t[b].x):
                return False
            if (pts_s[a].y < pts_s[b].y) != (pts_t[a].y < pts_t[b].y):
                return False
    return True


def canonical_grid(r: int, s: int) -> Permutation:
    """The r*s-point permutation whose reduced form splits into an r x s
    grid of cells, each holding one point: r columns (left to right), s
    rows (bottom to top); each row is increasing, each column decreasing.

    The point in row i (1..s), column j (1..r) sits at
    ``((j-1)s + (s-i+1), (i-1)r + j)``; its label equals its x-coordinate.
    """
    if r < 1 or s < 1:
        raise ValidationError("grid dimensions must be >= 1, got %d x %d" % (r, s))
    placement = {}
    for i in range(1, s + 1):
        for j in range(1, r + 1):
            x = (j - 1) * s + (s - i + 1)
            y = (i - 1) * r + j
            placement[x] = Point(x, y)
    return Permutation(placement)


def substitute(outer: Permutation, x: int, inner: Permutation) -> Permutation:
    """Replace the point labeled x by a copy of ``inner`` occupying x's
    place: inner points keep their mutual orders and compare to the rest
    of ``outer`` exactly as x did.  Inner labels are remapped to fresh
    labels above max(outer labels), assigned in increasing inner-label
    order; surviving outer labels are kept."""
    if x not in outer:
        raise ValidationError("label %r not in permutation" % (x,))
    n = len(outer)
    m = len(inner)
    xr_o = {l: outer.xrank(l) for l in outer.labels}
    yr_o = {l: outer.yrank(l) for l in outer.labels}
    rx, ry = xr_o[x], yr_o[x]
    base = max(outer.labels)
    placement: Dict[int, Point] = {}
    for l in outer.labels:
        if l == x:
            continue
        px = xr_o[l] if xr_o[l] < rx else xr_o[l] + m - 1
        py = yr_o[l] if yr_o[l] < ry else yr_o[l] + m - 1
        placement[l] = Point(px, py)
    inner_sorted = sorted(inner.labels)
    for idx, l in enumerate(inner_sorted):
        px = rx - 1 + inner.xrank(l)
        py = ry - 1 + inner.yrank(l)
        placement[base + 1 + idx] = Point(px, py)
    return Permutation(placement)


def random_permutation(n: int, seed: int) -> Permutation:
    """Uniform reduced permutation of length n via seeded Fisher-Yates."""
    if n < 0:
        raise ValidationError("length must be nonnegative, got %d" % n)
    rng = _random.Random(seed)
    values = list(range(1, n + 1))
    rng.shuffle(values)
    return Permutation({i + 1: Point(i + 1, v) for i, v in enumerate(values)})


def random_separable(n: int, seed: int) -> Permutation:
    """Random separable permutation of length n, pure in (n, seed).

    Built by recursive substitution of monotone blocks: each node of a
    random block tree splits its value range into 2..4 consecutive bands,
    arranged ascending or descending, and recurses into each band.
    """
    if n < 1:
        raise ValidationError("length must be positive, got %d" % n)
    rng = _random.Random(seed)
    values: List[int] = []
    # stack items are (lowest value, block size); blocks pop in position order
    stack = [(1, n)]
    while stack:
        base, size = stack.pop()
        if size == 1:
            values.append(base)
            continue
        k = rng.randint(2, min(4, size))
        cuts = [0] + sorted(rng.sample(range(1, size), k - 1)) + [size]
        parts = [cuts[t + 1] - cuts[t] for t in range(k)]
        if rng.random() < 0.5:  # ascending bands
            bases = [base + cuts[t] for t in range(k)]
        else:
            bases = [base + size - cuts[t + 1] for t in range(k)]
        for b, s in reversed(list(zip(bases, parts))):
            stack.append((b, s))
    return Permutation({i + 1: Point(i + 1, v) for i, v in enumerate(values)})


# ---------------------------------------------------------------------------
# merge machinery
# ---------------------------------------------------------------------------

def validate_merge_sequence(seq: MergeSequence, n: int, *, require_complete: bool = False) -> None:
    """Structural validation over an n-point ground set: step p must create
    index n + p from two distinct live indices.  Raises ValidationError
    naming the offending step."""
    if n < 0:
        raise ValidationError("ground set size must be nonnegative")
    alive = set(range(1, n + 1))
    for p, step in enumerate(seq, 1):
        i, j, k = step
        if k != n + p:
            raise ValidationError(
                "step %d %r: new index must be %d (originals 1..%d, steps numbered upward)"
                % (p, tuple(step), n + p, n))
        if i not in alive:
            raise ValidationError("step %d %r: index %d is not alive" % (p, tuple(step), i))
        if j not in alive:
            raise ValidationError("step %d %r: index %d is not alive" % (p, tuple(step), j))
        if i == j:
            raise ValidationError("step %d %r: merge sources must differ" % (p, tuple(step)))
        alive.discard(i)
        alive.discard(j)
        alive.add(k)
    if require_complete and len(seq) != max(n - 1, 0):
        raise ValidationError(
            "sequence has %d steps but a full decomposition of %d points needs %d"
            % (len(seq), n, max(n - 1, 0)))


# ---------------------------------------------------------------------------
# grid witnesses
# ---------------------------------------------------------------------------

def verify_grid(target, w: GridWitness, r: int) -> bool:
    """Check an r x r grid witness against a permutation or point set: one
    witness per cell, every witness a point of the target lying inside its
    cell.  Cell (i, j) is the half-open box (col_cut[i-1], col_cut[i]] x
    (row_cut[j-1], row_cut[j]] with outer cuts at +-infinity."""
    if r < 1:
        raise ValidationError("grid order must be >= 1, got %d" % r)
    if w.r != r:
        raise ValidationError("witness is %d x %d but r = %d was requested" % (w.r, w.r, r))
    pts = set(target.points)
    cc = (None,) + w.col_cuts + (None,)
    rc = (None,) + w.row_cuts + (None,)
    for j in range(r):
        for i in range(r):
            p = w.witnesses[j][i]
            if p not in pts:
                return False
            if cc[i] is not None and p.x <= cc[i]:
                return False
            if cc[i + 1] is not None and p.x > cc[i + 1]:
                return False
            if rc[j] is not None and p.y <= rc[j]:
                return False
            if rc[j + 1] is not None and p.y > rc[j + 1]:
                return False
    return True
