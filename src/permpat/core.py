"""Core types and operations for permutations as one-line words.

A permutation of length n is its one-line word: a tuple holding each of
1..n once.  Label l names the point (l, word[l-1]), so the labels are the
x-coordinates and the word gives the y-coordinates.  Everything
downstream (width, decompositions, pattern matching) only ever looks at
the two coordinate orders, so any point set in general position stands
for the permutation ``reduce`` gives it: its y-ranks read in x-order.

Also provided: merge sequences (the protocol objects of the width
machinery), grid witnesses, and parsers/formatters for the one-line text
interchange formats.  ``Point``s appear only where the formats and the
grid witnesses need coordinates.
"""

from __future__ import annotations

import random as _random
from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, NamedTuple, Sequence, Tuple


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
    """Immutable permutation of 1..n, held as its one-line word.

    ``word[l-1]`` is the value at position l: label l is the point
    (l, word[l-1]).  The constructor checks that the word holds every
    int of 1..n exactly once.
    """

    __slots__ = ("_word",)

    def __init__(self, word: Iterable[int]):
        w = tuple(word)
        n = len(w)
        seen = bytearray(n + 1)
        for v in w:
            if type(v) is not int:
                raise ValidationError("word entries must be ints, got %r" % (v,))
            if not 1 <= v <= n:
                raise ValidationError("value %d out of range 1..%d" % (v, n))
            if seen[v]:
                raise ValidationError("duplicate value %d" % v)
            seen[v] = 1
        self._word = w

    @property
    def word(self) -> Tuple[int, ...]:
        """The one-line word: the y-coordinates in label (= x) order."""
        return self._word

    def __len__(self) -> int:
        return len(self._word)

    @property
    def points(self) -> Tuple[Point, ...]:
        """The points (l, word[l-1]) in label order."""
        return tuple(Point(l, v) for l, v in enumerate(self._word, 1))

    def one_line(self) -> str:
        return " ".join(str(v) for v in self._word)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Permutation):
            return NotImplemented
        return self._word == other._word

    def __hash__(self) -> int:
        return hash(self._word)

    def __repr__(self) -> str:
        if len(self) <= 12:
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
    def _of_steps(cls, steps: List[Tuple[int, int, int]]) -> "MergeSequence":
        """Wrap the builder's list of (i, j, k) int tuples without checking
        them.  The list is turned into MergeSteps in place, so no second
        copy of the steps is ever held."""
        new = tuple.__new__
        for p, step in enumerate(steps):
            steps[p] = new(MergeStep, step)
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

    The values, in order, are the word: position i (1-based) holds the
    point (i, v).
    """
    tokens = text.split()
    if not tokens:
        raise ParseError("empty permutation text (length 0 is not parseable)")
    values: List[int] = []
    for tok in tokens:
        try:
            values.append(int(tok))
        except ValueError:
            raise ParseError("bad token %r: not an integer" % (tok,)) from None
    try:
        return Permutation(values)
    except ValidationError as exc:
        raise ParseError("bad permutation: %s" % exc) from None


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
    """The permutation of a point collection in general position: its
    y-ranks read in x-order."""
    pts = sorted((int(p[0]), int(p[1])) for p in points)
    ys = sorted(y for _, y in pts)
    if any(a[0] == b[0] for a, b in zip(pts, pts[1:])):
        raise ValidationError("general position violated: duplicate x-coordinate in input")
    if any(a == b for a, b in zip(ys, ys[1:])):
        raise ValidationError("general position violated: duplicate y-coordinate in input")
    yrank = {y: i for i, y in enumerate(ys, 1)}
    return Permutation([yrank[y] for _, y in pts])


def verify_embedding(pattern: Permutation, target: Permutation, emb: Mapping[int, int]) -> bool:
    """Check that emb maps the pattern's labels to target labels preserving
    both coordinate orders (injectively).  Non-total maps or images outside
    the target are validation errors; order violations just return False.
    """
    m = len(pattern)
    n = len(target)
    if set(emb.keys()) != set(range(1, m + 1)):
        raise ValidationError("embedding is not a total map on the pattern's labels")
    image = [emb[s] for s in range(1, m + 1)]
    for t in image:
        if type(t) is not int or not 1 <= t <= n:
            raise ValidationError("embedding image %r is not a target label" % (t,))
    if len(set(image)) != m:
        return False
    sw = pattern.word
    tw = target.word
    ys = [tw[t - 1] for t in image]
    for a in range(m):
        for b in range(a + 1, m):
            # pattern label a + 1 lies left of b + 1
            if image[a] > image[b] or (sw[a] < sw[b]) != (ys[a] < ys[b]):
                return False
    return True


def canonical_grid(r: int, s: int) -> Permutation:
    """The r*s-point permutation whose reduced form splits into an r x s
    grid of cells, each holding one point: r columns (left to right), s
    rows (bottom to top); each row is increasing, each column decreasing.

    The point in row i (1..s), column j (1..r) sits at
    ``((j-1)s + (s-i+1), (i-1)r + j)``.
    """
    if r < 1 or s < 1:
        raise ValidationError("grid dimensions must be >= 1, got %d x %d" % (r, s))
    word = [0] * (r * s)
    for i in range(1, s + 1):
        for j in range(1, r + 1):
            word[(j - 1) * s + (s - i)] = (i - 1) * r + j
    return Permutation(word)


def substitute(outer: Permutation, x: int, inner: Permutation) -> Permutation:
    """Replace the point labeled x by a copy of ``inner`` occupying x's
    place: inner points keep their mutual orders and compare to the rest
    of ``outer`` exactly as x did.  In the word, inner's values take the
    place of x's value v, shifted up by v - 1, and the outer values above
    v move up by len(inner) - 1."""
    n = len(outer)
    if type(x) is not int or not 1 <= x <= n:
        raise ValidationError("label %r not in permutation" % (x,))
    v = outer.word[x - 1]
    m = len(inner)
    word = [y if y < v else y + m - 1 for y in outer.word]
    word[x - 1:x] = [v - 1 + y for y in inner.word]
    return Permutation(word)


def random_permutation(n: int, seed: int) -> Permutation:
    """Uniform reduced permutation of length n via seeded Fisher-Yates."""
    if n < 0:
        raise ValidationError("length must be nonnegative, got %d" % n)
    rng = _random.Random(seed)
    values = list(range(1, n + 1))
    rng.shuffle(values)
    return Permutation(values)


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
    return Permutation(values)


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
    if isinstance(target, Permutation):
        word = target.word
        n = len(word)

        def present(p: Point) -> bool:
            return 1 <= p.x <= n and word[p.x - 1] == p.y
    else:
        # one pass over the points for the r^2 witnesses, no set of them all
        wanted = {p for row in w.witnesses for p in row}
        present = wanted.intersection(target.points).__contains__
    cc = (None,) + w.col_cuts + (None,)
    rc = (None,) + w.row_cuts + (None,)
    for j in range(r):
        for i in range(r):
            p = w.witnesses[j][i]
            if not present(p):
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
