"""Shared instance generators and test-only reference code.

Besides the generators, this module holds what only the tests call: the
readers of the embedding and grid witness formats and the writer of the
monotone partition format (no CLI command reads the first two or writes
the third), a partition's label -> class map, the reference greedy
monotone partition, the canonical grid's row-sweep decomposition,
substitution, the (6t-5)-wide decomposition of a t-monotone target, a
check of the decomposition builder's gridding after every merge, the
raw constraint relations of the class-respecting embedding problem
with their median, close pairs, the tree characterization of d-wide
sequences, separability, and the grid finder's whole-set block round.
"""

import bisect
import itertools
import random
from math import comb
from typing import Dict, Iterator, List, Optional, Set, Tuple, Union

import permpat.decompose as dec
from permpat import (
    DecompositionResult,
    Embedding,
    GridWitness,
    MergeSequence,
    MonotonePartition,
    ParseError,
    Permutation,
    Point,
    SizeCapError,
    ValidationError,
    build_decomposition,
    validate_merge_sequence,
    validate_monotone_partition,
    verify_grid,
)
from permpat.griddetect import Columns, PointSet
from permpat.matcher import Box
from permpat.monotone import PatternAssignment


def random_t_monotone(n: int, t: int, rng: random.Random) -> Tuple[Permutation, MonotonePartition]:
    """Random permutation that is a union of t monotone subsequences,
    together with a witnessing partition (every class nonempty)."""
    while True:
        values = list(range(1, n + 1))
        rng.shuffle(values)
        owner = [rng.randrange(t) for _ in range(n)]
        if len(set(owner)) < t:
            continue
        directions = [rng.choice(["inc", "dec"]) for _ in range(t)]
        pools: List[List[int]] = []
        for ci in range(t):
            vals = [v for v, c in zip(values, owner) if c == ci]
            pools.append(sorted(vals, reverse=(directions[ci] == "dec")))
        points = []
        owners = []
        while any(pools):
            ci = rng.choice([i for i in range(t) if pools[i]])
            points.append(pools[ci].pop(0))
            owners.append(ci)
        perm = Permutation(points)
        classes = []
        for ci in range(t):
            members = tuple(i + 1 for i in range(n) if owners[i] == ci)
            classes.append((members, directions[ci]))
        return perm, MonotonePartition(tuple(classes))


def random_merge_sequence(n: int, rng: random.Random) -> MergeSequence:
    """Complete merge sequence with a uniformly chosen pair at each step."""
    live = list(range(1, n + 1))
    steps = []
    k = n
    while len(live) > 1:
        i, j = rng.sample(live, 2)
        k += 1
        steps.append((i, j, k))
        live.remove(i)
        live.remove(j)
        live.append(k)
    return MergeSequence(steps)


# ---------------------------------------------------------------------------
# text formats no CLI command reads or writes
# ---------------------------------------------------------------------------

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
            try:
                row.append(Point(int(parts[0]), int(parts[1])))
            except ValueError:
                raise ParseError("non-integer coordinate in witness point line %r"
                                 % (pts[j * r + i],)) from None
        rows.append(tuple(row))
    return GridWitness(col_cuts, row_cuts, rows)


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


def format_monotone_partition(part: MonotonePartition) -> str:
    lines = []
    for labels, direction in part.classes:
        lines.append("%s: %s" % (direction, " ".join(str(s) for s in labels)))
    return "\n".join(lines) + "\n"


def class_of(part: MonotonePartition) -> Dict[int, int]:
    """Label -> 1-based class index."""
    out: Dict[int, int] = {}
    for idx, (labels, _) in enumerate(part.classes, start=1):
        for s in labels:
            out[s] = idx
    return out


def _reference_longest_monotone(values: List[int], decreasing: bool) -> List[int]:
    """Indices of a longest increasing — or decreasing — subsequence of
    ``values``, preferring the lexicographically least position set: a
    patience pass by index from the right, then a greedy read-off."""
    m = len(values)
    ys = [-v for v in values] if decreasing else values
    best = [0] * m  # length of the longest run starting at each position
    tails: List[int] = []
    for r in range(m - 1, -1, -1):
        v = -ys[r]
        idx = bisect.bisect_left(tails, v)
        if idx == len(tails):
            tails.append(v)
        else:
            tails[idx] = v
        best[r] = idx + 1
    out: List[int] = []
    j = -1
    for need in range(max(best), 0, -1):
        j = best.index(need, j + 1)
        out.append(j)
    return out


def reference_greedy_partition(perm: Permutation) -> MonotonePartition:
    """The greedy monotone partition by its plain definition: strip a
    longest monotone subsequence of the remaining points, increasing on a
    tie, with both patience passes on every remainder until none is left.
    ``greedy_monotone_partition`` must equal it class by class."""
    word = perm.word
    remaining = list(range(1, len(word) + 1))  # labels, in x-order
    classes = []
    while remaining:
        ys = [word[l - 1] for l in remaining]
        take, direction = _reference_longest_monotone(ys, decreasing=False), "inc"
        dec = _reference_longest_monotone(ys, decreasing=True)
        if len(dec) > len(take):
            take, direction = dec, "dec"
        chosen = set(take)
        classes.append((tuple(remaining[i] for i in take), direction))
        remaining = [l for i, l in enumerate(remaining) if i not in chosen]
    return MonotonePartition(tuple(classes))


# ---------------------------------------------------------------------------
# canonical grids and substitution
# ---------------------------------------------------------------------------

def canonical_grid_decomposition(r: int, s: int) -> MergeSequence:
    """Row-sweep merge sequence for canonical_grid(r, s): sweep the rows
    bottom to top, absorbing each row's point into its column's rectangle
    (columns left to right within a level), then join the r column
    rectangles left to right.  At every step the new rectangle stays inside
    its column's x-band and sees exactly the other r - 1 column rectangles
    on the y-axis, so the width is exactly r whenever s >= 2."""
    if r < 1 or s < 1:
        raise ValidationError("grid dimensions must be >= 1, got %d x %d" % (r, s))
    n = r * s
    steps: List[Tuple[int, int, int]] = []
    nxt = n + 1
    # label of the row-i point of column j is (j-1)s + (s-i+1); start each
    # column's rectangle at its row-1 point
    col_rect = [j * s for j in range(1, r + 1)]
    for t in range(2, s + 1):
        for j in range(1, r + 1):
            label = (j - 1) * s + (s - t + 1)
            steps.append((col_rect[j - 1], label, nxt))
            col_rect[j - 1] = nxt
            nxt += 1
    cur = col_rect[0]
    for other in col_rect[1:]:
        steps.append((cur, other, nxt))
        cur = nxt
        nxt += 1
    return MergeSequence(steps)


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


# ---------------------------------------------------------------------------
# constructive bounded-width decomposition
# ---------------------------------------------------------------------------

def _inside(inner: Box, outer: Box, axis: int) -> bool:
    a = 2 * axis
    return outer[a] <= inner[a] and inner[a + 1] <= outer[a + 1]


def monotone_decomposition(perm: Permutation, part: MonotonePartition,
                           validate: bool = False) -> MergeSequence:
    """Merge sequence of width at most 6t-5 built from a t-monotone
    partition: while some class has two or more rectangles, merge the
    class-consecutive pair minimising max over axes of the number of
    foreign rectangles pinned inside the pair's bounding box (guaranteed
    at most 4(t-1) by averaging), then join the class survivors in class
    order.  ``validate`` recomputes all pin counters from scratch each
    step and checks them against the incremental ones."""
    validate_monotone_partition(perm, part)
    n = len(perm)
    t = part.t
    if n <= 1:
        return MergeSequence([])
    box: Dict[int, Box] = {l: (l, l, y, y) for l, y in enumerate(perm.word, 1)}
    cls_of: Dict[int, int] = {}
    nxt: Dict[int, Optional[int]] = {}
    prv: Dict[int, Optional[int]] = {}
    heads: List[int] = []
    for ci, (order, _) in enumerate(part.classes):
        heads.append(order[0])
        for idx, s in enumerate(order):
            cls_of[s] = ci
            prv[s] = order[idx - 1] if idx else None
            nxt[s] = order[idx + 1] if idx + 1 < len(order) else None
    live: Set[int] = set(box)

    def pair_box(left: int) -> Box:
        b1, b2 = box[left], box[nxt[left]]
        return (min(b1[0], b2[0]), max(b1[1], b2[1]),
                min(b1[2], b2[2]), max(b1[3], b2[3]))

    def recount(left: int) -> List[int]:
        bx = pair_box(left)
        right = nxt[left]
        p = [0, 0]
        for v in live:
            if v == left or v == right:
                continue
            for axis in (0, 1):
                if _inside(box[v], bx, axis):
                    p[axis] += 1
        return [p[0], p[1], bx]

    pairs: Dict[int, List] = {}  # left member -> [pin1, pin2, bounding box]
    for s in live:
        if nxt[s] is not None:
            pairs[s] = recount(s)

    steps: List[Tuple[int, int, int]] = []
    k = n
    while pairs:
        if validate:
            for left, (p1, p2, bx) in pairs.items():
                if [p1, p2] != recount(left)[:2]:
                    raise AssertionError("pin counters drifted")
            total = sum(max(p1, p2) for p1, p2, _ in pairs.values())
            if total > 4 * (t - 1) * len(pairs):
                raise AssertionError("averaging bound violated")
        left = min(pairs, key=lambda m: (max(pairs[m][0], pairs[m][1]), cls_of[m], m))
        p1, p2, bx = pairs[left]
        if p1 > 4 * (t - 1) or p2 > 4 * (t - 1):
            raise AssertionError("selected pair exceeds pin bound")
        i, j = left, nxt[left]
        k += 1
        steps.append((i, j, k))
        # splice k into the class chain
        a, b = prv[i], nxt[j]
        for gone in (i, j):
            pairs.pop(gone, None)
        if a is not None:
            pairs.pop(a, None)
        cls_of[k] = cls_of[i]
        box[k] = bx
        prv[k], nxt[k] = a, b
        if a is not None:
            nxt[a] = k
        else:
            heads[cls_of[k]] = k
        if b is not None:
            prv[b] = k
        live.discard(i)
        live.discard(j)
        # membership deltas for untouched pairs, then fresh counts for the
        # at most two new pairs around k
        for p in pairs.values():
            pbx = p[2]
            for axis in (0, 1):
                p[axis] += (_inside(bx, pbx, axis)
                            - _inside(box[i], pbx, axis)
                            - _inside(box[j], pbx, axis))
        live.add(k)
        if a is not None:
            pairs[a] = recount(a)
        if b is not None:
            pairs[k] = recount(k)
    survivors = [heads[ci] for ci in range(t)]
    acc = survivors[0]
    for s in survivors[1:]:
        k += 1
        steps.append((acc, s, k))
        acc = k
    return MergeSequence(steps)


# ---------------------------------------------------------------------------
# the decomposition builder's gridding invariants
# ---------------------------------------------------------------------------

def check_builder_state(state, boxes: Dict[int, Box]) -> None:
    """Check a build's gridding between merges: line sizes in 1..d and
    equal to their cells' rectangle counts, consecutive lines over budget,
    line spans covering 1..n in order, cells linked to both their lines,
    the large-cell queue exact, and every live rectangle in exactly one
    cell and inside its span.  ``boxes`` maps rectangle indices to their
    (x1, x2, y1, y2) bounding boxes; the merge steps it lacks are replayed
    into it first.  Raises AssertionError, also under -O."""
    for i, j, k in state.steps[len(boxes) - state.n:]:
        a, b = boxes[i], boxes[j]
        boxes[k] = (min(a[0], b[0]), max(a[1], b[1]), min(a[2], b[2]), max(a[3], b[3]))
    d = state.d
    cols, rows = state.cols, state.rows
    spans = []
    for axis in (cols, rows):
        # a line starts one past the previous live line's end
        span: Dict[int, Tuple[int, int]] = {}
        lo = 1
        lines = dec._lines(axis)
        for ln in lines:
            size = axis.size[ln]
            if not 1 <= size <= d:
                raise AssertionError("line size %d outside 1..%d" % (size, d))
            if sum(len(c) - 2 if c.__class__ is list else 1
                   for c in axis.cells[ln].values()) != size:
                raise AssertionError("line size differs from its cells' rectangle count")
            if axis.hi[ln] < lo:
                raise AssertionError("line spans out of order")
            span[ln] = (lo, axis.hi[ln])
            lo = axis.hi[ln] + 1
        if lo != state.n + 1:
            raise AssertionError("line spans do not end at n")
        for a, b in zip(lines, lines[1:]):
            if axis.size[a] + axis.size[b] <= d:
                raise AssertionError("consecutive lines fit the budget but were not merged")
        spans.append(span)
    cspan, rspan = spans
    large = {id(cell) for cell in state.large if cell}
    seen: Set[int] = set()
    cells = 0
    for col, (x1, x2) in cspan.items():
        for row, cell in cols.cells[col].items():
            cells += 1
            if row not in rspan or rows.cells[row].get(col) is not cell:
                raise AssertionError("cell linked to the wrong lines")
            if cell.__class__ is list:
                if cell[:2] != [col, row]:
                    raise AssertionError("cell linked to the wrong lines")
                if len(cell) < 4:
                    raise AssertionError("large cell holds fewer than two rectangles")
                if id(cell) not in large:
                    raise AssertionError("large-cell queue stale")
                large.discard(id(cell))
                rects = cell[2:]
            else:
                rects = [cell]
            y1, y2 = rspan[row]
            for idx in rects:
                if idx in seen:
                    raise AssertionError("rectangle in two cells")
                seen.add(idx)
                a = boxes[idx]
                if not (x1 <= a[0] and a[1] <= x2 and y1 <= a[2] and a[3] <= y2):
                    raise AssertionError("rectangle escapes its cell")
    if sum(len(rows.cells[row]) for row in rspan) != cells:
        raise AssertionError("row and column cells differ")
    if large:
        raise AssertionError("large-cell queue holds a cell off the grid")
    if len(seen) != state.total:
        raise AssertionError("%d rectangles in cells, %d alive" % (len(seen), state.total))


def build_checked(perm: Permutation, r: Optional[int] = None, *, d: Optional[int] = None,
                  stats: Optional[dict] = None) -> DecompositionResult:
    """build_decomposition with check_builder_state run after every merge
    step, once both axes have coarsened: the builder's ``_maybe_coarsen``
    is wrapped for the call."""
    boxes = {l: (l, l, y, y) for l, y in enumerate(perm.word, 1)}
    checked: List[int] = []
    real = dec._maybe_coarsen

    def coarsen_then_check(state, axis, other, line, pos, stats):
        real(state, axis, other, line, pos, stats)
        if pos:  # the rows coarsen last in a step
            check_builder_state(state, boxes)
            checked.append(len(state.steps))

    stats = {} if stats is None else stats
    dec._maybe_coarsen = coarsen_then_check
    try:
        res = build_decomposition(perm, r, d=d, stats=stats)
    finally:
        dec._maybe_coarsen = real
    if checked != list(range(1, stats["merges"] + 1)):
        raise AssertionError("%d checks after %d merges" % (len(checked), stats["merges"]))
    return res


# ---------------------------------------------------------------------------
# median closure of the class-respecting constraints
# ---------------------------------------------------------------------------

def constraint_relations(sigma: Permutation, assign: PatternAssignment,
                         pi: Permutation, part: MonotonePartition
                         ) -> Iterator[Tuple[int, int, int, Tuple[Tuple[int, int], ...]]]:
    """The raw binary constraints of the class-respecting embedding
    problem: (x, y, alpha, allowed image pairs), one per ordered pattern
    pair per axis.  Used to check median closure."""
    sw = sigma.word
    members = [list(c) for c, _ in part.classes]
    for x, y in itertools.combinations(range(1, len(sigma) + 1), 2):
        for alpha in (1, 2):
            u, w = (x, y) if alpha == 1 or sw[x - 1] < sw[y - 1] else (y, x)
            rank = _axis(pi, alpha)
            rel = tuple((uu, ww)
                        for uu in members[assign[u] - 1]
                        for ww in members[assign[w] - 1]
                        if rank(uu) < rank(ww))
            yield u, w, alpha, rel


def _axis(pi: Permutation, alpha: int):
    """Label -> coordinate along axis alpha (1: x, 2: y)."""
    if alpha == 1:
        return lambda l: l
    word = pi.word
    return lambda l: word[l - 1]


def mid_point(pi: Permutation, alpha: int, a: int, b: int, c: int) -> int:
    """Median of three target labels along axis alpha."""
    return sorted((a, b, c), key=_axis(pi, alpha))[1]


# ---------------------------------------------------------------------------
# close pairs and the tree characterization
# ---------------------------------------------------------------------------

TREE_CHECK_CAP = 12     # 2^n subsets with a bitmask scan each


def find_close_pair(perm: Permutation, d: int) -> Optional[Tuple[int, int]]:
    """First (by label pair, lexicographically) pair p < q with fewer than
    d points strictly between them in both the x- and the y-order."""
    word = perm.word
    n = len(word)
    for p in range(1, n + 1):
        for q in range(p + 1, n + 1):
            if q - p - 1 < d and abs(word[p - 1] - word[q - 1]) - 1 < d:
                return (p, q)
    return None


def check_tree_characterization(perm: Permutation, seq: MergeSequence, d: int) -> bool:
    """Width test driven by the merge forest alone.

    For every subset X of at least two points, restrict the merge tree to
    X and look at its lowest-numbered internal node; that node joins
    exactly two X-points, and the sequence is d-wide on the whole
    permutation iff for every X this pair is d-close within the
    restriction to X.  Exhaustive over 2^n subsets; capped at
    TREE_CHECK_CAP points.
    """
    n = len(perm)
    if n > TREE_CHECK_CAP:
        raise SizeCapError("check_tree_characterization enumerates 2^n subsets; "
                           "%d points exceeds cap %d" % (n, TREE_CHECK_CAP))
    validate_merge_sequence(seq, n, require_complete=True)
    if n <= 1:
        return True

    # bit b-1 of a mask stands for label b
    leafmask = {l: 1 << (l - 1) for l in range(1, n + 1)}
    internal: List[Tuple[int, int]] = []  # (child mask i, child mask j) in index order
    for i, j, k in seq:
        internal.append((leafmask[i], leafmask[j]))
        leafmask[k] = leafmask[i] | leafmask[j]

    xr = list(range(n + 1))
    yr = [0, *perm.word]

    for X in range(1, 1 << n):
        if X & (X - 1) == 0:
            continue  # fewer than two points
        pair = 0
        for mi, mj in internal:
            if (mi & X) and (mj & X):
                pair = ((mi | mj) & X)
                break
        # the lowest internal node of the restricted tree joins exactly
        # two X-points; anything else is a bug in this oracle
        if not pair or bin(pair).count("1") != 2:
            raise AssertionError("restricted tree scan broke")
        lo = (pair & -pair).bit_length()
        hi = pair.bit_length()
        # count members of X strictly between the pair in each order
        x_lo, x_hi = sorted((xr[lo], xr[hi]))
        y_lo, y_hi = sorted((yr[lo], yr[hi]))
        g1 = g2 = 0
        rest = X & ~pair
        while rest:
            b = (rest & -rest).bit_length()
            rest &= rest - 1
            if x_lo < xr[b] < x_hi:
                g1 += 1
            if y_lo < yr[b] < y_hi:
                g2 += 1
        if g1 >= d or g2 >= d:
            return False
    return True


# ---------------------------------------------------------------------------
# separability
# ---------------------------------------------------------------------------

def is_separable(perm: Permutation) -> bool:
    """Decide separability by greedy contraction.

    A permutation is separable iff, as long as two or more points remain,
    some pair is adjacent in both the x-order and the y-order, and
    contracting such a pair (dropping one of the two) keeps it separable.
    Maintaining both adjacency lists makes this linear-ish: each
    contraction only creates candidate pairs next to the removed point.
    """
    n = len(perm)
    if n <= 1:
        return True
    by_x = list(range(1, n + 1))
    by_y = [0] * n
    for l, y in enumerate(perm.word, 1):
        by_y[y - 1] = l
    # doubly linked neighbor maps in each order
    nxt_x: Dict[int, Optional[int]] = {}
    prv_x: Dict[int, Optional[int]] = {}
    nxt_y: Dict[int, Optional[int]] = {}
    prv_y: Dict[int, Optional[int]] = {}
    for order, nxt, prv in ((by_x, nxt_x, prv_x), (by_y, nxt_y, prv_y)):
        for a, b in zip(order, order[1:]):
            nxt[a] = b
            prv[b] = a
        nxt[order[-1]] = None
        prv[order[0]] = None

    alive: Set[int] = set(by_x)
    work: List[int] = list(by_x)
    remaining = n
    while work:
        a = work.pop()
        if a not in alive:
            continue
        b = nxt_x.get(a)
        if b is None or b not in alive:
            continue
        if nxt_y.get(a) != b and prv_y.get(a) != b:
            continue
        # contract: drop b, a absorbs it
        alive.discard(b)
        remaining -= 1
        for nxt, prv in ((nxt_x, prv_x), (nxt_y, prv_y)):
            after = nxt.get(b)
            before = prv.get(b)
            if before == a or after == a:
                # a and b adjacent here; splice b out around a
                if before == a:
                    nxt[a] = after
                    if after is not None:
                        prv[after] = a
                else:
                    prv[a] = before
                    if before is not None:
                        nxt[before] = a
            else:  # pragma: no cover - b is adjacent to a in both orders
                raise AssertionError("contraction invariant broken")
        # new adjacencies can only appear next to a
        for c in (a, prv_x.get(a), prv_y.get(a)):
            if c is not None and c in alive:
                work.append(c)
    return remaining == 1


# ---------------------------------------------------------------------------
# the grid finder's block round over the whole set
# ---------------------------------------------------------------------------

def find_blocks(M: PointSet, r: int) -> List[Tuple[int, int, Tuple[int, ...]]]:
    """Group M into blocks of side r^2: one (bx, by, cols) per nonempty
    block, in block (x, y) order, with (bx, by) its 1-based position in
    block units and cols its occupied original columns, ascending."""
    side = r * r
    rows = (M.q + side - 1) // side
    table: Dict[int, List[int]] = {}
    for x, y in sorted(M.points):
        key = (x - 1) // side * rows + (y - 1) // side
        cols = table.get(key)
        if cols is None:
            table[key] = [x]
        elif cols[-1] != x:
            cols.append(x)
    return [(key // rows + 1, key % rows + 1, tuple(cols))
            for key, cols in sorted(table.items())]


def whole_set_block_round(M: PointSet, r: int) -> Union[GridWitness, PointSet]:
    """Reference for ``griddetect.find_grid_or_reduce``: block all of M
    first, then scan the blocks in block (x, y) order for r wide blocks of
    one block column with the same first r columns; the first such hit's
    gridding, or else the contraction to one point per nonempty block."""
    side = r * r
    blocks = find_blocks(M, r)
    hits: Dict[Tuple[int, Tuple[int, ...]], List[int]] = {}
    wide_per_col: Dict[int, int] = {}
    for bx, by, cols in blocks:
        if len(cols) < r:
            continue
        wide_per_col[bx] = wide_per_col.get(bx, 0) + 1
        ys = hits.setdefault((bx, cols[:r]), [])
        ys.append(by)
        if len(ys) == r:
            S = cols[:r]
            rep: Dict[Tuple[int, int], int] = {}
            for x, y in M.points:
                by = (y - 1) // side + 1
                if x in S and by in ys and rep.get((by, x), y) >= y:
                    rep[(by, x)] = y
            w = GridWitness([S[i] - 1 for i in range(1, r)],
                            [(ys[j] - 1) * side for j in range(1, r)],
                            [[Point(S[i], rep[(ys[j], S[i])]) for i in range(r)]
                             for j in range(r)])
            if not verify_grid(Columns.of(M), w, r):
                raise AssertionError("reference witness failed verification")
            return w
    if not all(c < r * comb(side, r) for c in wide_per_col.values()):
        raise AssertionError("wide-block bound violated")
    return PointSet((M.p + side - 1) // side, (M.q + side - 1) // side,
                    [(bx, by) for bx, by, _ in blocks])
