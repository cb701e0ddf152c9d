"""Independent reference implementations used to cross-check the package.

Everything here is deliberately naive: textbook Gaussian elimination over
Fraction, the bilinear pairing as a double sum, one Mumford pullback per
curve for the extremal ranking, an MMP loop on its own chain of models
that ranks by those pullbacks at every step, cofactor determinants, a
determinant per leading minor, characteristic polynomials, a bounded
blow-up search for total discrepancies, the coordinate model of a
blown-up plane (classes as vectors in the diagonal basis), blow-ups and
blow-downs that update every matrix entry, a minimal resolution that
builds and validates every intermediate model, log pullback coefficients
by Gauss-Jordan and a classifier that compares Fractions. Slow and
obvious beats fast and clever for an oracle.
"""

from fractions import Fraction
from operator import mul

from logsurf.errors import ModelError, ScenarioError
from logsurf.lattice import SurfaceModel, _validated, declare_contracted
from logsurf.mmp import (
    ARTIN_TYPE,
    CASTELNUOVO,
    Exhausted,
    MinimalOverTracked,
    MmpRun,
    MmpStep,
    MoriFiberSignal,
    NamedOrder,
    audit_run,
)
from logsurf.singularities import (
    EPS_LOG_CANONICAL,
    EPS_LOG_TERMINAL,
    NEG_INFINITY,
    NOT_LOG_CANONICAL,
    UNCLASSIFIABLE_SNC,
    QDivisor,
    SingularityClass,
    classify,
)


def pairing(u, v):
    """Intersection pairing in the diagonal basis (+1, -1, ..., -1)."""
    assert len(u) == len(v), "classes live in lattices of different rank"
    assert len(u) >= 1
    total = u[0] * v[0]
    for a, b in zip(u[1:], v[1:]):
        total -= a * b
    return total


def coordinate_model(rank, canonical, curves, contracted=()):
    """An unvalidated SurfaceModel from classes in the diagonal basis.

    `canonical` and each value of `curves` are coefficient tuples over the
    hyperplane class and the exceptional directions; the intersection
    matrix is their diagonal pairing, K first, curves in dict order.
    """
    names = tuple(curves)
    classes = [tuple(canonical)] + [tuple(curves[n]) for n in names]
    matrix = tuple(tuple(pairing(a, b) for b in classes) for a in classes)
    return SurfaceModel(rank=rank, names=names, matrix=matrix, contracted=frozenset(contracted))


class CoordinateTower:
    """Blow-ups and blow-downs of the plane in fixed ambient coordinates.

    A blow-up appends one exceptional basis direction: curves through the
    point lose it (strict transform) and the canonical class gains it. A
    blow-down replaces every class D by its pushforward representative
    D + (D.e)e, orthogonal to e, and keeps the coordinate length, so the
    one diagonal form computes every pairing forever.
    """

    def __init__(self):
        self.rank = 1
        self.canonical = (-3,)
        self.curves = {}

    def blow_up(self, through, name):
        self.curves = {n: c + (-1 if n in through else 0,) for n, c in self.curves.items()}
        self.curves[name] = (0,) * len(self.canonical) + (1,)
        self.canonical += (1,)
        self.rank += 1

    def blow_down(self, name):
        e = self.curves.pop(name)

        def push(d):
            k = pairing(d, e)
            return tuple(x + k * y for x, y in zip(d, e))

        self.curves = {n: push(c) for n, c in self.curves.items()}
        self.canonical = push(self.canonical)
        self.rank -= 1


def dense_blow_down(model, name):
    """Blow down a (-1)-curve with the full rank-one update M + g g^T over
    every entry, drop its row and column, and validate the new model."""
    if model.self_int(name) != -1 or model.k_dot(name) != -1:
        raise ModelError(f"{name!r} is not a (-1)-curve; cannot blow down")
    e = model.row(name)
    g = [row[e] for row in model.matrix]
    rows = [
        tuple(x + gi * gj for j, (x, gj) in enumerate(zip(row, g)) if j != e)
        for i, (row, gi) in enumerate(zip(model.matrix, g))
        if i != e
    ]
    return _validated(
        SurfaceModel(
            rank=model.rank - 1,
            names=tuple(n for n in model.names if n != name),
            matrix=tuple(rows),
            contracted=model.contracted - {name},
        )
    )


def dense_blow_up(model, point, exc_name):
    """Blow up with the update over every entry: with s_K = 1, s_C = -1 for
    the curves through the point and 0 otherwise, row R becomes R - s_R s
    and pairs with E as -s_R, and E.E = -1. No checks."""
    through = {model.row(n) for n in point.names}
    s = [1] + [-1 if i in through else 0 for i in range(1, len(model.matrix))]
    rows = [tuple([x - si * sj for x, sj in zip(row, s)] + [-si]) for row, si in zip(model.matrix, s)]
    rows.append(tuple([-si for si in s] + [-1]))
    return SurfaceModel(rank=model.rank + 1, names=model.names + (exc_name,), matrix=tuple(rows))


def stepwise_minimal_resolution(model):
    """Blow down the first contracted (-1)-curve in name order, one model
    at a time, each one validated, until none is left."""
    while True:
        ready = [
            n
            for n in sorted(model.contracted)
            if model.self_int(n) == -1 and model.k_dot(n) == -1
        ]
        if not ready:
            return model
        model = dense_blow_down(model, ready[0])


def lt_by_dual_graph(model):
    """Whether the modeled surface is log terminal at epsilon 0 with no
    boundary, read off the dual graph of its minimal resolution alone, with
    no solve (Kawamata 1988; Kollar-Mori 1998, section 4.1). Each connected
    component of the contracted curves, all smooth rational, must be a
    chain, or a star with three branches whose determinants d_i, of minus
    each branch's Gram block by `cofactor_det`, satisfy 1/d_1 + 1/d_2 +
    1/d_3 > 1. A cycle, a multi-edge or any other tree is not log terminal.
    The matrix holds only pairwise intersections, so three curves through
    one point cannot be represented: it would read as a triangle. No blow-up
    point kind builds one, as a point lies on at most two tracked curves."""
    mr = stepwise_minimal_resolution(model)
    vertices = sorted(mr.contracted)
    adjacent = {v: [w for w in vertices if w != v and mr.intersection(v, w)] for v in vertices}
    if any(mr.intersection(v, w) > 1 for v in vertices for w in adjacent[v]):
        return False

    def component(start, removed=()):
        seen, stack = {start}, [start]
        while stack:
            for w in adjacent[stack.pop()]:
                if w not in seen and w not in removed:
                    seen.add(w)
                    stack.append(w)
        return seen

    done = set()
    for root in vertices:
        if root in done:
            continue
        part = component(root)
        done |= part
        if sum(len(adjacent[v]) for v in part) != 2 * (len(part) - 1):
            return False  # a cycle
        centres = [v for v in part if len(adjacent[v]) > 2]
        if not centres:
            continue  # a chain
        if len(centres) > 1 or len(adjacent[centres[0]]) != 3:
            return False
        dets = []
        for branch in (component(b, removed=centres) for b in adjacent[centres[0]]):
            dets.append(cofactor_det([[-x for x in row] for row in mr.gram(sorted(branch))]))
        if sum(Fraction(1, d) for d in dets) <= 1:
            return False
    return True


def gauss_solve(matrix, rhs):
    """Plain fraction Gaussian elimination; raises ValueError when singular."""
    n = len(matrix)
    a = [[Fraction(x) for x in row] + [Fraction(rhs[i])] for i, row in enumerate(matrix)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col] != 0), None)
        if pivot is None:
            raise ValueError("singular system")
        a[col], a[pivot] = a[pivot], a[col]
        for r in range(n):
            if r != col and a[r][col] != 0:
                factor = a[r][col] / a[col][col]
                a[r] = [x - factor * y for x, y in zip(a[r], a[col])]
    return [a[i][n] / a[i][i] for i in range(n)]


def dot(model, u, v):
    """The bilinear intersection pairing of two rational combinations of a
    model's rows, each a sequence of (row, coefficient) pairs: a double sum
    over the matrix in Fractions."""
    m = model.matrix
    return sum((Fraction(a) * b * m[i][j] for i, a in u for j, b in v), Fraction(0))


def mumford_pullback(model, name):
    """The pullback C* = C + sum c_i E_i of a tracked curve as (row,
    coefficient) pairs: c solved by Gauss-Jordan on the contracted Gram
    block, every right-hand side paired through `dot`."""
    exceptional = sorted(model.contracted)
    curve = [(model.row(name), Fraction(1))]
    rhs = [-dot(model, curve, [(model.row(e), 1)]) for e in exceptional]
    c = gauss_solve(model.gram(exceptional), rhs)
    return curve + [(model.row(e), x) for e, x in zip(exceptional, c)]


def gauss_pullback(model, terms):
    """D* = D + sum c_i E_i of a combination D of rows, given as (row,
    coefficient) pairs, as Fractions over every row, c always solved by
    Gauss-Jordan on the whole contracted Gram block, in name order; and
    D*.(row j) for every row j, through `dot`."""
    exceptional = sorted(model.contracted)
    rhs = [-dot(model, terms, [(model.row(e), 1)]) for e in exceptional]
    pulled = list(terms) + list(zip(map(model.row, exceptional), gauss_solve(model.gram(exceptional), rhs)))
    coef = [Fraction(0)] * len(model.matrix)
    for r, c in pulled:
        coef[r] += c
    return coef, [dot(model, pulled, [(j, 1)]) for j in range(len(model.matrix))]


def mumford_pairings(model, boundary):
    """name -> ((K + B).C*, C*.C*) for every tracked curve that is not
    contracted, one Mumford pullback per curve, both numbers through `dot`.
    `boundary` maps curve names to coefficients."""
    log = [(0, Fraction(1))] + [(model.row(n), Fraction(c)) for n, c in boundary.items()]
    out = {}
    for name in model.tracked:
        if name not in model.contracted:
            pulled = mumford_pullback(model, name)
            out[name] = (dot(model, log, pulled), dot(model, pulled, pulled))
    return out


def pairwise_ranking(model, boundary):
    """The extremal ranking from `mumford_pairings`: (name, (K + B).C*,
    C*.C*) for every curve with (K + B).C* < 0, most negative first, names
    breaking ties."""
    pairs = mumford_pairings(model, boundary)
    return sorted(((n, v, s) for n, (v, s) in pairs.items() if v < 0), key=lambda t: (t[1], t[0]))


def cofactor_det(matrix):
    """Laplace expansion along the first row. Exponential; fine for n <= 6."""
    n = len(matrix)
    if n == 0:
        return 1
    if n == 1:
        return matrix[0][0]
    total = 0
    for j in range(n):
        if matrix[0][j] == 0:
            continue
        minor = [row[:j] + row[j + 1 :] for row in matrix[1:]]
        sign = -1 if j % 2 else 1
        total += sign * matrix[0][j] * cofactor_det(minor)
    return total


def det_bareiss(matrix):
    """Exact determinant of an integer matrix via fraction-free elimination.

    Bareiss' algorithm: every intermediate entry stays an integer because
    each 2x2 cross-multiplication is exactly divisible by the previous
    pivot. Row swaps flip the sign.
    """
    n = len(matrix)
    if n == 0:
        return 1
    m = [row[:] for row in matrix]
    assert all(len(row) == n for row in m)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for r in range(k + 1, n):
                if m[r][k] != 0:
                    m[k], m[r] = m[r], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = m[i][j] * m[k][k] - m[i][k] * m[k][j]
                assert num % prev == 0
                m[i][j] = num // prev
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def minor_signs_negdef(matrix):
    """Sylvester's criterion with one determinant per leading k x k minor."""
    n = len(matrix)
    return all((-1) ** k * det_bareiss([row[:k] for row in matrix[:k]]) > 0 for k in range(1, n + 1))


def charpoly_negdef(matrix):
    """Negative definiteness through the characteristic polynomial.

    Faddeev-LeVerrier gives det(tI - M) = t^n + c[0] t^(n-1) + ... + c[n-1]
    in integers: for an integer matrix every trace is divisible by its step
    k, and that is checked. A symmetric matrix is negative definite iff
    every coefficient is strictly positive.
    """
    n = len(matrix)
    aux = [[0] * n for _ in range(n)]
    coeffs = []
    c = 1
    for k in range(1, n + 1):
        # aux <- M (aux + c I)
        shifted = [row[:] for row in aux]
        for i in range(n):
            shifted[i][i] += c
        cols = list(zip(*shifted))
        aux = [[sum(map(mul, row, col)) for col in cols] for row in matrix]
        trace = sum(aux[i][i] for i in range(n))
        if trace % k:
            raise ValueError(f"trace {trace} at step {k} is not divisible by {k}")
        c = -trace // k
        coeffs.append(c)
    # det(tI - M) has coefficients (-1)^k e_k(eigenvalues) = coeffs as built
    return all(x > 0 for x in coeffs)


def snc_search_oracle(coefficients, edges, max_blowups=4):
    """Bounded blow-up search for the total discrepancy of an SNC tree.

    State: vertex coefficients (as integer sixths) plus a simple edge set.
    Blowing up the intersection point of i and j inserts a new vertex with
    B_new = B_i + B_j - 6, removes the old edge and joins the new vertex to
    both. The reported value is the minimum of -B/6 over every vertex ever
    seen. Assumes no coefficient exceeds 1 (the callers' grids guarantee it).
    """
    base = tuple(int(Fraction(c) * 6) for c in coefficients)
    for b, c in zip(base, coefficients):
        assert Fraction(b, 6) == Fraction(c), "oracle grid is integer sixths"
    start_edges = frozenset(tuple(sorted(e)) for e in edges)
    assert len(start_edges) == len(list(edges)), "oracle expects a simple graph"
    best = 6  # -B lower bound starts above every candidate (B >= 0 grid)
    for b in base:
        best = min(best, -b)
    seen = set()
    stack = [(base, start_edges, 0)]
    while stack:
        coeffs, es, depth = stack.pop()
        key = (coeffs, es)
        if key in seen:
            continue
        seen.add(key)
        if depth == max_blowups:
            continue
        for i, j in es:
            new = coeffs[i] + coeffs[j] - 6
            best = min(best, -new)
            k = len(coeffs)
            next_edges = (es - {(i, j)}) | {(i, k), (j, k)}
            stack.append((coeffs + (new,), frozenset(next_edges), depth + 1))
    return Fraction(min(best, 6), 6)


def _fraction_label(total, epsilon):
    bar = Fraction(-1) + epsilon
    if total is NEG_INFINITY or total < bar:
        return NOT_LOG_CANONICAL
    return EPS_LOG_TERMINAL if total > bar else EPS_LOG_CANONICAL


def log_coefficients(model, boundary):
    """The log pullback of (model, boundary) in Fractions, name ->
    coefficient: the boundary's nonzero coefficients, and each contracted
    curve's g_i by Gauss-Jordan on the contracted Gram block, right-hand
    sides through `dot`. `boundary` is a QDivisor the caller has checked."""
    coefficients = {n: c for n, c in boundary.coefficients if c}
    exceptional = sorted(model.contracted)
    if exceptional:
        log = [(0, Fraction(1))] + [(model.row(n), c) for n, c in coefficients.items()]
        rhs = [-dot(model, log, [(model.row(e), 1)]) for e in exceptional]
        coefficients.update(zip(exceptional, gauss_solve(model.gram(exceptional), rhs)))
    return coefficients


def fraction_classify(model, boundary, epsilon):
    """The epsilon-classification of (model, boundary) in Fractions
    throughout, as `classify` once computed it: the stepwise minimal
    resolution, its `log_coefficients`, the MR total
    min(1, -b_i), the SNC total min(1, -b_i, 1 - b_a - b_b over edges)
    (NEG_INFINITY if any b_i > 1, None with a multiple intersection), and
    each label a Fraction comparison against -1 + epsilon. `boundary` is a
    QDivisor the caller has checked."""
    epsilon = Fraction(epsilon)
    mr = stepwise_minimal_resolution(model)
    coefficients = log_coefficients(mr, boundary)
    mr_total = min([-c for c in coefficients.values()] + [Fraction(1)])
    vertices = sorted(coefficients)
    pairs = [(a, b, mr.intersection(a, b)) for i, a in enumerate(vertices) for b in vertices[i + 1 :]]
    if any(k >= 2 for _, _, k in pairs):
        total, label = None, UNCLASSIFIABLE_SNC
    else:
        if any(c > 1 for c in coefficients.values()):
            total = NEG_INFINITY
        else:
            edge_terms = [1 - coefficients[a] - coefficients[b] for a, b, k in pairs if k == 1]
            total = min([mr_total] + edge_terms)
        label = _fraction_label(total, epsilon)
    return SingularityClass(
        total_discrepancy=total,
        classification=label,
        mr_total_discrepancy=mr_total,
        mr_classification=_fraction_label(mr_total, epsilon),
        epsilon=epsilon,
    )


def eager_run(state, strategy, epsilon=Fraction(0)):
    """The MMP loop of `mmp.run` on a chain of models built here: every step
    ranks the current model afresh with `pairwise_ranking`, one Mumford
    pullback per curve by Gauss-Jordan, so C.C is solved for every
    candidate, and reads the outcome off that list. A step is Castelnuovo
    where C.C = -1 and the surface before it is smooth, that is, its
    `stepwise_minimal_resolution` contracts nothing, at the start as after
    any step; C is then blown down from that resolution by
    `dense_blow_down`. Any other step declares C contracted on the model.
    Each step classifies its new model, where `run` reports the audit
    replay's class; the same audit at the end."""
    epsilon = Fraction(epsilon)
    model, boundary = state.surface, state.boundary.as_map()
    steps = []
    queue = list(strategy.names) if isinstance(strategy, NamedOrder) else None
    while True:
        ranking = pairwise_ranking(model, boundary)
        if not ranking:
            outcome = MinimalOverTracked()
            break
        contractible = [c for c in ranking if c[2] < 0]
        if not contractible:
            outcome = MoriFiberSignal(curve=ranking[0][0], self_int=ranking[0][2])
            break
        if queue is None:
            name, value, self_int = contractible[0]
        else:
            if not queue:
                outcome = Exhausted()
                break
            wanted = queue.pop(0)
            matches = [c for c in contractible if c[0] == wanted]
            if not matches:
                raise ScenarioError(
                    f"strategy names {wanted!r} but it is not a contractible candidate "
                    f"at step {state.step_index + len(steps)}"
                )
            name, value, self_int = matches[0]
        smooth = stepwise_minimal_resolution(model)
        if not smooth.contracted and self_int == -1:
            kind, model = CASTELNUOVO, dense_blow_down(smooth, name)
        else:
            kind, model = ARTIN_TYPE, declare_contracted(model, [name])
        boundary.pop(name, None)
        steps.append(MmpStep(name, value, self_int, kind, classify(model, QDivisor.zero(), epsilon)))
        if len(steps) > state.rho - 1:
            raise ModelError(f"run took {len(steps)} steps from rho {state.rho}; rho - 1 is the most")
    partial = MmpRun(steps=tuple(steps), outcome=outcome, audit=None)
    return MmpRun(steps=tuple(steps), outcome=outcome, audit=audit_run(partial, state, epsilon))
