"""Independent reference implementations used to freeze expected values.

Everything here is written against the definitions directly, with naive
algorithms and no reuse of the package's linear algebra kernels, so a bug
in the package cannot hide in its own oracle.
"""

from __future__ import annotations

from itertools import permutations

from entwine.exactlin import Field, Mat


def kron_oracle(a: Mat, b: Mat) -> Mat:
    F = a.field
    rows, cols = a.rows * b.rows, a.cols * b.cols
    data = [F.zero] * (rows * cols)
    for i1 in range(a.rows):
        for j1 in range(a.cols):
            for i2 in range(b.rows):
                for j2 in range(b.cols):
                    r = i1 * b.rows + i2
                    c = j1 * b.cols + j2
                    data[r * cols + c] = F.mul(a[i1, j1], b[i2, j2])
    return Mat(F, rows, cols, tuple(data))


def matmul_oracle(a: Mat, b: Mat) -> Mat:
    F = a.field
    data = [F.zero] * (a.rows * b.cols)
    for i in range(a.rows):
        for j in range(b.cols):
            acc = F.zero
            for t in range(a.cols):
                acc = F.add(acc, F.mul(a[i, t], b[t, j]))
            data[i * b.cols + j] = acc
    return Mat(F, a.rows, b.cols, tuple(data))


def identity_oracle(field: Field, n: int) -> Mat:
    return Mat(field, n, n, tuple(field.one if i == j else field.zero
                                  for i in range(n) for j in range(n)))


def term_list_oracle(form, *xs) -> Mat:
    """The value of an exactlin.TermList at the unknowns xs, by its
    definition: each term is coeff . left . lift_1 . lift_2 ..., a lift
    (I_a (x) U (x) I_b) . right built with dense identities and two
    Kronecker products, None factors written out as identities, and the
    terms summed with const entry by entry."""
    F = xs[0].field
    rows, cols = form.shape
    acc = list(form.const.entries) if form.const is not None else [F.zero] * (rows * cols)
    for t in form.terms:
        first = t.lifts[0]
        v = t.left
        if v is None:
            v = identity_oracle(F, first.a * xs[first.side].rows * first.b)
        for lift in t.lifts:
            u = kron_oracle(kron_oracle(identity_oracle(F, lift.a), xs[lift.side]),
                            identity_oracle(F, lift.b))
            if lift.right is not None:
                u = matmul_oracle(u, lift.right)
            v = matmul_oracle(v, u)
        c = F.of(t.coeff)
        acc = [F.add(x, F.mul(c, y)) for x, y in zip(acc, v.entries)]
    return Mat(F, rows, cols, tuple(acc))


def det_oracle(m: Mat):
    """Permutation-expansion determinant; fine for the sizes we test."""
    F = m.field
    n = m.rows
    assert m.cols == n
    total = F.zero
    for perm in permutations(range(n)):
        sign = 1
        for i in range(n):
            for j in range(i + 1, n):
                if perm[i] > perm[j]:
                    sign = -sign
        term = F.one if sign > 0 else F.neg(F.one)
        for i in range(n):
            term = F.mul(term, m[i, perm[i]])
        total = F.add(total, term)
    return total


def rank_oracle(m: Mat) -> int:
    """Largest size of a square submatrix with nonzero determinant."""
    from itertools import combinations
    top = min(m.rows, m.cols)
    for size in range(top, 0, -1):
        for rsel in combinations(range(m.rows), size):
            for csel in combinations(range(m.cols), size):
                sub = Mat(m.field, size, size,
                          tuple(m[i, j] for i in rsel for j in csel))
                if det_oracle(sub) != m.field.zero:
                    return size
    return 0


def apply_oracle(m: Mat, xs):
    """m applied to a coefficient list, by the definition of matrix action."""
    F = m.field
    out = []
    for i in range(m.rows):
        acc = F.zero
        for j in range(m.cols):
            acc = F.add(acc, F.mul(m[i, j], F.of(xs[j])))
        out.append(acc)
    return out


def in_span(field: Field, vectors, target) -> bool:
    """Membership of target in the span of vectors, by naive elimination.

    vectors and target are coefficient lists over the field.
    """
    rows = [list(v) + [t] for v, t in zip(_transpose(vectors), target)] \
        if vectors else [[t] for t in target]
    # eliminate on the unknown-coefficient columns
    ncols = len(vectors)
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, len(rows)) if rows[i][c] != field.zero), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        inv = field.inv(rows[r][c])
        rows[r] = [field.mul(inv, x) for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != field.zero:
                f = rows[i][c]
                rows[i] = [field.sub(rows[i][j], field.mul(f, rows[r][j]))
                           for j in range(len(rows[i]))]
        r += 1
    for i in range(r, len(rows)):
        if rows[i][-1] != field.zero:
            return False
    return True


def rref_oracle(m: Mat):
    """Gauss-Jordan elimination on whole dense rows, column by column, the
    pivot the first nonzero entry at or below the current row: the
    reduced row echelon form as a flat entry list, and the pivot columns."""
    F = m.field
    rows = [list(m.entries[i * m.cols:(i + 1) * m.cols]) for i in range(m.rows)]
    pivots = []
    r = 0
    for c in range(m.cols):
        pr = next((i for i in range(r, m.rows) if rows[i][c] != F.zero), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        inv = F.inv(rows[r][c])
        rows[r] = [F.mul(inv, x) for x in rows[r]]
        for i in range(m.rows):
            if i != r:
                f = rows[i][c]
                rows[i] = [F.sub(x, F.mul(f, y)) for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    return [x for row in rows for x in row], pivots


def kernel_oracle(m: Mat) -> Mat:
    """Free-column basis of ker(m) read off rref_oracle: column i is 1 at
    the i-th free column, 0 at the other free columns, and at each pivot
    minus the pivot row's entry in that free column."""
    F = m.field
    flat, pivots = rref_oracle(m)
    basis = []
    for free in (c for c in range(m.cols) if c not in pivots):
        x = [F.zero] * m.cols
        x[free] = F.one
        for j, pcol in enumerate(pivots):
            x[pcol] = F.sub(F.zero, flat[j * m.cols + free])
        basis.append(x)
    return Mat(F, m.cols, len(basis), tuple(col[i] for i in range(m.cols) for col in basis))


def _transpose(vectors):
    return [list(col) for col in zip(*vectors)]


def random_mat(field: Field, rng, rows: int, cols: int, lo=-3, hi=3) -> Mat:
    return Mat(field, rows, cols,
               tuple(field.of(rng.randint(lo, hi)) for _ in range(rows * cols)))


def algebra_axioms_oracle(a) -> bool:
    """Associativity and unit laws by raw structure-constant loops."""
    F = a.field
    n = a.dim
    mu = a.mult
    for i in range(n):
        for j in range(n):
            for k in range(n):
                for s in range(n):
                    lhs = F.zero
                    rhs = F.zero
                    for t in range(n):
                        lhs = F.add(lhs, F.mul(mu[t, i * n + j], mu[s, t * n + k]))
                        rhs = F.add(rhs, F.mul(mu[t, j * n + k], mu[s, i * n + t]))
                    if lhs != rhs:
                        return False
    for j in range(n):
        for s in range(n):
            left = F.zero
            right = F.zero
            for i in range(n):
                left = F.add(left, F.mul(a.unit[i, 0], mu[s, i * n + j]))
                right = F.add(right, F.mul(a.unit[i, 0], mu[s, j * n + i]))
            want = F.one if s == j else F.zero
            if left != want or right != want:
                return False
    return True


def coalgebra_axioms_oracle(c) -> bool:
    """Coassociativity and counit laws by raw loops on Delta entries."""
    F = c.field
    n = c.dim
    d = c.comult
    for i in range(n):
        for p in range(n):
            for q in range(n):
                for r in range(n):
                    lhs = F.zero
                    rhs = F.zero
                    for t in range(n):
                        lhs = F.add(lhs, F.mul(d[t * n + r, i], d[p * n + q, t]))
                        rhs = F.add(rhs, F.mul(d[p * n + t, i], d[q * n + r, t]))
                    if lhs != rhs:
                        return False
    for i in range(n):
        for q in range(n):
            left = F.zero
            right = F.zero
            for t in range(n):
                left = F.add(left, F.mul(c.counit[0, t], d[t * n + q, i]))
                right = F.add(right, F.mul(c.counit[0, t], d[q * n + t, i]))
            want = F.one if q == i else F.zero
            if left != want or right != want:
                return False
    return True


def entwining_axiom_oracles(e):
    """Four independent entrywise evaluators of the psi axioms.

    Returns {name: bool} computed by raw index loops over structure
    constants, mirroring nothing from the package's composition engine.
    """
    F = e.field
    n, c = e.alg.dim, e.coalg.dim
    mu, eta = e.alg.mult, e.alg.unit
    dl, ep = e.coalg.comult, e.coalg.counit
    psi = e.psi

    def P(a_out, c_out, c_in, a_in):
        return psi[a_out * c + c_out, c_in * n + a_in]

    ok_mult = True
    for ci in range(c):
        for a1 in range(n):
            for a2 in range(n):
                for ao in range(n):
                    for co in range(c):
                        lhs = F.zero
                        for b in range(n):
                            lhs = F.add(lhs, F.mul(mu[b, a1 * n + a2],
                                                   P(ao, co, ci, b)))
                        rhs = F.zero
                        for b1 in range(n):
                            for d1 in range(c):
                                for b2 in range(n):
                                    rhs = F.add(rhs, F.mul(
                                        F.mul(P(b1, d1, ci, a1), P(b2, co, d1, a2)),
                                        mu[ao, b1 * n + b2]))
                        if lhs != rhs:
                            ok_mult = False
    ok_unit = True
    for ci in range(c):
        for ao in range(n):
            for co in range(c):
                lhs = F.zero
                for b in range(n):
                    lhs = F.add(lhs, F.mul(eta[b, 0], P(ao, co, ci, b)))
                rhs = eta[ao, 0] if co == ci else F.zero
                if lhs != rhs:
                    ok_unit = False
    ok_comult = True
    for ci in range(c):
        for ai in range(n):
            for ao in range(n):
                for d1 in range(c):
                    for d2 in range(c):
                        lhs = F.zero
                        for x in range(c):
                            lhs = F.add(lhs, F.mul(P(ao, x, ci, ai),
                                                   dl[d1 * c + d2, x]))
                        rhs = F.zero
                        for y1 in range(c):
                            for y2 in range(c):
                                for b in range(n):
                                    rhs = F.add(rhs, F.mul(
                                        F.mul(dl[y1 * c + y2, ci], P(b, d2, y2, ai)),
                                        P(ao, d1, y1, b)))
                        if lhs != rhs:
                            ok_comult = False
    ok_counit = True
    for ci in range(c):
        for ai in range(n):
            for ao in range(n):
                lhs = F.zero
                for x in range(c):
                    lhs = F.add(lhs, F.mul(ep[0, x], P(ao, x, ci, ai)))
                rhs = ep[0, ci] if ao == ai else F.zero
                if lhs != rhs:
                    ok_counit = False
    return {"psi-mult": ok_mult, "psi-unit": ok_unit,
            "psi-comult": ok_comult, "psi-counit": ok_counit}


def all_mats(field: Field, rows: int, cols: int):
    """Every matrix of the given shape over a prime field, in a fixed order."""
    assert field.kind == "prime"
    total = rows * cols
    for code in range(field.p ** total):
        entries = []
        x = code
        for _ in range(total):
            entries.append(field.of(x % field.p))
            x //= field.p
        yield Mat(field, rows, cols, tuple(entries))


def exhaustive_solution_count(field: Field, rows: int, cols: int, conditions) -> int:
    """Count matrices on which every condition evaluates to a zero matrix.

    Brute force over the whole matrix space, so only usable when
    p ** (rows * cols) is small.  A linear solution space of dimension d
    must produce exactly p ** d hits.
    """
    hits = 0
    for f in all_mats(field, rows, cols):
        if all(cond(f).is_zero() for cond in conditions):
            hits += 1
    return hits


def cointegral_conditions_oracle(e, phi: Mat) -> bool:
    """The three cointegral identities by raw structure-constant loops.

    phi[t, i*c + v] is the coefficient of basis vector t in the value of
    phi on (dual vector i, coalgebra vector v).
    """
    F = e.field
    n, c = e.alg.dim, e.coalg.dim
    mu, eta = e.alg.mult, e.alg.unit
    dl, ep = e.coalg.comult, e.coalg.counit
    psi = e.psi

    # (first) compatibility with the coaction
    for m in range(c):
        lhs = {}
        rhs = {}
        for u in range(c):
            for v in range(c):
                w = dl[u * c + v, m]
                if w == F.zero:
                    continue
                for i in range(n):
                    for t in range(n):
                        f = F.mul(w, phi[t, i * c + v])
                        if f == F.zero:
                            continue
                        for x in range(n):
                            for y in range(c):
                                g = F.mul(f, psi[x * c + y, u * n + i])
                                if g == F.zero:
                                    continue
                                for a2 in range(n):
                                    for d2 in range(c):
                                        h = F.mul(g, psi[a2 * c + d2, y * n + t])
                                        if h != F.zero:
                                            key = (x, a2, d2)
                                            lhs[key] = F.add(lhs.get(key, F.zero), h)
                for i in range(n):
                    for t in range(n):
                        h = F.mul(w, phi[t, i * c + u])
                        if h != F.zero:
                            key = (i, t, v)
                            rhs[key] = F.add(rhs.get(key, F.zero), h)
        keys = set(lhs) | set(rhs)
        if any(lhs.get(k, F.zero) != rhs.get(k, F.zero) for k in keys):
            return False

    # (second) compatibility with the action
    for m in range(c):
        for j in range(n):
            lhs = {}
            rhs = {}
            for i in range(n):
                for t in range(n):
                    f = phi[t, i * c + m]
                    if f == F.zero:
                        continue
                    for k in range(n):
                        h = F.mul(f, mu[k, t * n + j])
                        if h != F.zero:
                            lhs[(i, k)] = F.add(lhs.get((i, k), F.zero), h)
            for x in range(n):
                for y in range(c):
                    w = psi[x * c + y, m * n + j]
                    if w == F.zero:
                        continue
                    for i in range(n):
                        for t in range(n):
                            f = F.mul(w, phi[t, i * c + y])
                            if f == F.zero:
                                continue
                            for k in range(n):
                                h = F.mul(f, mu[k, x * n + i])
                                if h != F.zero:
                                    rhs[(k, t)] = F.add(rhs.get((k, t), F.zero), h)
            keys = set(lhs) | set(rhs)
            if any(lhs.get(k, F.zero) != rhs.get(k, F.zero) for k in keys):
                return False

    # (third) normalization
    for m in range(c):
        for k in range(n):
            acc = F.zero
            for i in range(n):
                for t in range(n):
                    acc = F.add(acc, F.mul(phi[t, i * c + m], mu[k, i * n + t]))
            if acc != F.mul(eta[k, 0], ep[0, m]):
                return False
    return True


def sep_idempotent_exists_oracle(a) -> bool:
    """Classical algebra separability by direct linear feasibility.

    Assembles the Casimir and normalization equations on an element of
    A(x)A entrywise and decides feasibility with the naive eliminator.
    """
    F = a.field
    n = a.dim
    mu, eta = a.mult, a.unit
    columns = []
    brow = []
    slots = []
    for w in range(n):
        for p in range(n):
            for q in range(n):
                slots.append(("cas", w, p, q))
    for k in range(n):
        slots.append(("norm", k))
    for i in range(n):
        for j in range(n):
            col = []
            for slot in slots:
                if slot[0] == "cas":
                    _, w, p, q = slot
                    val = F.zero
                    if q == j:
                        val = F.add(val, mu[p, w * n + i])
                    if p == i:
                        val = F.sub(val, mu[q, j * n + w])
                    col.append(val)
                else:
                    col.append(mu[slot[1], i * n + j])
            columns.append(col)
    for slot in slots:
        brow.append(F.zero if slot[0] == "cas" else eta[slot[1], 0])
    return in_span(F, columns, brow)
