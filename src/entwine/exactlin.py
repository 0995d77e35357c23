"""Exact linear algebra over Q and over prime fields F_p.

Scalars are plain Python values: Fraction for the rationals, int residues
in [0, p) for F_p.  Everything is immutable and every elimination ends in
the reduced row echelon form, which is unique, so ranks, kernels,
cokernel presentations and solutions are reproducible bit for bit.

Mat stores its entries dense, but they are mostly zeros, so the kernels
skip zeros, with one loop per field kind.  Over Q every zero the package
builds is the shared `Field.zero`, so a zero test `x is not z and x` is
mostly a pointer compare; no result relies on it, as any other zero fails
the truth test.

There is one elimination, _rref_rows, on sparse rows: dicts {column:
value} of the nonzero entries.  rref, rank, kernel_basis (of a Mat or of
SparseRows), solve_affine, inverse and cokernel all go through it, and
every kernel basis is read off its result the same way (_kernel).  The
form is unique, so none of them depends on the order rows are reduced in.

Tensor factors flatten first-factor-major: kron(f, g) is the matrix of
f (x) g when the index (i1, i2) over dims (d1, d2) is i1*d2 + i2.

An identity linear in an unknown matrix X is stated once as a term list
(TermList) in the normal form

    sum of c . L . (I_a (x) X' (x) I_b) . R, plus a constant K,

X' being X or its transpose, L and R fixed; a bilinear identity has one
such lift per argument in each term, L . lift(U) . M . lift(V) . R.  An
identity factor L or R is left implicit (None) and never built.  Calling
a term list evaluates it with the dense kernels, skipping the implicit
identities and the 1 x 1 identities of a = 1 or b = 1.

affine_matrix_system, mat_solution_basis and compile_bilinear contract a
term list from nonzeros only: by vec(L X R) = (L (x) R^T) vec(X), applied
per leg, the coefficient of X'[p, q] in entry (r, s) is the sum over
alpha, beta of L[r, (alpha, p, beta)] R[(alpha, q, beta), s], so the
nonzeros of L and of R are indexed by (alpha, beta) and the matching pairs
multiplied.  mat_solution_basis eliminates the contracted rows as sparse
rows (SparseRows, through kernel_basis) and never builds a dense system.
affine_matrix_system materializes its matrix once from the nonzeros.
compile_bilinear takes only term lists: it projects the nonzeros onto
the sparse rows of two bases, so a coupling is compiled straight into
basis coordinates.  Given any other callable, affine_matrix_system and
mat_solution_basis evaluate it on every matrix unit instead; every
condition of the package is a term list, and only tests and the
benchmark pass closures.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, compress, repeat
from operator import add, mod, mul, neg, sub

# The shared zero and one of Q (F_p uses the small ints 0 and 1).
_Q0 = Fraction(0)
_Q1 = Fraction(1)


# Prime moduli stay below 2^64, where Miller-Rabin with the first twelve
# primes as bases is exact (it is exact below 3.3e24).
_MODULUS_BOUND = 1 << 64
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    for w in _WITNESSES:
        if p % w == 0:
            return p == w
    d, s = p - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for w in _WITNESSES:
        x = pow(w, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class Field:
    """Q (kind="rational") or F_p (kind="prime", modulus p)."""

    kind: str
    p: int = 0

    @staticmethod
    def rational() -> "Field":
        return Field("rational")

    @staticmethod
    def prime(p: int) -> "Field":
        if p >= _MODULUS_BOUND:
            raise ValueError("modulus %r is not below 2^64" % (p,))
        if not _is_prime(p):
            raise ValueError("modulus %r is not prime" % (p,))
        return Field("prime", p)

    # -- element constructors ------------------------------------------

    @property
    def zero(self):
        return _Q0 if self.kind == "rational" else 0

    @property
    def one(self):
        return _Q1 if self.kind == "rational" else 1

    def of(self, x):
        """Coerce an int, Fraction or scalar string into the field."""
        if isinstance(x, str):
            return self.parse(x)
        if isinstance(x, bool):
            raise ValueError("bool is not a scalar")
        if self.kind == "rational":
            if isinstance(x, (int, Fraction)):
                return Fraction(x) if x else _Q0
            raise ValueError("cannot coerce %r into Q" % (x,))
        if isinstance(x, int):
            return x % self.p
        if isinstance(x, Fraction):
            if x.denominator % self.p == 0:
                raise ValueError("denominator of %s vanishes mod %d" % (x, self.p))
            return (x.numerator * pow(x.denominator, -1, self.p)) % self.p
        raise ValueError("cannot coerce %r into F_%d" % (x, self.p))

    # -- arithmetic ----------------------------------------------------

    def add(self, a, b):
        return a + b if self.kind == "rational" else (a + b) % self.p

    def sub(self, a, b):
        return a - b if self.kind == "rational" else (a - b) % self.p

    def mul(self, a, b):
        return a * b if self.kind == "rational" else (a * b) % self.p

    def neg(self, a):
        return (-a or _Q0) if self.kind == "rational" else (-a) % self.p

    def inv(self, a):
        if not a:
            raise ZeroDivisionError("inverse of zero")
        return _Q1 / a if self.kind == "rational" else pow(a, -1, self.p)

    # -- serialization: "p/q" in lowest terms (rational), residue (prime)

    def show(self, a) -> str:
        return str(a)

    def parse(self, s):
        """An int, or a string of an int, a fraction "-3/4" or a decimal
        "0.25".  Exponent forms are refused: "1e3000000" alone would
        build a ten-million-bit numerator."""
        if isinstance(s, int) and not isinstance(s, bool):
            return self.of(s)
        if not isinstance(s, str):
            raise ValueError("scalar must be an int or a string, got %r" % (s,))
        if "e" in s or "E" in s:
            raise ValueError("malformed scalar %r" % (s,))
        try:
            q = Fraction(s.strip())
        except (ValueError, ZeroDivisionError):
            raise ValueError("malformed scalar %r" % (s,))
        return self.of(q)

    def label(self) -> str:
        return "rational" if self.kind == "rational" else "prime:%d" % self.p


@dataclass(frozen=True)
class Mat:
    """Dense matrix, row-major entries tuple, immutable."""

    field: Field
    rows: int
    cols: int
    entries: tuple

    @staticmethod
    def from_rows(field: Field, rows) -> "Mat":
        rows = [list(r) for r in rows]
        nrows = len(rows)
        ncols = len(rows[0]) if rows else 0
        data = []
        for r in rows:
            if len(r) != ncols:
                raise ValueError("ragged rows")
            data.extend(field.of(x) for x in r)
        return Mat(field, nrows, ncols, tuple(data))

    @staticmethod
    def identity(field: Field, n: int) -> "Mat":
        z, o = field.zero, field.one
        return Mat(field, n, n, tuple(o if i == j else z for i in range(n) for j in range(n)))

    @staticmethod
    def zeros(field: Field, rows: int, cols: int) -> "Mat":
        return Mat(field, rows, cols, (field.zero,) * (rows * cols))

    def __getitem__(self, ij):
        i, j = ij
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError(ij)
        return self.entries[i * self.cols + j]

    def row(self, i):
        return self.entries[i * self.cols:(i + 1) * self.cols]

    def _like(self, entries) -> "Mat":
        return Mat(self.field, self.rows, self.cols, tuple(entries))

    def _mod(self, ints) -> "Mat":
        """Same shape over F_p, entries reduced mod p."""
        return self._like(map(mod, ints, repeat(self.field.p)))

    def __add__(self, other: "Mat") -> "Mat":
        self._same_shape(other)
        if self.field.kind == "prime":
            return self._mod(map(add, self.entries, other.entries))
        return self._like(b if a is _Q0 else a if b is _Q0 else a + b
                          for a, b in zip(self.entries, other.entries))

    def __sub__(self, other: "Mat") -> "Mat":
        self._same_shape(other)
        if self.field.kind == "prime":
            return self._mod(map(sub, self.entries, other.entries))
        return self._like(a if b is _Q0 else -b if a is _Q0 else a - b
                          for a, b in zip(self.entries, other.entries))

    def __neg__(self) -> "Mat":
        if self.field.kind == "prime":
            return self._mod(map(neg, self.entries))
        return self._like(_Q0 if a is _Q0 else -a for a in self.entries)

    def __mul__(self, other):
        if isinstance(other, Mat):
            return self._matmul(other)
        return self.scale(other)

    def __rmul__(self, other):
        return self.scale(other)

    def scale(self, c) -> "Mat":
        c = self.field.of(c)
        if self.field.kind == "prime":
            return self._mod(map(mul, self.entries, repeat(c)))
        return self._like(_Q0 if a is _Q0 else c * a for a in self.entries)

    def _matmul(self, other: "Mat") -> "Mat":
        if self.field != other.field:
            raise ValueError("field mismatch")
        if self.cols != other.rows:
            raise ValueError("shape mismatch: %dx%d times %dx%d"
                             % (self.rows, self.cols, other.rows, other.cols))
        F = self.field
        z = F.zero
        n, m, k = self.rows, self.cols, other.cols
        a, b = self.entries, other.entries
        out = [z] * (n * k)
        if F.kind == "prime":
            # compress() skips zero residues in C, with no Python-level test.
            p, cols = F.p, range(k)
            for i in range(n):
                arow, base = a[i * m:(i + 1) * m], i * k
                for t in compress(range(m), arow):
                    c, brow = arow[t], b[t * k:(t + 1) * k]
                    for j in compress(cols, brow):
                        out[base + j] = (out[base + j] + c * brow[j]) % p
        else:
            for i in range(n):
                base = i * k
                for t, c in enumerate(a[i * m:(i + 1) * m]):
                    if c is not z and c:
                        for j, v in enumerate(b[t * k:(t + 1) * k]):
                            if v is not z and v:
                                w = out[base + j]
                                out[base + j] = c * v if w is z else w + c * v
        return Mat(F, n, k, tuple(out))

    @property
    def t(self) -> "Mat":
        e, c = self.entries, self.cols
        return Mat(self.field, c, self.rows, tuple(chain.from_iterable(
            e[j::c] for j in range(c))))

    def is_zero(self) -> bool:
        if self.field.kind == "prime":
            return not any(self.entries)
        return not any(a is not _Q0 and a for a in self.entries)

    def _same_shape(self, other: "Mat"):
        if self.field != other.field or self.rows != other.rows or self.cols != other.cols:
            raise ValueError("shape/field mismatch")

    def col_mat(self, j: int) -> "Mat":
        return Mat(self.field, self.rows, 1, self.entries[j::self.cols])

    def __repr__(self):
        body = "; ".join(" ".join(self.field.show(x) for x in self.row(i))
                         for i in range(self.rows))
        return "Mat(%dx%d: %s)" % (self.rows, self.cols, body)


def kron(a: Mat, b: Mat) -> Mat:
    """Tensor product of linear maps, first factor major on both sides."""
    if a.field != b.field:
        raise ValueError("field mismatch")
    F = a.field
    z, o = F.zero, F.one
    br, bc, rows, cols = b.rows, b.cols, a.rows * b.rows, a.cols * b.cols
    # Nonzero entries of b, as (offset inside a block, value).
    nz_b = [(s // bc * cols + s % bc, v)
            for s, v in enumerate(b.entries) if v is not z and v]
    out = [z] * (rows * cols)
    for s, c in enumerate(a.entries):
        if c is z or not c:
            continue
        base = s // a.cols * br * cols + s % a.cols * bc
        if c is o or c == o:
            for off, v in nz_b:
                out[base + off] = v
        elif F.kind == "prime":
            p = F.p
            for off, v in nz_b:
                out[base + off] = c * v % p
        else:
            for off, v in nz_b:
                out[base + off] = c * v
    return Mat(F, rows, cols, tuple(out))


def flip(field: Field, d1: int, d2: int) -> Mat:
    """Matrix of the swap V1 (x) V2 -> V2 (x) V1 on flattened legs."""
    z, o = field.zero, field.one
    out = [z] * (d1 * d2 * d1 * d2)
    for i in range(d1):
        for j in range(d2):
            out[(j * d1 + i) * (d1 * d2) + (i * d2 + j)] = o
    return Mat(field, d1 * d2, d1 * d2, tuple(out))


def hstack(mats) -> Mat:
    mats = list(mats)
    F = mats[0].field
    rows = mats[0].rows
    if any(m.rows != rows or m.field != F for m in mats):
        raise ValueError("hstack shape mismatch")
    data = []
    for i in range(rows):
        for m in mats:
            data.extend(m.row(i))
    return Mat(F, rows, sum(m.cols for m in mats), tuple(data))


def vstack(mats) -> Mat:
    mats = list(mats)
    F = mats[0].field
    cols = mats[0].cols
    if any(m.cols != cols or m.field != F for m in mats):
        raise ValueError("vstack shape mismatch")
    data = []
    for m in mats:
        data.extend(m.entries)
    return Mat(F, sum(m.rows for m in mats), cols, tuple(data))


def vec(m: Mat) -> Mat:
    """Row-major vectorization as a column."""
    return Mat(m.field, m.rows * m.cols, 1, m.entries)


def unvec(field: Field, column: Mat, rows: int, cols: int) -> Mat:
    if column.cols != 1 or column.rows != rows * cols:
        raise ValueError("unvec shape mismatch")
    return Mat(field, rows, cols, column.entries)


def block_inj(field: Field, dims, k: int) -> Mat:
    """Injection of the k-th summand into the direct sum with given dims."""
    total = sum(dims)
    off = sum(dims[:k])
    z, o = field.zero, field.one
    out = [z] * (total * dims[k])
    for i in range(dims[k]):
        out[(off + i) * dims[k] + i] = o
    return Mat(field, total, dims[k], tuple(out))


def block_proj(field: Field, dims, k: int) -> Mat:
    return block_inj(field, dims, k).t


def block_diag(a: Mat, b: Mat) -> Mat:
    if a.field != b.field:
        raise ValueError("field mismatch")
    F = a.field
    rows, cols = a.rows + b.rows, a.cols + b.cols
    out = [F.zero] * (rows * cols)
    for i in range(a.rows):
        out[i * cols:i * cols + a.cols] = a.row(i)
    for i in range(b.rows):
        out[(a.rows + i) * cols + a.cols:(a.rows + i + 1) * cols] = b.row(i)
    return Mat(F, rows, cols, tuple(out))


# -- elimination ------------------------------------------------------


@dataclass(frozen=True)
class SparseRows:
    """A matrix with `cols` columns given by its rows, each a dict
    {column: value} holding at least the row's nonzero entries.
    kernel_basis eliminates it as it eliminates a Mat with those rows."""

    field: Field
    cols: int
    rows: tuple


def _row_dicts(m):
    """The rows of m, a Mat or SparseRows, as new dicts {column: value} of
    their nonzero entries, made one at a time."""
    if isinstance(m, SparseRows):
        return ({j: x for j, x in r.items() if x} for r in m.rows)
    e, k, z = m.entries, m.cols, m.field.zero
    rows = (e[i * k:(i + 1) * k] for i in range(m.rows))
    if m.field.kind == "prime":
        # compress() skips zero residues in C.
        cols = range(k)
        return (dict(zip(compress(cols, r), compress(r, r))) for r in rows)
    return ({j: x for j, x in enumerate(r) if x is not z and x} for r in rows)


def _rref_rows(F: Field, rows) -> dict:
    """The nonzero rows of the reduced row echelon form of the given rows,
    dicts {column: value} of nonzero entries, as {pivot column: row}.  The
    rows are reduced in place.

    Rows are taken one at a time.  Every kept row is 1 at its pivot, 0 left
    of it and 0 at every other pivot, so a new row is reduced by one pass
    over the pivots it touches; if anything is left, its first column is
    a new pivot, which is then cleared from the kept rows.  Those
    properties define the reduced row echelon form, so the result is the
    unique one of the row space, whatever the order of the rows.
    """
    prime, p, one = F.kind == "prime", F.p, F.one
    piv = {}
    for v in rows:
        for c in [j for j in v if j in piv]:
            _axpy(v, -v.pop(c), piv[c], c, prime, p)
        if not v:
            continue
        c = min(v)
        if v[c] != one:
            inv = F.inv(v[c])
            for j, x in v.items():
                v[j] = x * inv % p if prime else x * inv
        for kept in piv.values():
            if c in kept:
                _axpy(kept, -kept.pop(c), v, c, prime, p)
        piv[c] = v
    return piv


def _axpy(v: dict, f, w: dict, c: int, prime: bool, p: int) -> None:
    """v += f . w on sparse rows, dropping the entries that cancel.  w's
    pivot column c is skipped: the caller has popped it from v."""
    for j, x in w.items():
        if j == c:
            continue
        y = v.get(j)
        y = f * x if y is None else y + f * x
        if prime:
            y %= p
        if y:
            v[j] = y
        else:
            del v[j]


def _kernel(F: Field, piv: dict, ncols: int) -> Mat:
    """The canonical basis of the kernel of the reduced rows piv, as
    _rref_rows gives them, in its first ncols columns: column i is 1 at
    the i-th free (non-pivot) column, 0 at the others, and at each pivot
    minus the pivot row's entry in that free column."""
    free = {c: i for i, c in enumerate(c for c in range(ncols) if c not in piv)}
    k, out = len(free), [F.zero] * (ncols * len(free))
    for c, i in free.items():
        out[c * k + i] = F.one
    for c, row in piv.items():
        for j, x in row.items():
            i = free.get(j)
            if i is not None:
                out[c * k + i] = F.neg(x)
    return Mat(F, ncols, k, tuple(out))


def rref(m: Mat):
    """Reduced row echelon form.  Returns (R, pivot column tuple), R the
    nonzero rows in pivot order, then zero rows.

    The rows' nonzero entries are eliminated by _rref_rows; the form is
    unique, so it does not depend on the order rows are taken in.
    """
    F, nrows, ncols = m.field, m.rows, m.cols
    rows = list(_row_dicts(m))
    # Eliminate without the input alongside when the caller passed a
    # temporary, as solve_affine does.
    del m
    piv = _rref_rows(F, rows)
    pivots = sorted(piv)
    out = [F.zero] * (nrows * ncols)
    for i, c in enumerate(pivots):
        base = i * ncols
        for j, x in piv[c].items():
            out[base + j] = x
    return Mat(F, nrows, ncols, tuple(out)), tuple(pivots)


def rank(m: Mat) -> int:
    return len(rref(m)[1])


def kernel_basis(m) -> Mat:
    """Columns form the canonical basis of ker(m) (free-column convention).

    m is a Mat or SparseRows; either way its rows' nonzero entries go
    through the one elimination, _rref_rows, so a Mat and SparseRows with
    the same rows give the same basis, entry for entry.
    """
    return _kernel(m.field, _rref_rows(m.field, _row_dicts(m)), m.cols)


def solve_affine(a: Mat, b: Mat):
    """All solutions of a x = b: (particular, kernel_basis(a)) or None.

    One rref of [a | b] serves both: row operations on [a | b] act on the
    columns of a exactly as on a alone, so with no pivot in b the first
    a.cols columns are the rref of a, and the pivot rows' b columns give a
    particular solution.  Zero rows of [a | b] are left out of it: they
    change neither the pivots nor the nonzero rows of its rref, which is
    all that is read.
    """
    if a.rows != b.rows:
        raise ValueError("shape mismatch")
    keep = [i for i in range(a.rows) if any(a.row(i)) or any(b.row(i))]
    # [a | b] is passed as a temporary, so rref frees it before eliminating.
    R, pivots = rref(Mat(a.field, len(keep), a.cols + b.cols, tuple(chain.from_iterable(
        a.row(i) + b.row(i) for i in keep))))
    if pivots and pivots[-1] >= a.cols:
        return None
    F = a.field
    part = [(F.zero,) * b.cols] * a.cols
    for j, pcol in enumerate(pivots):
        part[pcol] = R.row(j)[a.cols:]
    particular = Mat(F, a.cols, b.cols, tuple(x for row in part for x in row))
    # zip stops at the last pivot row: the zero rows are never converted.
    return particular, _kernel(F, dict(zip(pivots, _row_dicts(R))), a.cols)


def inverse(m: Mat) -> Mat:
    if m.rows != m.cols:
        raise ValueError("inverse of a non-square matrix")
    sol = solve_affine(m, Mat.identity(m.field, m.rows))
    if sol is None or sol[1].cols != 0:
        raise ValueError("matrix is singular")
    return sol[0]


@dataclass(frozen=True)
class SubspaceBasis:
    """A subspace of k^ambient_dim given by independent basis columns."""

    ambient_dim: int
    basis: Mat

    def __post_init__(self):
        if self.basis.rows != self.ambient_dim:
            raise ValueError("basis rows do not match ambient dimension")
        if rank(self.basis) != self.basis.cols:
            raise ValueError("basis columns are dependent")

    @property
    def dim(self) -> int:
        return self.basis.cols


def same_subspace(a: SubspaceBasis, b: SubspaceBasis) -> bool:
    if a.ambient_dim != b.ambient_dim:
        return False
    if a.dim != b.dim:
        return False
    return rank(hstack([a.basis, b.basis])) == a.dim


@dataclass(frozen=True)
class QuotientPresentation:
    """Cokernel presentation: projection kills relations, section splits it."""

    ambient_dim: int
    relations: Mat
    projection: Mat
    section: Mat

    def __post_init__(self):
        if not (self.projection * self.relations).is_zero():
            raise ValueError("projection does not kill the relations")
        if self.projection * self.section != Mat.identity(self.projection.field, self.dim):
            raise ValueError("section is not split by the projection")
        if rank(self.projection) != self.dim:
            raise ValueError("projection is not surjective")

    @property
    def dim(self) -> int:
        return self.projection.rows


def cokernel(m: Mat) -> QuotientPresentation:
    """Quotient of the codomain of m by its image.

    Coordinates on the quotient are the non-pivot coordinates of the row
    space of m^T; the section includes them back, the projection subtracts
    the pivot components.  Deterministic via rref.
    """
    F = m.field
    R, pivots = rref(m.t)
    pivset = set(pivots)
    nonpiv = [c for c in range(m.rows) if c not in pivset]
    q = len(nonpiv)
    z, o = F.zero, F.one
    proj = [[z] * m.rows for _ in range(q)]
    for i, tcol in enumerate(nonpiv):
        proj[i][tcol] = o
        for j, pcol in enumerate(pivots):
            proj[i][pcol] = F.neg(R[j, tcol])
    projection = Mat(F, q, m.rows, tuple(x for row in proj for x in row))
    sect = [[z] * q for _ in range(m.rows)]
    for i, tcol in enumerate(nonpiv):
        sect[tcol][i] = o
    section = Mat(F, m.rows, q, tuple(x for row in sect for x in row))
    return QuotientPresentation(m.rows, m, projection, section)


def restrict_map(f: Mat, dom_basis: Mat, cod_basis: Mat) -> Mat:
    """Matrix of f between subspaces, in the given bases.

    Requires f(dom) <= cod; raises ValueError otherwise.
    """
    sol = solve_affine(cod_basis, f * dom_basis)
    if sol is None:
        raise ValueError("map does not restrict to the subspace")
    return sol[0]


def in_subspace(space: SubspaceBasis, f: Mat) -> bool:
    """Whether vec(f) lies in the span of the basis columns of space."""
    return solve_affine(space.basis, vec(f)) is not None


# -- solution spaces of matrix equations ------------------------------


@dataclass(frozen=True)
class Lift:
    """The factor (I_a (x) U (x) I_b) . right of a term, where U is the
    unknown on `side` (0 or 1), or its transpose; right None is the
    identity."""

    a: int
    b: int
    right: Mat = None
    transposed: bool = False
    side: int = 0


@dataclass(frozen=True)
class Term:
    """coeff . left . lift_1 . lift_2 ...: one lift for a linear term, one
    per argument for a bilinear term; left None is the identity."""

    coeff: object
    left: Mat
    lifts: tuple


@dataclass(frozen=True)
class TermList:
    """An identity in normal form: the sum of its terms plus const (None
    for zero).  Calling it evaluates it; `affine_matrix_system`,
    `mat_solution_basis` and `compile_bilinear` contract it.

    shape is the (rows, cols) of its value.  It is read off const, or off
    a term's left factor and a term's last right factor, and must be
    given when those are identities (None) or absent."""

    terms: tuple
    const: Mat = None
    shape: tuple = None

    def __post_init__(self):
        if self.shape is not None:
            return
        if self.const is not None:
            shape = self.const.rows, self.const.cols
        else:
            shape = (next((t.left.rows for t in self.terms if t.left is not None), None),
                     next((t.lifts[-1].right.cols for t in self.terms
                           if t.lifts[-1].right is not None), None))
        if None in shape:
            raise ValueError("the value shape cannot be read off the factors")
        object.__setattr__(self, "shape", shape)

    def __call__(self, *xs) -> Mat:
        out = self.const
        for t in self.terms:
            v = t.left
            for lift in t.lifts:
                u = xs[lift.side].t if lift.transposed else xs[lift.side]
                F = u.field
                if lift.a != 1:
                    u = kron(Mat.identity(F, lift.a), u)
                if lift.b != 1:
                    u = kron(u, Mat.identity(F, lift.b))
                # The lift times right first: no product as wide as the lift.
                if lift.right is not None:
                    u = u * lift.right
                v = u if v is None else v * u
            if t.coeff != 1:
                v = v.scale(t.coeff)
            out = v if out is None else out + v
        return out


def _lifted_shape(lift: Lift, shapes):
    rows, cols = shapes[lift.side]
    return (cols, rows) if lift.transposed else (rows, cols)


def _nonzeros(m: Mat, n: int, one):
    """(row, column, value) of each nonzero entry of m, or of I_n if m is
    None."""
    if m is None:
        return [(i, i, one) for i in range(n)]
    e, k = m.entries, m.cols
    return [(i // k, i % k, e[i]) for i in compress(range(len(e)), e)]


def _contract(field: Field, term: Term, shapes):
    """The coefficients of a term: (entries, k), entries the nonzero
    (row, s, value) with row (r, p_1, q_1, ..., p_j, q_j) flattened and
    value the coefficient of U_1[p_1, q_1] ... U_j[p_j, q_j] in entry
    (r, s) of the term's value, U_i the unknown of lift i as lifted, and
    k the value's column count.

    By vec(L X R) = (L (x) R^T) vec(X), applied per leg, the coefficient
    of X[p, q] in (L (I_a (x) X (x) I_b) R)[r, s] is the sum over alpha,
    beta of L[r, (alpha, p, beta)] . R[(alpha, q, beta), s].  Each lift
    indexes the nonzeros of L and of R by (alpha, beta) and multiplies the
    matching pairs; read with rows (r, p, q), the result is the left
    factor of the next lift.  Identity factors (None) are never built.
    """
    prime, p, one = field.kind == "prime", field.p, field.one
    first = term.lifts[0]
    xr = _lifted_shape(first, shapes)[0]
    width = first.a * xr * first.b if term.left is None else term.left.cols
    cur = _nonzeros(term.left, width, one)
    for lift in term.lifts:
        xr, xc = _lifted_shape(lift, shapes)
        a, b, right = lift.a, lift.b, lift.right
        if width != a * xr * b or right is not None and right.rows != a * xc * b:
            raise ValueError("term does not fit the shape of its unknown")
        by_leg = {}
        for r, j, v in cur:
            ap, beta = divmod(j, b)
            alpha, pp = divmod(ap, xr)
            by_leg.setdefault(alpha * b + beta, []).append(((r * xr + pp) * xc, v))
        out = {}
        for i, s, w in _nonzeros(right, a * xc * b, one):
            aq, beta = divmod(i, b)
            alpha, q = divmod(aq, xc)
            for row, v in by_leg.get(alpha * b + beta, ()):
                key = (row + q, s)
                x = out.get(key)
                vw = v if w is one else v * w
                out[key] = vw if x is None else x + vw
        if prime:
            cur = [(row, s, y) for (row, s), x in out.items() if (y := x % p)]
        else:
            cur = [(row, s, x) for (row, s), x in out.items() if x]
        width = a * xc * b if right is None else right.cols
    return cur, width


def _accumulate(acc: dict, field: Field, term: Term, shapes, start: int, ncols: int,
                weights) -> None:
    """Add the term's coefficients into acc, the nonzero entries of a flat
    matrix with ncols columns by index: the coefficient in entry (r, s) of
    the value, of unknown entries with flat indices i_1, i_2, ..., goes to
    index start + (r*k + s)*ncols + sum of weights[side_j]*i_j, k the
    value's columns.  Entries that cancel are dropped."""
    cur, k = _contract(field, term, shapes)
    # Index, at r = s = 0, of each row (p_1, q_1, ...) of a block of cur.
    inner = [0]
    for lift in term.lifts:
        cols, w = shapes[lift.side][1], weights[lift.side]
        wp, wq = (w, w * cols) if lift.transposed else (w * cols, w)
        xr, xc = _lifted_shape(lift, shapes)
        inner = [x + p * wp for x in inner for p in range(xr)]
        inner = [x + q * wq for x in inner for q in range(xc)]
    block, rstep = len(inner), k * ncols
    c = field.of(term.coeff)
    prime, p, one = field.kind == "prime", field.p, c == field.one
    for row, s, v in cur:
        r, u = divmod(row, block)
        i = start + r * rstep + inner[u] + s * ncols
        v = v if one else c * v
        w = acc.get(i)
        w = v if w is None else w + v
        if prime:
            w %= p
        if w:
            acc[i] = w
        else:
            acc.pop(i, None)


def _dense(field: Field, rows: int, cols: int, acc: dict) -> Mat:
    """The rows x cols matrix with the entries of acc and zeros elsewhere."""
    return Mat(field, rows, cols, tuple(map(acc.get, range(rows * cols), repeat(field.zero))))


def _term_lists(x):
    """x as a list of term lists, or None if x is a plain callable or a
    list holding one."""
    forms = x if isinstance(x, (list, tuple)) else (x,)
    return forms if all(isinstance(f, TermList) for f in forms) else None


def _contracted_system(field: Field, rows: int, cols: int, forms):
    """(acc, height, b): the nonzero entries of A by flat index, the row
    count of A, and b, with A vec(X) = b iff every form vanishes at X, the
    forms' values stacked in order, each row-major."""
    nunk = rows * cols
    acc, rhs, off = {}, [], 0
    for f in forms:
        for t in f.terms:
            _accumulate(acc, field, t, ((rows, cols),), off * nunk, nunk, (1,))
        h = f.shape[0] * f.shape[1]
        rhs.append((field.zero,) * h if f.const is None else (-f.const).entries)
        off += h
    return acc, off, Mat(field, off, 1, tuple(chain.from_iterable(rhs)))


def _unit_system(field: Field, rows: int, cols: int, column, height: int) -> Mat:
    """The matrix whose column idx is column(E_idx), a tuple of entries,
    for each row-major matrix unit E_idx of k^{rows x cols}, made one at a
    time.  The columns are transposed once; height is the row count when
    there is no unit."""
    nunk, z, o = rows * cols, field.zero, field.one
    columns = (column(Mat(field, rows, cols, (z,) * i + (o,) + (z,) * (nunk - i - 1)))
               for i in range(nunk))
    entries = tuple([x for row in zip(*columns) for x in row])
    return Mat(field, len(entries) // nunk if nunk else height, nunk, entries)


def mat_solution_basis(field: Field, rows: int, cols: int, conditions) -> SubspaceBasis:
    """Basis of {F in k^{rows x cols} : every condition(F) == 0}.

    conditions: a list of term lists, linear in the unknown matrix, whose
    system is contracted and eliminated as sparse rows; or of callables
    Mat -> Mat, linear in it, whose system is assembled by evaluating them
    on the matrix units.
    """
    nunk = rows * cols
    if nunk == 0:
        return SubspaceBasis(0, Mat.zeros(field, 0, 0))
    forms = _term_lists(conditions)
    if forms is not None:
        by_row = {}
        for i, v in _contracted_system(field, rows, cols, forms)[0].items():
            by_row.setdefault(i // nunk, {})[i % nunk] = v
        system = SparseRows(field, nunk, tuple(by_row.values()))
    else:
        system = _unit_system(field, rows, cols, lambda e: tuple(
            chain.from_iterable(c(e).entries for c in conditions)), 0)
    return SubspaceBasis(nunk, kernel_basis(system))


def affine_matrix_system(field: Field, rows: int, cols: int, residual):
    """(A, b) with A vec(F) = b  iff  residual(F) == 0, residual affine.

    residual: a term list, or a list of term lists whose values are
    stacked, contracted; or a callable Mat -> Mat, evaluated at zero and
    on the matrix units.
    """
    forms = _term_lists(residual)
    if forms is not None:
        acc, height, b = _contracted_system(field, rows, cols, forms)
        return _dense(field, height, rows * cols, acc), b
    r0 = residual(Mat.zeros(field, rows, cols))
    a = _unit_system(field, rows, cols, lambda e: (residual(e) - r0).entries,
                     len(r0.entries))
    return a, -vec(r0)


@dataclass(frozen=True)
class CompiledBilinear:
    """f(X, Y) = beta(X, Y) + f(0, 0), beta bilinear, compiled to matrices
    in the coordinates of two bases: vec(X) = P x and vec(Y) = Q y.

    x has n0 entries, y has n1 and f's value r.  b is (n0*r) x n1 with
    b[i*r + q, j] = vec(beta(P_i, Q_j))[q] for the basis columns P_i and
    Q_j, and gamma = vec(f(0, 0)).  The layout is row-major, so one set of
    entries serves either argument fixed:
      x fixed:  A = reshape(x^T . reshape(b, n0 x r*n1), r x n1)
      y fixed:  A = reshape(b . y, n0 x r)^T
    and f == 0 iff A (other coordinates) = -gamma.
    """

    n0: int
    b: Mat
    gamma: Mat

    def fix(self, k: int, value: Mat) -> Mat:
        """A of the system in the free argument, argument k (0 = X) at the
        coordinate column value."""
        F, n0, r, n1 = self.b.field, self.n0, self.gamma.rows, self.b.cols
        if k == 0:
            row = Mat(F, 1, n0, value.entries)
            return Mat(F, r, n1, (row * Mat(F, n0, r * n1, self.b.entries)).entries)
        return Mat(F, n0, r, (self.b * value).entries).t


def compile_bilinear(field: Field, shape0, shape1, f: TermList, bases) -> CompiledBilinear:
    """Compile the term list f(X, Y), X of shape0 and Y of shape1, in the
    coordinates of bases = (P, Q), whose columns are vectorized values of X
    and of Y.

    The terms are contracted into the coefficient of X[u] Y[v] in each
    entry q of the value, and each nonzero is projected onto the sparse
    rows u of P and v of Q.  Each term must have one lift on each side.
    """
    if any(sorted(lift.side for lift in t.lifts) != [0, 1] for t in f.terms):
        raise ValueError("coupling term is not bilinear")
    r, n1 = f.shape[0] * f.shape[1], shape1[0] * shape1[1]
    acc, out = {}, {}
    for t in f.terms:
        _accumulate(acc, field, t, (shape0, shape1), 0, n1, (r * n1, 1))
    rows0, rows1 = (list(_row_dicts(m)) for m in bases)
    d0, d1 = bases[0].cols, bases[1].cols
    for idx, w in acc.items():
        u, qv = divmod(idx, r * n1)
        q, v = divmod(qv, n1)
        for i, x in rows0[u].items():
            wx, base = w * x, (i * r + q) * d1
            for j, y in rows1[v].items():
                out[base + j] = out.get(base + j, 0) + wx * y
    prime = field.kind == "prime"
    out = {i: y for i, x in out.items() if (y := x % field.p if prime else x)}
    gamma = Mat.zeros(field, r, 1) if f.const is None else vec(f.const)
    return CompiledBilinear(d0, _dense(field, d0 * r, d1, out), gamma)


def basis_columns(field: Field, basis: Mat, rows: int, cols: int):
    """Iterate the columns of a vectorized basis as rows x cols matrices."""
    return [unvec(field, basis.col_mat(j), rows, cols) for j in range(basis.cols)]
