"""Exact linear algebra over Q and over prime fields F_p.

Scalars are plain Python values: Fraction for the rationals, int residues
in [0, p) for F_p.  Everything is immutable and every elimination ends in
the reduced row echelon form, which is unique, so ranks, kernels,
cokernel presentations and solutions are reproducible bit for bit.  Over
Q the product, the elimination and the term-list contraction compute on
int numerators and denominators inside, and emit only normalized
Fractions, never a bare int: a Fraction operation pays two gcds, a type
check and a new object.

Mat stores sparse rows: per row a dict {column: value} of its nonzero
entries, with no stored zeros, so every kernel visits nonzeros only.  A
product is Gustavson's: row i of A B accumulates A[i, t] . row t of B over
the nonzeros of row i of A.  kron multiplies the nonzero lists, and
transposes, stacks, blocks, vec and unvec map indices on the rows.
Mat(field, rows, cols, entries) takes a dense tuple; over Q every zero the
package builds is the shared `Field.zero`, so its zero test `x is not z
and x` is mostly a pointer compare, and no result relies on it, as any
other zero fails the truth test.

There is one elimination, _rref_rows, on the rows (over Q on integer
multiples of them, fraction-free).  It drops empty rows and peels the
singleton rows first (structured Gaussian elimination): a row with one
nonzero fixes its column, which is deleted from every other row, until
no singleton is left, and only the core that remains is eliminated, by
one loop for both fields whose two per-field steps are _clear and
_primitive.  rref, rank, kernel_basis, solve_affine, inverse and
cokernel all go through it, and every kernel basis is read off its
result the same way (_kernel).  The form is unique, so none of them
depends on the order rows are reduced in.  restrict_map eliminates only
when its codomain basis is not canonical: a kernel basis, or its kron
with identities, has a unit row for each column, so the restriction is
read off those rows and checked by one product.

Tensor factors flatten first-factor-major: kron(f, g) is the matrix of
f (x) g when the index (i1, i2) over dims (d1, d2) is i1*d2 + i2.

An identity linear in an unknown matrix X is stated once as a term list
(TermList) in the normal form

    sum of c . L . (I_a (x) X (x) I_b) . R, plus a constant K,

L and R fixed; a bilinear identity has one such lift per argument in
each term, L . lift(U) . M . lift(V) . R.  An identity factor L or R is
left implicit (None) and never built.  Calling a term list evaluates it:
each lift I_a (x) X (x) I_b is built in one pass over the nonzeros of X
(_lift), with no identity matrix and no kron, the factors are multiplied
by the Mat product, and each term's coefficient is folded into one sum
or difference (Mat._merge).

affine_matrix_system, mat_solution_basis and compile_bilinear contract a
term list from nonzeros only: by vec(L X R) = (L (x) R^T) vec(X), applied
per leg, the coefficient of X[p, q] in entry (r, s) is the sum over
alpha, beta of L[r, (alpha, p, beta)] R[(alpha, q, beta), s], so the
nonzeros of L and of R are indexed by (alpha, beta) and the matching pairs
multiplied.  Each term is contracted in one pass (_accumulate): its
coefficient is folded into the nonzeros of L, each carries the flat
index of its entry of the system through the lifts, and the last lift's
products go straight into the system's accumulator.  The sums stay
unreduced there, ints over F_p and (numerator, denominator) int pairs
over Q summed as the product sums them, until one _finish per system
reduces them mod p, or makes one shared Fraction per distinct pair, and
drops the zeros.  affine_matrix_system and mat_solution_basis put the
finished nonzeros straight into the sparse rows of their matrix
(_from_flat), which mat_solution_basis eliminates; neither builds a
dense system.  compile_bilinear takes only term lists: their finished
nonzeros are the sparse rows of W, and the coupling in the coordinates
of two bases P and Q is the product P^T W Q.  Given any other callable,
affine_matrix_system and mat_solution_basis evaluate it on every matrix
unit instead; every condition of the package is a term list, and only
tests and the benchmark pass closures.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate, chain
from math import gcd, lcm
from operator import attrgetter

_set = object.__setattr__
# The default of a field that has none.
_REQUIRED = object()


class Record:
    """Base of the package's value classes: the annotated names of a
    subclass body are its fields, in order, after any fields it inherits
    (a subclass with no annotations of its own has its parent's).  A class
    attribute of a field's name is its default; a list or dict default is
    copied for each instance.

    A record is built from its fields by position or keyword, then
    __post_init__ runs; it equals another record of the same class with
    equal fields, hashes as the tuple of its fields, and reprs as
    Name(field=value, ...).  It is frozen: assigning or deleting any
    attribute raises AttributeError.  A list or dict field may still be
    filled in place, and makes the record unhashable.  All of it is set
    once per class here: no code is generated per class.
    """

    # (fields, defaults, required, fresh): the field names; per field its
    # default or _REQUIRED; the number of fields without a default, which
    # lead; the positions of the list and dict defaults, copied per record.
    _spec = ((), (), 0, ())

    def __init_subclass__(cls):
        super().__init_subclass__()
        by_name = dict(zip(*cls._spec[:2]))
        for f in cls.__dict__.get("__annotations__", {}):
            by_name[f] = cls.__dict__.get(f, by_name.get(f, _REQUIRED))
        fields, defaults = tuple(by_name), tuple(by_name.values())
        required = tuple(f for f, x in by_name.items() if x is _REQUIRED)
        if fields[:len(required)] != required:
            raise TypeError("field %r without a default follows a field with one"
                            % (required[-1],))
        fresh = tuple(i for i, x in enumerate(defaults) if type(x) in (list, dict))
        cls._spec = fields, defaults, len(required), fresh
        # The fields as a tuple (one field: its value), called as self._key(self).
        cls._key = attrgetter(*fields)

    def __init__(self, *args, **kwargs):
        fields, defaults, required, fresh = self._spec
        n = len(args)
        values = args + defaults[n:]
        if kwargs or fresh or not required <= n <= len(fields):
            values = self._bind(values, n, kwargs)
        # By index: a zip costs a third more per field.
        i = 0
        for f in fields:
            _set(self, f, values[i])
            i += 1
        self.__post_init__()

    def _bind(self, values, n, kwargs) -> list:
        """values, the n positional arguments then the defaults, with the
        keyword arguments put in and the list and dict defaults copied; a
        TypeError if a field is given twice, is unknown or has no value."""
        fields, defaults, required, fresh = self._spec
        name = type(self).__name__
        if n > len(fields):
            raise TypeError("%s() takes %d positional arguments but %d were given"
                            % (name, len(fields), n))
        values = list(values)
        for f, x in kwargs.items():
            if f not in fields:
                raise TypeError("%s() got an unexpected argument %r" % (name, f))
            i = fields.index(f)
            if i < n:
                raise TypeError("%s() got multiple values for argument %r" % (name, f))
            values[i] = x
        for i in range(n, required):
            if values[i] is _REQUIRED:
                raise TypeError("%s() missing argument %r" % (name, fields[i]))
        for i in fresh:
            if values[i] is defaults[i]:
                values[i] = defaults[i].copy()
        return values

    def __post_init__(self):
        pass

    def __eq__(self, other):
        if self is other:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        key = self._key
        return key(self) == key(other)

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        return "%s(%s)" % (type(self).__qualname__, ", ".join(
            "%s=%r" % (f, getattr(self, f)) for f in self._spec[0]))

    def __setattr__(self, name, value):
        raise AttributeError("cannot assign to %r of a frozen %s"
                             % (name, type(self).__name__))

    def __delattr__(self, name):
        raise AttributeError("cannot delete %r of a frozen %s"
                             % (name, type(self).__name__))


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


class Field(Record):
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
        if self.kind == "rational":
            return q if q else _Q0
        return self.of(q)

    def label(self) -> str:
        return "rational" if self.kind == "rational" else "prime:%d" % self.p


class Mat:
    """An immutable matrix, stored as sparse rows.

    nz is a tuple of `rows` dicts {column: value}; row i holds the nonzero
    entries of row i and nothing else (no stored zeros).  Nothing assigns
    to a Mat or changes a row dict once it is in one, so Mats share rows
    freely (vstack, the rows of a product by a permutation); the
    elimination reduces copies of them.

    Mat(field, rows, cols, entries) takes the dense row-major tuple and
    keeps its nonzeros; .entries builds that tuple again.  Two Mats are
    equal, and hash alike, when their fields, shapes and entries are.
    """

    __slots__ = ("field", "rows", "cols", "nz")

    def __init__(self, field: Field, rows: int, cols: int, entries):
        if len(entries) != rows * cols:
            raise ValueError("%d entries for a %dx%d matrix" % (len(entries), rows, cols))
        z = field.zero
        self.field, self.rows, self.cols = field, rows, cols
        # The shared zero is skipped by a pointer compare (see above); the
        # Q kernels drop a sum whose int numerator is 0, so they build no
        # zero Fraction at all.
        self.nz = tuple({j: x for j, x in enumerate(entries[i * cols:(i + 1) * cols])
                         if x is not z and x} for i in range(rows))

    @staticmethod
    def _of(field: Field, rows: int, cols: int, nz) -> "Mat":
        """The Mat whose sparse rows are nz, taken as they are."""
        m = object.__new__(Mat)
        m.field, m.rows, m.cols, m.nz = field, rows, cols, tuple(nz)
        return m

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
        o = field.one
        return Mat._of(field, n, n, ({i: o} for i in range(n)))

    @staticmethod
    def zeros(field: Field, rows: int, cols: int) -> "Mat":
        return Mat._of(field, rows, cols, ({} for _ in range(rows)))

    @property
    def entries(self) -> tuple:
        """The dense row-major tuple of entries."""
        return tuple(chain.from_iterable(map(self.row, range(self.rows))))

    def __getitem__(self, ij):
        i, j = ij
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError(ij)
        return self.nz[i].get(j, self.field.zero)

    def row(self, i):
        out = [self.field.zero] * self.cols
        for j, x in self.nz[i].items():
            out[j] = x
        return tuple(out)

    def __eq__(self, other):
        if not isinstance(other, Mat):
            return NotImplemented
        return (self.field == other.field and self.rows == other.rows
                and self.cols == other.cols and self.nz == other.nz)

    def __hash__(self):
        return hash((self.field, self.rows, self.cols,
                     tuple(tuple(sorted(r.items())) for r in self.nz)))

    def _like(self, nz) -> "Mat":
        return Mat._of(self.field, self.rows, self.cols, nz)

    def _merge(self, other: "Mat", f) -> "Mat":
        """self + f . other, row by row on the nonzeros of other: each entry
        added or subtracted directly for f = 1 or -1, other scaled first
        for any other f."""
        self._same_shape(other)
        if f != 1 and f != -1:
            other, f = other.scale(f), 1
        p, add = self.field.p, f == 1
        out = []
        for r, s in zip(self.nz, other.nz):
            if s:
                r = dict(r)
                for j, x in s.items():
                    y = r.get(j)
                    y = (x if add else -x) if y is None else (y + x if add else y - x)
                    if p:
                        y %= p
                    if y:
                        r[j] = y
                    else:
                        del r[j]
            out.append(r)
        return self._like(out)

    def __add__(self, other: "Mat") -> "Mat":
        return self._merge(other, 1)

    def __sub__(self, other: "Mat") -> "Mat":
        return self._merge(other, -1)

    def __neg__(self) -> "Mat":
        if self.field.kind == "prime":
            p = self.field.p
            return self._like({j: -x % p for j, x in r.items()} for r in self.nz)
        return self._like({j: -x for j, x in r.items()} for r in self.nz)

    def __mul__(self, other):
        if isinstance(other, Mat):
            return self._matmul(other)
        return self.scale(other)

    def __rmul__(self, other):
        return self.scale(other)

    def scale(self, c) -> "Mat":
        c = self.field.of(c)
        if not c:
            return Mat.zeros(self.field, self.rows, self.cols)
        if self.field.kind == "prime":
            p = self.field.p
            return self._like({j: c * x % p for j, x in r.items()} for r in self.nz)
        return self._like({j: c * x for j, x in r.items()} for r in self.nz)

    def _matmul(self, other: "Mat") -> "Mat":
        """Gustavson's product: row i of the result accumulates c . row t
        of other over the nonzeros c at (i, t), so only products of two
        nonzeros are formed.  A row that is a single one shares the row of
        other it picks.

        Over Q a row accumulates (numerator, denominator) int pairs per
        column, adding numerators alone where the denominators agree; a
        nonzero sum becomes a Fraction, one per distinct pair in the
        product, since Fractions are immutable and can be shared."""
        if self.field != other.field:
            raise ValueError("field mismatch")
        if self.cols != other.rows:
            raise ValueError("shape mismatch: %dx%d times %dx%d"
                             % (self.rows, self.cols, other.rows, other.cols))
        F, b = self.field, other.nz
        prime, p, one = F.kind == "prime", F.p, F.one
        out = []
        made = {}
        for r in self.nz:
            if len(r) == 1:
                (t, c), = r.items()
                # the field's shared one by a pointer compare, another by ==
                if c is one or c == 1:
                    out.append(b[t])
                    continue
            acc = {}
            if prime:
                for t, c in r.items():
                    for j, v in b[t].items():
                        w = acc.get(j)
                        acc[j] = c * v if w is None else w + c * v
                out.append({j: y for j, x in acc.items() if (y := x % p)})
                continue
            for t, c in r.items():
                cn, cd = c.numerator, c.denominator
                for j, v in b[t].items():
                    n, d = cn * v.numerator, cd * v.denominator
                    w = acc.get(j)
                    if w is None:
                        acc[j] = n, d
                    elif w[1] == d:
                        acc[j] = w[0] + n, d
                    else:
                        acc[j] = w[0] * d + n * w[1], w[1] * d
            row = {}
            for j, nd in acc.items():
                if nd[0]:
                    x = made.get(nd)
                    if x is None:
                        x = made[nd] = Fraction(*nd)
                    row[j] = x
            out.append(row)
        return Mat._of(F, self.rows, other.cols, out)

    @property
    def t(self) -> "Mat":
        out = [{} for _ in range(self.cols)]
        for i, r in enumerate(self.nz):
            for j, x in r.items():
                out[j][i] = x
        return Mat._of(self.field, self.cols, self.rows, out)

    def is_zero(self) -> bool:
        return not any(self.nz)

    def _same_shape(self, other: "Mat"):
        if self.field != other.field or self.rows != other.rows or self.cols != other.cols:
            raise ValueError("shape/field mismatch")

    def col_mat(self, j: int) -> "Mat":
        return Mat._of(self.field, self.rows, 1,
                       ({0: r[j]} if j in r else {} for r in self.nz))

    def __repr__(self):
        body = "; ".join(" ".join(self.field.show(x) for x in self.row(i))
                         for i in range(self.rows))
        return "Mat(%dx%d: %s)" % (self.rows, self.cols, body)


def require_shape(name: str, m: Mat, rows: int, cols: int, field: Field) -> None:
    """Refuse a map m that is not rows x cols over field: ValueError
    "<name> must be R x C", else "field mismatch"."""
    if (m.rows, m.cols) != (rows, cols):
        raise ValueError("%s must be %d x %d" % (name, rows, cols))
    if m.field != field:
        raise ValueError("field mismatch")


def kron(a: Mat, b: Mat) -> Mat:
    """Tensor product of linear maps, first factor major on both sides:
    row (i1, i2) pairs the nonzeros of row i1 of a with those of row i2
    of b."""
    if a.field != b.field:
        raise ValueError("field mismatch")
    F = a.field
    prime, p, one, bc = F.kind == "prime", F.p, F.one, b.cols
    brows = [list(r.items()) for r in b.nz]
    # b is often an identity, whose products need no multiplication.
    ones = all(v == 1 for rb in brows for _, v in rb)
    out = []
    for ra in a.nz:
        block = [{} for _ in brows]
        for j, c in ra.items():
            base = j * bc
            if c is one or c == 1:
                for row, rb in zip(block, brows):
                    for l, v in rb:
                        row[base + l] = v
            elif ones:
                for row, rb in zip(block, brows):
                    for l, _ in rb:
                        row[base + l] = c
            elif prime:
                for row, rb in zip(block, brows):
                    for l, v in rb:
                        row[base + l] = c * v % p
            else:
                for row, rb in zip(block, brows):
                    for l, v in rb:
                        row[base + l] = c * v
        out.extend(block)
    return Mat._of(F, a.rows * b.rows, a.cols * b.cols, out)


def flip(field: Field, d1: int, d2: int) -> Mat:
    """Matrix of the swap V1 (x) V2 -> V2 (x) V1 on flattened legs: row
    (j, i) is one at column (i, j)."""
    o = field.one
    return Mat._of(field, d1 * d2, d1 * d2,
                   ({i * d2 + j: o} for j in range(d2) for i in range(d1)))


def hstack(mats) -> Mat:
    mats = list(mats)
    F = mats[0].field
    rows = mats[0].rows
    if any(m.rows != rows or m.field != F for m in mats):
        raise ValueError("hstack shape mismatch")
    offsets = list(accumulate((m.cols for m in mats), initial=0))
    return Mat._of(F, rows, offsets[-1], (
        {off + j: x for off, r in zip(offsets, parts) for j, x in r.items()}
        for parts in zip(*(m.nz for m in mats))))


def vstack(mats) -> Mat:
    mats = list(mats)
    F = mats[0].field
    cols = mats[0].cols
    if any(m.cols != cols or m.field != F for m in mats):
        raise ValueError("vstack shape mismatch")
    return Mat._of(F, sum(m.rows for m in mats), cols,
                   chain.from_iterable(m.nz for m in mats))


def _from_flat(field: Field, rows: int, cols: int, acc: dict, columns=None) -> Mat:
    """The rows x cols Mat whose nonzero entries are acc {flat row-major
    index: value}, with column j placed at columns[j] if columns is given."""
    out = [{} for _ in range(rows)]
    if columns is None:
        for f, x in acc.items():
            i, j = divmod(f, cols)
            out[i][j] = x
    else:
        for f, x in acc.items():
            i, j = divmod(f, cols)
            out[i][columns[j]] = x
    return Mat._of(field, rows, cols, out)


def reshape(m: Mat, rows: int, cols: int) -> Mat:
    """The rows x cols matrix with the row-major entries of m."""
    if rows * cols != m.rows * m.cols:
        raise ValueError("reshape size mismatch")
    k = m.cols
    return _from_flat(m.field, rows, cols,
                      {i * k + j: x for i, r in enumerate(m.nz) for j, x in r.items()})


def vec(m: Mat) -> Mat:
    """Row-major vectorization as a column."""
    return reshape(m, m.rows * m.cols, 1)


def unvec(field: Field, column: Mat, rows: int, cols: int) -> Mat:
    require_shape("column", column, rows * cols, 1, field)
    return reshape(column, rows, cols)


def block_inj(field: Field, dims, k: int) -> Mat:
    """Injection of the k-th summand into the direct sum with given dims."""
    off, o = sum(dims[:k]), field.one
    return Mat._of(field, sum(dims), dims[k], ({i - off: o} if 0 <= i - off < dims[k] else {}
                                               for i in range(sum(dims))))


def block_proj(field: Field, dims, k: int) -> Mat:
    return block_inj(field, dims, k).t


def block_diag(a: Mat, b: Mat) -> Mat:
    if a.field != b.field:
        raise ValueError("field mismatch")
    c = a.cols
    return Mat._of(a.field, a.rows + b.rows, c + b.cols, chain(
        a.nz, ({c + j: x for j, x in r.items()} for r in b.nz)))


# -- elimination ------------------------------------------------------


def _rref_rows(F: Field, rows) -> dict:
    """The nonzero rows of the reduced row echelon form of the given rows,
    dicts {column: value} of nonzero entries, as {pivot column: row}.  No
    given row is written: the peel copies a row it shortens, the F_p
    elimination reduces copies, the Q one builds new integer rows.

    Empty rows are dropped, then singleton rows peeled in rounds: a row
    with one nonzero, at column j, puts e_j in the row space, so j is
    fixed (its unit row is in the result) and deleting column j from the
    other rows keeps the row space.  A round fixes the singletons' columns
    and keeps the rows of two or more entries without those columns; a
    row may become a singleton, for the next round, or empty.

    The core left is eliminated one row at a time, by one loop for both
    fields.  Every kept row is a multiple of its reduced row: 0 left of
    its pivot and at every other pivot, so a new row is reduced by one
    pass over the pivots it touches (_clear); if anything is left, its
    first column is a new pivot, cleared from the kept rows.  That row and
    each kept row it clears are rescaled (_primitive).  Core rows are 0 at
    the fixed columns and unit rows 0 at the core's pivots, so together
    they are the unique reduced row echelon form of the row space,
    whatever the order of the rows.

    Over F_p a kept row is 1 at its pivot.  Over Q the rows are integer
    (Bareiss): a row is scaled by the lcm of its denominators on entry, a
    kept row is primitive with a positive pivot, so heights stay those of
    the result, and each is divided by its pivot at the end.
    """
    p, one = F.p, F.one
    fixed, core = [], [r for r in rows if r]
    while new := {j for r in core if len(r) == 1 for j in r}:
        fixed += new
        core = [r if new.isdisjoint(r) else {j: x for j, x in r.items() if j not in new}
                for r in core if len(r) > 1]
        core = [r for r in core if r]
    piv = {}
    for v in core:
        if p:
            v = dict(v)
        else:
            m = lcm(*[x.denominator for x in v.values()])
            v = {j: x.numerator * (m // x.denominator) for j, x in v.items()}
        for c in [j for j in v if j in piv]:
            _clear(v, v.pop(c), piv[c], c, p)
        if not v:
            continue
        c = min(v)
        v = _primitive(v, c, p)
        for k, kept in piv.items():
            if c in kept:
                _clear(kept, kept.pop(c), v, c, p)
                piv[k] = _primitive(kept, k, p)
        piv[c] = v
    if not p:
        for c, v in piv.items():
            pc = v[c]
            piv[c] = {j: _Q1 if j == c else Fraction(x, pc) for j, x in v.items()}
    for j in fixed:
        piv[j] = {j: one}
    return piv


def _clear(v: dict, f: int, w: dict, c: int, p: int) -> None:
    """Clear w's pivot column c from v, whose entry f there is popped:
    v := (pc/g) v - (f/g) w, pc = w[c] and g = gcd(f, pc), on integer
    rows over Q (p = 0); v := v - f w mod p over F_p, where pc = 1."""
    pc = w[c]
    if pc != 1:
        g = gcd(f, pc)
        if pc != g:
            a = pc // g
            for j in v:
                v[j] *= a
        f //= g
    _axpy(v, -f, w, c, p)


def _primitive(v: dict, c: int, p: int) -> dict:
    """v rescaled as the elimination keeps it, pivot at c: over Q (p = 0)
    the primitive integer row with a positive pivot, over F_p pivot 1."""
    x = v[c]
    if p:
        if x != 1:
            inv = pow(x, -1, p)
            for j, y in v.items():
                v[j] = y * inv % p
        return v
    g = gcd(*v.values())
    if x < 0:
        g = -g
    return v if g == 1 else {j: y // g for j, y in v.items()}


def _axpy(v: dict, f, w: dict, c: int, p: int) -> None:
    """v += f . w on sparse rows, mod p over F_p (p = 0 over Q), dropping
    the entries that cancel.  w's pivot column c is skipped, as the caller
    has popped it from v."""
    for j, x in w.items():
        if j == c:
            continue
        y = v.get(j)
        y = f * x if y is None else y + f * x
        if p:
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
    one = F.one
    return Mat._of(F, ncols, len(free), (
        {free[c]: one} if c in free else
        {f: F.neg(x) for j, x in piv[c].items() if (f := free.get(j)) is not None}
        for c in range(ncols)))


def rref(m: Mat):
    """Reduced row echelon form.  Returns (R, pivot column tuple), R the
    nonzero rows in pivot order, then zero rows.

    The rows' nonzero entries are eliminated by _rref_rows; the form is
    unique, so it does not depend on the order rows are taken in.
    """
    piv = _rref_rows(m.field, m.nz)
    pivots = sorted(piv)
    return Mat._of(m.field, m.rows, m.cols, chain(
        map(piv.get, pivots), ({} for _ in range(m.rows - len(pivots))))), tuple(pivots)


def rank(m: Mat) -> int:
    return len(rref(m)[1])


def kernel_basis(m: Mat) -> Mat:
    """Columns form the canonical basis of ker(m) (free-column convention),
    read off the one elimination of m's rows."""
    return _kernel(m.field, _rref_rows(m.field, m.nz), m.cols)


def solve_affine(a: Mat, b: Mat):
    """All solutions of a x = b: (particular, kernel_basis(a)) or None.

    One rref of [a | b] serves both: row operations on [a | b] act on the
    columns of a exactly as on a alone, so with no pivot in b the first
    a.cols columns are the rref of a, and the pivot rows' b columns give a
    particular solution.
    """
    if a.rows != b.rows:
        raise ValueError("shape mismatch")
    F, n = a.field, a.cols
    ab = [{**r, **{n + j: x for j, x in s.items()}} if s else r
          for r, s in zip(a.nz, b.nz)]
    R, pivots = rref(Mat._of(F, len(ab), n + b.cols, ab))
    if pivots and pivots[-1] >= n:
        return None
    part = [{} for _ in range(n)]
    for c, row in zip(pivots, R.nz):
        part[c] = {j - n: x for j, x in row.items() if j >= n}
    return Mat._of(F, n, b.cols, part), _kernel(F, dict(zip(pivots, R.nz)), n)


def inverse(m: Mat) -> Mat:
    if m.rows != m.cols:
        raise ValueError("inverse of a non-square matrix")
    sol = solve_affine(m, Mat.identity(m.field, m.rows))
    if sol is None or sol[1].cols != 0:
        raise ValueError("matrix is singular")
    return sol[0]


class SubspaceBasis(Record):
    """A subspace of k^ambient_dim given by independent basis columns.

    The basis vectors (the rows of basis.t) are eliminated once, on
    construction: that checks their independence, and the reduced rows,
    the unique reduced echelon form of the subspace, are kept for
    in_subspace and same_subspace.  They are not a field, so equality and
    hash read ambient_dim and basis only."""

    ambient_dim: int
    basis: Mat

    def __post_init__(self):
        if self.basis.rows != self.ambient_dim:
            raise ValueError("basis rows do not match ambient dimension")
        reduced = _rref_rows(self.basis.field, self.basis.t.nz)
        if len(reduced) != self.basis.cols:
            raise ValueError("basis columns are dependent")
        _set(self, "_reduced", reduced)

    @property
    def dim(self) -> int:
        return self.basis.cols


def same_subspace(a: SubspaceBasis, b: SubspaceBasis) -> bool:
    """Whether a and b span one subspace: their kept reduced rows agree."""
    if a.ambient_dim != b.ambient_dim:
        return False
    if a.basis.field != b.basis.field:
        raise ValueError("field mismatch")
    return a._reduced == b._reduced


class QuotientPresentation(Record):
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

    @property
    def dim(self) -> int:
        return self.projection.rows


def cokernel(m: Mat) -> QuotientPresentation:
    """Quotient of the codomain of m by its image.

    Coordinates on the quotient are the non-pivot coordinates of the row
    space of m^T.  The projection subtracts the pivot components: it is
    the transpose of the canonical kernel basis of the reduced rows
    (_kernel), and the section, which includes the coordinates back, is
    that basis with its pivot rows zeroed.  Deterministic via rref.
    """
    R, pivots = rref(m.t)
    piv = dict(zip(pivots, R.nz))
    k = _kernel(m.field, piv, m.rows)
    section = k._like({} if c in piv else r for c, r in enumerate(k.nz))
    return QuotientPresentation(m.rows, m, k.t, section)


def restrict_map(f: Mat, dom_basis: Mat, cod_basis: Mat) -> Mat:
    """Matrix of f between subspaces, in the given bases: the g with
    cod_basis g = f dom_basis, unique as the basis columns are independent.

    A canonical codomain, one with a unit row {j: 1} for each column j, as
    every kernel basis (_kernel) has at its free columns and keeps under
    kron with identities, is read, not eliminated: row j of g is the row
    of f dom_basis at column j's unit row, and one product checks it.  Any
    other basis is eliminated (solve_affine).  An identity dom_basis is
    not multiplied.  Requires f(dom) <= cod; raises ValueError otherwise.
    """
    fd = f if dom_basis == Mat.identity(f.field, f.cols) else f * dom_basis
    if cod_basis.rows != fd.rows:
        raise ValueError("shape mismatch")
    unit = {}
    for i, r in enumerate(cod_basis.nz):
        if len(r) == 1:
            (j, x), = r.items()
            if x == 1:
                unit.setdefault(j, i)
    k = cod_basis.cols
    if len(unit) == k:
        g = Mat._of(fd.field, k, fd.cols, (fd.nz[unit[j]] for j in range(k)))
        if cod_basis * g == fd:
            return g
    elif (sol := solve_affine(cod_basis, fd)) is not None:
        return sol[0]
    raise ValueError("map does not restrict to the subspace")


def in_subspace(space: SubspaceBasis, f: Mat) -> bool:
    """Whether vec(f) lies in the span of the basis columns of space: it
    does when reducing it by the kept rows leaves nothing.  A kept row is
    0 at every other pivot, so one pass over the pivots of vec(f) clears
    them all."""
    F, k = space.basis.field, f.cols
    if f.field != F:
        raise ValueError("field mismatch")
    if f.rows * f.cols != space.ambient_dim:
        raise ValueError("shape mismatch")
    v = {i * k + j: x for i, r in enumerate(f.nz) for j, x in r.items()}
    reduced = space._reduced
    for c in [c for c in v if c in reduced]:
        _axpy(v, F.neg(v.pop(c)), reduced[c], c, F.p)
    return not v


# -- solution spaces of matrix equations ------------------------------


class Lift(Record):
    """The factor (I_a (x) U (x) I_b) . right of a term, where U is the
    unknown on `side` (0 or 1); right None is the identity."""

    a: int
    b: int
    right: Mat = None
    side: int = 0


class Term(Record):
    """coeff . left . lift_1 . lift_2 ...: one lift for a linear term, one
    per argument for a bilinear term; left None is the identity."""

    coeff: object
    left: Mat
    lifts: tuple


class TermList(Record):
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
                u = _lift(xs[lift.side], lift.a, lift.b)
                # The lift times right first: no product as wide as the lift.
                if lift.right is not None:
                    u = u * lift.right
                v = u if v is None else v * u
            c = t.coeff
            out = (v if c == 1 else v.scale(c)) if out is None else out._merge(v, c)
        return out


def _lift(u: Mat, a: int, b: int) -> Mat:
    """I_a (x) u (x) I_b in one pass: row (alpha, i, beta) is row i of u
    with each column j moved to (alpha, j, beta)."""
    if a == b == 1:
        return u
    w = u.cols * b
    return Mat._of(u.field, a * u.rows * b, a * w, (
        {j * b + s: x for j, x in r.items()}
        for alpha in range(a) for r in u.nz for s in range(alpha * w, alpha * w + b)))


def _nonzeros(m: Mat, n: int, prime: bool, c):
    """(row, column, value) of each nonzero entry of c . m, or of c . I_n
    if m is None, value unreduced; over Q c and each value are
    (numerator, denominator) int pairs."""
    if m is None:
        return [(i, i, c) for i in range(n)]
    if prime:
        return [(i, j, c * x) for i, r in enumerate(m.nz) for j, x in r.items()]
    cn, cd = c
    return [(i, j, (cn * x.numerator, cd * x.denominator))
            for i, r in enumerate(m.nz) for j, x in r.items()]


def _accumulate(acc: dict, field: Field, term: Term, shapes, start: int, ncols: int,
                weights) -> None:
    """Add the term's coefficients into acc, the entries of a flat matrix
    with ncols columns by index, unreduced until _finish: the coefficient
    of U_1[p_1, q_1] ... U_j[p_j, q_j] in entry (r, s) of the term's
    value, U_i the unknown of lift i, goes to index
    start + (r*k + s)*ncols + sum over i of weights[side_i]*(p_i*c_i + q_i),
    k the value's column count and c_i that of U_i.  Over Q the entries
    are (numerator, denominator) int pairs, summed as _matmul sums them.

    By vec(L X R) = (L (x) R^T) vec(X), applied per leg, the coefficient
    of X[p, q] in (L (I_a (x) X (x) I_b) R)[r, s] is the sum over alpha,
    beta of L[r, (alpha, p, beta)] . R[(alpha, q, beta), s].  The term's
    coefficient is folded into L's nonzeros, and each carries the index
    its row r contributes.  Each lift indexes the nonzeros of L and of R
    by (alpha, beta), multiplies the matching pairs and adds the weighted
    flat index of (p, q) to the index.  The last lift's products go into
    acc; an earlier lift's, summed, reduced and without zeros, are the
    left factor of the next lift.  Identity factors (None) are never built.
    """
    prime, p = field.kind == "prime", field.p
    c, one = field.of(term.coeff), 1
    if not prime:
        c, one = (c.numerator, c.denominator), (1, 1)
    first, last = term.lifts[0], term.lifts[-1]
    xr = shapes[first.side][0]
    width = first.a * xr * first.b if term.left is None else term.left.cols
    k = last.a * shapes[last.side][1] * last.b if last.right is None else last.right.cols
    cur = [(start + r * k * ncols, j, v) for r, j, v in _nonzeros(term.left, width, prime, c)]
    for depth, lift in enumerate(term.lifts, 1 - len(term.lifts)):
        (xr, xc), w = shapes[lift.side], weights[lift.side]
        a, b, right = lift.a, lift.b, lift.right
        if width != a * xr * b or right is not None and right.rows != a * xc * b:
            raise ValueError("term does not fit the shape of its unknown")
        by_leg = {}
        for i, j, v in cur:
            ap, beta = divmod(j, b)
            alpha, pp = divmod(ap, xr)
            by_leg.setdefault(alpha * b + beta, []).append((i + pp * xc * w, v))
        final = depth == 0
        out = acc if final else {}
        for i, s, x in _nonzeros(right, a * xc * b, prime, one):
            aq, beta = divmod(i, b)
            alpha, q = divmod(aq, xc)
            q = q * w + s * ncols if final else q * w
            for row, v in by_leg.get(alpha * b + beta, ()):
                key = row + q if final else (row + q, s)
                y = out.get(key)
                if prime:
                    out[key] = v * x if y is None else y + v * x
                    continue
                n, d = v[0] * x[0], v[1] * x[1]
                if y is None:
                    out[key] = n, d
                elif y[1] == d:
                    out[key] = y[0] + n, d
                else:
                    out[key] = y[0] * d + n * y[1], y[1] * d
        if not final:
            if prime:
                cur = [(i, s, y) for (i, s), x in out.items() if (y := x % p)]
            else:
                cur = [(i, s, x) for (i, s), x in out.items() if x[0]]
            width = a * xc * b if right is None else right.cols


def _finish(field: Field, acc: dict) -> dict:
    """The nonzero entries of acc with its sums reduced, once: over F_p
    mod p; over Q each (numerator, denominator) pair becomes a Fraction,
    one per distinct pair."""
    if field.kind == "prime":
        p = field.p
        return {i: y for i, x in acc.items() if (y := x % p)}
    out, made = {}, {}
    for i, nd in acc.items():
        if nd[0]:
            x = made.get(nd)
            if x is None:
                x = made[nd] = Fraction(*nd)
            out[i] = x
    return out


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
        rhs.append(Mat.zeros(field, h, 1) if f.const is None else vec(-f.const))
        off += h
    return _finish(field, acc), off, Mat._of(field, off, 1, chain.from_iterable(m.nz for m in rhs))


def _unit_system(field: Field, rows: int, cols: int, column, height: int) -> Mat:
    """The matrix whose column idx is column(E_idx), a column Mat, for
    each row-major matrix unit E_idx of k^{rows x cols}; height is the row
    count when there is no unit."""
    o = field.one
    units = [column(_from_flat(field, rows, cols, {i: o})) for i in range(rows * cols)]
    return Mat._of(field, rows * cols, units[0].rows if units else height,
                   (u.t.nz[0] for u in units)).t


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
        acc, height, _ = _contracted_system(field, rows, cols, forms)
        system = _from_flat(field, height, nunk, acc)
    else:
        system = _unit_system(field, rows, cols,
                              lambda e: vstack([vec(c(e)) for c in conditions]), 0)
    return SubspaceBasis(nunk, kernel_basis(system))


def affine_matrix_system(field: Field, rows: int, cols: int, residual, *, _columns=None):
    """(A, b) with A vec(F) = b  iff  residual(F) == 0, residual affine.

    residual: a term list, or a list of term lists whose values are
    stacked, contracted; or a callable Mat -> Mat, evaluated at zero and
    on the matrix units.  _columns, internal and read for term lists only,
    is a permutation of the unknowns: A's column t is placed at
    _columns[t] as its entries are, so A vec(W) = b for vec(F)[t] =
    vec(W)[_columns[t]].
    """
    forms = _term_lists(residual)
    if forms is not None:
        acc, height, b = _contracted_system(field, rows, cols, forms)
        return _from_flat(field, height, rows * cols, acc, _columns), b
    r0 = residual(Mat.zeros(field, rows, cols))
    a = _unit_system(field, rows, cols, lambda e: vec(residual(e) - r0), r0.rows * r0.cols)
    return a, -vec(r0)


class CompiledBilinear(Record):
    """f(X, Y) = beta(X, Y) + f(0, 0), beta bilinear, compiled to matrices
    in the coordinates of two bases: vec(X) = P x and vec(Y) = Q y.

    x has n0 entries, y has n1 and f's value r.  b is (n0*r) x n1 with
    b[i*r + q, j] = vec(beta(P_i, Q_j))[q] for the basis columns P_i and
    Q_j, and gamma = vec(f(0, 0)); compile_bilinear builds b as
    reshape(P^T W, (n0*r) x n1) . Q.  The layout is row-major, so one set
    of rows serves either argument fixed:
      x fixed:  A = (x^T (x) I_r) . b
      y fixed:  A = reshape(b . y, n0 x r)^T
    and f == 0 iff A (other coordinates) = -gamma.
    """

    n0: int
    b: Mat
    gamma: Mat

    def fix(self, k: int, value: Mat) -> Mat:
        """A of the system in the free argument, argument k (0 = X) at the
        coordinate column value."""
        F, n0, r = self.b.field, self.n0, self.gamma.rows
        if k == 0:
            x = [(i, row[0]) for i, row in enumerate(value.nz) if row]
            return Mat._of(F, r, n0 * r, ({i * r + q: v for i, v in x}
                                          for q in range(r))) * self.b
        return unvec(F, self.b * value, n0, r).t


def compile_bilinear(field: Field, shape0, shape1, f: TermList, bases) -> CompiledBilinear:
    """Compile the term list f(X, Y), X of shape0 and Y of shape1, in the
    coordinates of bases = (P, Q), whose columns are vectorized values of X
    and of Y.

    The terms are contracted into W, the coefficient of X[u] Y[v] in
    entry q of the value at row u and column (q, v), and b is P^T W,
    rows (i, q) and columns v, times Q.  Each term must have one lift on
    each side.
    """
    if any(sorted(lift.side for lift in t.lifts) != [0, 1] for t in f.terms):
        raise ValueError("coupling term is not bilinear")
    P, Q = bases
    r, n1 = f.shape[0] * f.shape[1], shape1[0] * shape1[1]
    acc = {}
    for t in f.terms:
        _accumulate(acc, field, t, (shape0, shape1), 0, n1, (r * n1, 1))
    W = _from_flat(field, P.rows, r * n1, _finish(field, acc))
    gamma = Mat.zeros(field, r, 1) if f.const is None else vec(f.const)
    return CompiledBilinear(P.cols, reshape(P.t * W, P.cols * r, n1) * Q, gamma)


def basis_columns(field: Field, basis: Mat, rows: int, cols: int):
    """Iterate the columns of a vectorized basis as rows x cols matrices."""
    return [_from_flat(field, rows, cols, column) for column in basis.t.nz]
