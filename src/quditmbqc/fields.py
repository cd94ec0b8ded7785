"""Exact arithmetic over Z_d and GF(p^r), and the reduced polynomial ring.

Every element of every modulus is an int in 0..d-1.  Over GF(p^r), element
i is the polynomial c0 + c1*t + ... + c_(r-1)*t^(r-1) whose coefficients
are the base-p digits of i, lowest first, with t a root of the stored
irreducible polynomial; so 0 and 1 are zero and one everywhere, and a
coefficient prints as its digit tuple, such as (0,1) for t.  A Modulus
instance carries the arithmetic: native % over Z_d, log/antilog and Zech
tables of O(q) entries over GF(q).  All values are immutable and every
function here is pure.
"""

from __future__ import annotations

import itertools
import math
import operator
from functools import reduce

from .errors import SizeGuardError, UnsupportedModulusError

PRIME_FIELD = "prime-field"
PRIME_POWER_FIELD = "prime-power-field"
COMPOSITE_RING = "composite-ring"

SPAN_GUARD = 3**9  # most polynomials enumerate_subspace or closure_generate will list


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    i = 2
    while i * i <= n:
        if n % i == 0:
            return False
        i += 1
    return True


def factorize(n: int) -> dict[int, int]:
    """Prime factorization as {prime: exponent}."""
    out: dict[int, int] = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


class Modulus:
    """Arithmetic on the elements 0..d-1 of Z_d or GF(p^r); construct via
    make_field().  Subclasses supply add, mul, neg and inv."""

    zero = 0
    one = 1

    def __init__(self, d: int, kind: str):
        self.d = d
        self.kind = kind

    @property
    def is_field(self) -> bool:
        return self.kind != COMPOSITE_RING

    def elements(self) -> list[int]:
        return list(range(self.d))

    def from_int(self, i: int) -> int:
        """The element of an integer index, read mod d."""
        return i % self.d

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def pow_(self, a: int, e: int) -> int:
        if e < 0:
            return self.pow_(self.inv(a), -e)
        out = self.one
        base = a
        while e:
            if e & 1:
                out = self.mul(out, base)
            base = self.mul(base, base)
            e >>= 1
        return out

    def dot(self, row, vec) -> int:
        """sum_j row[j] * vec[j]."""
        return reduce(self.add, map(self.mul, row, vec), 0)

    def add_scaled(self, row, c: int, other) -> list:
        """The row row + c*other, entry by entry."""
        return [self.add(v, self.mul(c, w)) for v, w in zip(row, other)]

    def text(self, a: int) -> str:
        """The printed form of an element."""
        return str(a)

    def __eq__(self, other):
        return isinstance(other, Modulus) and self.d == other.d and self.kind == other.kind

    def __hash__(self):
        return hash((self.d, self.kind))

    def __repr__(self):
        return f"{self.kind}({self.d})"


class IntegerRing(Modulus):
    """Z_d: a field when d is prime, the ring Z_d otherwise."""

    def __init__(self, d: int):
        super().__init__(d, PRIME_FIELD if is_prime(d) else COMPOSITE_RING)

    def add(self, a, b):
        return (a + b) % self.d

    def mul(self, a, b):
        return (a * b) % self.d

    def neg(self, a):
        return (-a) % self.d

    def inv(self, a):
        if math.gcd(a, self.d) != 1:
            raise ZeroDivisionError(f"{a} is not a unit mod {self.d}")
        return pow(a, -1, self.d)

    def dot(self, row, vec):
        return sum(map(operator.mul, row, vec)) % self.d

    def add_scaled(self, row, c, other):
        d = self.d
        return [(v + c * w) % d for v, w in zip(row, other)]


class PrimePowerField(Modulus):
    """GF(p^r) on tables of O(q) entries.

    With g the first generator of the multiplicative group in element
    order, exp[k] = g^k (k < 2(q-1)), log[g^k] = k and zech[k] = log(1 +
    g^k), None where 1 + g^k = 0: then a*b = g^(log a + log b) and g^i + g^j
    = g^(i + zech[j-i]), Zech's logarithm (Lidl & Niederreiter, Finite
    Fields, 1997, section 9.2).
    """

    def __init__(self, p: int, r: int, modpoly: tuple[int, ...]):
        super().__init__(p**r, PRIME_POWER_FIELD)
        self.p = p
        self.r = r
        self.modpoly = modpoly  # length r+1, monic, ascending coefficients
        self._exp, self._log, self._zech = _power_tables(p, r, modpoly)

    def add(self, a, b):
        if not a or not b:
            return a or b
        la = self._log[a]
        z = self._zech[self._log[b] - la]  # a negative index wraps mod q-1
        return 0 if z is None else self._exp[la + z]

    def mul(self, a, b):
        return self._exp[self._log[a] + self._log[b]] if a and b else 0

    def neg(self, a):
        return self.mul(a, self.p - 1)  # element p-1 is the constant -1

    def inv(self, a):
        if not a:
            raise ZeroDivisionError("inverse of zero")
        return self._exp[-self._log[a]]

    def text(self, a):
        return "(" + ",".join(str(a // self.p**j % self.p) for j in range(self.r)) + ")"


def _power_tables(p: int, r: int, modpoly: tuple[int, ...]) -> tuple[list, list, list]:
    """exp, log and zech of PrimePowerField for GF(p^r) = Z_p[t]/modpoly.

    Multiplying by a fixed g is Z_p-linear on digit vectors, with column j
    the digits of g*t^j; each candidate g, in element order, is multiplied
    into 1 until 1 recurs, and the first one that takes q-1 steps is a
    generator whose powers are exp.
    """
    q = p**r
    weights = [p**j for j in range(r)]
    unit = [1] + [0] * (r - 1)
    for g in range(2, q):
        column = [g // w % p for w in weights]
        columns = [column]
        for _ in range(r - 1):  # times t: shift up, then reduce t^r by modpoly
            top = column[-1]
            column = [(c - top * m) % p for c, m in zip([0] + column[:-1], modpoly)]
            columns.append(column)
        rows = list(zip(*columns))
        powers, x = [], unit
        while not powers or x != unit:
            powers.append(sum(map(operator.mul, x, weights)))
            x = [sum(map(operator.mul, row, x)) % p for row in rows]
        if len(powers) == q - 1:
            break
    log = [None] + sorted(range(q - 1), key=powers.__getitem__)  # log[g^k] = k
    zech = [log[a + 1 if (a + 1) % p else a + 1 - p] for a in powers]  # 1 + a: digit 0 up one
    return powers + powers, log, zech


def _is_irreducible_zp(poly: list[int], p: int) -> bool:
    """Whether no monic factor of degree 1..r/2 divides poly, a monic
    polynomial of degree r over Z_p with ascending coefficients."""
    r = len(poly) - 1
    for deg in range(1, r // 2 + 1):
        for tail in itertools.product(range(p), repeat=deg):
            rem = list(poly)
            for i in range(r, deg - 1, -1):  # cancel x^i by rem[i] * x^(i-deg) * factor
                for j, c in enumerate(tail):
                    rem[i - deg + j] = (rem[i - deg + j] - rem[i] * c) % p
            if not any(rem[:deg]):
                return False
    return True


def make_field(d: int) -> Modulus:
    """Classify d and build the matching modulus.

    Prime d gives Z_d as a field; d = p^r (r >= 2) gives GF(p^r) with the
    lexicographically smallest monic irreducible polynomial; any other d
    gives the ring Z_d.
    """
    if d < 2:
        raise ValueError("modulus must be >= 2")
    (p, r), *others = factorize(d).items()
    if not others and r >= 2:
        for tail in itertools.product(range(p), repeat=r):
            cand = list(tail) + [1]
            if _is_irreducible_zp(cand, p):
                return PrimePowerField(p, r, tuple(cand))
        raise AssertionError("no irreducible polynomial found")  # unreachable
    return IntegerRing(d)


def primitive_element(m: Modulus):
    """The first element, in elements() order, that generates the
    multiplicative group of the field: u^((d-1)/q) != 1 for every prime
    q dividing d-1."""
    return next(a for a in m.elements()[1:]
                if all(m.pow_(a, (m.d - 1) // q) != m.one for q in factorize(m.d - 1)))


class MultiPoly:
    """Reduced multivariate polynomial with partial degrees <= d-1.

    Coefficients map exponent tuples to nonzero elements of the modulus.
    Two reduced polynomials over a field are equal iff they represent the
    same function.  Instances are immutable.
    """

    __slots__ = ("modulus", "n", "coeffs")

    def __init__(self, modulus: Modulus, n: int, coeffs: dict):
        """Validated: int coefficients, read mod d, on reduced exponent tuples."""
        d = modulus.d
        clean = {}
        for exps, val in coeffs.items():
            if not isinstance(val, int):
                raise ValueError(f"coefficient {val!r} is not an integer")
            if val % d:
                if len(exps) != n or any(a < 0 or a > d - 1 for a in exps):
                    raise ValueError(f"exponent tuple {exps} not reduced for d={d}")
                clean[tuple(exps)] = val % d
        self.modulus = modulus
        self.n = n
        self.coeffs = clean

    @classmethod
    def _trusted(cls, modulus: Modulus, n: int, terms) -> "MultiPoly":
        """A polynomial from (exponent tuple, element) pairs, the tuples
        reduced, distinct and of length n; zero elements are dropped, and
        the validation of __init__ is skipped."""
        poly = object.__new__(cls)
        poly.modulus = modulus
        poly.n = n
        poly.coeffs = {e: c for e, c in terms if c}
        return poly

    # -- constructors ------------------------------------------------------
    @classmethod
    def zero(cls, modulus: Modulus, n: int) -> "MultiPoly":
        return cls(modulus, n, {})

    @classmethod
    def constant(cls, modulus: Modulus, n: int, value) -> "MultiPoly":
        return cls(modulus, n, {(0,) * n: value})

    @classmethod
    def variable(cls, modulus: Modulus, n: int, j: int) -> "MultiPoly":
        exps = [0] * n
        exps[j] = 1
        return cls(modulus, n, {tuple(exps): modulus.one})

    @classmethod
    def monomial(cls, modulus: Modulus, n: int, exps: tuple[int, ...], coeff=None) -> "MultiPoly":
        return cls(modulus, n, {tuple(exps): modulus.one if coeff is None else coeff})

    # -- algebra -----------------------------------------------------------
    def __add__(self, other: "MultiPoly") -> "MultiPoly":
        assert self.modulus == other.modulus and self.n == other.n
        m = self.modulus
        out = dict(self.coeffs)
        for exps, val in other.coeffs.items():
            out[exps] = m.add(out.get(exps, 0), val)
        return MultiPoly._trusted(m, self.n, out.items())

    def __neg__(self) -> "MultiPoly":
        m = self.modulus
        return MultiPoly._trusted(m, self.n, ((e, m.neg(v)) for e, v in self.coeffs.items()))

    def __sub__(self, other: "MultiPoly") -> "MultiPoly":
        return self + (-other)

    def scale(self, c: int) -> "MultiPoly":
        m = self.modulus
        return MultiPoly._trusted(m, self.n, ((e, m.mul(v, c)) for e, v in self.coeffs.items()))

    def evaluate(self, point: tuple) -> int:
        m = self.modulus
        point = [m.from_int(x) for x in point]
        total = 0
        for exps, val in self.coeffs.items():
            term = val
            for x, a in zip(point, exps):
                if a:
                    term = m.mul(term, m.pow_(x, a))
            total = m.add(total, term)
        return total

    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other):
        return (isinstance(other, MultiPoly) and self.modulus == other.modulus
                and self.n == other.n and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash(frozenset(self.coeffs.items()))

    # -- presentation ------------------------------------------------------
    def serialize(self) -> str:
        """Stable text form: d=<d>;n=<n>;{(a1,..,an):coeff,...} in lex order."""
        parts = []
        for exps in sorted(self.coeffs):
            coeff = self.modulus.text(self.coeffs[exps])
            parts.append("(" + ",".join(map(str, exps)) + "):" + coeff)
        return f"d={self.modulus.d};n={self.n};{{{','.join(parts)}}}"

    def pretty(self, names: str = "x") -> str:
        """Human-readable form, monomials ascending in lex exponent order."""
        if not self.coeffs:
            return "0"
        terms = []
        for exps in sorted(self.coeffs):
            factors = []
            for j, a in enumerate(exps):
                if a == 1:
                    factors.append(f"{names}{j + 1}")
                elif a > 1:
                    factors.append(f"{names}{j + 1}^{a}")
            coeff = self.modulus.text(self.coeffs[exps])
            if not factors:
                terms.append(coeff)
            elif coeff == "1":
                terms.append("*".join(factors))
            else:
                terms.append(coeff + "*" + "*".join(factors))
        return " + ".join(terms)


def all_points(modulus: Modulus, n: int) -> list[tuple]:
    """All of F^n in lexicographic order of element indices."""
    return list(itertools.product(modulus.elements(), repeat=n))


def _along_axes(m: Modulus, values: list, n: int, matrix: list[list]) -> list:
    """Apply a d x d matrix along every axis of a value list: values holds
    d^n entries in all_points order, and entry (.., k, ..) of the result is
    sum_j matrix[k][j] * entry (.., j, ..) of values, over the modulus m.

    Each pass maps the last axis and moves it to the front, so after n
    passes the axes are back in order; O(n * d^(n+1)) operations.
    """
    d = len(matrix)
    for _ in range(n):
        fibres = [values[i:i + d] for i in range(0, len(values), d)]
        values = [m.dot(row, fibre) for row in matrix for fibre in fibres]
    return values


def delta_poly(modulus: Modulus, y: tuple) -> MultiPoly:
    """The reduced polynomial equal to 1 at y and 0 elsewhere: the
    interpolation of that indicator table; needs a field modulus."""
    y = tuple(c % modulus.d for c in y)
    return interpolate(modulus, {x: int(x == y) for x in all_points(modulus, len(y))})


def interpolate(modulus: Modulus, table: dict) -> MultiPoly:
    """Reduced polynomial matching a complete function table on F^n.

    Over a field of q elements, (x - y)^(q-1) = sum_k x^k y^(q-1-k), so the
    indicator 1 - (x - y)^(q-1) of y gives the one-variable Lagrange map:
    the coefficient of x^0 is f(0), that of x^k (k >= 1) is
    -sum_y f(y) y^(q-1-k) with 0^0 = 1.  It is applied along every axis.
    """
    if not modulus.is_field:
        raise UnsupportedModulusError("interpolation needs a field modulus")
    q = modulus.d
    n, values = _table_values(table, q)
    elems = modulus.elements()
    lagrange = [[int(y == 0) for y in elems]]
    lagrange += [[modulus.neg(modulus.pow_(y, q - 1 - k)) for y in elems] for k in range(1, q)]
    coeffs = _along_axes(modulus, values, n, lagrange)
    exponents = itertools.product(range(q), repeat=n)
    return MultiPoly._trusted(modulus, n, zip(exponents, coeffs))


def _table_values(table: dict, d: int, n: int | None = None) -> tuple[int, list[int]]:
    """n and the values of a complete table on the n-tuples of 0..d-1, in
    all_points order; points and integer values are read mod d, a plain int
    point is the 1-tuple of it, and the points must be distinct mod d and
    all of one arity, which must be n when n is given."""
    if d < 2:
        raise ValueError(f"modulus must be at least 2, got {d}")
    points = [(x,) if type(x) is int else x for x in table]
    arity = len(points[0]) if points and isinstance(points[0], tuple) else 0
    reduced = {}
    for x, v in zip(points, table.values()):
        if not isinstance(x, tuple):
            raise ValueError(f"table point {x!r} is neither a tuple nor an integer")
        if not isinstance(v, int):
            raise ValueError(f"table value {v!r} is not an integer")
        if len(x) != arity:
            raise ValueError(f"table point {x} has {len(x)} coordinates, expected {arity}")
        point = tuple([c % d for c in x])
        if point in reduced:
            raise ValueError(f"table point {x} repeats the point {point} mod {d}")
        reduced[point] = v % d
    if len(reduced) != d**arity:
        raise ValueError(f"table needs {d**arity} entries, got {len(table)}")
    if n is not None and arity != n:
        raise ValueError(f"table points have {arity} coordinates, expected n = {n}")
    return arity, list(map(reduced.__getitem__, itertools.product(range(d), repeat=arity)))


def combined_degree(g: MultiPoly) -> int:
    """Maximal exponent sum over monomials; 0 for constants and zero."""
    if not g.coeffs:
        return 0
    return max(sum(e) for e in g.coeffs)


def in_subspace(g: MultiPoly, delta: int) -> bool:
    """Membership in Omega_n(delta): every monomial has exponent sum <= delta."""
    nmax = g.n * (g.modulus.d - 1)
    if not 1 <= delta <= nmax:
        raise ValueError(f"delta must be in 1..{nmax}")
    return combined_degree(g) <= delta


def subspace_monomials(modulus: Modulus, n: int, delta: int) -> list[tuple[int, ...]]:
    """Exponent tuples spanning Omega_n(delta), in lex order."""
    d = modulus.d
    return [e for e in itertools.product(range(d), repeat=n) if sum(e) <= delta]


def enumerate_subspace(modulus: Modulus, n: int, delta: int) -> set[MultiPoly]:
    """All polynomials in Omega_n(delta) (guarded enumeration)."""
    mons = subspace_monomials(modulus, n, delta)
    if modulus.d ** len(mons) > SPAN_GUARD:
        raise SizeGuardError(f"subspace has {modulus.d}^{len(mons)} = {modulus.d ** len(mons)} "
                             f"polynomials, over the limit {SPAN_GUARD}")
    return {MultiPoly._trusted(modulus, n, zip(mons, coeffs))
            for coeffs in itertools.product(modulus.elements(), repeat=len(mons))}


def closure_basis(g: MultiPoly) -> list[tuple]:
    """An echelon basis of the closure of g: the span of 1 and of every g∘A,
    where A runs over the affine maps x -> Mx + b of F^n (any n x n matrix M).

    Basis vectors are value vectors: tuples of field elements in the order
    of all_points(modulus, n); interpolate() turns one into its reduced
    polynomial.  The number of vectors is the closure's dimension.

    The closure is the smallest subspace that holds 1 and g and is closed
    under composition with a generating set of the affine monoid: the
    translation x1 -> x1+1, the scaling x1 -> u*x1 by a primitive element u
    and, for n >= 2, a swap and a cycle of the variables, the transvection
    x1 -> x1+x2 and the projection x1 -> 0 (GL_n and one rank n-1
    idempotent generate every n x n matrix; J. A. Erdos, Glasgow Math. J. 8,
    1967).  Each vector that joins the basis is composed with every
    generator and the results are reduced, until the basis stops growing.
    """
    m = g.modulus
    if not m.is_field:
        raise UnsupportedModulusError("closure needs a field modulus")
    u = primitive_element(m)
    maps = [lambda x: (m.add(x[0], m.one),) + x[1:], lambda x: (m.mul(u, x[0]),) + x[1:]]
    if g.n >= 2:
        maps += [lambda x: (x[1], x[0]) + x[2:], lambda x: x[1:] + x[:1],
                 lambda x: (m.add(x[0], x[1]),) + x[1:], lambda x: (0,) + x[1:]]
    points = all_points(m, g.n)
    where = {x: i for i, x in enumerate(points)}
    generators = [[where[a(x)] for x in points] for a in maps]
    basis: list[tuple[int, list]] = []  # (pivot, row): 1 at the pivot, 0 at earlier pivots
    pending = [[m.one] * len(points), [g.evaluate(x) for x in points]]
    while pending:
        row = pending.pop()
        for p, b in basis:
            if row[p]:
                c = m.neg(row[p])
                row = m.add_scaled(row, c, b)
        p = next((i for i, v in enumerate(row) if v), None)
        if p is not None:
            unit = m.inv(row[p])
            row = [m.mul(unit, v) for v in row]
            basis.append((p, row))
            pending += [[row[j] for j in gen] for gen in generators]
    return [tuple(row) for _, row in basis]


def closure_generate(g: MultiPoly) -> set[MultiPoly]:
    """Every member of the closure of g (see closure_basis) as a reduced
    polynomial.  The listing has d^dim members and is guarded by SPAN_GUARD.
    """
    m = g.modulus
    basis = closure_basis(g)
    if m.d ** len(basis) > SPAN_GUARD:
        raise SizeGuardError(f"closure span has {m.d}^{len(basis)} = {m.d ** len(basis)} "
                             f"polynomials, over the limit {SPAN_GUARD}")
    points = all_points(m, g.n)
    multiples = [[b.scale(c) for c in m.elements()]
                 for b in (interpolate(m, dict(zip(points, vec))) for vec in basis)]
    return set(_sums(MultiPoly.zero(m, g.n), multiples))


def _sums(partial: MultiPoly, multiples: list[list[MultiPoly]]):
    """Yield partial + q_1 + ... + q_k for every choice of q_i in multiples[i],
    depth first, so only one partial sum per level is held."""
    if not multiples:
        yield partial
        return
    for q in multiples[0]:
        yield from _sums(partial + q, multiples[1:])


# -- the least-degree polynomial of a table over Z_d -------------------------

def is_polynomial_over_ring(table: dict, d: int) -> MultiPoly | None:
    """The polynomial of least combined degree over Z_d matching a complete
    table on Z_d^n, or None when no polynomial over Z_d matches.

    The falling factorial x^(K) has forward difference Delta^K x^(J) (0) =
    K! = k1!...kn! at J = K and 0 elsewhere, so sum_K a_K x^(K) matches f
    exactly when K! a_K = Delta^K f(0) (mod d): f is a polynomial if and
    only if gcd(K!, d) divides every Delta^K f(0) (Kempner, Trans. AMS 22,
    1921; Singmaster, J. Number Theory 6, 1974).  With g = gcd(K!, d), a_K
    = (Delta^K f(0)/g) (K!/g)^-1 mod d/g is 0 wherever Delta^K f(0) is, so
    no matching polynomial has a lower combined degree; Stirling numbers of
    the first kind turn x^(K) into powers.  At prime d this is interpolate.
    """
    n, values = _table_values(table, d)
    ring = IntegerRing(d)
    points = all_points(ring, n)
    differences = [[(-1) ** (k + j) * math.comb(k, j) % d for j in range(d)] for k in range(d)]
    factorial = [math.factorial(k) % d for k in range(d)]
    falling = []
    for exps, delta in zip(points, _along_axes(ring, values, n, differences)):
        kf = math.prod(factorial[k] for k in exps) % d
        g = math.gcd(kf, d)
        if delta % g:
            return None
        falling.append(delta // g * pow(kf // g, -1, d // g) % (d // g))
    stirling = [[1] + [0] * (d - 1)]  # row k: the power coefficients of x^(k)
    for k in range(d - 1):
        stirling.append([(a - k * b) % d for a, b in zip([0] + stirling[-1], stirling[-1])])
    coeffs = _along_axes(ring, falling, n, [list(col) for col in zip(*stirling)])
    powers = [[pow(x, j, d) for j in range(d)] for x in range(d)]
    assert _along_axes(ring, coeffs, n, powers) == values  # it reproduces the table
    return MultiPoly._trusted(ring, n, zip(points, coeffs))


def solve_mod(rows: list[dict[int, int]], rhs: list[int], cols: int, d: int) -> list[int] | None:
    """One x in Z_d^cols with sum_c row[c] * x[c] = rhs[r] (mod d) for every
    row r, or None when no x exists.

    Rows are sparse {column: coefficient} maps.  The system is solved
    modulo each prime power of d and the parts are joined by the CRT.
    """
    terms = []
    for p, e in factorize(d).items():
        q = p**e
        sol = _solve_prime_power(rows, rhs, cols, q)
        if sol is None:
            return None
        weight = d // q * pow(d // q, -1, q)  # 1 mod q, 0 mod the other parts
        terms.append([weight * v for v in sol])
    return [sum(vals) % d for vals in zip(*terms)]


def _solve_prime_power(rows, rhs, cols: int, q: int) -> list[int] | None:
    """solve_mod for q = p^e, by Gaussian elimination.

    Each pivot is the first entry of least p-valuation (gcd p^v with q) met
    scanning the unused rows in order, so every other entry of its row and
    column is a multiple of it: a row is then solvable exactly when p^v
    divides its right side, and unknowns without a pivot are 0.  No
    sparsity tie-break: assignment systems hold each column once.
    """
    rows = [{c: r for c, a in row.items() if (r := a % q)} for row in rows]
    rhs = [b % q for b in rhs]
    unused = list(range(len(rows)))
    pivots = []
    while True:
        best = None  # (p^v, row, column)
        for r, c, a in ((r, c, a) for r in unused for c, a in rows[r].items()):
            pv = math.gcd(a, q)
            if best is None or pv < best[0]:
                best = pv, r, c
                if pv == 1:
                    break
        if best is None:
            break
        pv, r, c = best
        unused.remove(r)
        pivot = rows[r]
        unit = pow(pivot[c] // pv, -1, q)
        if unit != 1:
            for cc, a in pivot.items():
                pivot[cc] = a * unit % q
            rhs[r] = rhs[r] * unit % q
        for r2 in unused:
            row = rows[r2]
            if c in row:
                f = row[c] // pv
                for cc, a in pivot.items():
                    if new := (row.get(cc, 0) - f * a) % q:
                        row[cc] = new
                    else:
                        row.pop(cc, None)
                rhs[r2] = (rhs[r2] - f * rhs[r]) % q
        pivots.append((r, c, pv))
    if any(rhs[r] for r in unused):  # the unused rows are all zero now
        return None
    x = [0] * cols
    solved = []  # the pivot columns set so far; every other x is 0
    for r, c, pv in reversed(pivots):
        if rhs[r] % pv:
            return None
        acc = rhs[r] - sum(rows[r].get(cc, 0) * x[cc] for cc in solved)
        x[c] = acc % q // pv
        solved.append(c)
    return x
