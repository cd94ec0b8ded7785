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
from collections.abc import Set
from functools import reduce

from .errors import SizeGuardError, UnsupportedModulusError

PRIME_FIELD = "prime-field"
PRIME_POWER_FIELD = "prime-power-field"
COMPOSITE_RING = "composite-ring"

# most polynomials a MonomialSpan will list: a bound on listing time (d^k
# members), not memory, since a listing holds d^ceil(k/2) + 1 dicts at once
SPAN_GUARD = 3**9


def is_prime(n: int) -> bool:
    return factorize(n) == {n: 1}


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
    if type(d) is not int or d < 2:
        raise ValueError(f"modulus must be an integer >= 2, got {d!r}")
    (p, r), *others = factorize(d).items()
    if not others and r >= 2:
        for tail in itertools.product(range(p), repeat=r):
            cand = list(tail) + [1]
            if _is_irreducible_zp(cand, p):
                return PrimePowerField(p, r, tuple(cand))
        raise AssertionError("no irreducible polynomial found")  # unreachable
    return IntegerRing(d)


def _check_modulus(modulus, n=0) -> None:
    """Refuse, with ValueError, a modulus that is not a Modulus (such as
    the int d that make_field reads) and an n that is not an int >= 0."""
    if not isinstance(modulus, Modulus):
        raise ValueError(f"modulus is {modulus!r}, expected a Modulus such as make_field(d)")
    if type(n) is not int or n < 0:
        raise ValueError(f"n must be >= 0 and an integer, got {n!r}")


def _check_poly(g) -> None:
    """Refuse, with ValueError, a g that is not a MultiPoly (such as the
    int d), before any of its fields is read."""
    if not isinstance(g, MultiPoly):
        raise ValueError(f"polynomial is {g!r}, expected a MultiPoly")


def primitive_element(m: Modulus):
    """The first element, in elements() order, that generates the
    multiplicative group of the field: u^((d-1)/q) != 1 for every prime
    q dividing d-1.  d-1 is that group's order only over a field, so a
    ring modulus is refused."""
    _check_modulus(m)
    if not m.is_field:
        raise UnsupportedModulusError("primitive element needs a field modulus")
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
        """Validated: a Modulus, an int n >= 0, int coefficients, read mod
        d, on reduced exponent tuples."""
        _check_modulus(modulus, n)
        if not isinstance(coeffs, dict):
            raise ValueError(f"coefficients are {coeffs!r}, expected a dict of exponent tuple -> int")
        d = modulus.d
        clean = {}
        for exps, val in coeffs.items():
            if type(val) is not int:
                raise ValueError(f"coefficient {val!r} is not an integer")
            if (not isinstance(exps, tuple) or len(exps) != n
                    or any(type(a) is not int or not 0 <= a < d for a in exps)):
                raise ValueError(f"exponent tuple {exps!r} not reduced for d={d}")
            if val % d:
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
        _check_modulus(modulus, n)  # before n builds the exponent tuple
        return cls(modulus, n, {(0,) * n: value})

    @classmethod
    def variable(cls, modulus: Modulus, n: int, j: int) -> "MultiPoly":
        """x_j, for an index j in 0..n-1."""
        if type(n) is not int or type(j) is not int or not 0 <= j < n:
            raise ValueError(f"variable index {j!r} is not in 0..n-1 for n = {n!r}")
        exps = [0] * n
        exps[j] = 1
        return cls(modulus, n, {tuple(exps): 1})

    @classmethod
    def monomial(cls, modulus: Modulus, n: int, exps: tuple[int, ...], coeff=None) -> "MultiPoly":
        """coeff (default 1) times x^exps, for exps a tuple or a list of n
        exponents; __init__ refuses any other exps."""
        exps = tuple(exps) if isinstance(exps, list) else exps
        return cls(modulus, n, {exps: 1 if coeff is None else coeff})

    # -- algebra -----------------------------------------------------------
    def evaluate(self, point: tuple) -> int:
        """The value at a point of n int coordinates, each read by from_int."""
        if not isinstance(point, (tuple, list)):
            raise ValueError(f"point {point!r} is not a tuple of coordinates")
        if len(point) != self.n:
            raise ValueError(f"point {point} has {len(point)} coordinates, expected n = {self.n}")
        if any(type(x) is not int for x in point):
            raise ValueError(f"point {point!r} has a coordinate that is not an integer")
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

    def pretty(self) -> str:
        """Human-readable form, monomials ascending in lex exponent order."""
        if not self.coeffs:
            return "0"
        terms = []
        for exps in sorted(self.coeffs):
            mono = _monomial_text(exps)
            coeff = self.modulus.text(self.coeffs[exps])
            terms.append(f"{coeff}*{mono}" if mono and coeff != "1" else mono or coeff)
        return " + ".join(terms)


def _monomial_text(exps: tuple[int, ...]) -> str:
    """x1*x2^3 for the exponents (1, 3); the empty string for all zero."""
    return "*".join(f"x{j + 1}" + (f"^{a}" if a > 1 else "")
                    for j, a in enumerate(exps) if a)


def all_points(modulus: Modulus, n: int) -> list[tuple]:
    """All of F^n in lexicographic order of element indices."""
    _check_modulus(modulus, n)
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
    if not isinstance(y, (tuple, list)) or any(type(c) is not int for c in y):
        raise ValueError(f"point {y!r} is not a tuple of integer coordinates")
    _check_modulus(modulus)
    y = tuple(c % modulus.d for c in y)
    return interpolate(modulus, {x: int(x == y) for x in all_points(modulus, len(y))})


def interpolate(modulus: Modulus, table: dict) -> MultiPoly:
    """Reduced polynomial matching a complete function table on F^n.

    Over a field of q elements, (x - y)^(q-1) = sum_k x^k y^(q-1-k), so the
    indicator 1 - (x - y)^(q-1) of y gives the one-variable Lagrange map:
    the coefficient of x^0 is f(0), that of x^k (k >= 1) is
    -sum_y f(y) y^(q-1-k) with 0^0 = 1.  It is applied along every axis.
    """
    _check_modulus(modulus)
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
    all of one arity, which must be n when n is given (an empty table has
    arity n, or 0 without n)."""
    if type(d) is not int:
        raise ValueError(f"modulus must be an integer >= 2, got {d!r}")
    if d < 2:
        raise ValueError(f"modulus must be at least 2, got {d}")
    if not isinstance(table, dict):
        raise ValueError(f"table is {table!r}, expected a dict of point -> value")
    points = [(x,) if type(x) is int else x for x in table]
    arity = len(points[0]) if points and isinstance(points[0], tuple) else (n or 0)
    reduced = {}
    for x, v in zip(points, table.values()):
        if not isinstance(x, tuple):
            raise ValueError(f"table point {x!r} is neither a tuple nor an integer")
        if any(type(c) is not int for c in x):
            raise ValueError(f"table point {x!r} has a coordinate that is not an integer")
        if type(v) is not int:
            raise ValueError(f"table value {v!r} is not an integer")
        if len(x) != arity:
            raise ValueError(f"table point {x} has {len(x)} coordinates, expected {arity}")
        point = tuple([c % d for c in x])
        if point in reduced:
            raise ValueError(f"table point {x} repeats the point {point} mod {d}")
        reduced[point] = v % d
    if n is not None and arity != n:
        raise ValueError(f"table points have {arity} coordinates, expected n = {n}")
    if len(reduced) != d**arity:
        raise ValueError(f"table needs {d**arity} entries, got {len(table)}")
    return arity, list(map(reduced.__getitem__, itertools.product(range(d), repeat=arity)))


def combined_degree(g: MultiPoly) -> int:
    """Maximal exponent sum over monomials; 0 for constants and zero."""
    _check_poly(g)
    if not g.coeffs:
        return 0
    return max(sum(e) for e in g.coeffs)


def in_subspace(g: MultiPoly, delta: int) -> bool:
    """Membership in Omega_n(delta): every monomial has exponent sum <= delta."""
    degree, nmax = combined_degree(g), g.n * (g.modulus.d - 1)
    if type(delta) is not int or not 1 <= delta <= nmax:
        raise ValueError(f"delta must be an integer in 1..{nmax}, got {delta!r}")
    return degree <= delta


def subspace_monomials(modulus: Modulus, n: int, delta: int) -> list[tuple[int, ...]]:
    """Exponent tuples spanning Omega_n(delta), in lex order."""
    _check_modulus(modulus, n)
    if type(delta) is not int:
        raise ValueError(f"delta must be an integer, got {delta!r}")
    d = modulus.d
    return [e for e in itertools.product(range(d), repeat=n) if sum(e) <= delta]


def enumerate_subspace(modulus: Modulus, n: int, delta: int) -> MonomialSpan:
    """All polynomials in Omega_n(delta), as a MonomialSpan."""
    return MonomialSpan(modulus, n, subspace_monomials(modulus, n, delta))


class MonomialSpan(Set):
    """The read-only set of every polynomial whose terms lie on k distinct,
    reduced exponent tuples: d^k members, which its length and membership
    read off the tuples alone.  A repeated tuple, or one that is not n
    ints in 0..d-1, is refused with ValueError.

    Distinct coefficient vectors on distinct monomials are distinct
    polynomials, so iteration lists each member once, without hashing it,
    as a fresh polynomial with its own coeffs dict; the order is that of
    itertools.product over the coefficient vectors, the last monomial's
    fastest.  The listing meets in the middle: it builds the d^ceil(k/2)
    coefficient dicts of the last ceil(k/2) monomials once, then walks the
    first floor(k/2) monomials' vectors one head dict at a time, and each
    member's coeffs is the new dict head | low; so d^ceil(k/2) + 1 dicts
    are held at once, and SPAN_GUARD bounds the listing's time (d^k
    members), not its memory.  Listing more than SPAN_GUARD members is
    refused.  Two spans are equal when their modulus, n and monomial sets
    are; against any other set, equality is Set's member comparison.
    """

    __slots__ = ("modulus", "n", "monomials", "_support")

    def __init__(self, modulus: Modulus, n: int, monomials):
        _check_modulus(modulus, n)
        self.modulus = modulus
        self.n = n
        self.monomials = tuple(monomials)
        d, seen = modulus.d, set()
        for e in self.monomials:
            if (not isinstance(e, tuple) or len(e) != n
                    or any(type(a) is not int or not 0 <= a < d for a in e)):
                raise ValueError(f"exponent tuple {e!r} not reduced for d={d}, n={n}")
            if e in seen:
                raise ValueError(f"exponent tuple {e!r} repeated")
            seen.add(e)
        self._support = frozenset(seen)

    def __len__(self):
        return self.modulus.d ** len(self.monomials)

    def __contains__(self, p):
        return (isinstance(p, MultiPoly) and p.modulus == self.modulus and p.n == self.n
                and p.coeffs.keys() <= self._support)

    def __iter__(self):
        # refused when iter() is called, not in a generator body: list() and
        # tuple() read len() as a size hint before their first next()
        d, k = self.modulus.d, len(self.monomials)
        if d**k > SPAN_GUARD:
            raise SizeGuardError(f"listing {d}^{k} = {d**k} polynomials, over the limit {SPAN_GUARD}")
        return self._members()

    def _members(self):
        m, n, elems, half = self.modulus, self.n, self.modulus.elements(), len(self.monomials) // 2
        # the coefficient choices on the last k - half monomials, built once
        # and only read; a zero coefficient keeps its dict as it is
        lows = [{}]
        for e in self.monomials[half:]:
            lows = [{**low, e: c} if c else low for low in lows for c in elems]
        new = object.__new__
        for coeffs in itertools.product(elems, repeat=half):
            # coeffs has half entries, so zip pairs them with the first half
            head = {e: c for e, c in zip(self.monomials, coeffs) if c}
            for member in map(head.__or__, lows):
                poly = new(MultiPoly)
                poly.modulus, poly.n, poly.coeffs = m, n, member
                yield poly

    def __eq__(self, other):
        if isinstance(other, MonomialSpan):
            return (self.modulus == other.modulus and self.n == other.n
                    and self._support == other._support)
        return Set.__eq__(self, other)

    @classmethod
    def _from_iterable(cls, members):  # what Set's &, |, - and ^ return
        return set(members)

    def __repr__(self):
        return f"MonomialSpan({self.modulus!r}, n={self.n}, {len(self.monomials)} monomials)"


def closure_basis(g: MultiPoly) -> list[tuple]:
    """A monomial basis of the closure of g: the span of 1 and of every g∘A,
    where A runs over the affine maps x -> Mx + b of F^n (any n x n matrix M).

    Basis vectors are value vectors: tuples of field elements in the order
    of all_points(modulus, n), one per monomial of the closure in exponent
    order (see _closure_monomials for why monomials span it and how they
    are found); interpolate() turns one into its monomial.  The number of
    vectors is the closure's dimension.
    """
    exponents, m = _closure_monomials(g), g.modulus  # _closure_monomials checks g first
    rows = [[m.one] * m.d]  # rows[a][x] = x^a, with 0^0 = 1
    for _ in range(m.d - 1):
        rows.append(list(map(m.mul, rows[-1], m.elements())))
    basis = []
    for exps in exponents:
        values = [m.one]
        for a in exps:
            values = [m.mul(v, c) for v in values for c in rows[a]]
        basis.append(tuple(values))
    return basis


def _closure_monomials(g: MultiPoly) -> list[tuple[int, ...]]:
    """The exponent tuples of the monomials spanning the closure of g over
    GF(q), q = p^r, in exponent order.

    The closure is spanned by monomials.  It is closed under every scaling
    x_i -> c*x_i, under which x^e is multiplied by prod c_i^(e_i); q-1 is a
    unit mod p, so these scalings split the closure into parts spanned by
    monomials, and within one part only x_i^0 and x_i^(q-1) share a
    character.  The constant 1 tells those apart at n = 1 and the
    projections x_i -> 0 at n >= 2, which keep exactly the monomials free
    of x_i.  (The same fact makes generalized Reed-Muller codes
    affine-invariant: Delsarte, Goethals & MacWilliams, Inform. Control
    16, 1970.)

    So the closure is the span of the smallest exponent set S that holds 0
    and the support of g and holds every monomial of x^e∘A for e in S and
    A in a generating set of the affine monoid: the translation x1 -> x1+1,
    the scaling x1 -> u*x1 by a primitive element u and, for n >= 2, a swap
    and a cycle of the variables, the transvection x1 -> x1+x2 and the
    projection x1 -> 0 (GL_n and one rank n-1 idempotent generate every n x
    n matrix; J. A. Erdos, Glasgow Math. J. 8, 1967).  The scaling and the
    projection add no monomial.  (x1+1)^a has the x1^k with C(a, k) != 0
    mod p, which by Lucas's theorem are the k whose base-p digits are all
    at most those of a; the transvection sends x1^a*x2^b to the
    x1^(a-k)*x2^(b+k) for the same k, folded by x^q = x.  Distinct k give
    distinct monomials, so no terms cancel and no field arithmetic is done.
    """
    _check_poly(g)
    m, n = g.modulus, g.n
    if not m.is_field:
        raise UnsupportedModulusError("closure needs a field modulus")
    q = m.d
    ((p, r),) = factorize(q).items()
    digits = [[a // p**j % p for j in range(r)] for a in range(q)]
    within = [[k for k in range(a + 1) if all(map(operator.le, digits[k], digits[a]))]
              for a in range(q)]

    def images(e):
        if n:
            yield from ((k,) + e[1:] for k in within[e[0]])
        if n >= 2:
            a, b = e[:2]
            yield from ((a - k, b + k - (q - 1) if b + k >= q else b + k) + e[2:]
                        for k in within[a])
            yield (b, a) + e[2:]
            yield e[1:] + e[:1]

    found = {(0,) * n} | set(g.coeffs)
    pending = list(found)
    while pending:
        for e in images(pending.pop()):
            if e not in found:
                found.add(e)
                pending.append(e)
    return sorted(found)


def closure_generate(g: MultiPoly) -> MonomialSpan:
    """The closure of g (see closure_basis) as a MonomialSpan of reduced
    polynomials: d^dim members."""
    exponents = _closure_monomials(g)  # which checks g first
    return MonomialSpan(g.modulus, g.n, exponents)


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
    differences = [[1] + [0] * (d - 1)]  # row k: (-1)^(k+j) C(k, j) mod d, by Pascal's rule
    for _ in range(d - 1):
        differences.append([(a - b) % d for a, b in zip([0] + differences[-1], differences[-1])])
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
    powers = [[1] * d for _ in range(d)]  # powers[x][j] = x^j mod d, by running products
    for x, row in enumerate(powers):
        for j in range(1, d):
            row[j] = row[j - 1] * x % d
    assert _along_axes(ring, coeffs, n, powers) == values  # it reproduces the table
    return MultiPoly._trusted(ring, n, zip(points, coeffs))


def solve_mod(rows: list[dict[int, int]], rhs: list[int], cols: int, d: int) -> list[int] | None:
    """One x in Z_d^cols with sum_c row[c] * x[c] = rhs[r] (mod d) for every
    row r, or None when no x exists.

    Rows are sparse {column: coefficient} maps.  The system is solved
    modulo each prime power of d, and the parts are joined by the CRT (a
    prime-power d is its one part, of weight 1).
    """
    terms = []
    for p, e in factorize(d).items():
        q = p**e
        if (sol := _solve_prime_power(rows, rhs, cols, q)) is None:
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
    x = [0] * cols  # a column not solved yet (c itself among them) reads 0
    for r, c, pv in reversed(pivots):
        if rhs[r] % pv:
            return None
        acc = rhs[r] - sum(a * x[cc] for cc, a in rows[r].items())
        x[c] = acc % q // pv
    return x
