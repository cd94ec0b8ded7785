"""Exact arithmetic over Z_d and GF(p^r), and the reduced polynomial ring.

Element values are canonical plain objects: an int in 0..d-1 for Z_d, a
length-r tuple of ints over Z_p for GF(p^r).  A Modulus instance carries the
arithmetic; every operation returns canonical values.  All values are
immutable and every function here is pure.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from typing import Iterable

from .errors import SizeGuardError, UnsupportedModulusError

PRIME_FIELD = "prime-field"
PRIME_POWER_FIELD = "prime-power-field"
COMPOSITE_RING = "composite-ring"

CLOSURE_GUARD = 3**4  # largest d**n closure_generate will enumerate
CLOSURE_PRE_MAP_GUARD = 10**5  # most tuples of affine pre-maps closure_generate tries
SPAN_GUARD = 3**9  # most polynomials enumerate_subspace or closure_generate will list
RING_SOLVER_GUARD = 256  # largest d**n for the ring representability test


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
    """Arithmetic for Z_d or GF(p^r); construct via make_field()."""

    def __init__(self, d: int, kind: str):
        self.d = d
        self.kind = kind

    @property
    def is_field(self) -> bool:
        return self.kind != COMPOSITE_RING

    # -- interface implemented by subclasses ------------------------------
    def canon(self, v):
        raise NotImplementedError

    def add(self, a, b):
        raise NotImplementedError

    def mul(self, a, b):
        raise NotImplementedError

    def neg(self, a):
        raise NotImplementedError

    def inv(self, a):
        raise NotImplementedError

    def elements(self) -> list:
        raise NotImplementedError

    def from_int(self, i: int):
        """Canonical element for an integer index in 0..d-1."""
        raise NotImplementedError

    # -- shared derived operations ----------------------------------------
    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def pow_(self, a, e: int):
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
        self.zero = 0
        self.one = 1

    def canon(self, v):
        return int(v) % self.d

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

    def elements(self):
        return list(range(self.d))

    def from_int(self, i):
        return i % self.d


class PrimePowerField(Modulus):
    """GF(p^r) with elements as length-r coefficient tuples over Z_p.

    Tuples are ascending: (c0, c1, ...) represents c0 + c1*t + ... where t
    is a root of the stored irreducible polynomial.
    """

    def __init__(self, p: int, r: int, modpoly: tuple[int, ...]):
        super().__init__(p**r, PRIME_POWER_FIELD)
        self.p = p
        self.r = r
        self.modpoly = modpoly  # length r+1, monic, ascending coefficients
        self.zero = (0,) * r
        self.one = (1,) + (0,) * (r - 1)

    def canon(self, v):
        if isinstance(v, int):
            return self.from_int(v)
        t = tuple(int(c) % self.p for c in v)
        if len(t) != self.r:
            raise ValueError(f"GF({self.p}^{self.r}) element needs {self.r} coefficients")
        return t

    def add(self, a, b):
        return tuple((x + y) % self.p for x, y in zip(a, b))

    def neg(self, a):
        return tuple((-x) % self.p for x in a)

    def mul(self, a, b):
        prod = [0] * (2 * self.r - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    prod[i + j] = (prod[i + j] + x * y) % self.p
        for i in range(len(prod) - 1, self.r - 1, -1):
            c = prod[i]
            if c:
                prod[i] = 0
                for j in range(self.r):
                    prod[i - self.r + j] = (prod[i - self.r + j] - c * self.modpoly[j]) % self.p
        return tuple(prod[: self.r])

    def inv(self, a):
        if a == self.zero:
            raise ZeroDivisionError("inverse of zero")
        return self.pow_(a, self.d - 2)

    def elements(self):
        return [tuple(reversed(t)) for t in itertools.product(range(self.p), repeat=self.r)]

    def from_int(self, i):
        i %= self.d
        coeffs = []
        for _ in range(self.r):
            coeffs.append(i % self.p)
            i //= self.p
        return tuple(coeffs)


def _poly_divmod_zp(num: list[int], den: list[int], p: int) -> tuple[list[int], list[int]]:
    """Division with remainder in Z_p[x]; coefficients ascending, den monic-ish."""
    num = [c % p for c in num]
    den = [c % p for c in den]
    while den and den[-1] == 0:
        den.pop()
    dlead = pow(den[-1], -1, p)
    quot = [0] * max(len(num) - len(den) + 1, 1)
    for i in range(len(num) - len(den), -1, -1):
        c = (num[i + len(den) - 1] * dlead) % p
        quot[i] = c
        if c:
            for j, dj in enumerate(den):
                num[i + j] = (num[i + j] - c * dj) % p
    while len(num) > 1 and num[-1] == 0:
        num.pop()
    return quot, num


def _is_irreducible_zp(poly: list[int], p: int) -> bool:
    """poly monic of degree r over Z_p, ascending coefficients."""
    r = len(poly) - 1
    for deg in range(1, r // 2 + 1):
        for tail in itertools.product(range(p), repeat=deg):
            den = list(tail) + [1]
            _, rem = _poly_divmod_zp(list(poly), den, p)
            if rem == [0]:
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


def _reduce_exponent(e: int, d: int) -> int:
    """Reduce a single-variable exponent using x**d == x over a field."""
    if e < d:
        return e
    return (e - 1) % (d - 1) + 1


class MultiPoly:
    """Reduced multivariate polynomial with partial degrees <= d-1.

    Coefficients map exponent tuples to nonzero canonical element values.
    Two reduced polynomials over a field are equal iff they represent the
    same function.  Instances are immutable.
    """

    __slots__ = ("modulus", "n", "coeffs", "_key")

    def __init__(self, modulus: Modulus, n: int, coeffs: dict):
        self.modulus = modulus
        self.n = n
        clean = {}
        for exps, val in coeffs.items():
            val = modulus.canon(val)
            if val != modulus.zero:
                if len(exps) != n or any(a < 0 or a > modulus.d - 1 for a in exps):
                    raise ValueError(f"exponent tuple {exps} not reduced for d={modulus.d}")
                clean[tuple(exps)] = val
        self.coeffs = clean
        self._key = (modulus.d, modulus.kind, n, tuple(sorted(clean.items())))

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
            out[exps] = m.add(out.get(exps, m.zero), val)
        return MultiPoly(m, self.n, out)

    def __neg__(self) -> "MultiPoly":
        m = self.modulus
        return MultiPoly(m, self.n, {e: m.neg(v) for e, v in self.coeffs.items()})

    def __sub__(self, other: "MultiPoly") -> "MultiPoly":
        return self + (-other)

    def scale(self, c) -> "MultiPoly":
        m = self.modulus
        return MultiPoly(m, self.n, {e: m.mul(v, c) for e, v in self.coeffs.items()})

    def __mul__(self, other: "MultiPoly") -> "MultiPoly":
        assert self.modulus == other.modulus and self.n == other.n
        m = self.modulus
        if not m.is_field:
            raise UnsupportedModulusError("polynomial multiplication needs a field")
        d = m.d
        out: dict = {}
        for e1, v1 in self.coeffs.items():
            for e2, v2 in other.coeffs.items():
                exps = tuple(_reduce_exponent(a + b, d) for a, b in zip(e1, e2))
                val = m.mul(v1, v2)
                out[exps] = m.add(out.get(exps, m.zero), val)
        return MultiPoly(m, self.n, out)

    def pow_(self, e: int) -> "MultiPoly":
        out = MultiPoly.constant(self.modulus, self.n, self.modulus.one)
        for _ in range(e):
            out = out * self
        return out

    def evaluate(self, point: tuple):
        m = self.modulus
        point = tuple(m.canon(x) for x in point)
        total = m.zero
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
        return isinstance(other, MultiPoly) and self._key == other._key

    def __hash__(self):
        return hash(self._key)

    # -- presentation ------------------------------------------------------
    def serialize(self) -> str:
        """Stable text form: d=<d>;n=<n>;{(a1,..,an):coeff,...} in lex order."""
        parts = []
        for exps in sorted(self.coeffs):
            val = self.coeffs[exps]
            coeff = str(val) if isinstance(val, int) else "(" + ",".join(map(str, val)) + ")"
            parts.append("(" + ",".join(map(str, exps)) + "):" + coeff)
        return f"d={self.modulus.d};n={self.n};{{{','.join(parts)}}}"

    def pretty(self, names: str = "x") -> str:
        """Human-readable form, monomials ascending in lex exponent order."""
        if not self.coeffs:
            return "0"
        terms = []
        for exps in sorted(self.coeffs):
            val = self.coeffs[exps]
            factors = []
            for j, a in enumerate(exps):
                if a == 1:
                    factors.append(f"{names}{j + 1}")
                elif a > 1:
                    factors.append(f"{names}{j + 1}^{a}")
            coeff = str(val) if isinstance(val, int) else "(" + ",".join(map(str, val)) + ")"
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


def delta_poly(modulus: Modulus, y: tuple) -> MultiPoly:
    """The reduced polynomial equal to 1 at y and 0 elsewhere.

    Built as prod_i (1 - (x_i - y_i)**(d-1)); needs a field modulus.
    """
    if not modulus.is_field:
        raise UnsupportedModulusError("delta polynomial needs a field modulus")
    n = len(y)
    d = modulus.d
    out = MultiPoly.constant(modulus, n, modulus.one)
    for i, yi in enumerate(y):
        shift = MultiPoly(modulus, n, {
            tuple(1 if j == i else 0 for j in range(n)): modulus.one,
            (0,) * n: modulus.neg(modulus.canon(yi)),
        })
        term = MultiPoly.constant(modulus, n, modulus.one) - shift.pow_(d - 1)
        out = out * term
    return out


def interpolate(modulus: Modulus, table: dict) -> MultiPoly:
    """Reduced polynomial matching a complete function table on F^n."""
    if not modulus.is_field:
        raise UnsupportedModulusError("interpolation needs a field modulus")
    points = list(table)
    if not points:
        raise ValueError("empty table")
    n = len(points[0])
    if len(table) != modulus.d**n:
        raise ValueError(f"table needs {modulus.d**n} entries, got {len(table)}")
    out = MultiPoly.zero(modulus, n)
    for y, val in table.items():
        val = modulus.canon(val)
        if val != modulus.zero:
            out = out + delta_poly(modulus, tuple(modulus.canon(c) for c in y)).scale(val)
    return out


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
    out = set()
    elems = modulus.elements()
    for coeffs in itertools.product(elems, repeat=len(mons)):
        out.add(MultiPoly(modulus, n, dict(zip(mons, coeffs))))
    return out


def _affine_maps(modulus: Modulus, n: int) -> list[tuple]:
    """All affine functions F^n -> F as (c0, (c1..cn)) coefficient tuples."""
    elems = modulus.elements()
    return [
        (c0, cs)
        for c0 in elems
        for cs in itertools.product(elems, repeat=n)
    ]


def closure_generate(g: MultiPoly) -> set[MultiPoly]:
    """Span of g under affine pre- and post-processing (small instances).

    Enumerates g composed with every tuple of affine substitutions, then
    closes the value vectors under linear combination with constants; the
    result is returned as reduced polynomials.
    """
    m = g.modulus
    if not m.is_field:
        raise UnsupportedModulusError("closure enumeration needs a field modulus")
    n = g.n
    if m.d**n > CLOSURE_GUARD:
        raise SizeGuardError(f"closure instance d^n={m.d**n} exceeds guard {CLOSURE_GUARD}")
    pre_maps = (m.d ** (n + 1)) ** n
    if pre_maps > CLOSURE_PRE_MAP_GUARD:
        raise SizeGuardError(f"closure pre-map count {pre_maps} is over the limit "
                             f"{CLOSURE_PRE_MAP_GUARD}")
    points = all_points(m, n)
    vectors = {tuple(m.one for _ in points)}
    for pre in itertools.product(_affine_maps(m, n), repeat=n):
        vec = []
        for x in points:
            sub = tuple(
                m.add(c0, _dot(m, cs, x))
                for (c0, cs) in pre
            )
            vec.append(g.evaluate(sub))
        vectors.add(tuple(vec))
    basis = _span_basis(m, vectors, len(points))
    if m.d ** len(basis) > SPAN_GUARD:
        raise SizeGuardError(f"closure span has {m.d}^{len(basis)} = {m.d ** len(basis)} "
                             f"polynomials, over the limit {SPAN_GUARD}")
    deltas = [delta_poly(m, y) for y in points]
    out = set()
    for combo in itertools.product(m.elements(), repeat=len(basis)):
        vec = [m.zero] * len(points)
        for c, b in zip(combo, basis):
            if c != m.zero:
                vec = [m.add(v, m.mul(c, bv)) for v, bv in zip(vec, b)]
        poly = MultiPoly.zero(m, n)
        for val, dp in zip(vec, deltas):
            if val != m.zero:
                poly = poly + dp.scale(val)
        out.add(poly)
    return out


def _dot(m: Modulus, cs: tuple, x: tuple):
    total = m.zero
    for c, xi in zip(cs, x):
        total = m.add(total, m.mul(c, xi))
    return total


def _span_basis(m: Modulus, vectors: Iterable[tuple], length: int) -> list[list]:
    """Row-reduce value vectors over the field; returns an echelon basis."""
    basis: list[list] = []
    pivots: list[int] = []
    for vec in vectors:
        row = list(vec)
        for b, p in zip(basis, pivots):
            if row[p] != m.zero:
                c = row[p]
                row = [m.sub(rv, m.mul(c, bv)) for rv, bv in zip(row, b)]
        for p in range(length):
            if row[p] != m.zero:
                inv = m.inv(row[p])
                row = [m.mul(inv, rv) for rv in row]
                basis.append(row)
                pivots.append(p)
                break
    return basis


# -- representability of tables over composite rings ------------------------

def is_polynomial_over_ring(table: dict, d: int) -> MultiPoly | None:
    """Find a reduced polynomial over Z_d matching the table, if any exists.

    Solves the monomial-evaluation linear system exactly (solve_mod).  A
    None result certifies that no polynomial with partial degrees <= d-1
    matches.
    """
    points = sorted(table)
    n = len(points[0]) if points else 1
    if d**n > RING_SOLVER_GUARD:
        raise SizeGuardError(f"ring solver guard exceeded: d^n={d**n} over the limit "
                             f"{RING_SOLVER_GUARD}")
    if len(table) != d**n:
        raise ValueError(f"table needs {d**n} entries")
    mons = list(itertools.product(range(d), repeat=n))
    rows = [{j: _int_monomial(x, e, d) for j, e in enumerate(mons)} for x in points]
    coeffs = solve_mod(rows, [table[x] for x in points], len(mons), d)
    if coeffs is None:
        return None
    poly = MultiPoly(IntegerRing(d), n, dict(zip(mons, coeffs)))
    for x in points:  # paranoia: confirm the reassembled solution
        assert poly.evaluate(x) == table[x] % d
    return poly


def _int_monomial(x: tuple, exps: tuple, d: int) -> int:
    out = 1
    for xi, a in zip(x, exps):
        out = (out * pow(xi, a, d)) % d
    return out


def solve_mod(rows: list[dict[int, int]], rhs: list[int], cols: int, d: int) -> list[int] | None:
    """One x in Z_d^cols with sum_c row[c] * x[c] = rhs[r] (mod d) for every
    row r, or None when no x exists.

    Rows are sparse {column: coefficient} maps.  The system is solved
    modulo each prime power of d and the parts are joined by the CRT.
    """
    terms = []
    for p, e in factorize(d).items():
        q = p**e
        sol = _solve_prime_power(rows, rhs, cols, p, q)
        if sol is None:
            return None
        weight = d // q * pow(d // q, -1, q)  # 1 mod q, 0 mod the other parts
        terms.append([weight * v for v in sol])
    return [sum(vals) % d for vals in zip(*terms)]


def _solve_prime_power(rows, rhs, cols: int, p: int, q: int) -> list[int] | None:
    """solve_mod for q = p^e.

    Each pivot is an entry of least p-valuation among the rows not yet
    used, so every other entry of its row is a multiple of it: a row then
    has a solution exactly when its pivot's power of p divides its right
    side, and the columns without a pivot can be 0.  Among such entries
    the pivot's column is the one held by the fewest rows, which keeps
    sparse rows sparse.
    """
    rows = [{c: a % q for c, a in row.items() if a % q} for row in rows]
    rhs = [b % q for b in rhs]
    unused = list(range(len(rows)))
    pivots = []
    while (best := _least_entry(rows, unused, p)) is not None:
        (v, _), r, c = best
        pv = p**v
        unused.remove(r)
        pivot = rows[r]
        unit = pow(pivot[c] // pv, -1, q)
        if unit != 1:
            pivot = rows[r] = {cc: a * unit % q for cc, a in pivot.items()}
            rhs[r] = rhs[r] * unit % q
        for r2 in unused:
            row = rows[r2]
            if c not in row:
                continue
            f = row[c] // pv
            rows[r2] = {cc: a for cc in row.keys() | pivot.keys()
                        if (a := (row.get(cc, 0) - f * pivot.get(cc, 0)) % q)}
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


def _least_entry(rows, unused, p):
    """((p-valuation, rows holding its column), row, column) of the least
    entry of the unused rows, or None when they are all zero."""
    held = Counter(itertools.chain.from_iterable(rows[r] for r in unused))
    least = (0, min(held.values(), default=0))  # no entry can be less
    best = None
    for r in unused:
        for c, a in rows[r].items():
            key = (_valuation(a, p) if a % p == 0 else 0, held[c])
            if best is None or key < best[0]:
                best = key, r, c
                if key == least:
                    return best
    return best


def _valuation(v: int, p: int) -> int:
    out = 0
    while v % p == 0:
        v //= p
        out += 1
    return out
