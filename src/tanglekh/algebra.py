"""Exact coefficient fields, Laurent polynomials, and ``SADDLE``, the one
table of the local saddle maps.

Circle labels are '+' and '-', arcs always carry 'w'.
"""

from __future__ import annotations

from fractions import Fraction


# -- fields --------------------------------------------------------------


class Rationals:
    name = "Q"
    char = 0

    zero = Fraction(0)
    one = Fraction(1)

    def coerce(self, x):
        return Fraction(x)

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def inv(self, a):
        return 1 / a

    def __eq__(self, other):
        return isinstance(other, Rationals)

    def __hash__(self):
        return hash("Q")

    def __repr__(self):
        return "Q"


# Miller-Rabin with the first 13 primes as bases is deterministic for
# every n below this bound (Sorenson and Webster, 2015).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUND = 3317044064679887385961981


def is_prime(n):
    """Deterministic primality test for n < 3.3e24; larger n are refused."""
    if n < 2:
        return False
    for b in _MR_BASES:
        if n % b == 0:
            return n == b
    if n >= _MR_BOUND:
        raise ValueError(f"{n} is too large: primality is certified only "
                         f"below {_MR_BOUND}")
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class PrimeField:
    def __init__(self, p):
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        self.p = p
        self.name = f"F{p}"
        self.char = p
        self.zero = 0
        self.one = 1 % p

    def coerce(self, x):
        return int(x) % self.p

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def inv(self, a):
        return pow(a, self.p - 2, self.p)

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("F", self.p))

    def __repr__(self):
        return self.name


QQ = Rationals()
GF2 = PrimeField(2)


def field_from_name(name):
    name = name.lower()
    if name in ("q", "rationals"):
        return QQ
    if name == "f2":
        return GF2
    if name.startswith("fp:"):
        return PrimeField(int(name[3:]))
    if name.startswith("f") and name[1:].isdigit():
        return PrimeField(int(name[1:]))
    raise ValueError(f"unknown field {name!r}")


# -- Laurent polynomials -------------------------------------------------


class LaurentPolynomial:
    """Laurent polynomial in q with exact coefficients; zero terms dropped."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=None):
        self.coeffs = {int(e): c for e, c in (coeffs or {}).items() if c != 0}

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def one(cls):
        return cls({0: 1})

    @classmethod
    def q(cls, exponent=1, coeff=1):
        return cls({exponent: coeff})

    def __add__(self, other):
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            out[e] = out.get(e, 0) + c
        return LaurentPolynomial(out)

    def __sub__(self, other):
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            out[e] = out.get(e, 0) - c
        return LaurentPolynomial(out)

    def __neg__(self):
        return LaurentPolynomial({e: -c for e, c in self.coeffs.items()})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return LaurentPolynomial(
                {e: c * other for e, c in self.coeffs.items()})
        out = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
        return LaurentPolynomial(out)

    __rmul__ = __mul__

    def __pow__(self, k):
        out = LaurentPolynomial.one()
        for _ in range(k):
            out = out * self
        return out

    def __eq__(self, other):
        if isinstance(other, int):
            other = LaurentPolynomial({0: other})
        return isinstance(other, LaurentPolynomial) and \
            self.coeffs == other.coeffs

    def __hash__(self):
        return hash(frozenset(self.coeffs.items()))

    def __bool__(self):
        return bool(self.coeffs)

    def to_json(self):
        return {str(e): (str(c) if isinstance(c, Fraction) else c)
                for e, c in sorted(self.coeffs.items())}

    @classmethod
    def from_json(cls, data):
        return cls({int(e): (Fraction(c) if isinstance(c, str) else c)
                    for e, c in data.items()})

    def __repr__(self):
        if not self.coeffs:
            return "0"
        terms = []
        for e in sorted(self.coeffs, reverse=True):
            c = self.coeffs[e]
            base = "1" if e == 0 else ("q" if e == 1 else f"q^{e}")
            if c == 1 and e != 0:
                terms.append(base)
            elif c == -1 and e != 0:
                terms.append(f"-{base}")
            elif e == 0:
                terms.append(str(c))
            else:
                terms.append(f"{c}*{base}")
        s = terms[0]
        for t in terms[1:]:
            s += f" - {t[1:]}" if t.startswith("-") else f" + {t}"
        return s


Q_PLUS_QINV = LaurentPolynomial({1: 1, -1: 1})


# -- the local saddle maps ----------------------------------------------

# The five local saddle maps of the cube as {source labels: {target
# labels: coefficient}}: the multiplication and comultiplication of the
# Frobenius algebra V on circles, and their versions on an arc, which
# carries w.  Active components are listed arcs first, then circles in
# component order.  A source labeling that maps to {} goes to 0.
SADDLE = {
    "circle-merge": {("+", "+"): {("+",): 1},
                     ("+", "-"): {("-",): 1},
                     ("-", "+"): {("-",): 1},
                     ("-", "-"): {}},
    "circle-split": {("+",): {("+", "-"): 1, ("-", "+"): 1},
                     ("-",): {("-", "-"): 1}},
    "arc-split-circle": {("w",): {("w", "-"): 1}},
    "arc-circle-merge": {("w", "+"): {("w",): 1}, ("w", "-"): {}},
    "arc-arc-reconnect": {("w", "w"): {}},
}
