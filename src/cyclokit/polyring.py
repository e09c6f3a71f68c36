"""Exact dense integer polynomial arithmetic and cyclotomic constructions.

A polynomial is a tuple of int coefficients in ascending degree with no
trailing zeros; the zero polynomial is the empty tuple.  So x^2 - x + 1 is
IntPoly((1, -1, 1)).  Multiplication iterates the sparser operand on the
outside, which matters for fewnomials like the semigroup polynomials.

A value at a root of unity zeta_m for m in {1, 2, 3, 4, 6} is the pair of
integers (a, b) with f(zeta_m) = a + b*zeta_m, reached by the trace recurrence
zeta_m^2 = t zeta_m - 1 with t = 2 cos(2 pi / m); no other m is needed.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache

from .errors import DomainError, InputError, PoleError
from .numtheory import divisors, factorize, mobius, prime_power_value


class IntPoly:
    """Dense integer-coefficient polynomial.

    >>> IntPoly((1, -1, 1)) * IntPoly((1, 1))
    IntPoly('x^3 + 1')
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        end = len(coeffs)
        while end > 0 and coeffs[end - 1] == 0:
            end -= 1
        object.__setattr__(self, "coeffs", tuple(coeffs[:end]))

    def __setattr__(self, name, value):
        raise AttributeError("IntPoly is immutable")

    @staticmethod
    def monomial(c: int, k: int) -> "IntPoly":
        return IntPoly((0,) * k + (c,))

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def __eq__(self, other):
        if isinstance(other, int):
            other = IntPoly((other,))
        return isinstance(other, IntPoly) and self.coeffs == other.coeffs

    def __hash__(self):
        # constants hash like the ints they equal
        if len(self.coeffs) == 0:
            return hash(0)
        if len(self.coeffs) == 1:
            return hash(self.coeffs[0])
        return hash(self.coeffs)

    def __add__(self, other):
        if isinstance(other, int):
            other = IntPoly((other,))
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return IntPoly(out)

    __radd__ = __add__

    def __neg__(self):
        return IntPoly(tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        if isinstance(other, int):
            other = IntPoly((other,))
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int):
            if other == 0:
                return IntPoly()
            return IntPoly(tuple(c * other for c in self.coeffs))
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return IntPoly()
        # iterate the sparser factor on the outside
        na = sum(1 for c in a if c)
        nb = sum(1 for c in b if c)
        if nb < na:
            a, b = b, a
        out = [0] * (len(a) + len(b) - 1)
        for i, c in enumerate(a):
            if c:
                for j, d in enumerate(b):
                    if d:
                        out[i + j] += c * d
        return IntPoly(out)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise InputError("negative polynomial powers are not defined")
        result = IntPoly((1,))
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __call__(self, x):
        """Horner evaluation; works for int and Fraction points."""
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def derivative(self, k: int = 1) -> "IntPoly":
        if k < 0:
            raise InputError("derivative order must be >= 0")
        coeffs = self.coeffs
        for _ in range(k):
            coeffs = tuple(i * c for i, c in enumerate(coeffs))[1:]
        return IntPoly(coeffs)

    def __repr__(self):
        return f"IntPoly({format_poly(self)!r})"


def _divmod_unit(f: IntPoly, g: IntPoly) -> tuple[IntPoly, IntPoly]:
    # long division by a divisor with unit (+-1) leading coefficient
    if g.is_zero():
        raise InputError("division by the zero polynomial")
    lead = g.coeffs[-1]
    if lead not in (1, -1):
        raise InputError("divisor must have leading coefficient +-1")
    dg = g.degree
    rem = list(f.coeffs)
    if f.degree < dg:
        return IntPoly(), f
    quot = [0] * (f.degree - dg + 1)
    gbody = g.coeffs[:-1]
    for i in range(f.degree - dg, -1, -1):
        q = rem[i + dg] * lead  # lead is +-1
        if q:
            quot[i] = q
            rem[i + dg] = 0
            for j, c in enumerate(gbody):
                if c:
                    rem[i + j] -= q * c
        else:
            quot[i] = 0
    return IntPoly(quot), IntPoly(rem[:dg])


def poly_div_exact(f: IntPoly, g: IntPoly) -> IntPoly | None:
    """Quotient f / g when the monic g divides f exactly over Z, else None."""
    if g.is_zero():
        raise InputError("division by the zero polynomial")
    if not g.is_monic():
        raise InputError("poly_div_exact requires a monic divisor")
    quot, rem = _divmod_unit(f, g)
    return quot if rem.is_zero() else None


def multiplicity(f: IntPoly, g: IntPoly) -> int:
    """Largest e with g^e dividing f (f nonzero, g monic of degree >= 1)."""
    if f.is_zero():
        raise InputError("multiplicity of a factor in the zero polynomial")
    e = 0
    while True:
        q = poly_div_exact(f, g)
        if q is None:
            return e
        f = q
        e += 1


def xn_minus_1(n: int) -> IntPoly:
    return IntPoly((-1,) + (0,) * (n - 1) + (1,))


@lru_cache(maxsize=4096)
def _cyclotomic_squarefree(n: int) -> IntPoly:
    # n squarefree > 1: Phi_n = prod_{d | n} (1 - x^d)^mu(n/d) is a palindrome,
    # so the power series product up to degree phi(n)/2 gives it; a factor is
    # one pass over those coefficients, and 1 there when d > phi(n)/2
    if n == 1:
        return IntPoly((-1, 1))
    deg = 1
    for p, _ in factorize(n):
        deg *= p - 1
    half = deg // 2
    out = [1] + [0] * half
    for d in divisors(n):
        if d > half:
            break
        if mobius(n // d) == 1:
            for i in range(half, d - 1, -1):
                out[i] -= out[i - d]
        else:
            for i in range(d, half + 1):
                out[i] += out[i - d]
    return IntPoly(out + out[deg - half - 1 :: -1])


def radical(n: int) -> int:
    out = 1
    for p, _ in factorize(n):
        out *= p
    return out


@lru_cache(maxsize=4096)
def cyclotomic(n: int) -> IntPoly:
    """The n-th cyclotomic polynomial, exactly, of degree phi(n).

    Built for the radical r as the truncated power series of the Mobius
    product over the divisors of r, O(2^omega(n) phi(r)) work, then inflated
    via Phi_n(x) = Phi_r(x^(n/r)).
    """
    if n < 1:
        raise InputError(f"cyclotomic index must be >= 1, got {n}")
    r = radical(n)
    base = _cyclotomic_squarefree(r)
    if r == n:
        return base
    m = n // r
    out = [0] * (base.degree * m + 1)
    for i, c in enumerate(base.coeffs):
        out[i * m] = c
    return IntPoly(out)


def cyclotomic_value(n: int, x: int) -> int:
    """Phi_n(x) for integer x.

    With r = rad(n) and y = x^(n/r), Phi_n(x) = Phi_r(y) = prod_{d | r}
    (y^d - 1)^mu(r/d).  For |x| >= 2 no factor vanishes, so the value is the
    exact quotient of the products over mu(r/d) = 1 and mu(r/d) = -1, and no
    polynomial is built; for |x| <= 1 the squarefree Phi_r is evaluated at y
    instead.
    """
    r = radical(n)
    y = x ** (n // r)
    if abs(x) < 2:
        return _cyclotomic_squarefree(r)(y)
    num = den = 1
    for d in divisors(r):
        if mobius(r // d) == 1:
            num *= y ** d - 1
        else:
            den *= y ** d - 1
    return num // den


@lru_cache(maxsize=1024)
def inverse_cyclotomic(n: int) -> IntPoly:
    """Psi_n = (x^n - 1) / Phi_n, the product of Phi_d over proper divisors d."""
    if n < 1:
        raise InputError(f"index must be >= 1, got {n}")
    if n == 1:
        return IntPoly((1,))
    q = poly_div_exact(xn_minus_1(n), cyclotomic(n))
    assert q is not None
    return q


def coxeter_poly(n: int) -> IntPoly:
    """E_n = x^n + x^(n-1) - x^(n-3) - ... - x^3 + x + 1 for n >= 6."""
    if n < 6:
        raise InputError(f"coxeter_poly requires n >= 6, got {n}")
    coeffs = [0] * (n + 1)
    coeffs[0] = coeffs[1] = coeffs[n - 1] = coeffs[n] = 1
    for k in range(3, n - 2):
        coeffs[k] = -1
    return IntPoly(coeffs)


def log_derivative_values(f: IntPoly, K: int, x: Fraction | int) -> list[Fraction]:
    """The first K logarithmic derivatives of f at x, exactly.

    (log f)^(k) means the (k-1)-th derivative of f'/f; no logarithm is ever
    taken.  With x = p/q, the integer polynomial h(y) = q^d f(y/q) has
    h(p + q t) = q^d f(x + t), so K + 1 synthetic divisions of h by y - p give
    its Taylor coefficients c_0..c_K at p in integer arithmetic.  The series
    H'/H = sum_j b_j s^(j-1) of H(s) = sum c_j s^j then follows from
    j c_j = sum_{t<j} c_t b_(j-t), and (log f)^(k)(x) = (k-1)! b_k q^k.
    This uses only the coefficients of f, so it is the independent oracle
    that every closed-form identity is tested against; O(K deg f) work.
    """
    if K < 1:
        return []
    r = Fraction(x)
    p, q = r.numerator, r.denominator
    h = [c * q ** i for i, c in enumerate(reversed(f.coeffs))]  # descending
    taylor = []
    while h and len(taylor) <= K:
        for i in range(1, len(h)):
            h[i] += h[i - 1] * p
        taylor.append(h.pop())
    if not taylor or taylor[0] == 0:
        raise PoleError(f"f({x}) = 0: logarithmic derivative has a pole")
    # integer numerators: b_j = n_j / c_0^j with n_j = j e_j - sum_t e_t n_(j-t)
    # and e_t = c_t c_0^(t-1), where e_t = 0 beyond the degree
    c0 = taylor[0]
    e = [0] + [c * c0 ** (t - 1) for t, c in enumerate(taylor[1:], 1)]
    m = len(e) - 1
    nums = [0]
    vals = []
    fact = 1
    for j in range(1, K + 1):
        n_j = j * e[j] if j <= m else 0
        n_j -= sum(e[t] * nums[j - t] for t in range(1, min(j, m + 1)))
        nums.append(n_j)
        vals.append(Fraction(fact * n_j * q ** j, c0 ** j))
        fact *= j
    return vals


def log_derivative_oracle(f: IntPoly, k: int, x: Fraction | int) -> Fraction:
    """The k-th logarithmic derivative of f at x (k >= 1), by the oracle path."""
    if k < 1:
        raise InputError("logarithmic derivative order must be >= 1")
    return log_derivative_values(f, k, x)[-1]


def is_self_reciprocal(f: IntPoly) -> bool:
    """True when the coefficient list is palindromic."""
    if f.is_zero():
        raise InputError("the zero polynomial has no reciprocal type")
    return f.coeffs == tuple(reversed(f.coeffs))


def self_reciprocal_first_derivative(f: IntPoly, point: int) -> Fraction:
    """f'(point) for self-reciprocal f of degree d at point +1 or -1.

    At +1 this is f(1) d / 2; at -1 it is -f(-1) d / 2 and needs even degree
    (an odd-degree palindrome vanishes at -1, so there is no formula there).
    """
    if point not in (1, -1):
        raise InputError("point must be +1 or -1")
    if not is_self_reciprocal(f):
        raise InputError("polynomial is not self-reciprocal")
    d = f.degree
    if d < 1:
        raise InputError("degree must be >= 1")
    if point == 1:
        return Fraction(f(1) * d, 2)
    if d % 2 == 1:
        raise DomainError("odd-degree self-reciprocal polynomial: f(-1) = 0, no derivative formula")
    return Fraction(-f(-1) * d, 2)


# t = zeta_m + 1/zeta_m = 2 cos(2 pi / m), so zeta_m^2 = t zeta_m - 1
_TRACE = {1: 2, 2: -2, 3: -1, 4: 0, 6: 1}


def eval_at_root_of_unity(f: IntPoly, m: int) -> tuple[int, int]:
    """The integers (a, b) with f(zeta_m) = a + b*zeta_m, for m in {1, 2, 3, 4, 6}.

    Since zeta_m^m = 1, f(zeta_m) = sum_r S_r zeta_m^r with the residue-class
    sums S_r = f.coeffs[r] + f.coeffs[r + m] + ...; Horner over the S_r needs
    only zeta_m^2 = t zeta_m - 1.  For m <= 2 the root t/2 is rational and b
    is folded into a, so b = 0.
    """
    if m not in _TRACE:
        raise InputError(f"supported orders are 1, 2, 3, 4, 6; got {m}")
    t = _TRACE[m]
    a = b = 0
    for r in range(m - 1, -1, -1):
        a, b = sum(f.coeffs[r::m]) - b, a + t * b
    if m <= 2:
        return a + t // 2 * b, 0
    return a, b


def norm_at_root_of_unity(f: IntPoly, m: int) -> int:
    """|f(zeta_m)|^2 = a^2 + t a b + b^2 for m in {1, 2, 3, 4, 6}, exactly."""
    a, b = eval_at_root_of_unity(f, m)
    return a * a + _TRACE[m] * a * b + b * b


# ---------------------------------------------------------------------------
# text format: CSV coefficient lists and a human term form, both round-trip

_TERM_RE = re.compile(r"^([+-]?)(\d+)?(?:\*?x(?:\^(\d+))?)?$")

# largest degree the CLI builds or parses (a dense list of that length)
DEGREE_GUARDRAIL = 10 ** 6


def format_poly_csv(f: IntPoly) -> str:
    """Ascending coefficient list "c0,c1,...,cd"."""
    if f.is_zero():
        return "0"
    return ",".join(str(c) for c in f.coeffs)


def format_poly(f: IntPoly) -> str:
    """Human form with explicit terms, highest degree first, e.g. "x^2 - x + 1"."""
    if f.is_zero():
        return "0"
    parts = []
    for k in range(f.degree, -1, -1):
        c = f.coeffs[k]
        if c == 0:
            continue
        sign = "-" if c < 0 else "+"
        mag = abs(c)
        if k == 0:
            body = str(mag)
        else:
            xpow = "x" if k == 1 else f"x^{k}"
            body = xpow if mag == 1 else f"{mag}*{xpow}"
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"{sign} {body}")
    return " ".join(parts)


def parse_poly(text: str) -> IntPoly:
    """Parse either CSV coefficients or the human term form."""
    s = text.strip().replace("−", "-")
    if not s:
        raise InputError("empty polynomial string")
    if "x" not in s:
        coeffs = []
        for pos, tok in enumerate(s.split(",")):
            tok = tok.strip()
            try:
                coeffs.append(int(tok))
            except ValueError:
                raise InputError(f"bad coefficient {tok!r} at position {pos}") from None
        return IntPoly(coeffs)
    compact = s.replace(" ", "")
    terms = re.findall(r"[+-]?[^+-]+", compact)
    if "".join(terms) != compact:
        raise InputError(f"stray sign in {compact!r}")
    coeffs: dict[int, int] = {}
    for pos, term in enumerate(terms):
        mt = _TERM_RE.match(term)
        if not mt or (mt.group(2) is None and "x" not in term):
            raise InputError(f"bad term {term!r} at position {pos}")
        sign = -1 if mt.group(1) == "-" else 1
        mag = int(mt.group(2)) if mt.group(2) is not None else 1
        if "x" in term:
            k = int(mt.group(3)) if mt.group(3) is not None else 1
        else:
            k = 0
        coeffs[k] = coeffs.get(k, 0) + sign * mag
    top = max(coeffs)
    if top > DEGREE_GUARDRAIL:
        raise InputError(f"degree {top} exceeds the guardrail {DEGREE_GUARDRAIL}")
    out = [0] * (top + 1)
    for k, c in coeffs.items():
        out[k] = c
    return IntPoly(out)


def phi_value_at_one(n: int) -> int:
    """Phi_n(1) as an exact integer: 0 for n = 1, else exp(Lambda(n))."""
    if n == 1:
        return 0
    return prime_power_value(n)
