"""Exact dense integer polynomial arithmetic and cyclotomic constructions.

A polynomial is a tuple of int coefficients in ascending degree with no
trailing zeros; the zero polynomial is the empty tuple.  So x^2 - x + 1 is
IntPoly((1, -1, 1)).  No production route multiplies two IntPolys; a
product of cyclotomic polynomials, Phi_n and Psi_n included, is never
multiplied out: cyclotomic_product runs it as one truncated power series
times factors (1 - x^t)^(+-1).

A value at a root of unity zeta_m for m in {1, 2, 3, 4, 6} is the pair of
integers (a, b) with f(zeta_m) = a + b*zeta_m, reached by the trace recurrence
zeta_m^2 = t zeta_m - 1 with t = 2 cos(2 pi / m); no other m is needed.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, repeat
from operator import mul

from .errors import InputError, PoleError, check_guardrail, check_printable, int_str
from .numtheory import divisors, euler_phi, mobius_divisors, n_alpha, prime_power_value, radical


class IntPoly:
    """Dense integer-coefficient polynomial, immutable.

    The height max |coefficient| is read on first use and kept with the
    polynomial, so every reader of one IntPoly shares a single scan; pickling
    and copying carry the coefficients only.

    >>> IntPoly((1, -1, 1)) * IntPoly((1, 1))
    IntPoly('x^3 + 1')
    """

    __slots__ = ("coeffs", "_height")

    def __init__(self, coeffs=()):
        end = len(coeffs)
        while end > 0 and coeffs[end - 1] == 0:
            end -= 1
        object.__setattr__(self, "coeffs", tuple(coeffs[:end]))

    def __setattr__(self, name, value):
        raise AttributeError("IntPoly is immutable")

    def __reduce__(self):
        return IntPoly, (self.coeffs,)

    @property
    def height(self) -> int:
        """max |coefficient|; 0 for the zero polynomial."""
        try:
            return self._height
        except AttributeError:
            height = max(map(abs, self.coeffs), default=0)
            object.__setattr__(self, "_height", height)
            return height

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
        # iterate the sparser factor on the outside; only callers and tests
        # multiply IntPolys, no production route does
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


def poly_div_exact(f: IntPoly, g: IntPoly) -> IntPoly | None:
    """Quotient f / g when the monic g divides f exactly over Z, else None."""
    if g.is_zero():
        raise InputError("division by the zero polynomial")
    if not g.is_monic():
        raise InputError("poly_div_exact requires a monic divisor")
    dg = g.degree
    if f.degree < dg:
        return IntPoly() if f.is_zero() else None
    rem = list(f.coeffs)
    terms = [(j, c) for j, c in enumerate(g.coeffs[:-1]) if c]
    for i in range(f.degree - dg, -1, -1):
        q = rem[i + dg]
        if q:
            for j, c in terms:
                rem[i + j] -= q * c
    # step i reads rem[i + dg] and writes only below it, so rem[dg:] ends as
    # the quotient
    return None if any(rem[:dg]) else IntPoly(rem[dg:])


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


@lru_cache(maxsize=4096)
def cyclotomic(n: int) -> IntPoly:
    """The n-th cyclotomic polynomial, exactly, of degree phi(n).

    For squarefree n > 1, Phi_n = prod_{d | n} (1 - x^d)^mu(n/d) is a
    palindrome, so the power series product up to degree phi(n)/2 gives it:
    one pass over those coefficients per factor, and the factor is 1 there
    when d > phi(n)/2; O(2^omega(n) phi(n)) work.  Any other n is inflated
    from its radical r via Phi_n(x) = Phi_r(x^(n/r)).  Refuses phi(n) above
    DEGREE_GUARDRAIL with ResourceError before anything is built.
    """
    if n < 1:
        raise InputError(f"cyclotomic index must be >= 1, got {n}")
    if n == 1:
        return IntPoly((-1, 1))
    deg = euler_phi(n)
    check_guardrail(f"degree phi({n}) =", deg, "DEGREE_GUARDRAIL", DEGREE_GUARDRAIL)
    r = radical(n)
    if r != n:
        m = n // r
        out = [0] * (deg + 1)
        out[::m] = cyclotomic(r).coeffs
        return IntPoly(out)
    half = deg // 2
    out = [1] + [0] * half
    _times_mobius_factors(out, {t: mu for t, mu in mobius_divisors(n) if t <= half})
    return IntPoly(out + out[deg - half - 1 :: -1])


def _times_mobius_factors(out: list[int], net: dict[int, int]) -> None:
    # out *= prod_t (1 - x^t)^(net[t]) as power series truncated at len(out),
    # in place: one pass per factor, descending to multiply by 1 - x^t and
    # ascending to divide by it
    top = len(out)
    for t, n in net.items():
        for _ in range(n):
            for i in range(top - 1, t - 1, -1):
                out[i] -= out[i - t]
        for _ in range(-n):
            for i in range(t, top):
                out[i] += out[i - t]


def cyclotomic_product(factors: dict[int, int], cofactor: IntPoly) -> IntPoly:
    """cofactor * prod Phi_d^(e_d), with no polynomial product.

    Phi_d = prod_{t | d} (1 - x^t)^mu(d/t) for d >= 2 and Phi_1 = -(1 - x),
    so the factors multiply to (-1)^e_1 prod_t (1 - x^t)^n_t with the net
    exponents n_t = sum_d e_d mu(d/t) (Arnold and Monagan, Math. Comp. 80,
    2011).  Each factor (1 - x^t)^(+-1) is one pass over the cofactor's power
    series, truncated at the degree deg cofactor + sum_t t n_t of the result;
    the truncation is exact because the product has exactly that degree.
    Work: O(deg) per pass, at most sum_d e_d 2^omega(d) passes.  Refuses a
    degree above DEGREE_GUARDRAIL with ResourceError before it allocates.
    """
    if cofactor.is_zero():
        return IntPoly()
    net: dict[int, int] = {}
    for d, e in factors.items():
        if e < 0:
            raise InputError(f"negative exponent {e} for Phi_{d}")
        for t, mu in mobius_divisors(d):
            net[t] = net.get(t, 0) + mu * e
    extra = sum(t * n for t, n in net.items())
    check_guardrail("degree", cofactor.degree + extra, "DEGREE_GUARDRAIL", DEGREE_GUARDRAIL)
    out = list(cofactor.coeffs) + [0] * extra
    _times_mobius_factors(out, net)
    if factors.get(1, 0) % 2:
        out = [-c for c in out]
    return IntPoly(out)


def cyclotomic_value(n: int, x: int) -> int:
    """Phi_n(x) for integer x.

    Phi_n(x) = prod_{t | n} (x^t - 1)^mu(n/t).  For |x| >= 2 no factor
    vanishes, so the value is the exact quotient of the products over
    mu(n/t) = 1 and mu(n/t) = -1.  For |x| <= 1 and n >= 3 the values are
    closed forms: Phi_n(0) = 1, Phi_n(1) = p when n = p^k and 1 otherwise,
    and Phi_n(-1) = Phi_(n alpha(n))(1), since Phi_n(-x) is Phi_(2n)(x) for
    odd n, Phi_(n/2)(x) for n = 2 (mod 4) and Phi_n(x) for 4 | n.  No
    polynomial is built.
    """
    if abs(x) < 2:
        if n < 3:
            return cyclotomic(n)(x)
        if x == 0:
            return 1
        return prime_power_value(n if x == 1 else n_alpha(n))
    factors = {1: 1, -1: 1}
    for t, mu in mobius_divisors(n):
        factors[mu] *= x ** t - 1
    return factors[1] // factors[-1]


def inverse_cyclotomic(n: int) -> IntPoly:
    """Psi_n = (x^n - 1) / Phi_n, the product of Phi_d over proper divisors d."""
    if n < 1:
        raise InputError(f"index must be >= 1, got {n}")
    return cyclotomic_product({d: 1 for d in divisors(n)[:-1]}, IntPoly((1,)))


def coxeter_poly(n: int) -> IntPoly:
    """E_n = x^n + x^(n-1) - x^(n-3) - ... - x^3 + x + 1 for n >= 6."""
    if n < 6:
        raise InputError(f"coxeter_poly requires n >= 6, got {n}")
    coeffs = [0] * (n + 1)
    coeffs[0] = coeffs[1] = coeffs[n - 1] = coeffs[n] = 1
    for k in range(3, n - 2):
        coeffs[k] = -1
    return IntPoly(coeffs)


# largest estimated machine-word operations of _log_derivative_numerators; at this
# limit the slowest shape of a grid over degree, height, x and K took 1.2 s cold (2 vCPU)
TAYLOR_WORK_LIMIT = 2 ** 26


def _log_derivative_numerators(f: IntPoly, K: int, x: Fraction | int) -> tuple[int, list[int]]:
    """(c_0, [t_1, ..., t_K]) with (log f)^(k)(x) = t_k / c_0^k, in integers.

    (log f)^(k) means the (k-1)-th derivative of f'/f; no logarithm is ever
    taken.  With x = p/q, the integer polynomial h(y) = q^d f(y/q) has
    h(p + q t) = q^d f(x + t), so K + 1 synthetic divisions of h by y - p give
    its Taylor coefficients c_0..c_K at p in integer arithmetic.  A division
    is one pass a -> a p + c over the descending coefficients; at p = 1 that
    pass is a prefix sum (the Taylor shift by 1 as repeated summation, von zur
    Gathen & Gerhard, ISSAC 1997), and x = -1 is taken there too, through
    f(-1 + t) = g(1 - t) with g(y) = f(-y).  The series H'/H = sum_j b_j
    s^(j-1) of H(s) = sum c_j s^j then follows from j c_j = sum_{t<j} c_t
    b_(j-t), and (log f)^(k)(x) = (k-1)! b_k q^k.  At x = 0 the Taylor
    coefficients are f_0..f_K themselves: the truncation f_0 + ... + f_K x^K
    has the same log-derivatives to order K, so only it is read, with no
    pass.  The estimated work, at 0 over those K + 1 coefficients and
    elsewhere over all of f with its cached height, is refused with
    ResourceError above TAYLOR_WORK_LIMIT before any work, at any x;
    c_0 = h(p) = 0 is a PoleError.  K < 1 gives (1, []) unchecked.
    """
    if K < 1:
        return 1, []
    p, q = Fraction(x).as_integer_ratio()
    # the work at schoolbook cost: L coefficients of up to B = log2 max|f_i| + deg
    # log2 max(|p|, q) bits once scaled by q^i (one more pass, height/64 operations
    # a word), growing log2 L bits a pass, L + P in all; then per order j, m products
    # c_t c_0^(t-1) n_(j-t) and a reduction, with n_j <= deg (j-1)! q^j (|c_0|/rho)^j,
    # rho the root distance, and |c_0|/rho <= 2 max c_t, 2^(2 B + 3 log2 L + 1) (Fujiwara)
    coeffs = f.coeffs if p else f.coeffs[: K + 1]
    L = len(coeffs)
    lg = (max(abs(p), q) - 1).bit_length()
    height = (f.height if p else max(map(abs, coeffs), default=0)).bit_length()
    bits = height + (L - 1) * lg
    passes = min(K + 1, L) if p else 0
    taylor_bits = bits + min(passes * L.bit_length(), L + passes)
    value_bits = min(taylor_bits, 2 * bits + 3 * L.bit_length()) + K.bit_length() + lg + 1
    m = min(K, L - 1)
    steps = passes * L + (L * (height // 64 + 1) if q > 1 else 0)
    work = steps * (taylor_bits // 64 + 1) + K * (K * value_bits // 64 + 1) ** 2
    work += K * K * m * value_bits * (2 * taylor_bits + m * (bits + L.bit_length())) // 2 ** 14
    check_guardrail("estimated machine-word operations", work, "TAYLOR_WORK_LIMIT", TAYLOR_WORK_LIMIT)
    taylor = coeffs
    if p:
        h = list(reversed(coeffs))  # descending
        if q != 1:
            h = list(map(mul, h, accumulate(repeat(q, len(h) - 1), mul, initial=1)))
        flip = p == -1 and q == 1
        if flip:
            odd = slice(len(h) % 2, None, 2)  # the odd degrees
            h[odd] = [-c for c in h[odd]]
            p = 1
        taylor = []
        while h and len(taylor) <= K:
            if p == 1:
                h = list(accumulate(h))
            else:
                for i in range(1, len(h)):
                    h[i] += h[i - 1] * p
            taylor.append(h.pop())
        if flip:
            taylor[1::2] = [-c for c in taylor[1::2]]
    if not taylor or taylor[0] == 0:
        raise PoleError(f"f({x}) = 0: logarithmic derivative has a pole")
    # b_j = n_j / c_0^j with n_j = j e_j - sum_t e_t n_(j-t) and e_t = c_t c_0^(t-1)
    # (0 beyond the degree); t_j = (j-1)! b_j q^j c_0^j = (j-1)! q^j n_j
    c0 = taylor[0]
    powers = accumulate(repeat(c0, m), mul, initial=1)  # c_0^0, c_0^1, ...
    e = [0] + list(map(mul, taylor[1:], powers)) + [0] * (K - m)
    nums, out, scale = [0], [], q
    for j in range(1, K + 1):
        nums.append(j * e[j] - sum(e[t] * nums[j - t] for t in range(1, min(j, m + 1))))
        out.append(scale * nums[j])
        scale *= j * q
    return c0, out


def log_derivative_row(f: IntPoly, K: int, x: Fraction | int) -> tuple[int, list[int]]:
    """(D, [D (log f)'(x), ..., D (log f)^(K)(x)]) in integers, over the common
    (not always least) denominator D = |q^deg f f(p/q)|^K > 0 at x = p/q; (1, []) for K < 1."""
    c0, ts = _log_derivative_numerators(f, K, x)
    # t_k / c_0^k = t_k c_0^(K-k) / c_0^K, the sign of c_0^K moved into the numerators
    powers = list(accumulate(repeat(c0, K), mul, initial=-1 if c0 < 0 and K % 2 else 1))
    return powers[-1], list(map(mul, ts, reversed(powers[:-1])))


def log_derivative_values(f: IntPoly, K: int, x: Fraction | int) -> list[Fraction]:
    """The first K logarithmic derivatives of f at x as normalised Fractions, read
    off the coefficients of f alone: the oracle every closed form is tested against."""
    c0, ts = _log_derivative_numerators(f, K, x)
    values, power = [], c0
    for t in ts:
        values.append(Fraction(t, power))
        power *= c0
    return values


def is_self_reciprocal(f: IntPoly) -> bool:
    """True when the coefficient list is palindromic."""
    if f.is_zero():
        raise InputError("the zero polynomial has no reciprocal type")
    return f.coeffs == tuple(reversed(f.coeffs))


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

# largest degree of a dense list that cyclotomic, cyclotomic_product and
# parse_poly allocate
DEGREE_GUARDRAIL = 10 ** 6


def format_poly_csv(f: IntPoly) -> str:
    """Ascending coefficient list "c0,c1,...,cd"."""
    if f.is_zero():
        return "0"
    return ",".join(map(int_str, f.coeffs))


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
            body = int_str(mag)
        else:
            xpow = "x" if k == 1 else f"x^{k}"
            body = xpow if mag == 1 else f"{int_str(mag)}*{xpow}"
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"{sign} {body}")
    return " ".join(parts)


def _parse_int(token: str, what: str, pos: int) -> int:
    # int(token); int() refuses a digit string longer than the interpreter's
    # int-to-str limit, which is a refused size, not a malformed number
    try:
        return int(token)
    except ValueError:
        digits = token.lstrip("+-")
        if digits.isdigit():
            check_printable(f"the {what} at position {pos}: digit count", len(digits))
        raise InputError(f"bad {what} {token!r} at position {pos}") from None


def parse_poly(text: str) -> IntPoly:
    """Parse either CSV coefficients or the human term form."""
    s = text.strip().replace("−", "-")
    if not s:
        raise InputError("empty polynomial string")
    if "x" not in s:
        tokens = enumerate(s.split(","))
        return IntPoly([_parse_int(tok.strip(), "coefficient", pos) for pos, tok in tokens])
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
        mag = _parse_int(mt.group(2), "number in the term", pos) if mt.group(2) is not None else 1
        if "x" in term:
            k = _parse_int(mt.group(3), "number in the term", pos) if mt.group(3) is not None else 1
        else:
            k = 0
        coeffs[k] = coeffs.get(k, 0) + sign * mag
    top = max(coeffs)
    check_guardrail("degree", top, "DEGREE_GUARDRAIL", DEGREE_GUARDRAIL)
    out = [0] * (top + 1)
    for k, c in coeffs.items():
        out[k] = c
    return IntPoly(out)
