"""Canonical log-power normal form r^lam * sum_j h_j(omega) log^j r.

Angular parts are finite combinations of the degree-0 atoms x^alpha / r^|alpha|.
The zero test reduces modulo the single sphere relation sum_i x_i^2/r^2 = 1
by eliminating alpha_1 >= 2 (graded-lex leading term), which makes order and
equality well defined.
"""

from __future__ import annotations

import cmath
import operator
from typing import Dict, Iterable, List, Sequence, Tuple

import numpy as np

from . import expr as ex
from .errors import (
    EvalOverflowError,
    ExpansionLimitError,
    NotInClassError,
    OriginError,
    UndefinedDegreeError,
)

COEFF_ZERO_THRESHOLD = 1e-12
DEGREE_TOLERANCE = 1e-10
# Expansion budget (ExpansionLimitError): the operand sizes multiplied in one
# product, and |alpha| or the log power of one expanded monomial.  Past these,
# expansion or syzygy reduction would exhaust time or memory.
MAX_PRODUCT_TERMS = 100_000
MAX_MONOMIAL_DEGREE = 200

Alpha = Tuple[int, ...]
Monomials = Dict[Tuple[Alpha, complex, int], complex]


class AngularPart:
    """Finite linear combination of angular atoms, keyed by multi-index."""

    __slots__ = ("n", "atoms")

    def __init__(self, n: int, atoms: Dict[Alpha, complex] | None = None):
        self.n = n
        pruned: Dict[Alpha, complex] = {}
        if atoms:
            for alpha, c in atoms.items():
                if abs(c) > COEFF_ZERO_THRESHOLD:
                    pruned[tuple(alpha)] = complex(c)
        self.atoms = pruned

    @classmethod
    def from_terms(cls, n: int, terms: Iterable[Tuple[Alpha, complex]]):
        acc: Dict[Alpha, complex] = {}
        for alpha, c in terms:
            alpha = tuple(alpha)
            acc[alpha] = acc.get(alpha, complex(0)) + c
        return cls(n, acc)

    def add(self, other: "AngularPart") -> "AngularPart":
        acc = dict(self.atoms)
        for alpha, c in other.atoms.items():
            acc[alpha] = acc.get(alpha, complex(0)) + c
        return AngularPart(self.n, acc)

    def scale(self, c: complex) -> "AngularPart":
        if c == 0:
            return AngularPart(self.n)
        return AngularPart(self.n, {a: v * c for a, v in self.atoms.items()})

    def sub(self, other: "AngularPart") -> "AngularPart":
        return self.add(other.scale(complex(-1)))

    def is_empty(self) -> bool:
        return not self.atoms

    def max_abs(self) -> float:
        return max((abs(c) for c in self.atoms.values()), default=0.0)

    def reduced(self) -> "AngularPart":
        """Normal form modulo x1^2/r^2 -> 1 - sum_{i>=2} x_i^2/r^2.

        Atoms are bucketed by alpha_1; each level from the highest down to 2
        is rewritten once into the level two below it.
        """
        levels: Dict[int, Dict[Alpha, complex]] = {}
        for alpha, c in self.atoms.items():
            levels.setdefault(alpha[0], {})[alpha] = c
        for level in range(max(levels, default=0), 1, -1):
            bucket = levels.pop(level, None)
            if not bucket:
                continue
            below = levels.setdefault(level - 2, {})
            for alpha, c in bucket.items():
                base = (level - 2,) + alpha[1:]
                below[base] = below.get(base, complex(0)) + c
                for i in range(1, self.n):
                    up = base[:i] + (base[i] + 2,) + base[i + 1:]
                    below[up] = below.get(up, complex(0)) - c
        out = levels.get(0, {})
        out.update(levels.get(1, {}))
        return AngularPart(self.n, out)

    def __repr__(self):
        return f"AngularPart(n={self.n}, atoms={self.atoms!r})"


def angular_is_zero(h: AngularPart) -> bool:
    """True iff h vanishes identically on the sphere (syzygy-aware)."""
    return h.reduced().max_abs() <= COEFF_ZERO_THRESHOLD


class CoeffArray:
    """Angular parts h_0..h_k stacked over one atom list.

    `alphas` lists the m atoms, `exponents` is their (m, n) integer exponent
    matrix and `values` the complex (k+1, m) matrix H with H[j, i] the
    coefficient of atom i in h_j.  Operators act as (k+1)x(k+1) matrices on
    H; `angular` evaluates every h_j at a batch of directions.
    """

    __slots__ = ("alphas", "exponents", "values", "_tables")

    def __init__(self, alphas: Sequence[Alpha], exponents: np.ndarray, values: np.ndarray):
        self.alphas = tuple(alphas)
        self.exponents = exponents
        self.values = values
        # per dimension that occurs: (index, largest exponent + 1, atom exponents)
        self._tables = [
            (i, int(col.max()) + 1, col) for i, col in enumerate(exponents.T) if col.any()
        ]

    @classmethod
    def of(cls, n: int, parts: Sequence[AngularPart]) -> "CoeffArray":
        index: Dict[Alpha, int] = {}
        for h in parts:
            for alpha in h.atoms:
                index.setdefault(alpha, len(index))
        values = np.zeros((len(parts), len(index)), dtype=complex)
        for j, h in enumerate(parts):
            if h.atoms:
                values[j, [index[alpha] for alpha in h.atoms]] = list(h.atoms.values())
        exponents = np.array(list(index), dtype=np.int64).reshape(len(index), n)
        return cls(index, exponents, values)

    def parts(self, n: int, values: np.ndarray) -> List[AngularPart]:
        """Angular parts with coefficient rows `values` over the same atoms."""
        return [AngularPart(n, dict(zip(self.alphas, row))) for row in values.tolist()]

    def angular(self, omega) -> np.ndarray:
        """h_j(omega) at unit directions omega (P, n): an array (P, k+1).

        The (P, m) monomial matrix is built one dimension at a time from a
        table of the powers that dimension needs.
        """
        omega = np.atleast_2d(np.asarray(omega, dtype=float))
        mono = np.ones((omega.shape[0], len(self.alphas)))
        for i, size, col in self._tables:
            mono *= power_table(omega[:, i], size)[:, col]
        return mono @ self.values.T


def power_table(x: np.ndarray, size: int) -> np.ndarray:
    """x^j for j < size by repeated products, an array (P, size); a libm
    pow per entry would cost several times as much."""
    out = np.empty((x.size, size))
    out[:, 0] = 1.0
    for j in range(1, size):
        out[:, j] = out[:, j - 1] * x
    return out


class LogForm:
    """Canonical value: dimension n, degree lam, log-power coefficients."""

    __slots__ = ("n", "_lam", "coeffs", "is_zero", "_arrays")

    def __init__(self, n, lam, coeffs, is_zero):
        self.n = n
        self._lam = complex(lam)
        self.coeffs = tuple(coeffs)
        self.is_zero = is_zero
        self._arrays = None

    @classmethod
    def make(cls, n: int, lam: complex, coeffs: Iterable[AngularPart]) -> "LogForm":
        parts = list(coeffs)
        while parts and angular_is_zero(parts[-1]):
            parts.pop()
        if not parts:
            return cls.zero(n)
        return cls(n, lam, parts, False)

    @classmethod
    def zero(cls, n: int) -> "LogForm":
        return cls(n, complex(0), (AngularPart(n),), True)

    @property
    def degree(self) -> complex:
        if self.is_zero:
            raise UndefinedDegreeError("the zero form has no degree")
        return self._lam

    @property
    def order(self) -> int:
        if self.is_zero:
            raise UndefinedDegreeError("the zero form has no order")
        return len(self.coeffs) - 1

    def arrays(self) -> CoeffArray:
        """The coefficient-array view of `coeffs` (built once per form)."""
        if self._arrays is None:
            self._arrays = CoeffArray.of(self.n, self.coeffs)
        return self._arrays

    def scale(self, c: complex) -> "LogForm":
        if self.is_zero or c == 0:
            return LogForm.zero(self.n)
        return LogForm.make(self.n, self._lam, [h.scale(c) for h in self.coeffs])

    def add(self, other: "LogForm") -> "LogForm":
        """Sum of two forms of the same degree (zero forms are neutral)."""
        if self.is_zero:
            return other
        if other.is_zero:
            return self
        if abs(self._lam - other._lam) > DEGREE_TOLERANCE:
            raise ValueError("cannot add forms of distinct degrees")
        k = max(len(self.coeffs), len(other.coeffs))
        parts = []
        for j in range(k):
            a = self.coeffs[j] if j < len(self.coeffs) else AngularPart(self.n)
            b = other.coeffs[j] if j < len(other.coeffs) else AngularPart(self.n)
            parts.append(a.add(b))
        return LogForm.make(self.n, self._lam, parts)

    def sub(self, other: "LogForm") -> "LogForm":
        return self.add(other.scale(complex(-1)))

    def coeff_norm(self) -> float:
        """Max syzygy-reduced coefficient magnitude across log powers."""
        if self.is_zero:
            return 0.0
        return max(h.reduced().max_abs() for h in self.coeffs)

    def raw_norm(self) -> float:
        if self.is_zero:
            return 0.0
        return max(h.max_abs() for h in self.coeffs)

    def to_dict(self) -> dict:
        out = {"n": self.n}
        if self.is_zero:
            out["zero"] = True
            out["coeffs"] = [[]]
            return out
        out["degree"] = {"re": self._lam.real, "im": self._lam.imag}
        coeffs = []
        for h in self.coeffs:
            entries = []
            for alpha in sorted(h.atoms):
                c = h.atoms[alpha]
                entries.append({"alpha": list(alpha), "re": c.real, "im": c.imag})
            coeffs.append(entries)
        out["coeffs"] = coeffs
        return out

    def __repr__(self):
        if self.is_zero:
            return f"LogForm.zero(n={self.n})"
        return f"LogForm(n={self.n}, lam={self._lam}, k={self.order})"


def eval_form(form: LogForm, x):
    """Values exp(lam ln r) * sum_j h_j(x/r) (ln r)^j at the rows of x (m, n).

    A single point x (n,) gives a complex, a batch an array (m,).
    """
    points = np.atleast_2d(np.asarray(x, dtype=float))
    r = ex.radii(points)
    if not r.all():
        raise OriginError("evaluation at the origin")
    if form.is_zero:
        values = np.zeros(r.size, dtype=complex)
    else:
        arr = form.arrays()
        ln_r = np.log(r)
        with np.errstate(all="ignore"):
            acc = np.sum(arr.angular(points / r[:, None])
                         * power_table(ln_r, len(form.coeffs)), axis=1)
            values = np.exp(form._lam * ln_r) * acc
        if not np.isfinite(values).all():
            raise EvalOverflowError("evaluation overflowed the floating-point range")
    return complex(values[0]) if np.ndim(x) == 1 else values


def forms_equal(f: LogForm, g: LogForm) -> bool:
    """Equality up to the degree tolerance and the sphere relation."""
    if f.n != g.n:
        return False
    if f.is_zero or g.is_zero:
        return f.is_zero and g.is_zero
    if abs(f._lam - g._lam) > DEGREE_TOLERANCE:
        return False
    k = max(len(f.coeffs), len(g.coeffs))
    for j in range(k):
        a = f.coeffs[j] if j < len(f.coeffs) else AngularPart(f.n)
        b = g.coeffs[j] if j < len(g.coeffs) else AngularPart(g.n)
        if not angular_is_zero(a.sub(b)):
            return False
    return True


class MultiForm:
    """Finite sum of LogForms with pairwise distinct degrees."""

    __slots__ = ("n", "forms")

    def __init__(self, n: int, forms: Iterable[LogForm] = ()):
        kept = [f for f in forms if not f.is_zero]
        kept.sort(key=lambda f: (f._lam.real, f._lam.imag))
        self.n = n
        self.forms = tuple(kept)

    @property
    def is_zero(self) -> bool:
        return not self.forms

    def components(self) -> Tuple[LogForm, ...]:
        return self.forms

    def add(self, other: "MultiForm") -> "MultiForm":
        groups = list(self.forms)
        out = []
        for g in other.forms:
            merged = False
            for i, f in enumerate(groups):
                if f is not None and abs(f._lam - g._lam) <= DEGREE_TOLERANCE:
                    out.append(f.add(g))
                    groups[i] = None
                    merged = True
                    break
            if not merged:
                out.append(g)
        out.extend(f for f in groups if f is not None)
        return MultiForm(self.n, out)

    def scale(self, c: complex) -> "MultiForm":
        return MultiForm(self.n, [f.scale(c) for f in self.forms])

    def eval(self, x):
        """Sum of the components' values; a single point or a batch (m, n)."""
        return sum((eval_form(f, x) for f in self.forms), eval_form(LogForm.zero(self.n), x))

    def to_dict(self) -> list:
        if self.is_zero:
            return [LogForm.zero(self.n).to_dict()]
        return [f.to_dict() for f in self.forms]

    def __repr__(self):
        return f"MultiForm(n={self.n}, degrees={[f._lam for f in self.forms]})"


# ---------------------------------------------------------------------------
# Rewriting parsed expressions into MultiForm.

_INT_EPS = 1e-9


def _as_int(c: complex, what: str) -> int:
    if c.imag != 0 or abs(c.real - round(c.real)) > _INT_EPS:
        raise NotInClassError(f"{what} requires an integer exponent, got {c}")
    return int(round(c.real))


def _mul(p: Monomials, q: Monomials) -> Monomials:
    """Product of two monomial tables, like terms collected."""
    if len(p) * len(q) > MAX_PRODUCT_TERMS:
        raise ExpansionLimitError(
            f"product of {len(p)} by {len(q)} monomials exceeds the limit "
            f"{MAX_PRODUCT_TERMS}"
        )
    out: Monomials = {}
    for (a1, mu1, j1), c1 in p.items():
        for (a2, mu2, j2), c2 in q.items():
            key = (tuple(map(operator.add, a1, a2)), mu1 + mu2, j1 + j2)
            out[key] = out.get(key, complex(0)) + c1 * c2
    return out


def _expand(e, n) -> Monomials:
    """Expression -> monomials {(alpha, r-power mu, log-power j): coef}."""
    zero_alpha = (0,) * n
    if isinstance(e, ex.Constant):
        return {(zero_alpha, complex(0), 0): e.value}
    if isinstance(e, ex.Variable):
        alpha = tuple(1 if i == e.index - 1 else 0 for i in range(n))
        return {(alpha, complex(0), 0): complex(1)}
    if isinstance(e, ex.Radius):
        return {(zero_alpha, complex(1), 0): complex(1)}
    if isinstance(e, ex.LogRadius):
        return {(zero_alpha, complex(0), 1): complex(1)}
    if isinstance(e, ex.Negate):
        return {key: -c for key, c in _expand(e.child, n).items()}
    if isinstance(e, ex.Sum):
        out: Monomials = {}
        for t in e.terms:
            for key, c in _expand(t, n).items():
                out[key] = out.get(key, complex(0)) + c
        return out
    if isinstance(e, ex.Product):
        acc = _expand(e.factors[0], n)
        for f in e.factors[1:]:
            acc = _mul(acc, _expand(f, n))
        return acc
    if isinstance(e, ex.Power):
        c = e.exponent
        base = e.base
        if isinstance(base, ex.Radius):
            return {(zero_alpha, c, 0): complex(1)}
        if isinstance(base, ex.Variable):
            m = _as_int(c, "a variable power")
            if m < 0:
                raise NotInClassError(
                    f"negative variable power x{base.index}^{m} is outside the class"
                )
            alpha = tuple(m if i == base.index - 1 else 0 for i in range(n))
            return {(alpha, complex(0), 0): complex(1)}
        if isinstance(base, ex.LogRadius):
            m = _as_int(c, "a log power")
            if m < 0:
                raise NotInClassError("negative log power is outside the class")
            return {(zero_alpha, complex(0), m): complex(1)}
        if isinstance(base, ex.Constant):
            integral = c.imag == 0 and c.real.is_integer()
            if base.value == 0:
                if not integral:
                    return {}
                if c.real < 0:
                    raise NotInClassError("zero base with negative exponent")
            try:
                if integral:
                    value = base.value ** int(c.real)
                else:
                    value = cmath.exp(c * cmath.log(base.value))
            except OverflowError:
                raise EvalOverflowError(
                    f"constant power {base.value}^{c} overflowed the floating-point range"
                ) from None
            return {(zero_alpha, complex(0), 0): value}
        m = _as_int(c, "a compound-base power")
        if m < 0:
            raise NotInClassError("negative power of a compound base")
        # square-and-multiply
        acc = {(zero_alpha, complex(0), 0): complex(1)}
        square = _expand(base, n)
        while m:
            if m & 1:
                acc = _mul(acc, square)
            m >>= 1
            if m:
                square = _mul(square, square)
        return acc
    raise TypeError(f"not an expression node: {e!r}")


def canonicalize(e: ex.Expression, n: int) -> MultiForm:
    """Rewrite an expression into grouped log-power normal forms.

    Each monomial x^alpha r^mu log^j r becomes atom(alpha) r^(mu+|alpha|)
    log^j r; terms are grouped by total degree, then by log power.
    """
    groups = []  # (lam, {j: {alpha: coef}})
    for (alpha, mu, j), c in _expand(e, n).items():
        weight = sum(alpha)
        # a high-degree monomial costs nothing until syzygy reduction, so its
        # check can wait until here, where |alpha| is computed anyway
        if weight > MAX_MONOMIAL_DEGREE or j > MAX_MONOMIAL_DEGREE:
            raise ExpansionLimitError(
                f"monomial of variable degree {weight} and log power {j} exceeds "
                f"the limit {MAX_MONOMIAL_DEGREE}"
            )
        lam = mu + weight
        for key, table in groups:
            if abs(lam - key) <= DEGREE_TOLERANCE:
                tab = table
                break
        else:
            tab = {}
            groups.append((lam, tab))
        row = tab.setdefault(j, {})
        row[alpha] = row.get(alpha, complex(0)) + c
    forms = []
    for lam, table in groups:
        top = max(table) if table else 0
        parts = [AngularPart(n, table.get(j, {})) for j in range(top + 1)]
        forms.append(LogForm.make(n, lam, parts))
    return MultiForm(n, forms)
