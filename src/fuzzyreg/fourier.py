"""Fourier functions on the cylinder [q1,q2] x [0,2pi).

A `FourierFunction` is a finite series f(q,phi) = sum_n f_n(q) e^{i n phi}
whose coefficients are `ComplexProfile`s of q.  Products, phi-derivatives,
q-derivatives and Poisson brackets act on the coefficient tables exactly.

`MatrixFourierFunction` is an SxS grid of such series sharing one interval.

`coefficient_values` is the one evaluator of coefficients: the regularization,
the surface sampler, `eval` and the Hermiticity probe all read its tables.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError, FuzzyRegError
from .profiles import ComplexProfile, shared_evaluation

_INTERVAL_TOL = 1e-12


def same_interval(a, b) -> bool:
    """Whether two functions' intervals agree to within 1e-12 at both ends."""
    return all(abs(x - y) <= _INTERVAL_TOL for x, y in zip(a.interval, b.interval))


def checked_interval(interval) -> tuple:
    """(q1, q2) as floats, refused unless it has two ends, both finite, with q1 < q2."""
    if len(interval) != 2:
        raise DomainError(f"an interval needs two ends q1 < q2, got {list(interval)}")
    q1, q2 = float(interval[0]), float(interval[1])
    if not (np.isfinite(q1) and np.isfinite(q2) and q1 < q2):
        raise DomainError(f"interval [{q1}, {q2}] must have finite ends q1 < q2")
    return q1, q2


def _check_same_interval(a, b):
    if not same_interval(a, b):
        raise DomainError(f"interval mismatch: {a.interval} vs {b.interval}")


class FourierFunction:
    """Finite Fourier series in phi with q-dependent coefficients."""

    def __init__(self, interval, coeffs):
        self.interval = checked_interval(interval)
        table = {}
        for n, c in coeffs.items():
            c = ComplexProfile.coerce(c)
            if not c.is_zero():
                table[int(n)] = c
        self.coeffs = table

    # --- constructors --------------------------------------------------------

    @classmethod
    def from_profile(cls, interval, profile):
        """phi-independent function f(q) as a mode-0 series."""
        return cls(interval, {0: ComplexProfile.coerce(profile)})

    @classmethod
    def cosine(cls, interval, n, amplitude=1.0):
        """amplitude(q) * cos(n*phi)."""
        amp = ComplexProfile.coerce(amplitude)
        half = amp * 0.5
        return cls(interval, {n: half, -n: half})

    @classmethod
    def sine(cls, interval, n, amplitude=1.0):
        """amplitude(q) * sin(n*phi)."""
        amp = ComplexProfile.coerce(amplitude)
        return cls(interval, {n: amp * (-0.5j), -n: amp * (0.5j)})

    # --- basic queries --------------------------------------------------------

    @property
    def cutoff(self):
        """Largest |n| with a stored coefficient (0 for the zero function)."""
        return max((abs(n) for n in self.coeffs), default=0)

    def modes(self):
        return sorted(self.coeffs)

    def eval(self, q, phi):
        """sum_n f_n(q) e^{i n phi}: the S = 1 case of `MatrixFourierFunction.eval`."""
        return MatrixFourierFunction.from_scalar(self).eval(q, phi)[..., 0, 0]

    def is_real_valued(self) -> bool:
        """Check conj(f_n) = f_{-n}: the S = 1 case of
        `MatrixFourierFunction.is_hermitian`."""
        return MatrixFourierFunction.from_scalar(self).is_hermitian()

    # --- coefficient algebra ---------------------------------------------------

    def d_phi(self) -> "FourierFunction":
        """phi-derivative: mode n picks up a factor i*n."""
        return FourierFunction(
            self.interval, {n: c.times_i() * float(n) for n, c in self.coeffs.items()}
        )

    def d_q(self) -> "FourierFunction":
        """Exact q-derivative of every coefficient (CapabilityError if one is evaluation-only)."""
        return FourierFunction(
            self.interval, {n: c.derivative() for n, c in self.coeffs.items()}
        )

    def __add__(self, other):
        _check_same_interval(self, other)
        table = dict(self.coeffs)
        for n, c in other.coeffs.items():
            table[n] = table[n] + c if n in table else c
        return FourierFunction(self.interval, table)

    def __neg__(self):
        return self * (-1.0)

    def __sub__(self, other):
        return self + (other * (-1.0))

    def __mul__(self, other):
        if np.isscalar(other):
            return FourierFunction(
                self.interval, {n: c * other for n, c in self.coeffs.items()}
            )
        return mul(self, other)

    __rmul__ = __mul__

    def conjugate(self) -> "FourierFunction":
        """Pointwise complex conjugate: coefficient n becomes conj(f_{-n})."""
        return FourierFunction(
            self.interval, {-n: c.conjugate() for n, c in self.coeffs.items()}
        )

    # --- serialization ----------------------------------------------------------

    def to_dict(self):
        return {
            "interval": list(self.interval),
            "coeffs": [{"n": n, **self.coeffs[n].to_dict()} for n in self.modes()],
        }

    @classmethod
    def from_dict(cls, d):
        """Inverse of `to_dict`.  Malformed input raises DomainError."""
        try:
            table = {int(entry["n"]): ComplexProfile.from_dict(entry) for entry in d["coeffs"]}
            return cls(tuple(d["interval"]), table)
        except FuzzyRegError:
            raise
        except (KeyError, TypeError, ValueError) as exc:
            raise DomainError(f"malformed serialized Fourier function: {type(exc).__name__} {exc}") from exc

    def __repr__(self):
        return f"FourierFunction({self.interval}, modes={self.modes()})"


def mul(f: FourierFunction, g: FourierFunction) -> FourierFunction:
    """Pointwise product via coefficient convolution; cutoff grows to d_f + d_g."""
    _check_same_interval(f, g)
    table = {}
    for j, cf in f.coeffs.items():
        for k, cg in g.coeffs.items():
            n = j + k
            term = cf * cg
            table[n] = table[n] + term if n in table else term
    return FourierFunction(f.interval, table)


def poisson_bracket(f: FourierFunction, g: FourierFunction) -> FourierFunction:
    """{f,g} = d_phi(f) d_q(g) - d_q(f) d_phi(g)  (so {q, phi} = -1)."""
    return mul(f.d_phi(), g.d_q()) - mul(f.d_q(), g.d_phi())


def coefficient_values(functions, qs) -> list:
    """[{(a, b, n): F_{ab,n}(q)}] for each MatrixFourierFunction F and its own q array,
    inside one `shared_evaluation` planned on every coefficient's parts and its q: a
    shared node runs once per q object, and so does each distinct sum, product or
    scaling that several slots or nodes read.  Entries go row-major, each entry's modes
    in its `coeffs` order, one `ComplexProfile.__call__` per slot.  Values are not
    checked for finiteness: each reader refuses a non-finite value where it reaches it."""
    slots = [[((a, b, n), c) for a, row in enumerate(F.entries) for b, entry in enumerate(row)
              for n, c in entry.coeffs.items()] for F in functions]
    with shared_evaluation([(q, [p for _, c in table for p in (c.re, c.im)])
                            for table, q in zip(slots, qs)]):
        return [{key: np.asarray(c(q), complex) for key, c in table} for table, q in zip(slots, qs)]


def is_hermitian_table(table) -> bool:
    """Whether a `coefficient_values` table has F_{ab,n} = conj(F_{ba,-n}) (0 if
    missing) to 1e-12 at every q; a NaN fails it."""
    return all(np.max(np.abs(value - np.conj(table.get((b, a, -n), 0.0)))) <= 1e-12
               for (a, b, n), value in table.items())


class MatrixFourierFunction:
    """S x S matrix of FourierFunctions on one interval."""

    def __init__(self, interval, entries):
        self.interval = checked_interval(interval)
        S = len(entries)
        grid = []
        for row in entries:
            if len(row) != S:
                raise DomainError("entries must form a square grid")
            grid_row = []
            for e in row:
                if e is None:
                    e = FourierFunction(self.interval, {})
                _check_same_interval(self, e)
                grid_row.append(e)
            grid.append(tuple(grid_row))
        self.entries = tuple(grid)
        self.S = S

    @classmethod
    def diagonal(cls, fns):
        """diag(f_1, ..., f_S)."""
        fns = list(fns)
        S = len(fns)
        interval = fns[0].interval
        rows = [[fns[a] if a == b else None for b in range(S)] for a in range(S)]
        return cls(interval, rows)

    @classmethod
    def from_scalar(cls, f: FourierFunction):
        return cls(f.interval, [[f]])

    @property
    def cutoff(self):
        return max((e.cutoff for row in self.entries for e in row), default=0)

    def _check_q(self, q):
        qa = np.asarray(q, dtype=float)
        lo, hi = self.interval
        pad = _INTERVAL_TOL * max(1.0, abs(lo), abs(hi))
        if np.any(qa < lo - pad) or np.any(qa > hi + pad):
            raise DomainError(f"q outside interval {self.interval}")
        return qa

    def eval(self, q, phi):
        """S x S complex array of direct sums over modes (extra leading axes for array q, phi),
        from one `coefficient_values` table."""
        qa = self._check_q(q)
        pa = np.asarray(phi, dtype=float)
        out = np.zeros(np.broadcast(qa, pa).shape + (self.S, self.S), dtype=complex)
        for (a, b, n), value in coefficient_values([self], [qa])[0].items():
            out[..., a, b] += value * np.exp(1j * n * pa)
        return out

    def conjugate_transpose(self) -> "MatrixFourierFunction":
        rows = [
            [self.entries[b][a].conjugate() for b in range(self.S)] for a in range(self.S)
        ]
        return MatrixFourierFunction(self.interval, rows)

    def is_hermitian(self) -> bool:
        """Coefficient-level check F_{ab,n} = conj(F_{ba,-n}) (0 if missing) to 1e-12 on 17
        evenly spaced q, from one `coefficient_values` table; a NaN fails it."""
        qa = np.linspace(self.interval[0], self.interval[1], 17)
        return is_hermitian_table(coefficient_values([self], [qa])[0])

    def matmul(self, other: "MatrixFourierFunction") -> "MatrixFourierFunction":
        _check_same_interval(self, other)
        if self.S != other.S:
            raise DomainError("matrix size mismatch")
        S = self.S
        rows = []
        for a in range(S):
            row = []
            for b in range(S):
                acc = FourierFunction(self.interval, {})
                for k in range(S):
                    acc = acc + mul(self.entries[a][k], other.entries[k][b])
                row.append(acc)
            rows.append(row)
        return MatrixFourierFunction(self.interval, rows)

    def map_entries(self, fn) -> "MatrixFourierFunction":
        rows = [[fn(e) for e in row] for row in self.entries]
        return MatrixFourierFunction(self.interval, rows)

    def __add__(self, other):
        _check_same_interval(self, other)
        if self.S != other.S:
            raise DomainError("matrix size mismatch")
        rows = [
            [self.entries[a][b] + other.entries[a][b] for b in range(self.S)]
            for a in range(self.S)
        ]
        return MatrixFourierFunction(self.interval, rows)

    def __sub__(self, other):
        return self + other.map_entries(lambda e: e * (-1.0))

    def __mul__(self, scalar):
        return self.map_entries(lambda e: e * scalar)

    __rmul__ = __mul__

    def __repr__(self):
        return f"MatrixFourierFunction(S={self.S}, interval={self.interval})"
