"""Real-valued profile functions of the slow coordinate q.

Fourier coefficient tables store one profile per mode.  Profiles form a
small expression tree (constants, polynomials, clamped Hermite splines,
affine reparameterizations, sums and products), so q-derivatives are exact
rather than numerical.  Splines are numpy ports of scipy's, bitwise equal
to `CubicHermiteSpline` and its PCHIP slopes (`tests/test_spline_oracle.py`).
Derived trees, derivatives included, are built by the algebra (`+`, `*`,
`compose_affine`), which folds constant-zero and unit terms away as it
builds.  Complex coefficients are handled by `ComplexProfile`, a pair of
real profiles.

Coefficient trees share nodes (a product of Fourier functions puts each
factor's coefficients into several modes), and equal serialized splines
load as one node with one derivative node.  Inside `shared_evaluation` a
spline, spline derivative, composed or `Shared` node runs once per q array,
and nothing it computed outlives the block.  A block opened on the forests
it will read (the parts of each coefficient, with the q array they are read
on) also plans them: sums, products and scalings are matched by structure
(kind, float bit patterns, so -0.0 never stands for 0.0, and children), and
each distinct one that is read more than once, or reads one that is, runs
once per q array through the plan, its value dropped after its last
reader; the rest, constants and polynomials among them, are plain calls,
and so is a root with no structured child unless a deeper tree reaches it.
`fourier.coefficient_values` opens a planned block once per call (one
schedule of grids, one set of surface grids, one `eval` or Hermiticity
probe), and `ComplexProfile.__call__` a bare one when no block is open.
`Shared` wraps a callable that is no profile: the string vertex's blend
family (one call for every mode), a complex callable
(`ComplexProfile.from_callable`) and the fold of a mirror pivot.

All profiles accept scalars or numpy arrays and return numpy arrays of the
broadcast shape.
"""

from __future__ import annotations

import functools
import struct
import weakref
from contextlib import contextmanager
from contextvars import ContextVar

import numpy as np

from .errors import CapabilityError, DomainError, FuzzyRegError


def _asfloat(q):
    return np.asarray(q, dtype=float)


# (id(node), id(q)) -> (node, q, value) inside `shared_evaluation`, else None; one per
# thread.  Holding node and q keeps their ids from being reused while the memo lives.
_memo = ContextVar("fuzzyreg_profile_memo", default=None)
# the `_Plan` of the open `shared_evaluation` if it planned any node, else None
_plan = ContextVar("fuzzyreg_profile_plan", default=None)


@contextmanager
def shared_evaluation(forests=()):
    """Run each `_once_per_q` node once per q array in this block, and plan the
    `forests`: pairs (q, roots) of the parts `ComplexProfile.__call__` will read
    on q, a root listed once for each read (see `_Plan`); a block with nothing
    to plan holds no plan.  Nodes and arrays match by identity, so q must not
    change in place inside; nothing outlives the block."""
    plan = _Plan(forests) if forests else None
    token, planned = _memo.set({}), _plan.set(plan if plan and plan.groups else None)
    try:
        yield
    finally:
        _plan.reset(planned)
        _memo.reset(token)


def _once_per_q(call):
    """A node's `__call__`, looked up in the `shared_evaluation` memo while one is open."""
    def __call__(self, q):
        memo = _memo.get()
        if memo is None:
            return call(self, q)
        hit = memo.get(key := (id(self), id(q)))
        if hit is None:
            hit = memo[key] = (self, q, call(self, q))
        return hit[2]

    return __call__


class Shared:
    """A node calling fn once per q array inside `shared_evaluation`, whatever
    fn returns (a blend family, a folded q, a complex value)."""

    def __init__(self, fn):
        self.fn = fn

    __call__ = _once_per_q(lambda self, q: self.fn(q))


class Profile:
    """Base class: a real function of q with an optional exact derivative."""

    def __call__(self, q):
        raise NotImplementedError

    def derivative(self) -> "Profile":
        raise NotImplementedError

    def to_dict(self) -> dict:
        raise CapabilityError(f"{type(self).__name__} is not serializable")

    # --- composition helpers -------------------------------------------------

    def compose_affine(self, scale: float, shift: float) -> "Profile":
        """Profile of q -> self(scale*q + shift)."""
        if scale == 1.0 and shift == 0.0:
            return self
        return ComposedProfile(self, scale, shift)

    # --- arithmetic ----------------------------------------------------------

    def __add__(self, other):
        other = as_profile(other)
        if isinstance(self, ConstantProfile) and isinstance(other, ConstantProfile):
            return ConstantProfile(self.value + other.value)
        if isinstance(other, ConstantProfile) and other.value == 0.0:
            return self
        if isinstance(self, ConstantProfile) and self.value == 0.0:
            return other
        return SumProfile((self, other))

    __radd__ = __add__

    def __neg__(self):
        return ScaledProfile(-1.0, self)

    def __sub__(self, other):
        return self + (-as_profile(other))

    def __rsub__(self, other):
        return as_profile(other) + (-self)

    def __mul__(self, other):
        if np.isscalar(other):
            other = float(other)
            if other == 1.0:
                return self
            if other == 0.0:
                return ConstantProfile(0.0)
            return ScaledProfile(other, self)
        other = as_profile(other)
        if isinstance(self, ConstantProfile):
            return other * self.value
        if isinstance(other, ConstantProfile):
            return self * other.value
        return ProductProfile(self, other)

    __rmul__ = __mul__


class ConstantProfile(Profile):
    def __init__(self, value: float):
        self.value = float(value)

    def __call__(self, q):
        return np.full(np.shape(_asfloat(q)), self.value)

    def derivative(self):
        return ConstantProfile(0.0)

    def to_dict(self):
        return {"kind": "constant", "value": self.value}

    def __repr__(self):
        return f"ConstantProfile({self.value})"


class AffineProfile(Profile):
    """a0 + a1*q."""

    def __init__(self, a0: float, a1: float):
        self.a0 = float(a0)
        self.a1 = float(a1)

    def __call__(self, q):
        return self.a0 + self.a1 * _asfloat(q)

    def derivative(self):
        return ConstantProfile(self.a1)

    def to_dict(self):
        return {"kind": "affine", "a0": self.a0, "a1": self.a1}

    def __repr__(self):
        return f"AffineProfile({self.a0}, {self.a1})"


class PolyProfile(Profile):
    """Polynomial with coefficients in ascending order of degree."""

    def __init__(self, coeffs):
        self.coeffs = [float(c) for c in coeffs]
        if not self.coeffs:
            self.coeffs = [0.0]

    def __call__(self, q):
        return np.polynomial.polynomial.polyval(_asfloat(q), self.coeffs)

    def derivative(self):
        if len(self.coeffs) == 1:
            return ConstantProfile(0.0)
        return PolyProfile(np.polynomial.polynomial.polyder(self.coeffs))

    def to_dict(self):
        return {"kind": "poly", "coeffs": list(self.coeffs)}

    def __repr__(self):
        return f"PolyProfile({self.coeffs})"


class SplineProfile(Profile):
    """C^1 cubic Hermite spline, clamped to its boundary values outside the knots."""

    def __init__(self, knots_x, knots_y, slopes):
        x = self.knots_x = np.asarray(knots_x, dtype=float)
        y = self.knots_y = np.asarray(knots_y, dtype=float)
        d = self.slopes = np.asarray(slopes, dtype=float)
        if x.ndim != 1 or len(x) < 2:
            raise DomainError("need at least two knots")
        if not (len(x) == len(y) == len(d)):
            raise DomainError("knots_x, knots_y, slopes must have equal length")
        if not all(np.all(np.isfinite(v)) for v in (x, y, d)):
            raise DomainError("knots_x, knots_y and slopes must be finite")
        if not np.all((dx := np.diff(x)) > 0):
            raise DomainError("knots_x must be strictly increasing")
        slope = np.diff(y) / dx
        t = (d[:-1] + d[1:] - 2 * slope) / dx
        # left knots over the coefficients of s^3 .. s^0 (0.0 + y as PPoly sums from +0.0)
        self._table = np.stack((x[:-1], t / dx, (slope - d[:-1]) / dx - t, d[:-1], y[:-1] + 0.0))
        self._derivative = None

    @classmethod
    def pchip(cls, knots_x, knots_y):
        """Monotone slopes, as `PchipInterpolator(x, y).derivative()(x)` sets them."""
        x = np.asarray(knots_x, dtype=float)
        y = np.asarray(knots_y, dtype=float)
        with np.errstate(all="ignore"):  # bad knots are reported by the constructor
            h = np.diff(x)
            m = np.diff(y) / h
            d = np.repeat(m, 2)  # two knots: the secant at both
            if len(m) > 1:
                w1, w2 = 2 * h[1:] + h[:-1], h[1:] + 2 * h[:-1]
                flat = (np.sign(m[1:]) != np.sign(m[:-1])) | (m[1:] == 0) | (m[:-1] == 0)
                inner = np.where(flat, 0.0, 1.0 / ((w1 / m[:-1] + w2 / m[1:]) / (w1 + w2)))
                # ends: one-sided three-point estimates, kept in the end secant's sign
                h0, h1, m0, m1 = h[[0, -1]], h[[1, -2]], m[[0, -1]], m[[1, -2]]
                end = ((2 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
                cap = (np.sign(m0) != np.sign(m1)) & (np.abs(end) > 3.0 * np.abs(m0))
                end = np.where(np.sign(end) != np.sign(m0), 0.0, np.where(cap, 3.0 * m0, end))
                d = np.concatenate((end[:1], inner, end[1:]))
        return cls(x, y, cls(x, y, d).derivative()(x))

    @_once_per_q
    def __call__(self, q):
        return _ppoly(self.knots_x, self._table, _asfloat(q))

    def derivative(self):
        if self._derivative is None:  # one node, shared by every tree that differentiates self
            self._derivative = _SplineDerivativeProfile(self)
        return self._derivative

    def to_dict(self):
        return {
            "kind": "cubic-spline",
            "knots_x": self.knots_x.tolist(),
            "knots_y": self.knots_y.tolist(),
            "slopes": self.slopes.tolist(),
        }

    def __repr__(self):
        return f"SplineProfile({self.knots_x.tolist()}, {self.knots_y.tolist()})"


def _ppoly(x, table, q):
    """c[-1] + c[-2] s + c[-3] s^2 (+ c[-4] s^3), summed in `PPoly`'s order, with s =
    q - x[i] on the piece i holding q clamped to [x[0], x[-1]]; `table` is x[:-1] over c."""
    q = np.minimum(np.maximum(q, x[0]), x[-1])
    t = table.take(np.searchsorted(x[1:-1], q, "right"), axis=1)
    s = q - t[0]
    z = s * s
    res = t[-1] + t[-2] * s + t[-3] * z
    return res + t[1] * (z * s) if len(t) == 5 else res


class _SplineDerivativeProfile(Profile):
    """Derivative of a clamped spline, 0 outside; PPoly scales its coefficients 3, 2, 1."""

    def __init__(self, base: SplineProfile):
        self.base = base
        self._table = np.vstack((base._table[:3] * [[1.0], [3.0], [2.0]], base._table[3:4] + 0.0))

    @_once_per_q
    def __call__(self, q):
        qa = _asfloat(q)
        x = self.base.knots_x
        return np.where((qa >= x[0]) & (qa <= x[-1]), _ppoly(x, self._table, qa), 0.0)

    def derivative(self):
        raise CapabilityError("second derivatives of clamped splines are not provided")

    def to_dict(self):
        return {"kind": "spline-derivative", "base": self.base.to_dict()}


class ComposedProfile(Profile):
    """outer(scale*q + shift)."""

    def __init__(self, outer: Profile, scale: float, shift: float):
        self.outer = outer
        self.scale = float(scale)
        self.shift = float(shift)

    @_once_per_q
    def __call__(self, q):
        return self.outer(self.scale * _asfloat(q) + self.shift)

    def derivative(self):
        return self.outer.derivative().compose_affine(self.scale, self.shift) * self.scale

    def to_dict(self):
        return {
            "kind": "composed",
            "outer": self.outer.to_dict(),
            "scale": self.scale,
            "shift": self.shift,
        }


class SumProfile(Profile):
    def __init__(self, terms):
        self.terms = tuple(terms)

    def __call__(self, q):
        """The terms added in order to zeros; `_Plan._computed` mirrors this, bit for bit."""
        qa = _asfloat(q)
        out = np.zeros(qa.shape)
        for t in self.terms:
            out = out + t(qa)
        return out

    def derivative(self):
        return sum((t.derivative() for t in self.terms), ConstantProfile(0.0))

    def to_dict(self):
        return {"kind": "sum", "terms": [t.to_dict() for t in self.terms]}


class ProductProfile(Profile):
    def __init__(self, left: Profile, right: Profile):
        self.left = left
        self.right = right

    def __call__(self, q):
        """left(q) * right(q); `_Plan._computed` mirrors this, bit for bit."""
        qa = _asfloat(q)
        return self.left(qa) * self.right(qa)

    def derivative(self):
        return self.left.derivative() * self.right + self.left * self.right.derivative()

    def to_dict(self):
        return {"kind": "product", "left": self.left.to_dict(), "right": self.right.to_dict()}


class ScaledProfile(Profile):
    def __init__(self, factor: float, base: Profile):
        self.factor = float(factor)
        self.base = base

    def __call__(self, q):
        """factor * base(q); `_Plan._computed` mirrors this, bit for bit."""
        return self.factor * self.base(_asfloat(q))

    def derivative(self):
        return self.base.derivative() * self.factor

    def to_dict(self):
        return {"kind": "scaled", "factor": self.factor, "base": self.base.to_dict()}


_STRUCTURED = {SumProfile, ProductProfile, ScaledProfile}
_bits = struct.Struct("<d").pack


def _children(node) -> tuple:
    """The children of a sum, product or scaling, in the order its `__call__` reads them."""
    kind = type(node)
    return node.terms if kind is SumProfile else (node.left, node.right) if kind is ProductProfile else (node.base,)


class _Plan:
    """The sums, products and scalings of a block's forests, numbered by structure.

    A structured node's number stands for its kind, the bits of its factor and
    its children: structured ones by number, constants by their bits, other
    nodes by identity; children are numbered first.  Per q array, each
    structure reached from the roots read on q counts its readers: each read
    of it as a root, and each child slot it fills in a distinct structure
    reached.  A structure with more than one reader, or reading one that is
    planned, is planned on q: the first read runs it once through the plan,
    its value is kept for the readers left and dropped after the last.  The
    rest of the forest, and every node on a q the plan was not given, is
    called plainly, as outside the block.  So is a root with no structured
    child (a conjugate part -1 * leaf) unless a deeper tree reaches the same
    node: it is not numbered, since merging it with an equal one would save
    one array operation per extra read, and numbering it costs about as much
    on every call.
    """

    __slots__ = ("number", "nodes", "kids", "groups")

    def __init__(self, forests):
        # structured node -> number; per number one node and its structured children
        self.number, self.nodes, self.kids, keys, tallies, shallow = {}, [], [], {}, {}, []
        for q, roots in forests:
            tally = tallies.setdefault(id(q), (q, {}))[1]
            for root in roots:
                if type(root) not in _STRUCTURED:
                    continue
                if _STRUCTURED.isdisjoint(map(type, _children(root))):
                    shallow.append((tally, root))
                    continue
                n = self.number.get(root)
                if n is None:
                    n = self._numbered(root, keys)
                tally[n] = tally.get(n, 0) + 1
        for tally, root in shallow:  # read through the plan only if a deeper tree numbered it
            if (n := self.number.get(root)) is not None:
                tally[n] = tally.get(n, 0) + 1
        self.groups = {}  # id(q) -> (q, {planned number: readers left}, {number: value})
        for key, (q, tally) in tallies.items():
            stack = list(tally)  # the roots; each structure reached is pushed once
            while stack:
                for c in self.kids[stack.pop()]:
                    if c in tally:
                        tally[c] += 1
                    else:
                        tally[c] = 1
                        stack.append(c)
            readers = {}
            for n in sorted(tally):  # children first
                if tally[n] > 1 or not readers.keys().isdisjoint(self.kids[n]):
                    readers[n] = tally[n]
            if readers:
                self.groups[key] = (q, readers, {})

    def _numbered(self, node, keys) -> int:
        """The number of node, not yet numbered; its structured children are numbered first."""
        kind = type(node)
        key, kids = [kind, _bits(node.factor)] if kind is ScaledProfile else [kind], []
        for c in _children(node):
            t = type(c)
            if t in _STRUCTURED:
                m = self.number.get(c)
                if m is None:
                    m = self._numbered(c, keys)
                kids.append(m)
                key.append(m)
            else:
                key.append(_bits(c.value) if t is ConstantProfile else c)
        n = self.number[node] = keys.setdefault(tuple(key), len(keys))
        if n == len(self.nodes):
            self.nodes.append(node)
            self.kids.append(kids)
        return n

    def part(self, node, q):
        """node(q) for a part read as a root on q: through the plan if it is planned there."""
        group = self.groups.get(id(q))
        if group is None or (n := self.number.get(node)) not in group[1]:
            return node(q)
        return self._value(n, _asfloat(q), group)

    def _read(self, node, qa, group):
        n = self.number.get(node)
        return node(qa) if n not in group[1] else self._value(n, qa, group)

    def _value(self, n, qa, group):
        _, readers, values = group
        value = values.pop(n, None)
        if value is None:
            value = self._computed(n, qa, group)
        readers[n] -= 1
        if readers[n] > 0:
            values[n] = value
        return value

    def _computed(self, n, qa, group):
        """Structure n's value on qa by the operations of its node's `__call__`, in
        their order, its children read through the plan."""
        node = self.nodes[n]
        kind = type(node)
        if kind is SumProfile:
            out = np.zeros(qa.shape)
            for t in node.terms:
                out = out + self._read(t, qa, group)
            return out
        if kind is ProductProfile:
            return self._read(node.left, qa, group) * self._read(node.right, qa, group)
        return node.factor * self._read(node.base, qa, group)


@functools.cache
def _fold(pivot: float) -> Shared:
    """Reflect the arguments above pivot back below it: one node per pivot, so
    every mirror about it reads one folded array per q array."""
    return Shared(lambda qa: np.where(qa <= pivot, qa, 2.0 * pivot - qa))


class MirrorProfile(Profile):
    """base(q) below the pivot, base(2*pivot - q) above it."""

    def __init__(self, base: Profile, pivot: float):
        self.base = base
        self.pivot = float(pivot)

    def __call__(self, q):
        return self.base(_fold(self.pivot)(_asfloat(q)))

    def derivative(self):
        return _MirrorDerivativeProfile(self)

    def to_dict(self):
        return {"kind": "mirror", "pivot": self.pivot, "base": self.base.to_dict()}


class _MirrorDerivativeProfile(Profile):
    """Chain rule for MirrorProfile: the reflected branch flips sign."""

    def __init__(self, mirror: MirrorProfile):
        self.mirror = mirror
        self._dbase = mirror.base.derivative()

    def __call__(self, q):
        qa = _asfloat(q)
        vals = self._dbase(_fold(self.mirror.pivot)(qa))
        return np.where(qa <= self.mirror.pivot, vals, -vals)

    def derivative(self):
        raise CapabilityError("mirrored profiles are differentiated once only")

    def to_dict(self):
        return {"kind": "mirror-derivative", "base": self.mirror.to_dict()}


class CallableProfile(Profile):
    """Wraps an arbitrary vectorized callable.  Evaluation only.

    Used for coefficient families that exist as closed-form evaluations
    (e.g. interpolated vertex coefficients) where no exact derivative tree
    is available.
    """

    def __init__(self, fn, label: str = ""):
        self.fn = fn
        self.label = label

    def __call__(self, q):
        return np.asarray(self.fn(_asfloat(q)), dtype=float)

    def derivative(self):
        raise CapabilityError(f"profile {self.label or self.fn!r} supports evaluation only")

    def __repr__(self):
        return f"CallableProfile({self.label or self.fn!r})"


# (knots_x, knots_y, slopes) bytes -> the spline `profile_from_dict` loaded from them,
# while any tree holds it: every load of an equal spline shares one node
_splines = weakref.WeakValueDictionary()


def profile_from_dict(d: dict) -> Profile:
    """Inverse of `Profile.to_dict`; equal splines load as one node.  Malformed
    input raises DomainError."""
    try:
        kind = d["kind"]
        if kind == "constant":
            return ConstantProfile(d["value"])
        if kind == "affine":
            return AffineProfile(d["a0"], d["a1"])
        if kind == "poly":
            return PolyProfile(d["coeffs"])
        if kind == "cubic-spline":
            arrays = [np.asarray(d[k], dtype=float) for k in ("knots_x", "knots_y", "slopes")]
            key = tuple(a.tobytes() for a in arrays)
            if (spline := _splines.get(key)) is None:
                spline = _splines[key] = SplineProfile(*arrays)
            return spline
        if kind == "composed":
            return ComposedProfile(profile_from_dict(d["outer"]), d["scale"], d["shift"])
        if kind == "sum":
            return SumProfile(tuple(profile_from_dict(t) for t in d["terms"]))
        if kind == "product":
            return ProductProfile(profile_from_dict(d["left"]), profile_from_dict(d["right"]))
        if kind == "scaled":
            return ScaledProfile(d["factor"], profile_from_dict(d["base"]))
        if kind == "mirror":
            return MirrorProfile(profile_from_dict(d["base"]), d["pivot"])
        if kind in ("spline-derivative", "mirror-derivative"):
            base = profile_from_dict(d["base"])
            if isinstance(base, SplineProfile if kind == "spline-derivative" else MirrorProfile):
                return base.derivative()
            raise DomainError(f"{kind!r} profile over a {type(base).__name__}")
    except FuzzyRegError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise DomainError(f"malformed serialized profile: {type(exc).__name__} {exc}") from exc
    raise DomainError(f"unknown profile kind {kind!r}")


def as_profile(value) -> Profile:
    """Coerce numbers to ConstantProfile; pass profiles through."""
    if isinstance(value, Profile):
        return value
    if np.isscalar(value):
        return ConstantProfile(float(value))
    raise TypeError(f"cannot interpret {value!r} as a profile")


class ComplexProfile:
    """A complex-valued function of q stored as a (re, im) profile pair."""

    __slots__ = ("re", "im")

    def __init__(self, re: Profile, im: Profile | None = None):
        self.re = as_profile(re)
        self.im = as_profile(im) if im is not None else ConstantProfile(0.0)

    @classmethod
    def from_callable(cls, fn, label: str = "") -> "ComplexProfile":
        """Wrap a vectorized complex callable of q.  Evaluation only.  Both parts
        read one `Shared` node, so fn runs once per q array inside
        `shared_evaluation` (which a direct call of the pair opens), for the
        pair, its conjugate and its mirrors alike."""
        node = Shared(fn)
        return cls(CallableProfile(lambda q: np.real(node(q)), f"Re {label}"),
                   CallableProfile(lambda q: np.imag(node(q)), f"Im {label}"))

    @classmethod
    def from_const(cls, z) -> "ComplexProfile":
        z = complex(z)
        return cls(ConstantProfile(z.real), ConstantProfile(z.imag))

    @classmethod
    def coerce(cls, value) -> "ComplexProfile":
        if isinstance(value, ComplexProfile):
            return value
        if isinstance(value, Profile):
            return cls(value)
        return cls.from_const(value)

    def __call__(self, q):
        """re(q) + 1j im(q), the parts read through the plan of the open
        `shared_evaluation` if it has one; with no block open, inside a bare one
        of its own, so the nodes both parts read (a `from_callable` pair's fn) run once."""
        if _memo.get() is None:
            with shared_evaluation():
                qa = _asfloat(q)  # one array for both parts, so the memo matches it
                return self.re(qa) + 1j * self.im(qa)
        if (plan := _plan.get()) is None:
            return self.re(q) + 1j * self.im(q)
        return plan.part(self.re, q) + 1j * plan.part(self.im, q)

    def derivative(self) -> "ComplexProfile":
        return ComplexProfile(self.re.derivative(), self.im.derivative())

    def conjugate(self) -> "ComplexProfile":
        return ComplexProfile(self.re, -self.im)

    def mirror(self, pivot: float) -> "ComplexProfile":
        """self(q) below the pivot, self(2*pivot - q) above it.  Each part is
        mirrored, so the derivative and serialization carry over."""
        return ComplexProfile(MirrorProfile(self.re, pivot), MirrorProfile(self.im, pivot))

    def __add__(self, other):
        other = ComplexProfile.coerce(other)
        return ComplexProfile(self.re + other.re, self.im + other.im)

    def __neg__(self):
        return ComplexProfile(-self.re, -self.im)

    def __sub__(self, other):
        return self + (-ComplexProfile.coerce(other))

    def __mul__(self, other):
        if np.isscalar(other):
            z = complex(other)
            if z.imag == 0.0:
                return ComplexProfile(self.re * z.real, self.im * z.real)
            other = ComplexProfile.from_const(z)
        other = ComplexProfile.coerce(other)
        re = ProductProfile(self.re, other.re) - ProductProfile(self.im, other.im)
        im = ProductProfile(self.re, other.im) + ProductProfile(self.im, other.re)
        return ComplexProfile(re, im)

    __rmul__ = __mul__

    def times_i(self) -> "ComplexProfile":
        return ComplexProfile(-self.im, self.re)

    def is_zero(self) -> bool:
        """Structural zero test (constants only; no symbolic simplification)."""
        return all(isinstance(p, ConstantProfile) and p.value == 0.0 for p in (self.re, self.im))

    def to_dict(self):
        return {"re": self.re.to_dict(), "im": self.im.to_dict()}

    @classmethod
    def from_dict(cls, d):
        try:
            re, im = d["re"], d["im"]
        except KeyError as exc:
            raise DomainError(f"serialized complex profile lacks {exc}") from None
        return cls(profile_from_dict(re), profile_from_dict(im))


_H_KNOTS_X = (-1.0, -0.5, 0.0, 0.5, 1.0)
_H_KNOTS_Y = (0.0, 0.1, 0.5, 0.9, 1.0)

_h_spline = None


def smooth_step() -> SplineProfile:
    """The monotone transition spline h.

    C^1 cubic through (-1,0), (-0.5,0.1), (0,0.5), (0.5,0.9), (1,1) with
    monotone (PCHIP) slopes; the end slopes come out exactly 0, so the
    clamped continuation (0 below -1, 1 above +1) is C^1 as well.
    """
    global _h_spline
    if _h_spline is None:
        _h_spline = SplineProfile.pchip(_H_KNOTS_X, _H_KNOTS_Y)
    return _h_spline
