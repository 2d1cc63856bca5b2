"""Named generators for scenario data.

Scenario files describe transition functions, sections, and sampled
scalar fields as named generators with JSON parameters; this module
parses those descriptions into functions from a stack of P rows of the
nerve (the overlap rows of one component, or the chart rows of one
chart), given as their (P, D) params (see cech.Nerve) and their point
ids, to the tuple of stacked arrays of their values: (P,) for a scalar,
(P, m, m) for a matrix, and one such array per member of a tuple value
(an Mp value (g, zeta), a frame (U, V), a pair of meta frames
(W1, C1, z1, W2, C2, z2)).  groups.stack_values calls each once and
checks the arrays against the layout of their role.
Complex scalars are written as a number or a two-element [re, im] list;
matrices as nested lists of such scalars.
"""

from __future__ import annotations

import cmath
from typing import Any, Callable, Sequence

import numpy as np

from . import ball
from .errors import ValidationError
from .groups import alpha0_det
from .smallmat import det
from .tracking import cdiv, cmul

Generator = Callable[[np.ndarray, Sequence[str]], tuple]


def _real(x: Any) -> bool:
    """Whether a JSON value is a real number (a boolean is not)."""
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def parse_complex(v: Any) -> complex:
    """A complex scalar: a real number, "inf", or a list [re, im] of two
    real numbers."""
    try:
        if _real(v):
            return complex(v)
        if v == "inf":
            return complex("inf")
        if isinstance(v, (list, tuple)) and len(v) == 2 and all(map(_real, v)):
            return complex(float(v[0]), float(v[1]))
    except OverflowError:  # an integer beyond the float range
        pass
    raise ValidationError(f"cannot parse complex scalar from {v!r}")


def parse_matrix(v: Any) -> np.ndarray:
    if not isinstance(v, (list, tuple)):
        raise ValidationError(f"cannot parse matrix from {v!r}")
    return np.array([[parse_complex(x) for x in row] for row in v], dtype=complex)


def _matrix(params: dict, key: str, shape: tuple, prefix: str = "") -> np.ndarray:
    """The matrix parameter ``key``, which must have the given shape; an
    empty list is a matrix with no rows, of any width."""
    M = parse_matrix(params[key])
    if M.shape == (0,) and shape[0] == 0:
        M = M.reshape(shape)
    if M.shape != shape:
        raise ValueError(
            f"parameter '{prefix}{key}' must be {shape[0]} x {shape[1]}, "
            f"got {' x '.join(map(str, M.shape))}"
        )
    if not np.isfinite(M).all():
        raise ValueError(f"parameter '{prefix}{key}' has a non-finite entry")
    return M


def _sign(params: dict, key: str, prefix: str = "") -> int:
    """The sign parameter ``key``, 1 or -1, and 1 if it is missing."""
    sign = params.get(key, 1)
    if isinstance(sign, bool) or sign not in (1, -1):
        raise ValueError(f"parameter '{prefix}{key}' must be 1 or -1, got {sign!r}")
    return int(sign)


def _zeta(params: dict, det_value: complex) -> complex:
    """Anchor scalar: explicit value, or a signed principal root."""
    if "zeta" in params:
        return parse_complex(params["zeta"])
    return _sign(params, "sheet") * cmath.sqrt(det_value)


def _params(params: np.ndarray, d: int) -> np.ndarray:
    """The first d columns of the (P, D) params, a missing one 0."""
    out = np.zeros((len(params), d))
    out[:, :params.shape[1]] = params[:, :d]
    return out


def _constant(*values) -> Generator:
    """The generator whose values are the same at every point."""
    return lambda params, ids: tuple(np.broadcast_to(v, (len(params),) + np.shape(v))
                                     for v in values)


# ---------------------------------------------------------------------------
# generator constructors; each returns a Generator
# ---------------------------------------------------------------------------

def _gen_const(params, n, k):
    return _constant(_matrix(params, "value", (n, n)))


def _gen_pair_const(params, n, k):
    return _constant(_matrix(params, "first", (n, n)),
                     _matrix(params, "second", (n, n)))


def _gen_mp_const(params, n, k):
    """A metaplectic value (g, zeta)."""
    g = _matrix(params, "g", (2 * n, 2 * n)).real
    return _constant(g, _zeta(params, alpha0_det(g)))


def _gen_mp_rotation(params, n, k):
    """n=1 rotation by theta with anchor e^{i theta/2} on the chosen sheet."""
    theta = float(params["theta"])
    if not cmath.isfinite(theta):
        raise ValueError(f"parameter 'theta' must be finite, got {theta!r}")
    sign = _sign(params, "sheet")
    g = np.array([[np.cos(theta), np.sin(theta)],
                  [-np.sin(theta), np.cos(theta)]])
    return _constant(g, sign * cmath.exp(0.5j * theta))


def _gen_const_scalar(params, n, k):
    return _constant(parse_complex(params["value"]))


def _gen_linear_scalar(params, n, k):
    """c0 + c1 t at a point with first parameter t, computed as Python's
    complex arithmetic computes it."""
    c0 = parse_complex(params["const"])
    c1 = parse_complex(params.get("slope", 0.0))
    return lambda params, ids: (c0 + cmul(c1, _params(params, 1)[:, 0]),)


def _gen_mobius_ratio(params, n, k):
    """1x1 transition (zeta - w_a) / (zeta - w_b) at Riemann-sphere sample
    points, whose parameters are (re, im) of zeta; a factor with
    w = "inf" is the constant 1."""
    wa = parse_complex(params["w_a"])
    wb = parse_complex(params["w_b"])

    def fn(params, ids):
        z = _params(params, 2).view(complex)[:, 0]
        one = np.ones(len(params), dtype=complex)
        num = one if wa == complex("inf") else z - wa
        den = one if wb == complex("inf") else z - wb
        poles = np.flatnonzero(den == 0)
        if poles.size:
            raise ValidationError(f"generator 'mobius_ratio': pole at sample "
                                  f"point {ids[poles[0]]}")
        return (cdiv(num, den)[:, None, None],)

    return fn


def _gen_frame_const(params, n, k):
    return _constant(_matrix(params, "U", (n, n)), _matrix(params, "V", (n, n)))


def _gen_frame_phi_inv(params, n, k):
    return _constant(*ball.phi_inv_raw(_matrix(params, "W", (n, n)),
                                       _matrix(params, "C", (n, n))))


def _parse_blocks(params: dict, n: int, k: int, prefix: str = ""):
    """The blocks of a D-adapted block frame: A (real, read only when
    k > 0), B (zero by default), Cr, and the stack of reduced Ball
    points at P points, Wr(t) = Wr + t * Wr_slope at a point with first
    parameter t."""
    r = n - k
    A = _matrix(params, "A", (k, k), prefix).real if k else np.zeros((0, 0))
    B = _matrix(params, "B", (k, r), prefix) if "B" in params else np.zeros((k, r))
    Wr0 = _matrix(params, "Wr", (r, r), prefix)
    Wslope = (_matrix(params, "Wr_slope", (r, r), prefix)
              if "Wr_slope" in params else None)
    Cr = _matrix(params, "Cr", (r, r), prefix)

    def Wr(params):
        if Wslope is None:
            return np.broadcast_to(Wr0, (len(params), r, r))
        return Wr0 + _params(params, 1)[:, :, None] * Wslope

    return A, B, Wr, Cr


def _gen_frame_blocks(params, n, k):
    """D-adapted block frame with reduced part phi_inv(Wr(t), Cr)."""
    A, B, Wr, Cr = _parse_blocks(params, n, k)

    def fn(params, ids):
        Ur, Vr = ball.phi_inv_raw(Wr(params), Cr)
        U = np.zeros((len(params), n, n), dtype=complex)
        V = np.zeros((len(params), n, n), dtype=complex)
        U[:, :k, :k] = A
        U[:, :k, k:] = B
        U[:, k:, k:] = Ur
        V[:, k:, k:] = Vr
        return U, V

    return fn


def _meta_member(spec: dict, n: int, k: int, prefix: str) -> Generator:
    """A meta frame (W, C, z) in block form, W = diag(1_k, Wr(t)) and
    C = (A B; 0 Cr), with z a signed principal root of det C; C and z do
    not depend on the sample point and are built once."""
    A, B, Wr, Cr = _parse_blocks(spec, n, k, prefix)
    C = np.zeros((n, n), dtype=complex)
    C[:k, :k] = A
    C[:k, k:] = B
    C[k:, k:] = Cr
    z = _sign(spec, "zsign", prefix) * cmath.sqrt(det(C))

    def fn(params, ids):
        W = np.zeros((len(params), n, n), dtype=complex)
        W[:, :k, :k] = np.eye(k)
        W[:, k:, k:] = Wr(params)
        return (W,) + _constant(C, z)(params, ids)

    return fn


def _gen_meta_pair_blocks(params, n, k):
    """Pair of meta frames in D-adapted block form sharing the A block."""
    f1 = _meta_member(params["first"], n, k, "first.")
    f2 = _meta_member(params["second"], n, k, "second.")
    return lambda params, ids: f1(params, ids) + f2(params, ids)


_REGISTRY: dict[str, Callable] = {
    "const": _gen_const,
    "pair_const": _gen_pair_const,
    "mp_const": _gen_mp_const,
    "mp_rotation": _gen_mp_rotation,
    "const_scalar": _gen_const_scalar,
    "linear_scalar": _gen_linear_scalar,
    "mobius_ratio": _gen_mobius_ratio,
    "frame_const": _gen_frame_const,
    "frame_phi_inv": _gen_frame_phi_inv,
    "frame_blocks": _gen_frame_blocks,
    "meta_pair_blocks": _gen_meta_pair_blocks,
}


def build_generator(spec: dict, n: int, k: int) -> Generator:
    """Instantiate a generator description {"name": ..., "params": {...}}.

    Parameters it cannot build from (a missing key, a value of the wrong
    type, a matrix of the wrong shape for n and k) raise ValidationError.
    """
    name = spec.get("name")
    if name not in _REGISTRY:
        raise ValidationError(f"unknown generator {name!r}")
    try:
        return _REGISTRY[name](spec.get("params", {}), n, k)
    except KeyError as exc:
        raise ValidationError(f"generator {name!r}: missing parameter {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"generator {name!r}: {exc}") from exc
