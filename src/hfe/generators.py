"""Named generators for scenario data.

Scenario files describe transition functions, sections, and sampled
scalar fields as named generators with JSON parameters; this module
parses those descriptions into callables from a sample point to a plain
value: a complex scalar, a matrix, or a tuple of such values.  The
scenario loader evaluates them and checks each value's layout and group.
Complex scalars are written as a number or a two-element [re, im] list;
matrices as nested lists of such scalars.
"""

from __future__ import annotations

import cmath
from typing import Any, Callable

import numpy as np

from . import ball
from .cech import SamplePoint
from .errors import ValidationError
from .groups import alpha0_det
from .tracking import principal_sqrt


def parse_complex(v: Any) -> complex:
    if isinstance(v, (int, float)):
        return complex(v)
    if isinstance(v, str) and v == "inf":
        return complex("inf")
    if isinstance(v, (list, tuple)) and len(v) == 2:
        return complex(float(v[0]), float(v[1]))
    raise ValidationError(f"cannot parse complex scalar from {v!r}")


def parse_matrix(v: Any) -> np.ndarray:
    if not isinstance(v, (list, tuple)):
        raise ValidationError(f"cannot parse matrix from {v!r}")
    return np.array([[parse_complex(x) for x in row] for row in v], dtype=complex)


def _zeta(params: dict, det_value: complex) -> complex:
    """Anchor scalar: explicit value, or a signed principal root."""
    if "zeta" in params:
        return parse_complex(params["zeta"])
    sign = int(params.get("sheet", 1))
    return sign * principal_sqrt(det_value)


def _point_param(pt: SamplePoint, idx: int = 0) -> float:
    return pt.params[idx] if len(pt.params) > idx else 0.0


def _point_zeta(pt: SamplePoint) -> complex:
    """Sample points on a Riemann-sphere chart carry (re, im) params."""
    return complex(_point_param(pt, 0), _point_param(pt, 1))


# ---------------------------------------------------------------------------
# generator constructors; each returns a callable SamplePoint -> value
# ---------------------------------------------------------------------------

def _gen_const(params, n, k):
    M = parse_matrix(params["value"])
    return lambda pt: M


def _gen_pair_const(params, n, k):
    g1 = parse_matrix(params["first"])
    g2 = parse_matrix(params["second"])
    return lambda pt: (g1, g2)


def _gen_mp_const(params, n, k):
    """A metaplectic value (g, zeta)."""
    g = parse_matrix(params["g"]).real
    value = (g, _zeta(params, alpha0_det(g)))
    return lambda pt: value


def _gen_mp_rotation(params, n, k):
    """n=1 rotation by theta with anchor e^{i theta/2} on the chosen sheet."""
    theta = float(params["theta"])
    sign = int(params.get("sheet", 1))
    g = np.array([[np.cos(theta), np.sin(theta)],
                  [-np.sin(theta), np.cos(theta)]])
    value = (g, sign * cmath.exp(0.5j * theta))
    return lambda pt: value


def _gen_const_scalar(params, n, k):
    v = parse_complex(params["value"])
    return lambda pt: v


def _gen_linear_scalar(params, n, k):
    c0 = parse_complex(params["const"])
    c1 = parse_complex(params.get("slope", 0.0))
    return lambda pt: c0 + c1 * _point_param(pt)


def _gen_mobius_ratio(params, n, k):
    """1x1 transition (zeta - w_a) / (zeta - w_b) at a Riemann-sphere
    sample point; a factor with w = "inf" is the constant 1."""
    wa = parse_complex(params["w_a"])
    wb = parse_complex(params["w_b"])

    def fn(pt):
        z = _point_zeta(pt)
        num = 1.0 + 0j if wa == complex("inf") else z - wa
        den = 1.0 + 0j if wb == complex("inf") else z - wb
        if den == 0:
            raise ValidationError(
                f"generator 'mobius_ratio': pole at sample point {pt.id}")
        return np.array([[num / den]], dtype=complex)

    return fn


def _gen_frame_const(params, n, k):
    U = parse_matrix(params["U"])
    V = parse_matrix(params["V"])
    return lambda pt: (U, V)


def _gen_frame_phi_inv(params, n, k):
    W = parse_matrix(params["W"])
    C = parse_matrix(params["C"])
    UV = ball.phi_inv_raw(W, C)
    return lambda pt: UV


def _block_frame(A, B, Wr, Cr):
    n = A.shape[0] + Wr.shape[0]
    k = A.shape[0]
    Ur, Vr = ball.phi_inv_raw(Wr, Cr)
    U = np.zeros((n, n), dtype=complex)
    V = np.zeros((n, n), dtype=complex)
    U[:k, :k] = A
    U[:k, k:] = B
    U[k:, k:] = Ur
    V[k:, k:] = Vr
    return U, V


def _parse_blocks(params: dict, n: int, k: int):
    """The blocks of a D-adapted block frame: A (real, read only when
    k > 0), B (zero by default), Cr, and the reduced Ball point as a
    function of the sample point, Wr(t) = Wr + t * Wr_slope."""
    A = parse_matrix(params["A"]).real if k else np.zeros((0, 0))
    B = parse_matrix(params["B"]) if "B" in params else np.zeros((k, n - k))
    Wr0 = parse_matrix(params["Wr"])
    Wslope = parse_matrix(params["Wr_slope"]) if "Wr_slope" in params else None
    Cr = parse_matrix(params["Cr"])

    def Wr(pt):
        return Wr0 if Wslope is None else Wr0 + _point_param(pt) * Wslope

    return A, B, Wr, Cr


def _gen_frame_blocks(params, n, k):
    """D-adapted block frame with reduced part phi_inv(Wr(t), Cr)."""
    A, B, Wr, Cr = _parse_blocks(params, n, k)
    return lambda pt: _block_frame(A, B, Wr(pt), Cr)


def _meta_member(spec: dict, n: int, k: int):
    """A meta frame (W, C, z) in block form, W = diag(1_k, Wr(t)) and
    C = (A B; 0 Cr), with z a signed principal root of det C; C and z do
    not depend on the sample point and are built once."""
    A, B, Wr, Cr = _parse_blocks(spec, n, k)
    C = np.zeros((n, n), dtype=complex)
    C[:k, :k] = A
    C[:k, k:] = B
    C[k:, k:] = Cr
    z = int(spec.get("zsign", 1)) * principal_sqrt(np.linalg.det(C) if n else 1.0)

    def fn(pt):
        W = np.zeros((n, n), dtype=complex)
        W[:k, :k] = np.eye(k)
        W[k:, k:] = Wr(pt)
        return W, C, z

    return fn


def _gen_meta_pair_blocks(params, n, k):
    """Pair of meta frames in D-adapted block form sharing the A block."""
    f1 = _meta_member(params["first"], n, k)
    f2 = _meta_member(params["second"], n, k)
    return lambda pt: (f1(pt), f2(pt))


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


def _block_shapes(n: int, k: int) -> dict:
    """Matrix parameter shapes of a D-adapted block frame; A is read only
    when k > 0."""
    r = n - k
    shapes = {"A": (k, k)} if k else {}
    return {**shapes, "B": (k, r), "Wr": (r, r), "Wr_slope": (r, r), "Cr": (r, r)}


def _shapes(name: str, n: int, k: int) -> dict:
    """The shape of every matrix parameter of a generator, nested for
    the members of a pair."""
    square = (n, n)
    return {
        "const": {"value": square},
        "pair_const": {"first": square, "second": square},
        "mp_const": {"g": (2 * n, 2 * n)},
        "frame_const": {"U": square, "V": square},
        "frame_phi_inv": {"W": square, "C": square},
        "frame_blocks": _block_shapes(n, k),
        "meta_pair_blocks": {"first": _block_shapes(n, k),
                             "second": _block_shapes(n, k)},
    }.get(name, {})


def _check_shapes(params: dict, shapes: dict, prefix: str = "") -> None:
    """Raise ValueError for a matrix parameter of the wrong shape; a
    missing one is left to the generator, which names it."""
    for key, shape in shapes.items():
        if key not in params:
            continue
        if isinstance(shape, dict):
            _check_shapes(params[key], shape, f"{prefix}{key}.")
            continue
        got = parse_matrix(params[key]).shape
        if got != shape:
            raise ValueError(
                f"parameter '{prefix}{key}' must be {shape[0]} x {shape[1]}, "
                f"got {' x '.join(map(str, got))}"
            )


def build_generator(spec: dict, n: int, k: int) -> Callable[[SamplePoint], Any]:
    """Instantiate a generator description {"name": ..., "params": {...}}.

    Parameters it cannot build from (a missing key, a value of the wrong
    type, a matrix of the wrong shape for n and k) raise ValidationError.
    """
    name = spec.get("name")
    if name not in _REGISTRY:
        raise ValidationError(f"unknown generator {name!r}")
    params = spec.get("params", {})
    try:
        _check_shapes(params, _shapes(name, n, k))
        return _REGISTRY[name](params, n, k)
    except KeyError as exc:
        raise ValidationError(f"generator {name!r}: missing parameter {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"generator {name!r}: {exc}") from exc
