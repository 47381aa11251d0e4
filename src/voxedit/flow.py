"""Flow-based editing: an ODE integrator over pluggable velocity fields.

Time convention: t=0 is data, t=1 is noise, and trajectories integrate
from t=1 down toward t=0 on the uniform schedule t_i = i/N.  The editing
loop couples a noised source trajectory to the evolving edit state and
integrates the guided difference of the target and source velocity
fields; closed-form oracles make the whole loop exactly checkable.

Noise draws come from counter-based Philox substreams keyed on
(``config.rng_seed``, step index, draw index), so runs reproduce bit for
bit and two draws never share a stream.  A draw never depends on the
state, so ``flowedit_run`` can draw it ahead on a ``_threads.ahead`` helper.
"""
from __future__ import annotations

import abc
import functools
from dataclasses import dataclass

import numpy as np

from ._threads import ahead
from .errors import DimensionMismatch, NonFiniteState
from .grid import check_int, check_real


@dataclass(frozen=True)
class FlowEditConfig:
    steps: int = 25
    n_max: int = 15
    n_min: int = 0
    n_avg: int = 5
    cfg_source_scale: float = 1.5
    cfg_target_scale: float = 5.5
    lambda_src: float = 1.0
    rng_seed: int = 0

    def __post_init__(self):
        # the values may come from a --config file; each int is stored as its check returns it
        object.__setattr__(self, "steps", check_int("steps", self.steps, 1))
        object.__setattr__(self, "n_max", check_int("n_max", self.n_max, 0, self.steps))
        object.__setattr__(self, "n_min", check_int("n_min", self.n_min, 0, self.n_max))
        object.__setattr__(self, "n_avg", check_int("n_avg", self.n_avg, 1))
        # each seed in this range is its own noise key, so no two seeds draw the same noise
        object.__setattr__(self, "rng_seed", check_int("rng_seed", self.rng_seed, 0, 2**64 - 1))
        for name in ("cfg_source_scale", "cfg_target_scale", "lambda_src"):
            check_real(name, getattr(self, name))


def linear_schedule(steps: int) -> np.ndarray:
    """Times t_0..t_N with t_i = i/N; t_0 = 0 (data), t_N = 1 (noise)."""
    steps = check_int("steps", steps, 1)
    return np.arange(steps + 1, dtype=np.float64) / steps


def cfg_combine(v_uncond: np.ndarray, v_cond: np.ndarray, scale: float, out: np.ndarray | None = None) -> np.ndarray:
    """Classifier-free guidance: extrapolate from the unconditioned field
    toward the conditioned one, with the bits of ``v_uncond + scale *
    (v_cond - v_uncond)``, written into ``out`` when it is given.  The
    float64 cast comes first, so a float32 oracle result never selects a
    float32 loop."""
    v_uncond = np.asarray(v_uncond, dtype=np.float64)
    v_cond = np.asarray(v_cond, dtype=np.float64)
    if v_uncond.shape != v_cond.shape:
        raise DimensionMismatch(f"{v_uncond.shape} vs {v_cond.shape}")
    out = np.subtract(v_cond, v_uncond, out=out)
    out *= scale
    out += v_uncond
    return out


class VelocityOracle(abc.ABC):
    """Velocity field v(z, t, condition) for t in (0, 1].

    Implementations must be safe for concurrent read-only evaluation and
    must broadcast over leading axes of ``z`` (states are the trailing
    axis).  ``conditioned=False`` queries the unconditioned field; the
    analytic oracles answer with the conditioned value, which makes CFG
    degenerate to the conditioned field exactly.

    ``flowedit_run`` and ``euler_sample`` call ``evaluate`` on the calling
    thread only (``flowedit_run``'s helper thread only draws noise), and
    never write ``z`` or the returned array after the call, so an oracle
    may keep either, or return a cached array.
    """

    @abc.abstractmethod
    def evaluate(self, z: np.ndarray, t: float, condition, conditioned: bool = True) -> np.ndarray:
        ...


def _check_time(t: float) -> float:
    if not t > 0.0:
        raise ValueError(f"velocity field is undefined at t={t}; require t > 0")
    return float(t)


def _check_state(z, dim: int) -> np.ndarray:
    """``z`` as float64 states of length ``dim``; a one-value oracle
    broadcasts over states of any length."""
    z = np.asarray(z, dtype=np.float64)
    if dim != 1 and z.shape[-1:] != (dim,):
        raise DimensionMismatch(f"state of shape {z.shape} for an oracle of dimension {dim}")
    return z


def _condition_vectors(values: dict, what: str) -> tuple[dict, int]:
    """Each condition's vector as float64, all finite, and their one shared length."""
    if not values:
        raise ValueError(f"{what}: need at least one condition")
    vectors = {c: np.asarray(x, dtype=np.float64).reshape(-1) for c, x in values.items()}
    for c, x in vectors.items():
        if not np.isfinite(x).all():
            raise ValueError(f"{what} of condition {c!r} must be finite")
    dims = {x.shape[0] for x in vectors.values()}
    if len(dims) != 1:
        raise DimensionMismatch(f"{what} of mixed dimension {sorted(dims)}")
    return vectors, dims.pop()


class DeltaVelocityOracle(VelocityOracle):
    """Exact marginal velocity of the straight path to a single anchor:
    v(z, t, c) = (z - x_c) / t."""

    def __init__(self, anchors: dict):
        self.anchors, self.dim = _condition_vectors(anchors, "anchors")

    def evaluate(self, z, t, condition, conditioned=True):
        t = _check_time(t)
        v = _check_state(z, self.dim) - self.anchors[condition]
        v /= t
        return v


class AffineGaussianVelocityOracle(VelocityOracle):
    """Marginal velocity when data is isotropic Gaussian per condition.

    v(z, t, c) = (z - m) / t with the posterior mean
    m = mu + (1-t) var (z - (1-t) mu) / ((1-t)^2 var + t^2).
    """

    def __init__(self, means: dict, variances: dict):
        if set(means) != set(variances):
            raise ValueError("means and variances must cover the same conditions")
        self.means, self.dim = _condition_vectors(means, "means")
        self.variances = {c: check_real(f"variance of condition {c!r}", v) for c, v in variances.items()}
        if any(v <= 0 for v in self.variances.values()):
            raise ValueError("variances must be > 0")

    def posterior_mean(self, z, t, condition):
        t = _check_time(t)
        mu = self.means[condition]
        var = self.variances[condition]
        z = np.asarray(z, dtype=np.float64)
        return mu + (1 - t) * var * (z - (1 - t) * mu) / ((1 - t) ** 2 * var + t * t)

    def evaluate(self, z, t, condition, conditioned=True):
        t = _check_time(t)
        z = _check_state(z, self.dim)
        v = z - self.posterior_mean(z, t, condition)
        v /= t
        return v


def _draw(seed: int, key: tuple, out: np.ndarray) -> np.ndarray:
    """``out`` filled with the standard normals of the (step, draw) ``key``'s stream."""
    return np.random.Generator(np.random.Philox(key=seed, counter=[0, 0, *key])).standard_normal(out=out)


# states at least this long draw their noise on a helper thread; on
# shorter ones the hand-off costs more than the draw it hides
_OVERLAP_MIN = 1 << 14


def _guided(oracle: VelocityOracle, z: np.ndarray, t: float, condition, scale: float,
            out: np.ndarray | None = None) -> np.ndarray:
    v_uncond = oracle.evaluate(z, t, condition, conditioned=False)
    v_cond = oracle.evaluate(z, t, condition, conditioned=True)
    return cfg_combine(v_uncond, v_cond, scale, out=out)


def _require_finite(z: np.ndarray, where: str) -> None:
    if not np.isfinite(z).all():
        raise NonFiniteState(f"non-finite state at {where}")


def _euler(oracle: VelocityOracle, z: np.ndarray, condition, scale: float, ts: np.ndarray, steps: int,
           label: str, on_step=None) -> np.ndarray:
    """Plain Euler steps ``steps``..1 of the guided field on the schedule
    ``ts``, from ``z`` at t = ts[steps] to t=0; ``z`` is left unchanged."""
    for i in range(steps, 0, -1):
        t = ts[i]
        v = _guided(oracle, z, t, condition, scale)
        z = z + (ts[i - 1] - t) * v
        _require_finite(z, f"{label} {i} (t={t:.6g})")
        if on_step is not None:
            on_step({"step": i, "t": t, "dv_norm": float(np.linalg.norm(v)), "z_norm": float(np.linalg.norm(z))})
    return z


def euler_sample(oracle: VelocityOracle, condition, config: FlowEditConfig, *,
                 start: np.ndarray | None = None) -> np.ndarray:
    """Plain Euler sampling of the guided field from t=1 down to t=0.

    ``start`` is the state at t=1; when omitted it is drawn standard
    normal at the oracle's dimension from a PCG64 generator seeded with
    ``config.rng_seed``.  A leading batch axis on ``start`` integrates
    many trajectories at once.
    """
    if start is None:
        start = np.random.Generator(np.random.PCG64(config.rng_seed)).standard_normal(oracle.dim)
    z = np.asarray(start, dtype=np.float64)
    _require_finite(z, "start")
    return _euler(oracle, z, condition, config.cfg_target_scale, linear_schedule(config.steps), config.steps, "step")


def flowedit_run(
    x_src: np.ndarray,
    src_condition,
    tgt_condition,
    oracle: VelocityOracle,
    config: FlowEditConfig,
    on_step=None,
) -> np.ndarray:
    """Integrate the edit trajectory from the source state.

    The state starts at ``x_src`` (conceptually at t_{n_max}).  For steps
    n_max..n_min+1, each step averages n_avg draws of the guided
    target-minus-source velocity difference along a shared noised source
    path; for steps n_min..1 the guided target field alone drives plain
    Euler updates.  Returns the state at t=0.

    On states of at least ``_OVERLAP_MIN`` values the noise is drawn one
    draw ahead on a helper thread of :func:`_threads.ahead` (see
    :class:`VelocityOracle`), with the same output bits.

    ``on_step`` (optional) receives a dict per step for transcripts.
    """
    x_src = np.asarray(x_src, dtype=np.float64).reshape(-1)
    _require_finite(x_src, "source state")
    ts = linear_schedule(config.steps)
    z = x_src.copy()
    n = z.shape[0]
    keys = [(i, k) for i in range(config.n_max, config.n_min, -1) for k in range(config.n_avg)]
    overlap = n >= _OVERLAP_MIN
    # draw j+1 goes into draw j-1's buffer, which this thread has finished reading when it asks for draw j
    buffers = [np.empty(n) for _ in range(1 + overlap)]
    draws = (functools.partial(_draw, config.rng_seed, key, buffers[j % len(buffers)]) for j, key in enumerate(keys))

    with ahead(draws, workers=int(overlap)) as noise:
        # z_src and z_tgt go to the oracle, so each draw makes them new;
        # these four are never handed out
        ax, acc, v_tgt, v_src = (np.empty(n) for _ in range(4))
        for i in range(config.n_max, config.n_min, -1):
            t = ts[i]
            np.multiply(1 - t, x_src, out=ax)
            acc[...] = 0.0
            for _ in range(config.n_avg):
                z_src = t * next(noise)
                z_src += ax  # (1 - t) * x_src + t * eps
                z_tgt = z + z_src
                z_tgt -= x_src
                _guided(oracle, z_tgt, t, tgt_condition, config.cfg_target_scale, out=v_tgt)
                _guided(oracle, z_src, t, src_condition, config.cfg_source_scale, out=v_src)
                v_src *= config.lambda_src
                v_tgt -= v_src
                acc += v_tgt
            acc /= config.n_avg  # the step's dv
            dv_norm = float(np.linalg.norm(acc)) if on_step is not None else None
            acc *= ts[i - 1] - t
            z += acc
            _require_finite(z, f"edit step {i} (t={t:.6g})")
            if on_step is not None:
                on_step({"step": i, "t": t, "dv_norm": dv_norm, "z_norm": float(np.linalg.norm(z))})

    return _euler(oracle, z, tgt_condition, config.cfg_target_scale, ts, config.n_min, "plain step", on_step)
