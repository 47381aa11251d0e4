"""Flow-based editing: an ODE integrator over pluggable velocity fields.

Time convention: t=0 is data, t=1 is noise, and trajectories integrate
from t=1 down toward t=0 on the uniform schedule t_i = i/N.  The editing
loop couples a noised source trajectory to the evolving edit state and
integrates the guided difference of the target and source velocity
fields; closed-form oracles make the whole loop exactly checkable.

Noise draws come from counter-based Philox substreams keyed on
(``config.rng_seed``, step index, draw index), so runs reproduce bit for
bit and two draws never share a stream.  A draw never depends on the
state, so ``flowedit_run`` can draw the noise ahead on a helper thread.
"""
from __future__ import annotations

import abc
import contextlib
import numbers
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NonFiniteState


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
        # the values may come from a --config file
        for name in ("steps", "n_max", "n_min", "n_avg", "rng_seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        # each seed in this range is its own noise key, so no two seeds draw the same noise
        if not 0 <= self.rng_seed < 2**64:
            raise ValueError(f"rng_seed must be in [0, 2**64), got {self.rng_seed}")
        if self.steps < 1:
            raise ValueError("steps must be >= 1")
        if not (0 <= self.n_max <= self.steps):
            raise ValueError("need 0 <= n_max <= steps")
        if not (0 <= self.n_min <= self.n_max):
            raise ValueError("need 0 <= n_min <= n_max")
        if self.n_avg < 1:
            raise ValueError("n_avg must be >= 1")
        for name in ("cfg_source_scale", "cfg_target_scale", "lambda_src"):
            value = getattr(self, name)
            if not isinstance(value, numbers.Real) or not np.isfinite(value):
                raise ValueError(f"{name} must be finite")


def linear_schedule(steps: int) -> np.ndarray:
    """Times t_0..t_N with t_i = i/N; t_0 = 0 (data), t_N = 1 (noise)."""
    if steps < 1:
        raise ValueError("steps must be >= 1")
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


class DeltaVelocityOracle(VelocityOracle):
    """Exact marginal velocity of the straight path to a single anchor:
    v(z, t, c) = (z - x_c) / t."""

    def __init__(self, anchors: dict):
        if not anchors:
            raise ValueError("need at least one condition anchor")
        self.anchors = {c: np.asarray(x, dtype=np.float64).reshape(-1) for c, x in anchors.items()}
        dims = {a.shape[0] for a in self.anchors.values()}
        if len(dims) != 1:
            raise DimensionMismatch(f"anchors of mixed dimension {sorted(dims)}")
        self.dim = dims.pop()

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
        if not means:
            raise ValueError("need at least one condition")
        self.means = {c: np.asarray(m, dtype=np.float64).reshape(-1) for c, m in means.items()}
        self.variances = {c: float(v) for c, v in variances.items()}
        if any(v <= 0 for v in self.variances.values()):
            raise ValueError("variances must be > 0")
        dims = {m.shape[0] for m in self.means.values()}
        if len(dims) != 1:
            raise DimensionMismatch(f"means of mixed dimension {sorted(dims)}")
        self.dim = dims.pop()

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


def _noise_stream(seed: int, step: int, draw: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=seed, counter=[0, 0, step, draw]))


# states at least this long draw their noise on a helper thread; on
# shorter ones the hand-off costs more than the draw it hides
_OVERLAP_MIN = 1 << 14


def _noise(seed: int, keys: list, n: int, helper: ThreadPoolExecutor | None):
    """Yields ``n`` standard normals per (step, draw) key, in order.

    Without a ``helper``, each draw is made inline into one buffer.  With
    one, the helper fills two buffers in turn, one draw ahead: draw j+1
    is asked for only once draw j is done, and goes into the buffer that
    held draw j-1, which the caller has finished reading when it asks for
    draw j.
    """
    def fill(key, out):
        _noise_stream(seed, *key).standard_normal(out=out)
        return out

    ready = np.empty(n)
    if helper is None:
        for key in keys:
            yield fill(key, ready)
        return
    spare = np.empty(n)
    pending = helper.submit(fill, keys[0], ready)
    for key in keys[1:]:
        ready = pending.result()
        pending = helper.submit(fill, key, spare)
        yield ready
        spare = ready
    yield pending.result()


def _guided(oracle: VelocityOracle, z: np.ndarray, t: float, condition, scale: float,
            out: np.ndarray | None = None) -> np.ndarray:
    v_uncond = oracle.evaluate(z, t, condition, conditioned=False)
    v_cond = oracle.evaluate(z, t, condition, conditioned=True)
    return cfg_combine(v_uncond, v_cond, scale, out=out)


def _require_finite(z: np.ndarray, where: str) -> None:
    if not np.isfinite(z).all():
        raise NonFiniteState(f"non-finite state at {where}")


def euler_sample(
    oracle: VelocityOracle,
    condition,
    config: FlowEditConfig,
    rng: np.random.Generator | None = None,
    start: np.ndarray | None = None,
) -> np.ndarray:
    """Plain Euler sampling of the guided field from t=1 down to t=0.

    ``start`` is the state at t=1; when omitted it is drawn standard
    normal from ``rng`` at the oracle's dimension.  A leading batch axis
    on ``start`` integrates many trajectories at once.
    """
    if start is None:
        if rng is None:
            raise ValueError("need either a start state or an rng to draw one")
        start = rng.standard_normal(oracle.dim)
    z = np.asarray(start, dtype=np.float64).copy()
    _require_finite(z, "start")
    ts = linear_schedule(config.steps)
    for i in range(config.steps, 0, -1):
        v = _guided(oracle, z, ts[i], condition, config.cfg_target_scale)
        z = z + (ts[i - 1] - ts[i]) * v
        _require_finite(z, f"step {i} (t={ts[i]:.6g})")
    return z


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

    On states of at least ``_OVERLAP_MIN`` values the noise is drawn on a
    helper thread that this call owns and joins before it returns or
    raises (see :class:`VelocityOracle`), with the same output bits.

    ``on_step`` (optional) receives a dict per step for transcripts.
    """
    x_src = np.asarray(x_src, dtype=np.float64).reshape(-1)
    _require_finite(x_src, "source state")
    ts = linear_schedule(config.steps)
    z = x_src.copy()
    n = z.shape[0]
    keys = [(i, k) for i in range(config.n_max, config.n_min, -1) for k in range(config.n_avg)]
    overlap = bool(keys) and n >= _OVERLAP_MIN

    with ThreadPoolExecutor(max_workers=1) if overlap else contextlib.nullcontext() as helper:
        noise = _noise(config.rng_seed, keys, n, helper)
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

    for i in range(config.n_min, 0, -1):
        t = ts[i]
        v = _guided(oracle, z, t, tgt_condition, config.cfg_target_scale)
        z = z + (ts[i - 1] - t) * v
        _require_finite(z, f"plain step {i} (t={t:.6g})")
        if on_step is not None:
            on_step({"step": i, "t": t, "dv_norm": float(np.linalg.norm(v)), "z_norm": float(np.linalg.norm(z))})

    return z
