import dataclasses
import hashlib
import sys
import threading
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from voxedit import flow
from voxedit import (
    AffineGaussianVelocityOracle,
    DeltaVelocityOracle,
    DimensionMismatch,
    FlowEditConfig,
    NonFiniteState,
    cfg_combine,
    euler_sample,
    flowedit_run,
    linear_schedule,
)

from oracles import flowedit_run_sequential, snis_posterior_mean


class RecordingOracle:
    """Wraps an oracle and records every evaluation time."""

    def __init__(self, inner):
        self.inner = inner
        self.times = []

    @property
    def dim(self):
        return self.inner.dim

    def evaluate(self, z, t, condition, conditioned=True):
        self.times.append(t)
        return self.inner.evaluate(z, t, condition, conditioned)


# --- schedule ------------------------------------------------------------


def test_schedule_default_values():
    ts = linear_schedule(25)
    assert ts[0] == 0.0
    assert ts[15] == pytest.approx(0.6)
    assert ts[25] == 1.0


def test_schedule_single_step():
    assert linear_schedule(1).tolist() == [0.0, 1.0]


def test_schedule_strictly_increasing():
    for n in (1, 2, 7, 25, 100):
        ts = linear_schedule(n)
        assert len(ts) == n + 1
        assert (np.diff(ts) > 0).all()
        assert ts[0] == 0.0 and ts[-1] == 1.0


# --- cfg -----------------------------------------------------------------


def test_cfg_scale_one_is_conditional():
    v_u = np.array([1.0, 2.0])
    v_c = np.array([3.0, -1.0])
    assert np.array_equal(cfg_combine(v_u, v_c, 1.0), v_c)


def test_cfg_scale_zero_is_unconditional():
    v_u = np.array([1.0, 2.0])
    v_c = np.array([3.0, -1.0])
    assert np.array_equal(cfg_combine(v_u, v_c, 0.0), v_u)


def test_cfg_extrapolates():
    assert cfg_combine(np.zeros(1), np.ones(1), 5.5)[0] == pytest.approx(5.5)


def test_cfg_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        cfg_combine(np.zeros(2), np.zeros(3), 1.0)


# --- config validation ------------------------------------------------------


def test_config_defaults():
    cfg = FlowEditConfig()
    assert (cfg.steps, cfg.n_max, cfg.n_min, cfg.n_avg) == (25, 15, 0, 5)
    assert (cfg.cfg_source_scale, cfg.cfg_target_scale) == (1.5, 5.5)
    assert cfg.lambda_src == 1.0


@pytest.mark.parametrize(
    "fields",
    [
        {"steps": 0},
        {"n_max": 30},
        {"n_min": 20},
        {"n_avg": 0},
        {"cfg_target_scale": float("nan")},
        {"lambda_src": float("inf")},
        # values a --config file may hold
        {"steps": "10"},
        {"n_avg": 2.0},
        {"rng_seed": True},
        {"rng_seed": -1},
        {"rng_seed": 2**64},
        {"lambda_src": None},
    ],
)
def test_config_rejects_invalid(fields):
    with pytest.raises(ValueError):
        FlowEditConfig(**fields)


# --- analytic oracles ----------------------------------------------------------


def test_delta_velocity_formula():
    oracle = DeltaVelocityOracle({"c": np.array([0.0])})
    assert oracle.evaluate(np.array([1.0]), 0.5, "c")[0] == pytest.approx(2.0)


@pytest.mark.parametrize("make", [
    lambda v: DeltaVelocityOracle({"src": [0.0, 1.0], "tgt": [v, 0.0]}),
    lambda v: AffineGaussianVelocityOracle({"src": [0.0], "tgt": [v]}, {"src": 1.0, "tgt": 1.0}),
    lambda v: AffineGaussianVelocityOracle({"src": [0.0], "tgt": [1.0]}, {"src": 1.0, "tgt": v}),
])
def test_oracles_reject_non_finite_parameters(make):
    for bad in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(ValueError, match="'tgt'"):
            make(bad)
    make(0.5)


def test_oracles_need_conditions_of_one_dimension():
    for make in (DeltaVelocityOracle, lambda m: AffineGaussianVelocityOracle(m, dict.fromkeys(m, 1.0))):
        with pytest.raises(ValueError, match="at least one condition"):
            make({})
        with pytest.raises(DimensionMismatch, match=r"mixed dimension \[1, 2\]"):
            make({"a": [0.0], "b": [0.0, 1.0]})


def test_gaussian_variances_are_finite_positive_reals():
    for bad in (True, "2", None, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="variance of condition 'c'"):
            AffineGaussianVelocityOracle({"c": [0.0]}, {"c": bad})
    for bad in (0.0, -1.0):
        with pytest.raises(ValueError, match="variances must be > 0"):
            AffineGaussianVelocityOracle({"c": [0.0]}, {"c": bad})


def test_delta_rejects_nonpositive_time():
    oracle = DeltaVelocityOracle({"c": np.array([0.0])})
    for t in (0.0, -0.5):
        with pytest.raises(ValueError):
            oracle.evaluate(np.array([1.0]), t, "c")


def test_delta_rejects_a_state_of_the_wrong_dimension():
    oracle = DeltaVelocityOracle({"c": np.zeros(4)})
    for z in (np.ones(1), np.ones(3), np.ones((2, 5))):
        with pytest.raises(DimensionMismatch):
            oracle.evaluate(z, 0.5, "c")
    assert oracle.evaluate(np.ones((2, 4)), 0.5, "c").shape == (2, 4)
    # a one-value anchor broadcasts over states of any length
    assert DeltaVelocityOracle({"c": [1.0]}).evaluate(np.zeros(3), 0.5, "c").tolist() == [-2.0] * 3


def test_gaussian_rejects_a_state_of_the_wrong_dimension():
    oracle = AffineGaussianVelocityOracle({"c": np.zeros(3)}, {"c": 1.0})
    for z in (np.ones(1), np.ones(4)):
        with pytest.raises(DimensionMismatch):
            oracle.evaluate(z, 0.5, "c")
    assert oracle.evaluate(np.ones(3), 0.5, "c").shape == (3,)
    one = AffineGaussianVelocityOracle({"c": [0.0]}, {"c": 1.0})
    assert one.evaluate(np.ones(5), 1.0, "c").tolist() == [1.0] * 5


def test_gaussian_velocity_at_noise_end():
    # at t=1 the posterior mean is the prior mean; with mu=0 that gives v=z
    oracle = AffineGaussianVelocityOracle({"c": np.array([0.0])}, {"c": 2.0})
    z = np.array([1.7])
    assert oracle.evaluate(z, 1.0, "c")[0] == pytest.approx(z[0])
    with_mu = AffineGaussianVelocityOracle({"c": np.array([3.0])}, {"c": 2.0})
    assert with_mu.evaluate(z, 1.0, "c")[0] == pytest.approx(z[0] - 3.0)


def test_gaussian_posterior_mean_matches_monte_carlo():
    mu, var = 1.5, 0.8
    oracle = AffineGaussianVelocityOracle({"c": np.array([mu])}, {"c": var})
    for t, z_star, seed in ((0.3, 1.2, 0), (0.6, -0.4, 1), (0.9, 2.5, 2)):
        analytic = float(oracle.posterior_mean(np.array([z_star]), t, "c")[0])
        estimate, se = snis_posterior_mean(z_star, t, mu, var, n_draws=100_000, seed=seed)
        assert abs(estimate - analytic) < 3 * se


# --- euler_sample -----------------------------------------------------------------


def test_euler_single_step_lands_on_anchor_exactly():
    anchor = np.array([3.25])
    oracle = DeltaVelocityOracle({"c": anchor})
    cfg = FlowEditConfig(steps=1, n_max=1)
    eps = np.array([17.5])
    out = euler_sample(oracle, "c", cfg, start=eps)
    # z = eps + (0 - 1) * (eps - x) = x with no rounding residue
    assert out[0] == anchor[0]


def test_euler_delta_hits_anchor_from_100_random_starts():
    rng = np.random.default_rng(40)
    anchor = rng.standard_normal(4)
    oracle = DeltaVelocityOracle({"c": anchor})
    cfg = FlowEditConfig(steps=25, n_max=15)
    starts = rng.standard_normal((100, 4)) * 5
    out = euler_sample(oracle, "c", cfg, start=starts)
    assert np.abs(out - anchor).max() < 1e-9


def test_euler_never_evaluates_at_nonpositive_time():
    oracle = RecordingOracle(DeltaVelocityOracle({"c": np.array([0.0])}))
    euler_sample(oracle, "c", FlowEditConfig(steps=25, n_max=15), start=np.array([1.0]))
    assert min(oracle.times) > 0.0
    assert len(oracle.times) == 2 * 25  # uncond + cond per step


def test_euler_draws_start_from_rng():
    # without a start, the start is the first draw of np.random.default_rng(config.rng_seed)
    oracle = AffineGaussianVelocityOracle({"c": np.array([1.0, 2.0])}, {"c": 0.5})
    cfg = FlowEditConfig(steps=5, n_max=5, rng_seed=7)
    out = euler_sample(oracle, "c", cfg)
    assert np.array_equal(out, euler_sample(oracle, "c", cfg, start=np.random.default_rng(7).standard_normal(2)))
    assert not np.array_equal(out, euler_sample(oracle, "c", dataclasses.replace(cfg, rng_seed=8)))


def test_euler_gaussian_moments_match_within_3se():
    mu, var = 3.0, 4.0
    oracle = AffineGaussianVelocityOracle({"c": np.array([mu])}, {"c": var})
    # Euler discretization shrinks the variance by O(1/steps); 400 steps
    # keeps that bias well inside the Monte-Carlo band
    cfg = FlowEditConfig(steps=400, n_max=400)
    n_runs = 10_000
    rng = np.random.default_rng(41)
    starts = rng.standard_normal((n_runs, 1))
    out = euler_sample(oracle, "c", cfg, start=starts)[:, 0]
    se_mean = np.sqrt(var / n_runs)
    assert abs(out.mean() - mu) < 3 * se_mean
    se_var = var * np.sqrt(2.0 / n_runs)
    assert abs(out.var(ddof=1) - var) < 3 * se_var


def test_euler_aborts_on_nonfinite():
    class ExplodingOracle:
        dim = 1

        def evaluate(self, z, t, condition, conditioned=True):
            return np.full_like(np.asarray(z, dtype=float), np.nan)

    with pytest.raises(NonFiniteState):
        euler_sample(ExplodingOracle(), "c", FlowEditConfig(steps=3, n_max=3), start=np.array([1.0]))


# --- flowedit_run ------------------------------------------------------------------


def paper_config(seed=0, **overrides):
    fields = dict(steps=25, n_max=15, n_min=0, n_avg=5, rng_seed=seed)
    fields.update(overrides)
    return FlowEditConfig(**fields)


def test_identity_edit_returns_source():
    rng = np.random.default_rng(42)
    anchors = {"same": rng.standard_normal(3)}
    oracle = DeltaVelocityOracle(anchors)
    for seed in (0, 1, 12345):
        x_src = rng.standard_normal(3)
        out = flowedit_run(x_src, "same", "same", oracle, paper_config(seed))
        assert np.abs(out - x_src).max() < 1e-9


def test_identity_edit_on_gaussian_oracle():
    oracle = AffineGaussianVelocityOracle({"c": np.array([0.5, -1.0])}, {"c": 2.0})
    x_src = np.array([4.0, -2.0])
    out = flowedit_run(x_src, "c", "c", oracle, paper_config(9))
    assert np.abs(out - x_src).max() < 1e-9


def test_identity_edit_random_valid_configs():
    rng = np.random.default_rng(43)
    oracle = DeltaVelocityOracle({"c": np.array([2.0])})
    for _ in range(30):
        steps = int(rng.integers(1, 40))
        n_max = int(rng.integers(0, steps + 1))
        n_avg = int(rng.integers(1, 8))
        cfg = FlowEditConfig(steps=steps, n_max=n_max, n_min=0, n_avg=n_avg,
                             rng_seed=int(rng.integers(0, 2**32)))
        x_src = rng.standard_normal(2)
        out = flowedit_run(x_src, "c", "c", oracle, cfg)
        assert np.abs(out - x_src).max() < 1e-9


def test_scalar_displacement_example():
    oracle = DeltaVelocityOracle({"src": np.array([0.0]), "tgt": np.array([1.0])})
    out = flowedit_run(np.array([0.0]), "src", "tgt", oracle, paper_config(3))
    assert abs(out[0] - 1.0) < 1e-6


def test_displacement_shift_example():
    oracle = DeltaVelocityOracle({"src": np.array([2.0]), "tgt": np.array([5.0])})
    out = flowedit_run(np.array([7.0]), "src", "tgt", oracle, paper_config(4))
    assert abs(out[0] - 10.0) < 1e-6


def test_displacement_law_random_tuples():
    rng = np.random.default_rng(44)
    for _ in range(100):
        d = int(rng.integers(1, 5))
        x_src = rng.standard_normal(d) * 3
        x_s = rng.standard_normal(d) * 2
        x_g = rng.standard_normal(d) * 2
        oracle = DeltaVelocityOracle({"src": x_s, "tgt": x_g})
        cfg = paper_config(int(rng.integers(0, 2**32)))
        out = flowedit_run(x_src, "src", "tgt", oracle, cfg)
        assert np.abs((out - x_src) - (x_g - x_s)).max() < 1e-6


def test_seed_invariance_on_delta_oracle():
    oracle = DeltaVelocityOracle({"src": np.array([0.5, 1.5]), "tgt": np.array([-1.0, 2.0])})
    x_src = np.array([1.0, -1.0])
    outs = [flowedit_run(x_src, "src", "tgt", oracle, paper_config(seed))
            for seed in (0, 1, 2, 999, 2**61)]
    for out in outs[1:]:
        assert np.abs(out - outs[0]).max() < 1e-9


def test_n_avg_invariance_on_delta_oracle():
    oracle = DeltaVelocityOracle({"src": np.array([0.0]), "tgt": np.array([2.0])})
    x_src = np.array([0.25])
    outs = [flowedit_run(x_src, "src", "tgt", oracle, paper_config(7, n_avg=n))
            for n in (1, 5, 20)]
    for out in outs[1:]:
        assert abs(out[0] - outs[0][0]) < 1e-9


def test_n_min_equal_n_max_degenerates_to_target_sampling():
    # with no edit steps, the plain tail integrates the target field from
    # x_src at t_{n_max}; on a delta oracle that lands exactly on the anchor
    oracle = DeltaVelocityOracle({"src": np.array([2.0]), "tgt": np.array([5.0])})
    cfg = paper_config(8, n_min=15)
    out = flowedit_run(np.array([7.0]), "src", "tgt", oracle, cfg)
    assert abs(out[0] - 5.0) < 1e-9


def test_n_max_zero_returns_source_unchanged():
    oracle = DeltaVelocityOracle({"src": np.array([0.0]), "tgt": np.array([9.0])})
    cfg = paper_config(5, n_max=0)
    out = flowedit_run(np.array([1.25]), "src", "tgt", oracle, cfg)
    assert out[0] == 1.25


def test_flowedit_never_evaluates_at_nonpositive_time():
    inner = DeltaVelocityOracle({"src": np.array([0.0]), "tgt": np.array([1.0])})
    oracle = RecordingOracle(inner)
    flowedit_run(np.array([0.0]), "src", "tgt", oracle, paper_config(11, n_min=3))
    assert min(oracle.times) > 0.0


def test_flowedit_reproducible_bitwise():
    oracle = AffineGaussianVelocityOracle(
        {"src": np.array([0.0, 1.0]), "tgt": np.array([2.0, -1.0])},
        {"src": 1.0, "tgt": 0.5},
    )
    x_src = np.array([0.3, -0.7])
    a = flowedit_run(x_src, "src", "tgt", oracle, paper_config(21))
    b = flowedit_run(x_src, "src", "tgt", oracle, paper_config(21))
    assert a.tobytes() == b.tobytes()


def test_flowedit_transcript_records_steps():
    oracle = DeltaVelocityOracle({"src": np.array([0.0]), "tgt": np.array([1.0])})
    rows = []
    flowedit_run(np.array([0.0]), "src", "tgt", oracle, paper_config(1), on_step=rows.append)
    assert len(rows) == 15
    assert [r["step"] for r in rows] == list(range(15, 0, -1))
    assert all(set(r) == {"step", "t", "dv_norm", "z_norm"} for r in rows)


def test_flowedit_rejects_nonfinite_source():
    oracle = DeltaVelocityOracle({"src": np.array([0.0]), "tgt": np.array([1.0])})
    with pytest.raises(NonFiniteState):
        flowedit_run(np.array([np.nan]), "src", "tgt", oracle, paper_config(0))


# --- flowedit_run against the sequential reference ----------------------------------


class CallLog:
    """Wraps an oracle and logs every call as (t, condition, conditioned),
    plus the thread it ran on and the live thread count."""

    def __init__(self, inner):
        self.inner = inner
        self.calls = []
        self.threads = set()
        self.thread_counts = set()

    def evaluate(self, z, t, condition, conditioned=True):
        self.calls.append((t, condition, conditioned))
        self.threads.add(threading.get_ident())
        self.thread_counts.add(threading.active_count())
        return self.inner.evaluate(z, t, condition, conditioned)


class Float32Oracle:
    def __init__(self, inner):
        self.inner = inner

    def evaluate(self, z, t, condition, conditioned=True):
        return self.inner.evaluate(z, t, condition, conditioned).astype(np.float32)


class BroadcastOracle:
    """Answers one value that broadcasts over the state: shape (1,)."""

    def evaluate(self, z, t, condition, conditioned=True):
        shift = {"src": 0.5, "tgt": -1.25}[condition] + (0.0 if conditioned else 0.125)
        return np.array([np.sum(z) * 1e-3 + shift / t])


def make_oracle(kind, n, rng):
    if kind == "broadcast":
        return BroadcastOracle()
    if kind == "delta":
        return DeltaVelocityOracle({"src": rng.standard_normal(n), "tgt": rng.standard_normal(n)})
    gaussian = AffineGaussianVelocityOracle({"src": rng.standard_normal(n), "tgt": rng.standard_normal(n)},
                                            {"src": 0.5 + rng.random(), "tgt": 0.5 + rng.random()})
    return Float32Oracle(gaussian) if kind == "float32" else gaussian


def run_logged(run, x_src, oracle, cfg):
    log, rows = CallLog(oracle), []
    out = run(x_src, "src", "tgt", log, cfg, on_step=rows.append)
    return out, rows, log.calls


@st.composite
def flowedit_cases(draw):
    steps = draw(st.integers(1, 8))
    n_max = draw(st.integers(0, steps))
    n_min = draw(st.integers(0, n_max))
    scale = st.floats(-2.0, 6.0)
    cfg = FlowEditConfig(steps=steps, n_max=n_max, n_min=n_min, n_avg=draw(st.integers(1, 3)),
                         cfg_source_scale=draw(scale), cfg_target_scale=draw(scale),
                         lambda_src=draw(st.sampled_from([1.0, 0.0, 0.75, -1.5])),
                         rng_seed=draw(st.integers(0, 2**63)))
    n = draw(st.sampled_from([0, 1, 3, 1 << 14]))
    kind = draw(st.sampled_from(["delta", "gaussian", "float32", "broadcast"]))
    return cfg, n, kind, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=120, deadline=None)
@given(flowedit_cases(), st.booleans())
def test_flowedit_bits_transcript_and_calls_equal_the_sequential_reference(case, always_overlap):
    # always_overlap sends every size, 0 included, through the helper thread
    cfg, n, kind, seed = case
    rng = np.random.default_rng(seed)
    oracle = make_oracle(kind, n, rng)
    x_src = rng.standard_normal(n)
    expected = run_logged(flowedit_run_sequential, x_src, oracle, cfg)
    with mock.patch.object(flow, "_OVERLAP_MIN", 0 if always_overlap else flow._OVERLAP_MIN):
        out, rows, calls = run_logged(flowedit_run, x_src, oracle, cfg)
    assert np.array_equal(out.view(np.uint64), expected[0].view(np.uint64))
    assert rows == expected[1]
    assert calls == expected[2]


def test_flowedit_variants_equal_the_sequential_reference():
    # named corners of the property above: no draws, one draw per step, both paths
    rng = np.random.default_rng(45)
    for n in (0, 1, 3, 1 << 14):
        oracle = make_oracle("gaussian", n, rng)
        x_src = rng.standard_normal(n)
        for fields in ({"n_min": 15}, {"n_avg": 1}, {"n_min": 4, "lambda_src": 0.5}, {"rng_seed": 2**63}):
            cfg = paper_config(3, steps=16, n_max=15, **{"n_avg": 2} | fields)
            out, rows, calls = run_logged(flowedit_run, x_src, oracle, cfg)
            ref, ref_rows, ref_calls = run_logged(flowedit_run_sequential, x_src, oracle, cfg)
            assert out.tobytes() == ref.tobytes(), (n, fields)
            assert (rows, calls) == (ref_rows, ref_calls), (n, fields)


def test_flowedit_output_digests_are_pinned():
    # the bytes flowedit_run gave when each draw was made inline
    rng = np.random.default_rng(5)
    oracle = AffineGaussianVelocityOracle({"src": rng.standard_normal(3), "tgt": rng.standard_normal(3)},
                                          {"src": 0.5, "tgt": 2.0})
    cfg = FlowEditConfig(steps=25, n_max=15, n_min=3, n_avg=5, lambda_src=0.75, rng_seed=2**63 - 5)
    small = flowedit_run(rng.standard_normal(3), "src", "tgt", oracle, cfg)
    assert hashlib.sha256(small.tobytes()).hexdigest() == \
        "e3cba0e7fa89505c57f219bf71ea2fbcc63016129360fc3132dd5d76be86b143"

    rng = np.random.default_rng(6)
    n = 1 << 14
    oracle = AffineGaussianVelocityOracle({"src": rng.standard_normal(n), "tgt": rng.standard_normal(n)},
                                          {"src": 1.5, "tgt": 0.5})
    cfg = FlowEditConfig(steps=12, n_max=8, n_min=2, n_avg=3, rng_seed=7)
    large = flowedit_run(rng.standard_normal(n), "src", "tgt", oracle, cfg)
    assert hashlib.sha256(large.tobytes()).hexdigest() == \
        "6318052b64567d9fd8456c1e018db092edb3f4b1e1d758b492ffb748e4ad818f"


# --- flowedit_run's helper thread and the oracle contract ----------------------------


def small_and_large_runs():
    rng = np.random.default_rng(46)
    for n in (3, flow._OVERLAP_MIN):
        yield n, DeltaVelocityOracle({"src": rng.standard_normal(n), "tgt": rng.standard_normal(n)}), \
            rng.standard_normal(n)


def test_flowedit_evaluates_on_the_calling_thread_and_joins_its_helper():
    before = threading.active_count()
    for n, inner, x_src in small_and_large_runs():
        oracle = CallLog(inner)
        flowedit_run(x_src, "src", "tgt", oracle, paper_config(1, steps=6, n_max=6, n_avg=2))
        assert oracle.threads == {threading.get_ident()}, n
        # one helper while drawing above the threshold; no thread at all below it
        assert oracle.thread_counts == ({before + 1} if n >= flow._OVERLAP_MIN else {before}), n
        assert threading.active_count() == before, n


def test_flowedit_joins_its_helper_when_it_raises():
    class Failing:
        def __init__(self, inner, fail_at, nan):
            self.inner, self.fail_at, self.nan, self.calls = inner, fail_at, nan, 0

        def evaluate(self, z, t, condition, conditioned=True):
            self.calls += 1
            v = self.inner.evaluate(z, t, condition, conditioned)
            if self.calls < self.fail_at:
                return v
            if self.nan:
                return np.full_like(v, np.nan)
            raise RuntimeError(f"oracle failed at call {self.calls}")

    before = threading.active_count()
    cfg = paper_config(2, steps=6, n_max=4, n_min=1, n_avg=3)
    for n, inner, x_src in small_and_large_runs():
        for fail_at in (1, 5, 22):  # the first draw, a later draw, the last step's
            with pytest.raises(RuntimeError, match=f"call {fail_at}$"):
                flowedit_run(x_src, "src", "tgt", Failing(inner, fail_at, nan=False), cfg)
            assert threading.active_count() == before, (n, fail_at)
            with pytest.raises(NonFiniteState):
                flowedit_run(x_src, "src", "tgt", Failing(inner, fail_at, nan=True), cfg)
            assert threading.active_count() == before, (n, fail_at)


def test_concurrent_flowedit_runs_keep_the_reference_bits():
    # three calls at once, each with its own helper: six threads on two
    # CPUs and a short switch interval; a buffer written while it is
    # read would change the bits
    rng = np.random.default_rng(48)
    n = flow._OVERLAP_MIN
    oracle = make_oracle("gaussian", n, rng)
    cfg = paper_config(5, steps=8, n_max=6, n_avg=3)
    xs = [rng.standard_normal(n) for _ in range(3)]
    expected = [flowedit_run_sequential(x, "src", "tgt", oracle, cfg).tobytes() for x in xs]
    results = [None] * len(xs)

    def work(j):
        results[j] = flowedit_run(xs[j], "src", "tgt", oracle, cfg).tobytes()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=work, args=(j,)) for j in range(len(xs))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)
    finally:
        sys.setswitchinterval(interval)
    assert results == expected


def test_flowedit_never_writes_what_the_oracle_keeps_or_returns():
    class Keeping:
        def __init__(self, n):
            self.cache = np.linspace(-1.0, 1.0, n)
            self.cache_copy = self.cache.copy()
            self.kept = []

        def evaluate(self, z, t, condition, conditioned=True):
            self.kept.append((z, z.copy()))
            return self.cache

    for n, _, x_src in small_and_large_runs():
        oracle = Keeping(n)
        x_copy = x_src.copy()
        flowedit_run(x_src, "src", "tgt", oracle, paper_config(4, steps=5, n_max=3, n_min=1, n_avg=2))
        assert len(oracle.kept) == 2 * 2 * 4 + 1 * 2  # edit steps x draws x calls, plain steps x calls
        assert all(np.array_equal(z, copy) for z, copy in oracle.kept), n
        assert np.array_equal(oracle.cache, oracle.cache_copy), n
        assert np.array_equal(x_src, x_copy), n


def test_oracles_divide_their_difference_with_the_bits_of_the_formula():
    rng = np.random.default_rng(47)
    a, m, z = rng.standard_normal((3, 257))
    for t in (1.0, 0.6, 1 / 3, 1e-3):
        delta = DeltaVelocityOracle({"c": a}).evaluate(z, t, "c")
        assert delta.tobytes() == ((z - a) / t).tobytes()
        gaussian = AffineGaussianVelocityOracle({"c": m}, {"c": 0.7})
        expected = (z - gaussian.posterior_mean(z, t, "c")) / t
        assert gaussian.evaluate(z, t, "c").tobytes() == expected.tobytes()
