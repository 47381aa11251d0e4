import numpy as np
import pytest

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

from oracles import snis_posterior_mean


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
    oracle = DeltaVelocityOracle({"c": np.array([1.0, 2.0])})
    cfg = FlowEditConfig(steps=5, n_max=5)
    out = euler_sample(oracle, "c", cfg, rng=np.random.default_rng(7))
    assert np.abs(out - np.array([1.0, 2.0])).max() < 1e-9
    with pytest.raises(ValueError):
        euler_sample(oracle, "c", cfg)


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
