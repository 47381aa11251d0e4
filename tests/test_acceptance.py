"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as the
criteria execute.
"""
import dataclasses
import functools
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from voxedit import (
    FlowEditConfig,
    AffineGaussianVelocityOracle,
    DeltaVelocityOracle,
    ManifestRecord,
    Threshold,
    TopK,
    append_record,
    apply_flip,
    diff_xor,
    euler_sample,
    flowedit_run,
    label_components,
    load_manifest,
    make_latent,
    make_sparse,
    mock_backend_suite,
    read_nvx,
    region_consistency,
    render_instruction,
    run_pipeline,
    select_components,
    slat_merge,
    voxel_merge,
)
from voxedit.errors import NvxError
from voxedit.nvx import decode_nvx, encode_nvx

from oracles import bfs_components, canonical_component_order, dense, random_structure_coords, split_components


def criterion(num, title):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException as exc:
                print(f"ACCEPTANCE {num:02d} {title}: FAIL ({exc})")
                raise
            print(f"ACCEPTANCE {num:02d} {title}: PASS")

        return wrapper

    return deco


def random_structure(rng, resolution, density):
    return make_sparse(random_structure_coords(rng, resolution, density), resolution)


def dense_mask(mask, resolution):
    grid = np.zeros((resolution,) * 3, dtype=bool)
    if mask.voxel_sum:
        grid[mask.coords[:, 0], mask.coords[:, 1], mask.coords[:, 2]] = True
    return grid


# --- criteria 1 + 2 share one 1000-pair suite -------------------------------


@pytest.fixture(scope="module")
def merge_suite():
    rng = np.random.default_rng(2024)
    mismatches = 0
    reports = []
    t0 = time.perf_counter()
    for i in range(1000):
        src = random_structure(rng, 16, rng.uniform(0.01, 0.5))
        tgt = random_structure(rng, 16, rng.uniform(0.01, 0.5))
        src_d, tgt_d = dense(src), dense(tgt)
        policies = (Threshold(int(rng.integers(0, 120))), TopK(int(rng.integers(0, 6))))
        for connectivity in (6, 18, 26):
            for policy in policies:
                policy = dataclasses.replace(policy, connectivity=connectivity)
                merged, mask = voxel_merge(src, tgt, policy=policy)
                expected = np.where(dense_mask(mask, 16), tgt_d, src_d)
                if not np.array_equal(dense(merged), expected):
                    mismatches += 1
                reports.append(region_consistency(src, tgt, merged, mask))
    elapsed = time.perf_counter() - t0
    return mismatches, reports, elapsed


@criterion(1, "merge matches dense per-voxel oracle on 1000 random pairs")
def test_criterion_01_merge_oracle_equivalence(merge_suite):
    mismatches, reports, elapsed = merge_suite
    assert mismatches == 0, f"{mismatches} merges disagreed with the dense oracle"
    assert len(reports) == 6000
    assert elapsed < 60.0, f"suite took {elapsed:.1f}s (budget 60s)"


@criterion(2, "every merge output preserves non-edited regions exactly")
def test_criterion_02_structure_preservation(merge_suite):
    _, reports, _ = merge_suite
    bad = [r for r in reports if not (r.outside_mask_iou == 1.0 and r.inside_mask_match_fraction == 1.0)]
    assert not bad, f"{len(bad)} of {len(reports)} reports below (1.0, 1.0)"


@criterion(3, "component labeling agrees with BFS oracle; ordering deterministic")
def test_criterion_03_connected_components(merge_suite):
    rng = np.random.default_rng(2025)
    diffs = []
    for _ in range(500):
        s = random_structure(rng, 16, rng.uniform(0.01, 0.5))
        diffs.append(diff_xor(make_sparse([], 16), s))
    for d in diffs:
        for connectivity in (6, 18, 26):
            cs = label_components(d, connectivity)
            got = [frozenset(map(tuple, c.tolist())) for c in split_components(cs)]
            want = canonical_component_order(bfs_components(d.coords, 16, connectivity), 16)
            assert got == want

    def run(d):
        return [c.tolist() for c in split_components(label_components(d, 26))]

    serial = [run(d) for d in diffs[:100]]
    with ThreadPoolExecutor(max_workers=8) as pool:
        parallel = list(pool.map(run, diffs[:100]))
    assert serial == parallel


@criterion(4, "tau ablation selects {150}/{150,60}/{150,60,40}; masks monotone in tau")
def test_criterion_04_tau_ablation():
    boxes = {
        150: ((0, 0, 0), (6, 5, 5)),
        60: ((9, 0, 0), (5, 4, 3)),
        40: ((0, 8, 8), (5, 2, 4)),
        12: ((10, 10, 10), (3, 2, 2)),
    }
    coords = []
    for size, ((ox, oy, oz), (sx, sy, sz)) in boxes.items():
        assert sx * sy * sz == size
        coords += [(ox + i, oy + j, oz + k)
                   for i in range(sx) for j in range(sy) for k in range(sz)]
    d = diff_xor(make_sparse([], 16), make_sparse(coords, 16))
    cs = label_components(d, 26)
    assert cs.sizes == [150, 60, 40, 12]
    for tau, expected in ((100, (150,)), (50, (150, 60)), (30, (150, 60, 40))):
        assert select_components(cs, Threshold(tau)).selected_sizes == expected

    rng = np.random.default_rng(2026)
    for _ in range(200):
        s = random_structure(rng, 16, rng.uniform(0.01, 0.4))
        cs = label_components(diff_xor(make_sparse([], 16), s), 26)
        t_low, t_high = sorted(rng.integers(0, 80, size=2))
        m_high = set(map(tuple, select_components(cs, Threshold(int(t_high))).coords.tolist()))
        m_low = set(map(tuple, select_components(cs, Threshold(int(t_low))).coords.tolist()))
        assert m_high <= m_low


@criterion(5, "flowedit displacement exact to 1e-6; identity and seeds to 1e-9")
def test_criterion_05_flowedit_exactness():
    rng = np.random.default_rng(2027)
    t0 = time.perf_counter()
    for _ in range(100):
        d = int(rng.integers(1, 4))
        x_src = rng.standard_normal(d) * 3
        x_s = rng.standard_normal(d) * 2
        x_g = rng.standard_normal(d) * 2
        seed = int(rng.integers(0, 2**63))
        oracle = DeltaVelocityOracle({"src": x_s, "tgt": x_g})
        cfg = FlowEditConfig(steps=25, n_max=15, n_min=0, n_avg=5, lambda_src=1.0, rng_seed=seed)
        out = flowedit_run(x_src, "src", "tgt", oracle, cfg)
        assert np.abs((out - x_src) - (x_g - x_s)).max() < 1e-6

        identity = flowedit_run(x_src, "src", "src", DeltaVelocityOracle({"src": x_s}), cfg)
        assert np.abs(identity - x_src).max() < 1e-9

        out2 = flowedit_run(x_src, "src", "tgt", oracle,
                            FlowEditConfig(steps=25, n_max=15, n_min=0, n_avg=5,
                                           rng_seed=(seed + 1) % 2**63))
        assert np.abs(out2 - out).max() < 1e-9
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0, f"took {elapsed:.2f}s (budget 5s)"


@criterion(6, "euler sampler hits delta anchors; gaussian moments within 3 SE")
def test_criterion_06_euler_sampler():
    rng = np.random.default_rng(2028)
    anchor = rng.standard_normal(3)
    oracle = DeltaVelocityOracle({"c": anchor})
    starts = rng.standard_normal((100, 3)) * 10
    out = euler_sample(oracle, "c", FlowEditConfig(steps=25, n_max=15), start=starts)
    assert np.abs(out - anchor).max() < 1e-9

    mu, var = 3.0, 4.0
    g_oracle = AffineGaussianVelocityOracle({"c": np.array([mu])}, {"c": var})
    n_runs = 10_000
    starts = rng.standard_normal((n_runs, 1))
    # 400 steps: Euler's O(1/N) variance shrinkage stays well inside the band
    out = euler_sample(g_oracle, "c", FlowEditConfig(steps=400, n_max=400), start=starts)[:, 0]
    assert abs(out.mean() - mu) < 3 * np.sqrt(var / n_runs)
    assert abs(out.var(ddof=1) - var) < 3 * var * np.sqrt(2.0 / n_runs)


@criterion(7, "slat merge provenance bitwise on 500 random triples")
def test_criterion_07_slat_provenance():
    rng = np.random.default_rng(2029)
    for _ in range(500):
        src = random_structure(rng, 8, rng.uniform(0.02, 0.3))
        tgt = random_structure(rng, 8, rng.uniform(0.02, 0.3))
        z_src = make_latent(src.coords, rng.standard_normal((src.voxel_sum, 8)).astype(np.float32), 8)
        z_tgt = make_latent(tgt.coords, rng.standard_normal((tgt.voxel_sum, 8)).astype(np.float32), 8)
        cs = label_components(diff_xor(src, tgt), 26)
        mask = select_components(cs, TopK(int(rng.integers(0, len(cs.sizes) + 1))))
        merged = apply_flip(src, mask)
        out = slat_merge(z_src, z_tgt, mask, merged)
        assert np.array_equal(out.coords, merged.coords)
        mask_set = set(map(tuple, mask.coords.tolist()))
        src_idx = {tuple(c): i for i, c in enumerate(z_src.coords.tolist())}
        tgt_idx = {tuple(c): i for i, c in enumerate(z_tgt.coords.tolist())}
        for i, coord in enumerate(map(tuple, out.coords.tolist())):
            donor = (z_tgt, tgt_idx) if coord in mask_set else (z_src, src_idx)
            assert out.latents[i].tobytes() == donor[0].latents[donor[1][coord]].tobytes()

    # empty mask returns the source latents bitwise
    src = random_structure(rng, 8, 0.2)
    z_src = make_latent(src.coords, rng.standard_normal((src.voxel_sum, 8)).astype(np.float32), 8)
    mask = select_components(label_components(diff_xor(src, src), 26), Threshold(0))
    out = slat_merge(z_src, z_src, mask, src)
    assert out.latents.tobytes() == z_src.latents.tobytes()


@criterion(8, "nvx round-trip bit-exact; corruption detected; manifest field-exact")
def test_criterion_08_codec_fidelity(tmp_path):
    rng = np.random.default_rng(2030)
    corruption_checks = 0
    for i in range(1000):
        resolution = int(rng.choice([8, 16, 32]))
        s = random_structure(rng, resolution, rng.uniform(0.002, 0.2))
        if i % 2 == 0:
            payload = s
        else:
            channels = int(rng.integers(1, 12))
            payload = make_latent(
                s.coords, rng.standard_normal((s.voxel_sum, channels)).astype(np.float32), resolution)
        blob = encode_nvx(payload)
        assert decode_nvx(blob) == payload
        assert encode_nvx(decode_nvx(blob)) == blob
        # flip one random byte; some corruption must always be reported
        pos = int(rng.integers(len(blob)))
        corrupted = bytearray(blob)
        corrupted[pos] ^= int(rng.integers(1, 256))
        with pytest.raises(NvxError):
            decode_nvx(bytes(corrupted))
        corruption_checks += 1
    assert corruption_checks == 1000

    # every byte position of one payload, exhaustively
    z = make_latent(make_sparse([(1, 2, 3), (4, 5, 6)], 16).coords,
                    rng.standard_normal((2, 4)).astype(np.float32), 16)
    blob = encode_nvx(z)
    for pos in range(len(blob)):
        corrupted = bytearray(blob)
        corrupted[pos] ^= 0xFF
        with pytest.raises(NvxError):
            decode_nvx(bytes(corrupted))

    # 10k-record manifest: field-exact round trip, byte-stable rewrite
    manifest = tmp_path / "manifest.jsonl"
    statuses = ("ok", "filtered", "failed")
    records = []
    for i in range(10_000):
        records.append(ManifestRecord(
            id=f"sample-{i:06d}",
            status=statuses[i % 3],
            attempt=1 + i % 4,
            instruction=render_instruction("remove", {"target": f"part {i}"}),
            voxel_sum_src=int(rng.integers(0, 5000)),
            voxel_sum_tgt=int(rng.integers(0, 5000)),
            mask_component_sizes=[int(v) for v in rng.integers(1, 300, size=rng.integers(0, 6))],
            policy={"kind": "threshold", "tau": 100, "connectivity": 26},
        ))
    for r in records:
        append_record(manifest, r)
    loaded, malformed = load_manifest(manifest)
    assert not malformed
    assert loaded == records
    rewrite = tmp_path / "rewrite.jsonl"
    for r in loaded:
        append_record(rewrite, r)
    assert rewrite.read_bytes() == manifest.read_bytes()


@criterion(9, "pipeline deterministic end to end; artifacts consistent; attempts bounded")
def test_criterion_09_pipeline_end_to_end(tmp_path):
    kwargs = dict(n_samples=8, seed=31337, max_attempts=2, merge_policy=Threshold(20))
    m1 = run_pipeline(tmp_path / "run1", backends=mock_backend_suite(16, 8), **kwargs)
    m2 = run_pipeline(tmp_path / "run2", backends=mock_backend_suite(16, 8), **kwargs)
    assert m1.read_bytes() == m2.read_bytes()

    records, malformed = load_manifest(m1)
    assert not malformed and len(records) == 8
    ok_records = [r for r in records if r.status == "ok"]
    assert ok_records, "mock pipeline produced no accepted samples"
    for r in ok_records:
        base = m1.parent
        src = read_nvx(base / r.source_structure)
        tgt = read_nvx(base / r.edited_structure)
        merged = read_nvx(base / r.merged_structure)
        assert r.voxel_sum_src == src.voxel_sum
        assert r.voxel_sum_tgt == tgt.voxel_sum
        cs = label_components(diff_xor(src, tgt), r.policy["connectivity"])
        assert cs.sizes == r.mask_component_sizes
        mask = select_components(cs, Threshold(r.policy["tau"]))
        assert apply_flip(src, mask) == merged
        report = region_consistency(src, tgt, merged, mask)
        assert report.outside_mask_iou == 1.0
        assert report.inside_mask_match_fraction == 1.0

    # re-sampling respects max_attempts and never exceeds it
    rejecting = mock_backend_suite(16, 8, verdicts=(False,))
    m3 = run_pipeline(tmp_path / "run3", n_samples=3, seed=7, max_attempts=3, backends=rejecting)
    for r in load_manifest(m3)[0]:
        assert r.status == "filtered"
        assert r.attempt == 3
    accepting_late = mock_backend_suite(16, 8, verdicts=(False, True))
    m4 = run_pipeline(tmp_path / "run4", n_samples=1, seed=7, max_attempts=5, backends=accepting_late)
    record = load_manifest(m4)[0][0]
    assert record.status == "ok"
    assert record.attempt == 2


@criterion(10, "full 64^3 merge chain under 100 ms single-threaded")
def test_criterion_10_performance():
    rng = np.random.default_rng(2031)
    src = random_structure(rng, 64, 50_000 / 64**3)
    tgt = random_structure(rng, 64, 50_000 / 64**3)
    assert abs(src.voxel_sum - 50_000) < 1000

    def chain():
        d = diff_xor(src, tgt)
        cs = label_components(d, 26)
        mask = select_components(cs, Threshold(100))
        return apply_flip(src, mask)

    chain()  # warm-up: imports, allocator
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        chain()
        times.append(time.perf_counter() - t0)
    best = min(times)
    assert best < 0.100, f"best of 3 runs took {best * 1000:.1f} ms (budget 100 ms)"
