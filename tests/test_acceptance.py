"""Acceptance suite: seven package-level properties, each timed.

Every test prints one `[acceptance N] PASS/FAIL: title` line on the
terminal and enforces a wall-clock budget. Expected values come from
closed-form constructions, independent brute-force oracles, and bitwise
identities; nothing is compared against the implementation itself.
"""

import itertools
import time
from contextlib import contextmanager

import numpy as np
from numpy.testing import assert_allclose

import helpers
import oracles
from seldkit import (
    AugmentConfig,
    Event,
    apply_pattern_to_waveform,
    augment_pipeline,
    channel_swap,
    cli,
    compute_seld_scores,
    decode,
    encode,
    enumerate_swap_patterns,
    frame_shift,
    make_rng,
    moderate_mixup,
    salsa,
    sample_lambda,
    time_mask,
    unit_vector_to_doa,
    zero_params,
)
from seldkit.dataset_io import read_feature_file, write_label_csv
from seldkit.se_block import (
    GRADCHECK_BLOCKS,
    channel_se_forward,
    freq_se_forward,
    gradcheck,
    gradcheck_params,
    multi_dim_se_forward,
)

# measured mass of Beta(0.2, 0.2) on [0.4, 0.6] via the regularized
# incomplete beta function: I_0.6(0.2, 0.2) - I_0.4(0.2, 0.2)
BETA_MASS_MIDDLE = 0.06450530141922767


@contextmanager
def criterion(capsys, number, title, time_limit):
    start = time.perf_counter()
    try:
        yield
        elapsed = time.perf_counter() - start
        assert elapsed < time_limit, (
            f"criterion {number} took {elapsed:.1f}s, limit {time_limit:.0f}s"
        )
    except BaseException:
        with capsys.disabled():
            print(f"[acceptance {number}] FAIL: {title}")
        raise
    with capsys.disabled():
        print(
            f"[acceptance {number}] PASS: {title} "
            f"({time.perf_counter() - start:.1f}s)"
        )


def wrap_degrees(delta):
    return (delta + 180.0) % 360.0 - 180.0


def events_equal(got, want, tol=1e-9):
    if len(got) != len(want):
        return False
    for a, b in zip(got, want):
        if a.frame != b.frame or a.class_id != b.class_id:
            return False
        if abs(wrap_degrees(a.azimuth - b.azimuth)) > tol:
            return False
        if abs(a.elevation - b.elevation) > tol:
            return False
    return True


class TestAcceptance:
    def test_1_rotation_equivariance(self, capsys):
        with criterion(capsys, 1,
                       "feature/label equivariance under all 16 swaps", 30.0):
            clip = helpers.make_plane_wave_clip(40.0, 20.0, n_samples=24000)
            base = salsa(clip)
            labs = encode([Event(0, 0, 40.0, 20.0)], 1)
            for pattern in enumerate_swap_patterns():
                via_feats, via_labs = channel_swap(base, labs, pattern)
                via_wave = salsa(apply_pattern_to_waveform(clip, pattern))
                assert np.max(np.abs(via_feats[:4] - via_wave[:4])) < 1e-5
                assert np.max(np.abs(via_feats[4:] - via_wave[4:])) < 1e-4
                want_az, want_el = pattern.map_doa(40.0, 20.0)
                (got_az,), (got_el,) = unit_vector_to_doa(via_labs[:, 0, 0][None])
                assert abs(wrap_degrees(got_az - want_az)) < 1e-6
                assert abs(got_el - want_el) < 1e-6

    def test_2_accdoa_round_trip(self, capsys):
        with criterion(capsys, 2,
                       "tensor round trips and threshold monotonicity", 10.0):
            rng = np.random.default_rng(202)
            for _ in range(1000):
                events = helpers.random_events(rng, 20)
                tensor = encode(events, 20)
                for thr in (0.3, 0.5, 0.7):
                    assert events_equal(decode(tensor, thr), events)
            for _ in range(100):
                tensor = rng.uniform(-1.2, 1.2, size=(3, 13, 20))
                cells = [
                    {(ev.frame, ev.class_id) for ev in decode(tensor, thr)}
                    for thr in (0.3, 0.5, 0.7)
                ]
                assert cells[2] <= cells[1] <= cells[0]

    def test_3_se_gradients(self, capsys):
        with criterion(capsys, 3, "gating gradients verified numerically", 60.0):
            # reduction ratios restricted to divisors of the pooled axis
            grid = (
                ("channel", (4, 6, 5), 2),
                ("channel", (4, 6, 5), 4),
                ("freq", (4, 6, 5), 2),
                ("freq", (3, 8, 4), 2),
                ("freq", (3, 8, 4), 4),
                ("multi", (4, 6, 5), 2),
            )
            # these seeds keep every hidden pre-activation at least 1.5e-4
            # from the rectifier kink, fifteen times gradcheck's step, so no
            # perturbation crosses it
            for block, shape, r in grid:
                fwd, bwd, _ = GRADCHECK_BLOCKS[block]
                for seed in range(800, 820):
                    rng = make_rng(seed)
                    x = rng.standard_normal(shape)
                    params = gradcheck_params(rng, block, shape, r)
                    assert gradcheck(fwd, bwd, x, params) <= 1

            x = np.random.default_rng(303).standard_normal((4, 6, 5))
            assert_allclose(channel_se_forward(x, zero_params(4, 2)),
                            0.5 * x, rtol=0, atol=1e-12)
            assert_allclose(freq_se_forward(x, zero_params(6, 2)),
                            0.5 * x, rtol=0, atol=1e-12)
            assert_allclose(
                multi_dim_se_forward(x, zero_params(6, 2), zero_params(4, 2)),
                0.25 * x, rtol=0, atol=1e-12,
            )

    def test_4_metrics_against_brute_force(self, capsys):
        with criterion(capsys, 4, "scores match an exhaustive scorer", 30.0):
            rng = np.random.default_rng(404)
            for _ in range(500):
                preds = toy_scene(rng)
                refs = toy_scene(rng)
                got = compute_seld_scores(preds, refs)
                want = oracles.brute_force_seld_scores(preds, refs)
                assert_allclose(got.er, want["er"], atol=1e-12)
                assert_allclose(got.f1, want["f1"], atol=1e-9)
                assert_allclose(got.le, want["le"], atol=1e-9)
                assert_allclose(got.lr, want["lr"], atol=1e-9)
                assert got.er_undefined == want["er_undefined"]

            refs = toy_scene(rng)
            perfect = compute_seld_scores(refs, refs)
            assert (perfect.er, perfect.f1, perfect.lr) == (0.0, 100.0, 100.0)
            assert perfect.le < 1e-9

            silent = compute_seld_scores([], refs)
            assert (silent.er, silent.f1, silent.le, silent.lr) == \
                (1.0, 0.0, 180.0, 0.0)

            off = compute_seld_scores([Event(0, 3, 25.0, 0.0)],
                                      [Event(0, 3, 0.0, 0.0)])
            assert (off.er, off.f1, off.lr) == (1.0, 0.0, 100.0)
            assert_allclose(off.le, 25.0, rtol=1e-12)

    def test_5_moderate_mixup_contract(self, capsys):
        with criterion(capsys, 5, "mixing keeps labels pure", 10.0):
            rng = np.random.default_rng(505)
            pool_feats = [rng.standard_normal((2, 4, 80)) for _ in range(50)]
            pool_labs = []
            while len(pool_labs) < 50:
                events = helpers.random_events(rng, 10, max_events=6)
                if events:
                    pool_labs.append(encode(events, 10))
            in_middle = 0
            for _ in range(10_000):
                lam = sample_lambda(rng)
                if 0.4 <= lam <= 0.6:
                    in_middle += 1
                a = int(rng.integers(50))
                b = int(rng.integers(50))
                _, labs = moderate_mixup(pool_feats[a], pool_labs[a],
                                         pool_feats[b], pool_labs[b], lam)
                norms = np.linalg.norm(labs, axis=0)
                assert np.all(np.minimum(norms, np.abs(norms - 1.0)) <= 1e-9)
                assert (np.array_equal(labs, pool_labs[a])
                        or np.array_equal(labs, pool_labs[b]))
            fraction = in_middle / 10_000
            assert fraction < 0.12
            assert abs(fraction - BETA_MASS_MIDDLE) < 0.02

    def test_6_identity_and_composition_laws(self, capsys):
        with criterion(capsys, 6, "augmentation algebra holds", 20.0):
            no_op = AugmentConfig(cs_prob=0.0, ps_range=0, fs_prob=0.0,
                                  tm_prob=0.0, mm_prob=0.0)
            rng = np.random.default_rng(606)
            for i in range(100):
                feats = rng.standard_normal((7, 12, 80)).astype(np.float32)
                events = helpers.random_events(rng, 10, max_events=6)
                labs = encode(events, 10)

                out_f, out_l = augment_pipeline((feats, labs), None, no_op,
                                                make_rng(i))
                assert np.array_equal(out_f, feats)
                assert out_f.dtype == feats.dtype
                assert np.array_equal(out_l, labs)

                a = 8 * int(rng.integers(0, 5))
                b = 8 * int(rng.integers(0, 5))
                f1, l1 = frame_shift(*frame_shift(feats, labs, a), b)
                f2, l2 = frame_shift(feats, labs, a + b)
                assert np.array_equal(f1, f2)
                assert np.array_equal(l1, l2)

                start = 8 * int(rng.integers(0, 8))
                length = 8 * int(rng.integers(1, 3))
                mf, ml = time_mask(feats, labs, start, length,
                                   ratio_range=(0.05, 0.25))
                assert np.all(mf[:, :, start:start + length] == 0)
                assert np.all(ml[:, :, start // 8:(start + length) // 8] == 0)
                keep = np.ones(80, dtype=bool)
                keep[start:start + length] = False
                assert np.array_equal(mf[:, :, keep], feats[:, :, keep])
                keep_l = np.ones(10, dtype=bool)
                keep_l[start // 8:(start + length) // 8] = False
                assert np.array_equal(ml[:, :, keep_l], labs[:, :, keep_l])

            feats = rng.standard_normal((7, 12, 80)).astype(np.float32)
            labs = encode(helpers.random_events(rng, 10, max_events=6), 10)
            partner_f = rng.standard_normal((7, 12, 80)).astype(np.float32)
            partner_l = encode(helpers.random_events(rng, 10, max_events=6), 10)
            for mode, seed in itertools.product(("fs_mm", "tm_mm"), range(10)):
                busy = AugmentConfig(cs_prob=1.0, ps_range=3, fs_prob=1.0,
                                     tm_prob=1.0, mm_prob=1.0, mode=mode)
                first = augment_pipeline((feats, labs), (partner_f, partner_l),
                                         busy, make_rng(seed))
                second = augment_pipeline((feats, labs), (partner_f, partner_l),
                                          busy, make_rng(seed))
                assert np.array_equal(first[0], second[0])
                assert np.array_equal(first[1], second[1])

    def test_7_end_to_end_smoke(self, capsys, tmp_path):
        with criterion(capsys, 7, "full pipeline reproduces its labels", 60.0):
            wav = tmp_path / "scene.wav"
            clip = helpers.make_noise_clip(n_samples=48000, seed=7)
            helpers.write_wav(wav, clip.samples)

            static = [Event(f, 2, 30.0, 10.0) for f in range(19)]
            moving = [Event(f, 7, float(-60 + 7 * f), 0.0) for f in range(19)]
            ref_csv = tmp_path / "ref.csv"
            write_label_csv(static + moving, ref_csv)
            manifest = tmp_path / "manifest.csv"
            manifest.write_text(
                f"audio_path,label_path,split\n{wav},{ref_csv},test\n",
                encoding="utf-8",
            )

            out_dir = tmp_path / "featdir"
            assert cli.main(["extract", str(manifest), str(out_dir)]) == 0
            feat_file = out_dir / "scene.slsa"
            assert read_feature_file(feat_file).shape == (7, 200, 159)

            labels_t = tmp_path / "ref.slsa"
            assert cli.main(["encode", str(ref_csv), "--frames", "19",
                             "--out", str(labels_t)]) == 0

            aug_f = tmp_path / "aug.slsa"
            aug_l = tmp_path / "aug_labels.slsa"
            assert cli.main(["augment", "--features", str(feat_file),
                             "--labels", str(labels_t),
                             "--out-features", str(aug_f),
                             "--out-labels", str(aug_l),
                             "--cs-prob", "0", "--fs-prob", "0", "--tm-prob", "0",
                             "--mm-prob", "0", "--ps-range", "0"]) == 0
            assert read_feature_file(aug_f).shape == (7, 200, 152)

            avg = tmp_path / "avg.slsa"
            assert cli.main(["ensemble", str(aug_l), "--out", str(avg)]) == 0

            pred_csv = tmp_path / "pred.csv"
            assert cli.main(["decode", str(avg), "--out", str(pred_csv)]) == 0

            capsys.readouterr()
            assert cli.main(["score", str(pred_csv), str(ref_csv)]) == 0
            assert capsys.readouterr().out == \
                "ER 0.00 F1 100.0 LE 0.0 LR 100.0\n"


def toy_scene(rng):
    """Random events capped at four directions per (segment, class) cell."""
    while True:
        events = helpers.random_events(rng, n_frames=30, n_classes=5)
        counts = {}
        for ev in events:
            key = (ev.frame // 10, ev.class_id)
            counts[key] = counts.get(key, 0) + 1
        if all(v <= 4 for v in counts.values()):
            return events
