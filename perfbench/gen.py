"""Seeded synthetic inputs for the benchmark workloads.

The generator does not import seldkit: WAVs go through scipy, the `.slsa`
container and the label CSVs are written here, so a defect in the package
cannot change its own inputs. The same (workload, seed, size) always gives
the same files. Input sizes are fixed per size class and only the content
varies with the seed, so every seed costs the program about the same work.
Each maker returns a JSON-able `truth` dict that the output gates use.
"""

from __future__ import annotations

import math
import struct
from pathlib import Path

import numpy as np
from scipy.io import wavfile

SAMPLE_RATE = 24000
STFT_WINDOW = 512
STFT_HOP = 300
N_CLASSES = 13
LABEL_FRAMES_PER_S = 10
FEATURE_FRAMES_PER_LABEL = 8
SEGMENT_FRAMES = 10

# Two 60 s clips set salsa's O(T) working set; the shorter ones give the
# mixed lengths a real manifest has. Kinds alternate so half the clips carry
# a moving source and half diffuse noise.
SIZES = {
    "full": {
        "extract_clips": ((60, "directional"), (60, "diffuse"), (20, "directional"),
                          (10, "diffuse"), (5, "directional"), (3, "diffuse")),
        "eval_clips": 6, "eval_seconds": 60,
        "train_chunks": 16, "chunk_seconds": 5,
    },
    "tiny": {
        "extract_clips": ((1, "directional"), (0.5, "diffuse")),
        "eval_clips": 1, "eval_seconds": 6,
        "train_chunks": 4, "chunk_seconds": 1,
    },
    "warm": {  # first-call warm-up inside the timed set-up: as small as the calls allow
        "extract_clips": ((0.25, "directional"), (0.25, "diffuse")),
        "eval_clips": 1, "eval_seconds": 2,
        "train_chunks": 2, "chunk_seconds": 1,
    },
}

SOURCE_STD = 0.08          # int16 full scale is 1.0, so peaks stay well clear
FLOOR_DB = -20.0           # diffuse floor under a directional source
HIT_MARGIN_DEG = 1e-6      # no pred/ref pair may sit this close to the 20 degree gate


def write_slsa(array, path) -> None:
    """The package's float32 container: magic, u32 version, u32 ndim, u64 dims."""
    arr = np.ascontiguousarray(array, dtype="<f4")
    header = b"SLSA" + struct.pack("<II", 1, arr.ndim)
    header += struct.pack(f"<{arr.ndim}Q", *arr.shape)
    Path(path).write_bytes(header + arr.tobytes())


def unit_vectors(az_deg, el_deg):
    az = np.deg2rad(np.asarray(az_deg, dtype=np.float64))
    el = np.deg2rad(np.asarray(el_deg, dtype=np.float64))
    return np.stack([np.cos(az) * np.cos(el), np.sin(az) * np.cos(el), np.sin(el)])


def wrap_az(az):
    return (az + 180) % 360 - 180


def _diffuse(rng, n):
    """Uncorrelated FOA channels with the SN3D diffuse-field balance."""
    noise = rng.standard_normal((4, n))
    noise[1:] /= math.sqrt(3.0)
    return noise


def make_extract(root, seed, size="full"):
    root = Path(root)
    root.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng([seed, 1])
    clips = []
    for index, (seconds, kind) in enumerate(SIZES[size]["extract_clips"]):
        n = int(seconds * SAMPLE_RATE) + int(rng.integers(0, STFT_HOP))
        clip = {"stem": f"clip{index:02d}_{kind}", "kind": kind, "seconds": n / SAMPLE_RATE,
                "n_samples": n}
        if kind == "directional":
            clip.update(az0=float(rng.uniform(-180, 180)), el0=float(rng.uniform(-40, 40)),
                        v_az=float(rng.choice([-1.0, 1.0]) * rng.uniform(1.0, 4.0)),
                        v_el=float(rng.uniform(-0.5, 0.5)))
            t = np.arange(n) / SAMPLE_RATE
            x, y, z = unit_vectors(clip["az0"] + clip["v_az"] * t,
                                   clip["el0"] + clip["v_el"] * t)
            source = rng.standard_normal(n)
            samples = np.stack([source, y * source, z * source, x * source])
            samples += 10 ** (FLOOR_DB / 20) * _diffuse(rng, n)
        else:
            samples = _diffuse(rng, n)
        pcm = np.clip(np.round(SOURCE_STD * samples * 32768.0), -32768, 32767).astype(np.int16)
        path = root / f"{clip['stem']}.wav"
        wavfile.write(path, SAMPLE_RATE, np.ascontiguousarray(pcm.T))
        clip["path"] = str(path)
        clips.append(clip)
    manifest = root / "manifest.csv"
    lines = ["audio_path,label_path,split"]
    lines += [f"{c['path']},{root / (c['stem'] + '.csv')},train" for c in clips]
    manifest.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return {
        "manifest": str(manifest),
        "clips": clips,
        "audio_s": sum(c["seconds"] for c in clips),
        "properties": {"clip_seconds": [round(c["seconds"], 4) for c in clips],
                       "clip_kinds": [c["kind"] for c in clips]},
    }


def _angles(pred_doas, ref_doas):
    """Angle in degrees between every pred and ref (az, el) pair."""
    p = unit_vectors(*np.asarray(pred_doas, dtype=np.float64).T)
    r = unit_vectors(*np.asarray(ref_doas, dtype=np.float64).T)
    return np.rad2deg(np.arccos(np.clip(p.T @ r, -1.0, 1.0)))


def _reference_events(rng, n_frames):
    """{(frame, class): (az, el)} integer DoAs; most sources move every frame."""
    refs = {}
    for cls in range(N_CLASSES):
        frame = int(rng.integers(0, 30))
        while frame < n_frames:
            length = int(rng.integers(10, 60))
            moving = rng.random() < 0.7
            az0 = float(rng.integers(-180, 180))
            el0 = float(rng.integers(-40, 41))
            v_az = float(rng.choice([-1.0, 1.0]) * rng.uniform(2.0, 6.0)) if moving else 0.0
            v_el = float(rng.uniform(-1.0, 1.0)) if moving else 0.0
            for k in range(min(length, n_frames - frame)):
                refs[(frame + k, cls)] = (int(wrap_az(round(az0 + v_az * k))),
                                          int(min(max(round(el0 + v_el * k), -70), 70)))
            frame += length + int(rng.integers(5, 40))
    return refs


def _activity(rng):
    """Mean model activity, kept 0.05 clear of the 0.3 / 0.5 / 0.7 thresholds."""
    band = rng.random()
    if band < 0.5:
        return float(rng.uniform(0.75, 0.95))
    if band < 0.85:
        return float(rng.uniform(0.55, 0.65))
    return float(rng.uniform(0.35, 0.45))


def _clear_of_gate(pred, cell_refs):
    """True when neither the integer DoA nor its +0.25 offset form lies at 20 degrees."""
    if not cell_refs:
        return True
    probes = [pred, (pred[0] + 0.25, pred[1] + 0.25)]
    return bool(np.all(np.abs(_angles(probes, cell_refs) - 20.0) > HIT_MARGIN_DEG))


def _predictions(rng, refs, n_frames):
    """References plus noise, with misses and false alarms: {(frame, class): (az, el, act)}."""
    preds = {}
    for key, (az, el) in refs.items():
        if rng.random() < 0.1:
            continue
        if rng.random() < 0.85:
            d_az, d_el = int(rng.integers(-6, 7)), int(rng.integers(-4, 5))
        else:
            d_az, d_el = int(rng.choice([-1, 1]) * rng.integers(25, 61)), 0
        preds[key] = (int(wrap_az(az + d_az)), int(min(max(el + d_el, -70), 70)), _activity(rng))
    for frame in range(n_frames):
        for cls in range(N_CLASSES):
            if (frame, cls) not in refs and rng.random() < 0.02:
                preds[(frame, cls)] = (int(rng.integers(-180, 180)), int(rng.integers(-60, 61)),
                                       _activity(rng))
    cell_refs = _cells(refs)
    for key, (az, el, act) in preds.items():
        doas = sorted(cell_refs.get((key[0] // SEGMENT_FRAMES, key[1]), ()))
        while not _clear_of_gate((az, el), doas):
            az = int(wrap_az(az + 1))
        preds[key] = (az, el, act)
    return preds


def _cells(events):
    cells = {}
    for (frame, cls), doa in events.items():
        cells.setdefault((frame // SEGMENT_FRAMES, cls), set()).add(doa)
    return cells


def make_evaluate(root, seed, size="full"):
    root = Path(root)
    root.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng([seed, 2])
    cfg = SIZES[size]
    n_frames = cfg["eval_seconds"] * LABEL_FRAMES_PER_S
    clips = []
    histogram = [0] * (SEGMENT_FRAMES + 1)
    cost_entries = 0
    for index in range(cfg["eval_clips"]):
        clip_dir = root / f"clip{index:02d}"
        clip_dir.mkdir()
        refs = _reference_events(rng, n_frames)
        preds = _predictions(rng, refs, n_frames)

        ref_lines = [f"{f},{c},0,{az},{el}" for (f, c), (az, el) in sorted(refs.items())]
        (clip_dir / "ref.csv").write_text("\n".join(ref_lines) + "\n", encoding="utf-8")

        models = np.zeros((3, 3, N_CLASSES, n_frames))
        for (frame, cls), (az, el, act) in preds.items():
            spread = float(rng.uniform(0.0, 0.04))
            direction = unit_vectors(az + 0.25, el + 0.25)
            for m, offset in enumerate((spread, -spread, 0.0)):
                models[m, :, cls, frame] = (act + offset) * direction
        for m in range(3):
            # model-only clutter in empty cells; averaged it stays below 0.1
            junk = (rng.random((N_CLASSES, n_frames)) < 0.05) & (np.linalg.norm(models[m], axis=0) == 0)
            idx = np.nonzero(junk)
            vecs = rng.standard_normal((3, idx[0].size))
            vecs *= rng.uniform(0.0, 0.25, idx[0].size) / np.linalg.norm(vecs, axis=0)
            models[m][:, idx[0], idx[1]] = vecs
            write_slsa(models[m], clip_dir / f"model{m}.slsa")

        decoded = {k: (az, el) for k, (az, el, act) in preds.items() if act > 0.5}
        ref_cells, pred_cells = _cells(refs), _cells(decoded)
        per_class = {}
        for cell in set(ref_cells) | set(pred_cells):
            r = len(ref_cells.get(cell, ()))
            p = len(pred_cells.get(cell, ()))
            counts = per_class.setdefault(cell[1], [0, 0])
            counts[0] += min(p, r)
            counts[1] += r
            cost_entries += p * r
        for doas in ref_cells.values():
            histogram[len(doas)] += 1
        clips.append({
            "dir": str(clip_dir),
            "decoded": sorted([f, c, az, el] for (f, c), (az, el) in decoded.items()),
            "matched_refs": {str(c): v for c, v in sorted(per_class.items())},
        })
    return {
        "clips": clips,
        "audio_s_per_clip": float(cfg["eval_seconds"]),
        "properties": {"clip_seconds": cfg["eval_seconds"], "classes": N_CLASSES,
                       "doas_per_ref_cell": histogram, "cost_entries_at_0.5": cost_entries},
    }


def make_train_feed(root, seed, size="full"):
    root = Path(root)
    root.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng([seed, 3])
    cfg = SIZES[size]
    n_labels = cfg["chunk_seconds"] * LABEL_FRAMES_PER_S
    n_feat = n_labels * FEATURE_FRAMES_PER_LABEL
    chunks = []
    for index in range(cfg["train_chunks"]):
        feats = rng.standard_normal((7, 200, n_feat)).astype(np.float32)
        labels = np.zeros((3, N_CLASSES, n_labels))
        active = rng.random((N_CLASSES, n_labels)) < 0.3
        idx = np.nonzero(active)
        labels[:, idx[0], idx[1]] = unit_vectors(rng.uniform(-180, 180, idx[0].size),
                                                 rng.uniform(-60, 60, idx[0].size))
        feat_path = root / f"chunk{index:02d}.slsa"
        label_path = root / f"chunk{index:02d}_labels.slsa"
        write_slsa(feats, feat_path)
        write_slsa(labels, label_path)
        chunks.append([str(feat_path), str(label_path)])
    return {
        "chunks": chunks,
        "chunk_s": float(cfg["chunk_seconds"]),
        "properties": {"chunk_seconds": cfg["chunk_seconds"], "chunk_feature_frames": n_feat,
                       "chunks": len(chunks), "se_ratio_freq": 4, "se_ratio_chan": 1},
    }


def se_params(seed):
    """(freq, chan) SE weights as (w1, b1, w2, b2) tuples: ratio 4 over 200 bins, 1 over 7 channels."""
    rng = np.random.default_rng([seed, 4])
    return tuple(
        tuple(0.5 * rng.standard_normal(shape) for shape in ((hidden, d), (hidden,), (d, hidden), (d,)))
        for d, hidden in ((200, 50), (7, 7))
    )


MAKERS = {"extract": make_extract, "evaluate": make_evaluate, "train_feed": make_train_feed}
