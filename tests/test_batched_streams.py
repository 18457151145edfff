"""Batched random draws and direct JSONL row formatting against their scalar definitions.

The simulator draws every frame of an object at once, from ``np.uint64``
arrays of stream keys, and the writers format rows without building
records.  Both must give exactly the bytes of the scalar ``SplitRng`` stream
and of ``json.dumps``; the pinned digests below were recorded from the
per-draw, per-record implementation, and ``proposals_by_scalar_streams``
below is that per-frame implementation.
"""

import hashlib
import json
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from trackref import simulate
from trackref.cli import main
from trackref.geometry import AffineTransform, Box
from trackref.rerank import VideoProposals, write_tracks
from trackref.rng import (
    SplitRng,
    box_muller,
    box_muller_array,
    fold_children,
    fold_keys,
    key_draws,
    key_randints,
    key_units,
    mix64,
    mix64_array,
)
from trackref.simulate import (
    CorruptionSpec,
    ObjectSpec,
    SceneSpec,
    generate_proposals,
    generate_scene,
    parse_scene_spec,
)

GOLDEN = 0x9E3779B97F4A7C15
MASK64 = (1 << 64) - 1

u64 = st.integers(0, MASK64)
any_int = st.integers(-(1 << 80), 1 << 80)
path_part = st.one_of(any_int, st.text(max_size=6))


@settings(max_examples=200, deadline=None)
@given(st.lists(u64, max_size=40))
@example([0, MASK64, GOLDEN, (2 * GOLDEN) & MASK64, (3 * GOLDEN) & MASK64, 1 << 63])
def test_mix64_array_matches_scalar(values):
    mixed = mix64_array(np.array(values, dtype=np.uint64))
    assert mixed.dtype == np.uint64
    assert mixed.tolist() == [mix64(v) for v in values]


def literal_string_key(key, text):
    """The module docstring's string fold, one mix64 call per step."""
    data = text.encode("utf-8")
    key = mix64(key ^ mix64(len(data) + GOLDEN))
    for byte in data:
        key = mix64(key ^ mix64(byte + GOLDEN))
    return key


@settings(max_examples=200, deadline=None)
@given(seed=any_int, texts=st.lists(st.text(), min_size=1, max_size=3))
@example(seed=0, texts=[""])
@example(seed=MASK64, texts=["scene_000", "\x00\xff\u00e9\U0001f600"])
def test_string_parts_fold_as_the_literal_formula(seed, texts):
    key = mix64(seed & MASK64)
    for text in texts:
        key = literal_string_key(key, text)
    assert SplitRng(seed, *texts).next_u64() == mix64((key + GOLDEN) & MASK64)
    assert SplitRng(seed).child(*texts).next_u64() == mix64((key + GOLDEN) & MASK64)


@settings(max_examples=200, deadline=None)
@given(
    seed=any_int,
    path=st.lists(path_part, max_size=4),
    parts=st.lists(any_int, max_size=12),
    count=st.integers(0, 8),
)
@example(seed=0, path=[], parts=[-1, MASK64, 1 << 64, -(1 << 64) - 5, 0], count=6)
def test_child_units_match_scalar_children(seed, path, parts, count):
    rng = SplitRng(seed, *path)
    units = rng.child_units(parts, count)
    assert units.shape == (len(parts), count)
    expected = []
    for part in parts:
        child = rng.child(part)
        expected.append([child.unit() for _ in range(count)])
    assert units.tolist() == expected
    # The batch reads children only: the parent's own stream is untouched.
    assert rng.next_u64() == SplitRng(seed, *path).next_u64()


@settings(max_examples=100, deadline=None)
@given(
    seed=any_int,
    part=any_int,
    mean=st.floats(-5, 5),
    sd=st.floats(0, 3),
)
def test_box_muller_on_batched_units_matches_normal(seed, part, mean, sd):
    rng = SplitRng(seed, "noise")
    u1, u2 = rng.child_units([part], 2).tolist()[0]
    assert box_muller(u1, u2, mean, sd) == rng.child(part).normal(mean, sd)


@settings(max_examples=200, deadline=None)
@given(
    seeds=st.lists(any_int, max_size=5),
    path=st.lists(path_part, max_size=3),
    parts=st.lists(any_int, max_size=4),
    count=st.integers(0, 5),
    start=st.integers(0, 50),
)
@example(seeds=[0, -1], path=["", "jitter", 0, -(1 << 70)], parts=[0, -1, MASK64], count=3, start=0)
def test_key_arrays_match_scalar_streams(seeds, path, parts, count, start):
    root = SplitRng(7, "root")
    streams = [root.child(seed) for seed in seeds]
    keys = root.child_keys(seeds)
    for part in path:
        keys = fold_keys(keys, part)
    children = [rng.child(*path) for rng in streams]
    for rng in children:
        for _ in range(start):
            rng.next_u64()
    draws = [[rng.next_u64() for _ in range(count)] for rng in children]
    assert key_draws(keys, count, start).tolist() == draws
    assert key_units(keys, count, start).tolist() == [
        [(d >> 11) * 2.0 ** -53 for d in row] for row in draws
    ]
    grid = fold_children(keys, parts)
    assert grid.shape == (len(seeds), len(parts))
    assert key_draws(grid.ravel(), 1).ravel().tolist() == [
        rng.child(*path, part).next_u64() for rng in streams for part in parts
    ]


# Spans near 2^63 reject about half of all first draws; 2^64 rejects none.
spans = st.one_of(
    st.integers(1, 50),
    st.integers((1 << 63) - 5, (1 << 63) + 5),
    st.integers((1 << 64) - 3, 1 << 64),
)


@settings(max_examples=100, deadline=None)
@given(seed=any_int, low=st.integers(-(1 << 63), 50), span=spans, lanes=st.integers(0, 64))
@example(seed=3, low=-(1 << 63), span=1 << 64, lanes=8)
def test_key_randints_match_scalar_randint(seed, low, span, lanes):
    high = low + span - 1
    if high >= 1 << 63:
        with pytest.raises(ValueError):
            key_randints(np.zeros(1, dtype=np.uint64), low, high)
        return
    rng = SplitRng(seed, "lanes")
    values = key_randints(rng.child_keys(range(lanes)), low, high)
    assert values.dtype == np.int64
    assert values.tolist() == [rng.child(lane).randint(low, high) for lane in range(lanes)]


def test_key_randints_redraw_rejected_lanes():
    rng = SplitRng(3, "lanes")
    keys = rng.child_keys(range(64))
    span = (1 << 63) + 1
    rejected = key_draws(keys, 1)[:, 0] < np.uint64((1 << 64) % span)
    assert 0 < rejected.sum() < 64
    low, high = -10, span - 11
    values = key_randints(keys, low, high)
    assert values.tolist() == [rng.child(lane).randint(low, high) for lane in range(64)]
    with pytest.raises(ValueError):
        key_randints(keys, 2, 1)


@settings(max_examples=100, deadline=None)
@given(
    units=st.lists(st.tuples(st.floats(0, 1, exclude_max=True), st.floats(0, 1)), max_size=20),
    mean=st.floats(-5, 5),
    sd=st.floats(0, 3),
)
@example(units=[(0.0, 0.25), (2.0 ** -53, 0.5), (0.5, 0.0)], mean=0.0, sd=1.0)
def test_box_muller_array_matches_scalar(units, mean, sd):
    u1, u2 = np.array(units, dtype=np.float64).reshape(-1, 2).T
    assert box_muller_array(u1, u2, mean, sd).tolist() == [
        box_muller(a, b, mean, sd) for a, b in units
    ]


def test_box_muller_array_keeps_libm_on_many_units():
    # numpy's own log differs from libm's in the last bit for a few inputs
    # in a thousand on some builds; 20,000 pairs would show it.
    u1, u2 = SplitRng(11).child_units(range(20_000), 2).T
    assert box_muller_array(u1, u2, 0.3, 0.7).tolist() == [
        box_muller(a, b, 0.3, 0.7) for a, b in zip(u1.tolist(), u2.tolist())
    ]


def test_box_muller_keeps_zero_unit_finite():
    assert math.isfinite(box_muller(0.0, 0.25))
    assert box_muller(0.0, 0.25) == box_muller(2.0 ** -53, 0.25)


SMALL_SCENE = """
width = 40
height = 30
num_frames = 5
object1.box = 2 3 8 6
object1.motion = 1 0 9 0 1 0.5
object2.box = 20 12 10 8
object2.motion = 1.01 0 -0.4 0 1.01 0.3
"""


def distractors_by_scalar_draws(rng, obj_index, frame, count, sd, width, height):
    """The per-draw definition: one child stream per distractor, read in order."""
    boxes = []
    for d in range(1, count + 1):
        drng = rng.child("object", obj_index).child("frame", frame).child("distractor", d)
        score = min(max(0.3 + drng.normal(0.0, sd), 0.0), 1.0)
        w = max(drng.uniform(0.1, 0.5) * width, 1.0)
        h = max(drng.uniform(0.1, 0.5) * height, 1.0)
        x = drng.uniform(0.0, max(width - w, 0.0))
        y = drng.uniform(0.0, max(height - h, 0.0))
        boxes.append((d, Box(x, y, w, h), score))
    return boxes


@settings(max_examples=25, deadline=None)
@given(seed=any_int, count=st.integers(0, 31), sd=st.floats(0, 2))
def test_generated_distractors_match_scalar_streams(seed, count, sd):
    spec = parse_scene_spec(SMALL_SCENE)
    corruption = CorruptionSpec(distractors_per_frame=count, score_noise_sd=sd)
    rng = SplitRng(seed, "sweep")
    videos = generate_proposals(spec, generate_scene(spec, lambda *_: None), corruption, rng)
    for query, vp in videos.items():
        for frame, proposals in vp.frames.items():
            got = [(p.proposal_id, p.box, p.score) for p in proposals if p.proposal_id > 0]
            assert got == distractors_by_scalar_draws(
                rng, int(query), frame, count, sd, spec.width, spec.height
            )


def proposals_by_scalar_streams(spec, boxes, corruption, rng):
    """``generate_proposals`` frame by frame, every draw from a scalar stream."""
    count, sd = corruption.distractors_per_frame, corruption.score_noise_sd
    out = {}
    for obj_index in sorted(boxes):
        frames, sizes, ids, xywh, scores = [], [], [], [], []
        for frame in range(1, spec.num_frames + 1):
            frame_rng = rng.child("object", obj_index, "frame", frame)
            first = len(scores)
            true_box = boxes[obj_index].get(frame)
            if true_box is not None:
                xywh.append(simulate._jittered(
                    true_box, corruption.box_jitter_fraction, frame_rng.child("jitter"),
                    spec.width, spec.height,
                ))
                noise = frame_rng.child("target-score").normal(0.0, sd)
                scores.append(min(max(0.8 + noise, 0.0), 1.0))
                ids.append(0)
            for d, box, score in distractors_by_scalar_draws(
                rng, obj_index, frame, count, sd, spec.width, spec.height
            ):
                xywh.append((box.x, box.y, box.w, box.h))
                scores.append(score)
                ids.append(d)
            if (
                true_box is not None
                and count > 0
                and frame_rng.child("switch").unit() < corruption.id_switch_prob
            ):
                victim = first + frame_rng.child("victim").randint(1, count)
                scores[first], scores[victim] = scores[victim], scores[first]
            if len(scores) > first:
                frames.append(frame)
                sizes.append(len(scores) - first)
        out[str(obj_index)] = VideoProposals(
            frames, np.repeat(np.arange(len(frames)), sizes), ids,
            np.array(xywh, dtype=np.float64).reshape(-1, 4), np.array(scores, dtype=np.float64),
            np.full(len(ids), 0.9),
        )
    return out


@st.composite
def scenes(draw):
    """Scenes from 1x1 pixels up, with objects that may drift or shrink out of the image."""
    width, height = draw(st.integers(1, 64)), draw(st.integers(1, 48))
    objects = []
    for _ in range(draw(st.integers(1, 2))):
        w = draw(st.floats(0.5, width))
        h = draw(st.floats(0.5, height))
        box = Box(draw(st.floats(0, width - w)), draw(st.floats(0, height - h)), w, h)
        scale = draw(st.sampled_from([1.0, 0.9, 1.1]))
        motion = AffineTransform(scale, 0.0, draw(st.floats(-20, 20)),
                                 0.0, scale, draw(st.floats(-20, 20)))
        objects.append(ObjectSpec(box, motion))
    return SceneSpec(width, height, draw(st.integers(1, 12)), tuple(objects))


corruptions = st.builds(
    CorruptionSpec,
    distractors_per_frame=st.sampled_from([0, 0, 1, 3, 9]),
    score_noise_sd=st.sampled_from([0.0, 0.05, 0.5, 3.0]),
    id_switch_prob=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0, 1)),
    box_jitter_fraction=st.sampled_from([0.0, 0.1, 1.0, 3.0]),
)

# A 3x2 image whose one object fills it: jitter 3 fails every attempt in most
# frames, so the clamped fallback runs; the object drifts out after frame 2.
FALLBACK_SCENE = SceneSpec(3, 2, 6, (ObjectSpec(Box(0, 0, 3, 2), AffineTransform(
    1.0, 0.0, 1.5, 0.0, 1.0, 0.0)),))
FALLBACK_CORRUPTION = CorruptionSpec(2, 0.5, 1.0, 3.0)


@settings(max_examples=60, deadline=None)
@given(spec=scenes(), corruption=corruptions, seed=any_int)
@example(spec=FALLBACK_SCENE, corruption=FALLBACK_CORRUPTION, seed=1)
@example(spec=FALLBACK_SCENE, corruption=CorruptionSpec(0, 0.0, 0.0, 3.0), seed=2)
def test_generated_tables_match_scalar_streams(spec, corruption, seed):
    try:
        boxes = generate_scene(spec, lambda *_: None)
    except ValueError:  # a motion that is not invertible at some frame
        return
    rng = SplitRng(seed, "sweep")
    with mock.patch.object(simulate, "_clamped_side", wraps=simulate._clamped_side) as batch:
        got = generate_proposals(spec, boxes, corruption, rng)
    with mock.patch.object(simulate, "_clamped_side", wraps=simulate._clamped_side) as scalar:
        expected = proposals_by_scalar_streams(spec, boxes, corruption, rng)
    # Both fall back to the clamped box on the same rows.
    assert batch.call_count == scalar.call_count
    assert got.keys() == expected.keys()
    for query, table in expected.items():
        vp = got[query]
        assert vp.frame_ids == table.frame_ids
        assert vp.frame_of.tolist() == table.frame_of.tolist()
        assert vp.ids == table.ids
        for column in ("boxes", "scores", "objectness"):
            assert getattr(vp, column).shape == getattr(table, column).shape
            assert getattr(vp, column).tobytes() == getattr(table, column).tobytes(), column


def test_the_fallback_example_falls_back_and_leaves_the_image():
    boxes = generate_scene(FALLBACK_SCENE, lambda *_: None)
    assert set(boxes[1]) < set(range(1, FALLBACK_SCENE.num_frames + 1))
    with mock.patch.object(simulate, "_clamped_side", wraps=simulate._clamped_side) as clamp:
        generate_proposals(FALLBACK_SCENE, boxes, FALLBACK_CORRUPTION, SplitRng(1, "sweep"))
    assert clamp.call_count > 0


# ---------------------------------------------------------------------------
# Row formatting
# ---------------------------------------------------------------------------

# Box fields as a library caller may give them: floats, ints and numpy
# floats, from 5e-324 up to 1e308; frames up to beyond int64.
coordinate = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(allow_nan=False, allow_infinity=False).map(np.float64),
    st.integers(-(1 << 60), 1 << 60),
    st.sampled_from([0.0, -0.0, 5e-324, 1e308, -1e308]),
)
side = st.one_of(
    st.floats(min_value=5e-324, allow_infinity=False),
    st.integers(1, 1 << 60),
    st.sampled_from([5e-324, 1e308]),
)
# Box rejects sides whose product underflows to 0, as the readers do.
sides = st.tuples(side, side).filter(lambda wh: wh[0] * wh[1] > 0)
name = st.one_of(
    st.text(max_size=8), st.sampled_from(['{}', '{0}', '}{', 'a"b\\', 'é\U0001f600'])
)
tracks = st.dictionaries(
    st.tuples(name, name),
    st.dictionaries(
        st.one_of(st.integers(1, 1 << 20), st.just(2**70)),
        st.builds(lambda x, y, wh: Box(x, y, *wh), coordinate, coordinate, sides),
        max_size=5,
    ),
    max_size=3,
)


@settings(max_examples=300, deadline=None)
@given(tracks)
@example({('sc"ene{0}', "}{"): {
    2**70: Box(-0.0, 5e-324, 1e308, 5e-324), 1: Box(20, np.float64(0.1), 10, 1 << 60),
}})
def test_write_tracks_matches_json_dumps(tmp_path_factory, tracks):
    path = tmp_path_factory.mktemp("tracks") / "tracks.jsonl"
    write_tracks(path, tracks)
    expected = "".join(
        json.dumps({
            "video": video, "query": query, "frame": frame,
            "x": float(box.x), "y": float(box.y), "w": float(box.w), "h": float(box.h),
        }) + "\n"
        for (video, query), track in sorted(tracks.items())
        for frame, box in sorted(track.items())
    )
    assert path.read_text(encoding="utf-8") == expected


# ---------------------------------------------------------------------------
# Pinned simulate output
# ---------------------------------------------------------------------------

# Object 1 leaves the 64x48 frame after frame 9; score noise 0.3 clamps many
# scores to 0 or 1; 29 distractors per frame, three scenes.
PINNED_SCENE = """
width = 64
height = 48
num_frames = 10
object1.box = 4 6 10 8
object1.motion = 1 0 7 0 1 0.5
object2.box = 30 20 12 10
object2.motion = 1.02 0.05 -0.6 -0.05 1.02 0.4
"""

PINNED_CORRUPTION = """
distractors_per_frame = 29
score_noise_sd = 0.3
id_switch_prob = 0.3
box_jitter_fraction = 0.1
seed = 5
"""

PINNED_DIGESTS = {
    "proposals.jsonl": "221df0c4d7746f7c19cdefcf1533f9f781c4804dceaaaff6f4425ec1227f2a39",
    "gt_boxes.jsonl": "8120a045d5a3b805398600b8e61d47a3b9a1a2d619be97a91e699cf929a36dc6",
    "MANIFEST.txt": "cbfdf6614188eaa347ed916b75eeb32ecd17b481b14e60270363de197de776d5",
}


def test_simulate_output_is_pinned(tmp_path, capsys):
    scene = tmp_path / "scene.txt"
    scene.write_text(PINNED_SCENE)
    corrupt = tmp_path / "corrupt.txt"
    corrupt.write_text(PINNED_CORRUPTION)
    out = tmp_path / "out"
    assert main([
        "simulate", "--scene", str(scene), "--corrupt", str(corrupt), "--out", str(out),
        "--scenes", "3", "--seed", "11",
    ]) == 0
    capsys.readouterr()
    digests = {
        name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in PINNED_DIGESTS
    }
    assert digests == PINNED_DIGESTS
