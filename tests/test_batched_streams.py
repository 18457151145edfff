"""Batched random draws and direct JSONL row formatting against their scalar definitions.

The simulator draws each frame's distractors as one numpy-uint64 block and
the writers format rows without building records.  Both must give exactly
the bytes of the scalar ``SplitRng`` stream and of ``json.dumps``; the pinned
digests below were recorded from the per-draw, per-record implementation.
"""

import hashlib
import json
import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from trackref.cli import main
from trackref.geometry import Box
from trackref.rerank import write_tracks
from trackref.rng import SplitRng, box_muller, mix64, mix64_array
from trackref.simulate import CorruptionSpec, generate_proposals, generate_scene, parse_scene_spec

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
    gt = generate_scene(parse_scene_spec(SMALL_SCENE))
    corruption = CorruptionSpec(distractors_per_frame=count, score_noise_sd=sd)
    rng = SplitRng(seed, "sweep")
    videos = generate_proposals(gt, corruption, "v", rng)
    for query, vp in videos.items():
        for frame, proposals in vp.frames.items():
            got = [(p.proposal_id, p.box, p.score) for p in proposals if p.proposal_id > 0]
            assert got == distractors_by_scalar_draws(
                rng, int(query), frame, count, sd, gt.width, gt.height
            )


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
