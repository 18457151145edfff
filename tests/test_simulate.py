import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trackref.geometry import (
    AffineTransform,
    Box,
    box_from_mask,
    empty_mask,
    rasterize_box,
)
from trackref.metrics import track_miou
from trackref.rerank import Proposal, VideoProposals, raw_select, rerank_scores, select_track
from trackref.rng import SplitRng
from trackref.simulate import (
    MAX_PROPOSAL_ROWS,
    CorruptionSpec,
    ObjectSpec,
    SceneSpec,
    check_proposal_rows,
    flow_magnitude_image,
    generate_proposals,
    generate_scene,
    guidance_channels,
    jitter_box,
    parse_corruption_spec,
    parse_scene_spec,
    synth_flow,
)

SCENE_TEXT = """
# toy scene
width = 48
height = 32
num_frames = 6
object1.box = 4 6 10 8
object1.motion = 1 0 2 0 1 0
"""


class TestSpecFiles:
    def test_parse_scene(self):
        spec = parse_scene_spec(SCENE_TEXT)
        assert (spec.width, spec.height, spec.num_frames) == (48, 32, 6)
        assert spec.objects[0].initial_box == Box(4, 6, 10, 8)
        assert spec.objects[0].motion == AffineTransform.translation(2, 0)

    def test_unknown_key_named(self):
        with pytest.raises(ValueError, match="speed"):
            parse_scene_spec("width = 4\nheight = 4\nnum_frames = 1\nobject1.box = 0 0 2 2\nspeed = 9\n")
        # Draws are keyed by the corruption spec's seed, and no code moves the
        # background: a scene has neither key.
        for line in ("seed = 3", "background = 1 0 0 0 1 0"):
            with pytest.raises(ValueError, match=f"unknown scene spec key: '{line.split()[0]}'"):
                parse_scene_spec(f"width = 4\nheight = 4\nnum_frames = 1\nobject1.box = 0 0 2 2\n{line}\n")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            parse_scene_spec("width = 4\nwidth = 5\n")

    def test_bad_affine_arity(self):
        with pytest.raises(ValueError, match="6 numbers"):
            parse_scene_spec(
                "width = 8\nheight = 8\nnum_frames = 1\n"
                "object1.box = 0 0 2 2\nobject1.motion = 1 0 0\n"
            )

    def test_corruption_spec(self):
        spec = parse_corruption_spec(
            "distractors_per_frame = 3\nscore_noise_sd = 0.05\n"
            "id_switch_prob = 0.3\nbox_jitter_fraction = 0.1\nseed = 11\n"
        )
        assert spec == CorruptionSpec(3, 0.05, 0.3, 0.1, 11)

    def test_corruption_unknown_key(self):
        with pytest.raises(ValueError, match="jitters"):
            parse_corruption_spec("jitters = 1\n")

    def test_probability_out_of_range(self):
        with pytest.raises(ValueError, match="id_switch_prob"):
            parse_corruption_spec("id_switch_prob = 1.5\n")


class TestJitterBox:
    def test_zero_fraction_is_identity(self):
        box = Box(10.0, 10.0, 100.0, 50.0)
        out = jitter_box(box, 0.0, SplitRng(1), 200, 100)
        assert out == box

    def test_envelope_respected(self):
        box = Box(10, 10, 100, 50)
        root = SplitRng(42, "envelope")
        for draw in range(1000):
            out = jitter_box(box, 0.2, root.child(draw), 200, 100)
            assert abs(out.x - box.x) <= 20.0
            assert abs((out.x + out.w) - (box.x + box.w)) <= 20.0
            assert abs(out.y - box.y) <= 10.0
            assert abs((out.y + out.h) - (box.y + box.h)) <= 10.0

    def test_corner_box_clamped_to_bounds(self):
        box = Box(0.5, 0.5, 10, 10)
        root = SplitRng(7, "corner")
        for draw in range(500):
            out = jitter_box(box, 0.9, root.child(draw), 12, 12)
            assert out.x >= 0.0 and out.y >= 0.0
            assert out.x + out.w <= 12.0 and out.y + out.h <= 12.0
            assert out.w > 0 and out.h > 0

    def test_offset_histograms_are_uniform(self):
        # Each edge offset should fill its +-20 range evenly.
        box = Box(50, 50, 100, 100)
        root = SplitRng(3, "uniformity")
        draws = 100_000
        offsets = np.empty((draws, 4))
        for i in range(draws):
            out = jitter_box(box, 0.2, root.child(i), 1000, 1000)
            offsets[i] = (
                out.x - box.x,
                (out.x + out.w) - (box.x + box.w),
                out.y - box.y,
                (out.y + out.h) - (box.y + box.h),
            )
        for column in range(4):
            counts, _ = np.histogram(offsets[:, column], bins=10, range=(-20, 20))
            expected = draws / 10
            assert np.abs(counts - expected).max() < 0.05 * expected

    def test_negative_fraction_rejected(self):
        with pytest.raises(ValueError):
            jitter_box(Box(0, 0, 5, 5), -0.1, SplitRng(0), 10, 10)

    @pytest.mark.parametrize("fraction", [float("nan"), float("inf")])
    def test_non_finite_fraction_rejected(self, fraction):
        with pytest.raises(ValueError, match="finite"):
            jitter_box(Box(0, 0, 5, 5), fraction, SplitRng(0), 10, 10)

    def test_box_wider_than_image_allows_falls_back_to_minimum_size(self):
        # No draw leaves a side over one pixel in a 1.5-pixel-wide image, so
        # every retry fails: the box is clamped into the image, and its side
        # of 0 px there is widened to 1 px inside it.
        root = SplitRng(5, "fallback")
        for draw in range(20):
            out = jitter_box(Box(3.0, 2.0, 10.0, 10.0), 0.1, root.child(draw), 1.5, 8.0)
            assert out == Box(0.5, 2.0, 1.0, 6.0)

    @pytest.mark.parametrize("box, expected", [
        (Box(0, 0, 2, 1), Box(0, 0, 2, 1)),  # a 1 px sliver stays as it is
        (Box(3, -0.5, 4, 1), Box(3, 0, 4, 1)),  # 0.5 px inside: widened to 1 px
        (Box(7.5, 7.8, 3, 0.1), Box(7, 7, 1, 1)),  # widened inside the image
        (Box(-9, 20, 2, 2), Box(0, 7, 1, 1)),  # wholly outside: 1 px at the edge
    ])
    def test_a_side_of_one_pixel_or_less_at_fraction_zero(self, box, expected):
        # Every draw leaves such a side at 1 px or less, so every retry fails.
        for draw in range(5):
            assert jitter_box(box, 0.0, SplitRng(9).child(draw), 8, 8) == expected


class TestSynthFlow:
    def test_translation_magnitudes(self):
        mask = empty_mask(8, 8)
        mask[2:5, 2:5] = True
        flow = synth_flow(mask, AffineTransform.translation(3, 4), AffineTransform.identity())
        magnitude = np.hypot(flow[..., 0], flow[..., 1])
        assert np.allclose(magnitude[mask], 5.0)
        assert np.allclose(magnitude[~mask], 0.0)

    def test_identity_everywhere(self):
        mask = empty_mask(4, 4)
        mask[1, 1] = True
        flow = synth_flow(mask, AffineTransform.identity(), AffineTransform.identity())
        assert np.allclose(flow, 0.0)

    def test_scaling_flow_is_linear_in_position(self):
        mask = np.ones((6, 6), dtype=bool)
        flow = synth_flow(mask, AffineTransform.scaling(1.1), AffineTransform.identity())
        cols, rows = np.meshgrid(np.arange(6, dtype=float), np.arange(6, dtype=float))
        assert np.allclose(flow[..., 0], 0.1 * cols)
        assert np.allclose(flow[..., 1], 0.1 * rows)


class TestFlowMagnitudeImage:
    def test_uniform_fields_cancel(self):
        fwd = np.full((6, 6, 2), (3.0, -2.0))
        bwd = np.full((6, 6, 2), (-1.0, 4.0))
        assert np.array_equal(flow_magnitude_image(fwd, bwd), np.zeros((6, 6)))

    def test_minority_motion_scales_to_255(self):
        fwd = np.zeros((10, 10, 2))
        fwd[:3, :, 0] = 10.0  # median over the whole field stays zero
        bwd = np.zeros((10, 10, 2))
        image = flow_magnitude_image(fwd, bwd)
        assert np.array_equal(image[:3, :], np.full((3, 10), 255.0))
        assert np.array_equal(image[3:, :], np.zeros((7, 10)))

    def test_zero_fields(self):
        zeros = np.zeros((4, 4, 2))
        assert np.array_equal(flow_magnitude_image(zeros, zeros), np.zeros((4, 4)))

    def test_range_and_shift_invariance(self):
        rng = np.random.RandomState(67)
        for _ in range(20):
            fwd = rng.randn(7, 9, 2) * 5
            bwd = rng.randn(7, 9, 2) * 5
            image = flow_magnitude_image(fwd, bwd)
            assert image.min() >= 0.0 and image.max() <= 255.0
            shift = rng.randn(2) * 10
            shifted = flow_magnitude_image(fwd + shift, bwd + shift)
            assert np.allclose(image, shifted, atol=1e-9)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            flow_magnitude_image(np.zeros((4, 4, 2)), np.zeros((4, 5, 2)))


class TestGuidanceChannels:
    def test_box_channel_pixel_count(self):
        rgb = np.zeros((4, 4, 3))
        flow = np.zeros((4, 4))
        stacked = guidance_channels(rgb, flow, Box(1, 1, 2, 2))
        assert stacked.shape == (4, 4, 5)
        assert (stacked[..., 4] == 255.0).sum() == 4

    def test_full_image_box(self):
        stacked = guidance_channels(np.zeros((3, 5, 3)), np.zeros((3, 5)), Box(0, 0, 5, 3))
        assert np.array_equal(stacked[..., 4], np.full((3, 5), 255.0))

    def test_box_outside_image(self):
        stacked = guidance_channels(np.zeros((3, 3, 3)), np.zeros((3, 3)), Box(10, 10, 2, 2))
        assert not stacked[..., 4].any()

    def test_channel_order_preserved(self):
        rng = np.random.RandomState(71)
        rgb = rng.rand(5, 6, 3) * 255
        flow = rng.rand(5, 6) * 255
        stacked = guidance_channels(rgb, flow, Box(1, 1, 2, 2))
        assert np.array_equal(stacked[..., :3], rgb)
        assert np.array_equal(stacked[..., 3], flow)

    def test_box_channel_matches_rasterization(self):
        box = Box(2, 1, 3, 2)
        stacked = guidance_channels(np.zeros((6, 8, 3)), np.zeros((6, 8)), box)
        raster = rasterize_box(box, 8, 6)
        assert np.array_equal(stacked[..., 4] == 255.0, raster)
        assert box_from_mask(raster) == box

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            guidance_channels(np.zeros((4, 4, 3)), np.zeros((5, 4)), Box(0, 0, 1, 1))


def _static_scene(num_frames=4):
    return SceneSpec(
        width=32, height=24, num_frames=num_frames,
        objects=(ObjectSpec(Box(4, 5, 8, 6), AffineTransform.identity()),),
    )


def _moving_scene(dx=2.0, num_frames=8):
    return SceneSpec(
        width=48, height=24, num_frames=num_frames,
        objects=(ObjectSpec(Box(2, 6, 10, 8), AffineTransform.translation(dx, 0)),),
    )


def _boxes(spec):
    """``generate_scene``'s boxes of ``spec``; its masks are dropped."""
    return generate_scene(spec, lambda *_: None)


@st.composite
def scene_specs(draw):
    """A scene of 1-6 frames and 1-3 objects whose first boxes lie in the frame."""
    width, height = draw(st.integers(1, 40)), draw(st.integers(1, 40))
    objects = []
    for _ in range(draw(st.integers(1, 3))):
        w, h = draw(st.integers(1, width)), draw(st.integers(1, height))
        box = Box(draw(st.integers(0, width - w)), draw(st.integers(0, height - h)), w, h)
        scale = draw(st.sampled_from([1.0, 1.1, 0.9]))
        motion = AffineTransform(scale, 0, draw(st.integers(-3, 3)),
                                 0, scale, draw(st.integers(-3, 3)))
        objects.append(ObjectSpec(box, motion))
    return SceneSpec(width, height, draw(st.integers(1, 6)), tuple(objects))


class TestGenerateScene:
    def test_static_object_repeats_masks(self):
        masks = {}
        boxes = generate_scene(
            _static_scene(), lambda obj, frame, mask: masks.setdefault((obj, frame), mask.copy())
        )
        first = masks[1, 1]
        for frame in range(2, 5):
            assert np.array_equal(masks[1, frame], first)
            assert boxes[1][frame] == boxes[1][1]

    @settings(max_examples=50, deadline=None)
    @given(spec=scene_specs())
    def test_sink_gets_each_mask_in_order_and_its_box_is_returned(self, spec):
        calls = []

        def sink(obj, frame, mask):
            assert mask.shape == (spec.height, spec.width)
            calls.append((obj, frame, box_from_mask(mask)))

        boxes = generate_scene(spec, sink)
        assert [call[:2] for call in calls] == [
            (obj, frame) for obj in range(1, len(spec.objects) + 1)
            for frame in range(1, spec.num_frames + 1)
        ]
        assert sorted(boxes) == list(range(1, len(spec.objects) + 1))
        # A frame whose mask is empty has no entry; every other frame has its box.
        assert all(box == boxes[obj].get(frame) for obj, frame, box in calls)
        assert sum(map(len, boxes.values())) == sum(box is not None for *_, box in calls)

    def test_translation_advances_box(self):
        boxes = _boxes(_moving_scene(dx=2.0, num_frames=5))
        for frame in range(1, 6):
            assert boxes[1][frame] == Box(2 + 2 * (frame - 1), 6, 10, 8)

    def test_object_exits_leaving_a_prefix_of_frames(self):
        # x = 2, 14, 26, 38 in a 48-pixel-wide image, then 50 and on: gone.
        empty = []
        track = generate_scene(
            _moving_scene(dx=12.0, num_frames=8),
            lambda obj, frame, mask: empty.append(frame) if not mask.any() else None,
        )[1]
        assert list(track) == [1, 2, 3, 4]
        assert track[4] == Box(38, 6, 10, 8)
        assert empty == [5, 6, 7, 8]  # each still goes to the sink

    def test_size_above_the_mask_cap_rejected(self):
        # One pixel row more than 16384 x 16384, the cap; nothing is rendered.
        message = "^mask size 16385x16384 exceeds the limit of 268435456 pixels$"
        with pytest.raises(ValueError, match=message):
            SceneSpec(
                width=16384, height=16385, num_frames=1,
                objects=(ObjectSpec(Box(0, 0, 1, 1), AffineTransform.identity()),),
            )

    def test_initial_box_outside_bounds_rejected(self):
        with pytest.raises(ValueError, match="bounds"):
            SceneSpec(
                width=8, height=8, num_frames=1,
                objects=(ObjectSpec(Box(6, 6, 4, 4), AffineTransform.identity()),),
            )


class TestGenerateProposals:
    def test_uncorrupted_proposals_recover_ground_truth(self):
        spec = _moving_scene(dx=1.0, num_frames=6)
        boxes = _boxes(spec)
        proposals = generate_proposals(spec, boxes, CorruptionSpec(seed=5))
        track = raw_select(proposals["1"])
        assert track_miou(track, boxes[1]) == 1.0

    def test_same_seed_is_identical(self):
        spec = _moving_scene()
        boxes = _boxes(spec)
        first = generate_proposals(spec, boxes, CorruptionSpec(3, 0.05, 0.3, 0.1, seed=9))
        second = generate_proposals(spec, boxes, CorruptionSpec(3, 0.05, 0.3, 0.1, seed=9))
        assert first["1"].frames == second["1"].frames

    def test_different_seeds_differ(self):
        spec = _moving_scene()
        boxes = _boxes(spec)
        first = generate_proposals(spec, boxes, CorruptionSpec(3, 0.05, 0.3, 0.1, seed=9))
        second = generate_proposals(spec, boxes, CorruptionSpec(3, 0.05, 0.3, 0.1, seed=10))
        assert first["1"].frames != second["1"].frames

    def test_multi_object_scene_yields_independent_queries(self):
        spec = SceneSpec(
            width=48, height=32, num_frames=4,
            objects=(
                ObjectSpec(Box(2, 2, 8, 8), AffineTransform.translation(1, 0)),
                ObjectSpec(Box(30, 18, 10, 10), AffineTransform.identity()),
            ),
        )
        proposals = generate_proposals(
            spec, _boxes(spec), CorruptionSpec(2, 0.02, 0.0, 0.05, seed=2)
        )
        assert set(proposals) == {"1", "2"}
        for vp in proposals.values():
            assert vp.frame_ids == [1, 2, 3, 4]

    def test_the_row_cap_counts_every_frame_distractor_object_and_scene(self):
        spec = _moving_scene(num_frames=2**15)  # one object
        check_proposal_rows(spec, CorruptionSpec(7), 8)
        assert 2**15 * (1 + 7) * 8 == MAX_PROPOSAL_ROWS
        for corruption, scenes in ((CorruptionSpec(8), 8), (CorruptionSpec(7), 9)):
            with pytest.raises(ValueError, match=r"^\d+ proposal rows .* exceed the limit"):
                check_proposal_rows(spec, corruption, scenes)

    def test_switched_scores_swap_target_and_distractor(self):
        spec = _static_scene(num_frames=3)
        always = generate_proposals(
            spec, _boxes(spec), CorruptionSpec(1, 0.0, 1.0, 0.0, seed=4)
        )["1"]
        for frame, proposals in always.frames.items():
            by_id = {p.proposal_id: p for p in proposals}
            assert by_id[0].score == 0.3
            assert by_id[1].score == 0.8


class TestFixedDistractorScenario:
    def test_coherent_tube_wins_when_all_scores_swapped(self):
        # A spatially fixed distractor whose score trades places with the
        # target's in every frame: the raw argmax tracks it, and re-ranking
        # also settles on it, because the fixed high-scoring tube has the
        # highest aggregate coherence.  Both selectors agree frame-for-frame.
        target_box = Box(4, 4, 10, 8)
        distractor_box = Box(30, 10, 10, 8)
        proposals = []
        for frame in range(1, 9):
            proposals.append(Proposal(frame, target_box, 0.3, 0.9, 0))
            proposals.append(Proposal(frame, distractor_box, 0.8, 0.9, 1))
        vp = VideoProposals.from_proposals(proposals)
        gt = {frame: target_box for frame in range(1, 9)}

        raw = raw_select(vp)
        reranked = select_track(rerank_scores(vp))
        assert all(raw[f] == distractor_box for f in range(1, 9))
        assert all(reranked[f] == distractor_box for f in range(1, 9))
        assert track_miou(reranked, gt) == track_miou(raw, gt)


class TestSplitRng:
    def test_streams_are_deterministic(self):
        a = SplitRng(11, "stream").child("x", 3)
        b = SplitRng(11, "stream").child("x", 3)
        assert [a.next_u64() for _ in range(5)] == [b.next_u64() for _ in range(5)]

    def test_children_do_not_disturb_parent(self):
        parent = SplitRng(12)
        before = parent.child("probe").next_u64()
        parent.child("side").next_u64()
        assert SplitRng(12).child("probe").next_u64() == before

    def test_distinct_paths_decorrelate(self):
        values = {SplitRng(1, "a", i).next_u64() for i in range(1000)}
        assert len(values) == 1000

    def test_unit_range(self):
        rng = SplitRng(31)
        for _ in range(1000):
            value = rng.unit()
            assert 0.0 <= value < 1.0

    def test_randint_bounds_and_rejection(self):
        rng = SplitRng(17)
        seen = {rng.randint(1, 3) for _ in range(200)}
        assert seen == {1, 2, 3}
        with pytest.raises(ValueError):
            rng.randint(3, 1)

    def test_normal_zero_sd_is_exact(self):
        assert SplitRng(5).normal(0.25, 0.0) == 0.25
