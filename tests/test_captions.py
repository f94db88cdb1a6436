"""Caption-synthesis tests: packing, record building, instruction strings,
and dataset statistics."""

import contextlib
import copy
import io
import json
import logging
import pickle
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import reference
from framefuse import (
    ClipRecord,
    FormatError,
    FrameFuseError,
    LongVideoRecord,
    ParameterError,
    Segment,
    dataset_stats,
    load_clip_manifest,
    pack_clips,
)
from framefuse.captions import _records_json_parts, _word_count, build_record, format_mmss
from framefuse.cli import main
from reference import render_frame_instruction, sample_timestamps


def make_pool(n, duration=60.0):
    return [ClipRecord(f"clip-{i:04d}", duration, f"caption for clip {i}") for i in range(n)]


def test_clip_record_validation():
    with pytest.raises(ParameterError):
        ClipRecord("x", 0.0, "text")
    with pytest.raises(ParameterError):
        ClipRecord("x", 10.0, "")


def test_pack_ten_sixty_second_clips_single_record():
    records = pack_clips(make_pool(10), min_s=300, max_s=1800, seed=0)
    assert len(records) == 1
    rec = records[0]
    assert rec.total_duration_s == 600.0
    assert len(rec.segments) == 10
    assert sorted(rec.clip_ids) == [f"clip-{i:04d}" for i in range(10)]


def test_pack_single_short_clip_yields_nothing():
    records = pack_clips([ClipRecord("only", 100.0, "too short")])
    assert records == []


def test_pack_deterministic():
    pool = make_pool(50, duration=47.0)
    a = pack_clips(pool, seed=7)
    b = pack_clips(pool, seed=7)
    assert [r.to_dict() for r in a] == [r.to_dict() for r in b]
    c = pack_clips(pool, seed=8)
    assert [r.clip_ids for r in a] != [r.clip_ids for r in c]


def test_pack_skips_oversized_clip(caplog):
    pool = make_pool(10) + [ClipRecord("huge", 1800.0, "a full half hour")]
    with caplog.at_level("WARNING"):
        records = pack_clips(pool, seed=1)
    ids = [cid for r in records for cid in r.clip_ids]
    assert "huge" not in ids
    assert any("huge" in m for m in caplog.messages)


def test_pack_clips_used_at_most_once():
    pool = make_pool(123, duration=61.0)
    records = pack_clips(pool, seed=3)
    ids = [cid for r in records for cid in r.clip_ids]
    assert len(ids) == len(set(ids))
    assert all(300 <= r.total_duration_s <= 1800 for r in records)


def test_pack_window_validation():
    with pytest.raises(ParameterError):
        pack_clips(make_pool(2), min_s=100, max_s=1800)
    with pytest.raises(ParameterError):
        pack_clips([])


def test_pack_drops_undersized_group_on_overflow(caplog):
    # a 1750 s clip cannot join the 100 s group without passing max_s, so
    # the undersized group is dropped with a warning
    pool = [ClipRecord("tiny", 100.0, "x"), ClipRecord("big", 1750.0, "y")]
    with caplog.at_level("WARNING"):
        records = pack_clips(pool, seed=4)
    assert [r.clip_ids for r in records] == [("big",)]
    assert any("dropping group" in m for m in caplog.messages)


def test_build_record_cumulative_spans():
    clips = [
        ClipRecord("a", 120.0, "first part"),
        ClipRecord("b", 240.0, "second part"),
        ClipRecord("c", 180.0, "third part"),
    ]
    rec = build_record(clips)
    spans = [(s.start_s, s.end_s) for s in rec.segments]
    assert spans == [(0.0, 120.0), (120.0, 360.0), (360.0, 540.0)]
    assert rec.total_duration_s == 540.0
    assert rec.merged_caption.splitlines() == [
        "[00:00 - 02:00] first part",
        "[02:00 - 06:00] second part",
        "[06:00 - 09:00] third part",
    ]


def test_build_record_single_400s_clip():
    rec = build_record([ClipRecord("solo", 400.0, "one long take")])
    assert rec.merged_caption == "[00:00 - 06:40] one long take"


def test_build_record_below_minimum():
    with pytest.raises(ParameterError):
        build_record([ClipRecord("a", 200.0, "short")])


def test_build_record_rounding_half_up():
    clips = [ClipRecord("a", 125.5, "x"), ClipRecord("b", 240.0, "y")]
    rec = build_record(clips)
    # 125.5 rounds half-up to 126 -> 02:06
    assert rec.merged_caption.splitlines()[0] == "[00:00 - 02:06] x"


def test_render_instruction_exact_strings():
    assert (
        render_frame_instruction(2, 10.0, [0.0, 5.0])
        == "This video samples 2 frames of a 10-second video at 0.0, 5.0 seconds."
    )
    assert (
        render_frame_instruction(1, 1.0, [0.0])
        == "This video samples 1 frames of a 1-second video at 0.0 seconds."
    )


def test_render_instruction_errors():
    with pytest.raises(ParameterError):
        render_frame_instruction(2, 10.0, [5.0, 3.0])  # non-monotone
    with pytest.raises(ParameterError):
        render_frame_instruction(3, 10.0, [0.0, 5.0])  # length mismatch
    with pytest.raises(ParameterError):
        render_frame_instruction(2, 10.0, [0.0, 11.0])  # out of range


def test_render_instruction_parse_roundtrip():
    total = 623.7
    ts = sample_timestamps(total, 8)
    text = render_frame_instruction(8, total, ts)
    m = re.fullmatch(
        r"This video samples (\d+) frames of a (\d+)-second video at ([\d., ]+) seconds\.",
        text,
    )
    assert m
    assert int(m.group(1)) == 8
    assert int(m.group(2)) == 624  # nearest integer
    parsed = [float(x) for x in m.group(3).split(", ")]
    assert parsed == [round(t, 1) for t in ts]


def test_sample_timestamps():
    assert sample_timestamps(32.0, 32) == [float(i) for i in range(32)]
    assert sample_timestamps(600.0, 4) == [0.0, 150.0, 300.0, 450.0]
    assert sample_timestamps(10.0, 1) == [0.0]
    with pytest.raises(ParameterError):
        sample_timestamps(10.0, 0)


def test_record_validation():
    seg = Segment(0.0, 400.0, "x")
    with pytest.raises(ParameterError):  # duration out of window
        LongVideoRecord(("a",), 200.0, (Segment(0.0, 200.0, "x"),), "c", "i")
    with pytest.raises(ParameterError):  # gap between segments
        LongVideoRecord(
            ("a", "b"), 800.0,
            (seg, Segment(500.0, 800.0, "y")), "c", "i",
        )
    with pytest.raises(ParameterError):  # segments do not reach the total
        LongVideoRecord(("a",), 500.0, (seg,), "c", "i")


def test_segment_partition_invariant():
    records = pack_clips(make_pool(200, duration=73.0), seed=11)
    assert records
    for rec in records:
        cursor = 0.0
        for seg in rec.segments:
            assert seg.start_s == pytest.approx(cursor, abs=1e-9)
            cursor = seg.end_s
        assert cursor == pytest.approx(rec.total_duration_s, abs=1e-9)


def test_dataset_stats_single_bucket():
    rec = build_record([ClipRecord("a", 600.0, "six hundred seconds of video")])
    stats = dataset_stats([rec])
    hits = [b for b in stats["duration_hist"] if b["count"]]
    assert len(hits) == 1
    assert (hits[0]["lo"], hits[0]["hi"]) == (600.0, 660.0)
    assert hits[0]["count"] == 1


def test_dataset_stats_conservation():
    records = pack_clips(make_pool(300, duration=91.0), seed=13)
    stats = dataset_stats(records)
    assert sum(b["count"] for b in stats["duration_hist"]) == len(records)
    assert sum(b["count"] for b in stats["caption_words_hist"]) == len(records)
    assert 300 <= stats["mean_duration_s"] <= 1800
    assert stats["count"] == len(records)


def test_dataset_stats_empty():
    with pytest.raises(ParameterError):
        dataset_stats([])


def test_manifest_roundtrip(tmp_path):
    path = tmp_path / "clips.json"
    path.write_text(json.dumps([
        {"id": "a", "duration": 30.5, "caption": "hello"},
        {"id": "b", "duration": 61.0, "caption": "world"},
    ]))
    clips = load_clip_manifest(path)
    assert [c.id for c in clips] == ["a", "b"]
    assert clips[0].duration_s == 30.5


def test_manifest_malformed_json_names_offset(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('[{"id": "a", "duration": }]')
    with pytest.raises(FormatError, match=r"byte offset \d+"):
        load_clip_manifest(path)


def test_manifest_missing_field(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('[{"id": "a", "caption": "x"}]')
    with pytest.raises(FormatError, match="entry 0"):
        load_clip_manifest(path)


def test_record_to_dict_schema():
    rec = build_record([ClipRecord("a", 400.0, "text")], n_frames=4)
    doc = rec.to_dict()
    assert set(doc) == {
        "clip_ids", "total_duration_s", "segments", "merged_caption", "instruction",
    }
    assert doc["segments"][0] == {"start_s": 0.0, "end_s": 400.0, "caption": "text"}
    assert doc["instruction"].startswith("This video samples 4 frames of a 400-second")


# -- the records writer against json.dumps ------------------------------------

_TRICKY = ['"', "\\", "\n", "\t", "\x00", "\x1f", "\x7f", "/", "é", "中", "😀",
           "\ud800", "\udfff"]
_text = st.text(alphabet=st.one_of(st.sampled_from(_TRICKY), st.characters()), min_size=1,
                max_size=12)
_duration = st.one_of(
    st.sampled_from([1 / 3 + 20, 0.1 + 0.2, 61.0, 47.0, 1e-3 + 30, 99.99999999999]),
    st.floats(min_value=1e-9, max_value=1799.0, allow_nan=False, allow_infinity=False),
)


def _records_json(records):
    return "".join(_records_json_parts(
        [(r.clip_ids, r.total_duration_s, [s.start_s for s in r.segments],
          [s.end_s for s in r.segments], [s.caption for s in r.segments],
          r.merged_caption, r.instruction) for r in records]))


def _oracle(records):
    return json.dumps([r.to_dict() for r in records], indent=2, sort_keys=True)


@settings(max_examples=60, deadline=None)
@given(
    pool=st.lists(st.builds(ClipRecord, _text, _duration, _text), min_size=1, max_size=40),
    seed=st.integers(0, 2**16),
    n_frames=st.integers(1, 6),
)
def test_records_json_equals_json_dumps(pool, seed, n_frames):
    records = pack_clips(pool, seed=seed, n_frames=n_frames)
    assert _records_json(records) == _oracle(records)


def test_records_json_long_reprs_and_empty():
    assert _records_json([]) == _oracle([]) == "[]"
    clips = [ClipRecord(f'c"{i}\\😀', 1 / 3 + 20, f"line\n{i}\t\ud800é") for i in range(20)]
    records = [build_record(clips), build_record(clips[:15], n_frames=3)]
    assert repr(records[0].segments[1].end_s) == "40.666666666666664"
    assert _records_json(records) == _oracle(records)


def test_records_json_boundaries_that_are_close_but_not_equal():
    # the validator allows a gap of up to 1e-6 between segments, so the
    # writer may reuse a boundary's text only where the floats are equal;
    # 0.0 == -0.0, but their reprs differ
    segments = (Segment(-5e-7, 0.0, "a"), Segment(-0.0, 100.0, "b"),
                Segment(100.0 + 5e-7, 250.0, "c"), Segment(250.0 - 3e-7, 250.5, "d"),
                Segment(250.5, 400.0, "e"))
    rec = LongVideoRecord(clip_ids=tuple("abcde"), total_duration_s=400.0, segments=segments,
                          merged_caption="abcde", instruction="i")
    text = _records_json([rec])
    assert text == _oracle([rec])
    assert '"start_s": -0.0' in text and '"start_s": 100.0000005' in text


def test_build_record_labels_each_boundary_once(monkeypatch):
    import framefuse.captions as captions

    labelled = []

    def counting_format_mmss(seconds):
        labelled.append(seconds)
        return format_mmss(seconds)

    monkeypatch.setattr(captions, "format_mmss", counting_format_mmss)
    for n in (1, 2, 7, 30):
        labelled.clear()
        rec = build_record(make_pool(n, duration=600.0 / n))
        assert len(labelled) == n + 1
        assert rec.merged_caption.count("\n") == n - 1


def test_clip_records_and_segments_keep_value_semantics():
    clip, seg = ClipRecord("a", 1 / 3, "x"), Segment(0.0, 1 / 3, "x")
    for obj in (clip, seg):
        assert not hasattr(obj, "__dict__")
        assert pickle.loads(pickle.dumps(obj)) == obj == copy.deepcopy(obj)
        assert hash(obj) == hash(copy.copy(obj))
        with pytest.raises(AttributeError):
            obj.caption = "y"


# -- strict manifests -----------------------------------------------------------

_GOOD = {"id": "a", "duration": 30.5, "caption": "hello"}


_COERCED_ENTRIES = [
    ({"id": 1, "duration": 60.0, "caption": "x"}, "id must be a string"),
    ({"id": "b", "duration": 60.0, "caption": 5}, "caption must be a string"),
    ({"id": "b", "duration": True, "caption": "x"}, "duration must be a number"),
    ({"id": "b", "duration": "60", "caption": "x"}, "duration must be a number"),
    ({"id": "b", "duration": None, "caption": "x"}, "duration must be a number"),
    ({"id": "b", "duration": 60.0, "caption": "x", "lang": "en"}, r"has keys \['caption', 'duration', 'id', 'lang'\]"),
    ({"id": "b", "caption": "x"}, r"has keys \['caption', 'id'\]"),
    (["b", 60.0, "x"], "expected an object"),
    ({"id": "b", "duration": 10**400, "caption": "x"}, r"duration \d+ is out of range"),
]


@pytest.mark.parametrize("entry, message", _COERCED_ENTRIES)
def test_manifest_rejects_entries_it_would_coerce(tmp_path, entry, message):
    path = tmp_path / "clips.json"
    path.write_text(json.dumps([_GOOD, entry]))
    with pytest.raises(FormatError, match=f"entry 1 is malformed: {message}"):
        load_clip_manifest(path)


def test_manifest_rejects_integer_past_the_digit_limit(tmp_path):
    path = tmp_path / "clips.json"
    path.write_text('[{"id": "a", "duration": ' + "1" * 5000 + ', "caption": "x"}]')
    with pytest.raises(FormatError, match="digits"):
        load_clip_manifest(path)


def test_manifest_rejects_duplicate_ids_naming_both(tmp_path):
    path = tmp_path / "clips.json"
    path.write_text(json.dumps([_GOOD, dict(_GOOD, id="b"), dict(_GOOD, duration=9.0)]))
    with pytest.raises(FormatError, match=r"entries 0 and 2 share the id 'a'"):
        load_clip_manifest(path)


def test_manifest_rejects_mixed_types_that_used_to_collide(tmp_path):
    path = tmp_path / "clips.json"
    path.write_text('[{"id": 1, "duration": true, "caption": 5},'
                    ' {"id": "1", "duration": "60", "caption": "x"}]')
    with pytest.raises(FormatError, match="entry 0"):
        load_clip_manifest(path)


def test_manifest_integer_duration_is_a_float(tmp_path):
    path = tmp_path / "clips.json"
    path.write_text(json.dumps([dict(_GOOD, duration=60)]))
    (clip,) = load_clip_manifest(path)
    assert type(clip.duration_s) is float and clip.duration_s == 60.0


# -- synth on manifest columns against the object-based oracle -------------------

_MALFORMED_MANIFESTS = [
    '[{"id": "a", "duration": }]',
    '[{"id": "a", "caption": "x"}]',
    *(json.dumps([_GOOD, entry]) for entry, _ in _COERCED_ENTRIES),
    '[{"id": "a", "duration": ' + "1" * 5000 + ', "caption": "x"}]',
    json.dumps([_GOOD, dict(_GOOD, id="b"), dict(_GOOD, duration=9.0)]),
    '[{"id": 1, "duration": true, "caption": 5}, {"id": "1", "duration": "60", "caption": "x"}]',
    json.dumps(_GOOD),  # not an array
    # ClipRecord's rule
    json.dumps([_GOOD, dict(_GOOD, id="b", duration=0)]),
    json.dumps([_GOOD, dict(_GOOD, id="b", duration=-2.5)]),
    json.dumps([_GOOD, dict(_GOOD, id="b", caption="")]),
]


def _with_warnings(fn, *args):
    """(result, stdout, stderr, framefuse.captions warnings) of fn(*args)."""
    out, err, warnings = io.StringIO(), io.StringIO(), []
    handler = logging.Handler(logging.WARNING)
    handler.emit = lambda record: warnings.append(record.getMessage())
    log = logging.getLogger("framefuse.captions")
    log.addHandler(handler)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            result = fn(*args)
    finally:
        log.removeHandler(handler)
    return result, out.getvalue(), err.getvalue(), warnings


@pytest.mark.parametrize("text", _MALFORMED_MANIFESTS,
                         ids=[f"manifest{i}" for i in range(len(_MALFORMED_MANIFESTS))])
def test_synth_rejects_a_malformed_manifest_as_load_clip_manifest_does(tmp_path, text):
    path = tmp_path / "clips.json"
    path.write_text(text)
    with pytest.raises(FrameFuseError) as exc:
        load_clip_manifest(path)
    for extra in ([], ["--stats"]):
        got = _with_warnings(main, ["synth", str(path), *extra])
        assert got == (1, "", f"error: {exc.value}\n", [])


def _oracle_outputs(entries, min_s, max_s, seed, n_frames):
    """(code, stdout, stderr) of synth and of synth --stats, from the
    object-based packer, and the warnings it logs."""

    def pack():
        return reference.pack_clips(reference.clip_pool(entries), min_s, max_s, seed, n_frames)

    try:
        records, _, _, warnings = _with_warnings(pack)
    except ParameterError as exc:
        failed = (1, "", f"error: {exc}\n")
        return failed, failed, None
    synth = (0, json.dumps([r.to_dict() for r in records], indent=2, sort_keys=True) + "\n",
             f"packed {len(entries)} clips into {len(records)} records\n")
    if not records:
        return synth, (1, "", "error: no records produced; nothing to summarize\n"), warnings
    stats = (0, json.dumps(dataset_stats(records), indent=2, sort_keys=True) + "\n", "")
    return synth, stats, warnings


_ASCII_TEXT = st.text(alphabet=st.sampled_from("ab \t\n\x0b\x0c\r\x1c\x1f\"\\/\x00\x7f"),
                      min_size=1, max_size=16)
_ANY_TEXT = st.text(alphabet=st.one_of(st.sampled_from(_TRICKY + ["\x85", "\xa0", "\u2003"]),
                                       st.characters()), min_size=1, max_size=12)


@settings(max_examples=80, deadline=None)
@given(
    clips=st.lists(st.tuples(
        # 450 and 650 s clips can make one-clip records; clips of max_s or
        # longer are skipped; a third of a second never sums exactly
        st.one_of(st.floats(5.0, 400.0), st.integers(5, 400),
                  st.sampled_from([20 + 1 / 3, 450.0, 650.0, 600.0, 1800.0, 2500.0])),
        st.one_of(_ASCII_TEXT, _ANY_TEXT),
    ), min_size=1, max_size=50),
    id_prefix=st.sampled_from(["c", 'c"\\é', "😀\n"]),
    # a clip too short to move a running total: its record has an empty segment
    tiny=st.booleans(),
    window=st.sampled_from([(300.0, 1800.0), (300.0, 600.0), (450.5, 700.25)]),
    seed=st.integers(0, 2**16),
    n_frames=st.sampled_from([1, 32]),
)
def test_synth_outputs_equal_the_object_based_oracle(clips, id_prefix, tiny, window, seed,
                                                      n_frames):
    if tiny:
        clips = clips + [(1e-300, "tiny")]
    entries = [{"id": f"{id_prefix}{i}", "duration": duration, "caption": caption}
               for i, (duration, caption) in enumerate(clips)]
    min_s, max_s = window
    want_synth, want_stats, want_warnings = _oracle_outputs(entries, min_s, max_s, seed,
                                                            n_frames)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "clips.json"
        path.write_text(json.dumps(entries))
        argv = ["synth", str(path), "--seed", str(seed), "--min-s", repr(min_s),
                "--max-s", repr(max_s)]
        *synth, warnings = _with_warnings(main, argv + ["--frames", str(n_frames)])
        *stats, stats_warnings = _with_warnings(main, argv + ["--stats"])
    assert tuple(synth) == want_synth
    assert tuple(stats) == want_stats
    if want_warnings is not None:
        assert warnings == stats_warnings == want_warnings


def test_synth_builds_no_clip_records(tmp_path, monkeypatch):
    made = []
    check = ClipRecord.__post_init__

    def counting(self):
        made.append(self.id)
        check(self)

    monkeypatch.setattr(ClipRecord, "__post_init__", counting)
    ClipRecord("probe", 1.0, "x")
    assert made == ["probe"]  # the patch sees every construction
    made.clear()
    path = tmp_path / "clips.json"
    path.write_text(json.dumps([{"id": f"c{i}", "duration": 47.0, "caption": f"text {i}"}
                                for i in range(200)]))
    for extra in ([], ["--stats"]):
        code, out, _, _ = _with_warnings(main, ["synth", str(path), *extra])
        assert code == 0 and json.loads(out)
    assert made == []


@settings(max_examples=200, deadline=None)
@given(st.text(alphabet=st.sampled_from([chr(i) for i in range(128)] + ["\x85", "\xa0", "\u2003"]),
               max_size=40))
def test_word_count_equals_str_split(text):
    assert _word_count(text) == len(text.split())
    ascii_only = text.encode("ascii", "ignore").decode()
    assert _word_count(ascii_only) == len(ascii_only.split())


def test_format_mmss_table_equals_arithmetic():
    seconds = [s / 4 for s in range(-8, 4 * 1800 + 12)]
    seconds += [1799.4999999999998, 1799.5, 1800.4999999999998, 1800.5, 3600.0, 5e3]
    for x in seconds:
        assert format_mmss(x) == reference.format_mmss(x), x
