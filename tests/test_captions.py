"""Caption-synthesis tests: packing, record building, instruction strings,
and dataset statistics."""

import contextlib
import io
import json
import logging
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import reference
from framefuse import (
    FormatError,
    FrameFuseError,
    ParameterError,
    dataset_stats,
    load_clip_manifest,
    pack_clips,
)
from framefuse.captions import (
    LongVideoRecord,
    _records_json_parts,
    _summarize,
    _word_count,
    build_record,
    format_mmss,
)
from framefuse.cli import main
from reference import render_frame_instruction, sample_timestamps


def make_pool(n, duration=60.0):
    """The ids, durations and captions of n clips."""
    return ([f"clip-{i:04d}" for i in range(n)], [duration] * n,
            [f"caption for clip {i}" for i in range(n)])


def test_clip_record_validation(tmp_path):
    path = tmp_path / "clips.json"
    for duration, caption in ((0.0, "text"), (10.0, "")):
        path.write_text(json.dumps([{"id": "x", "duration": duration, "caption": caption}]))
        with pytest.raises(ParameterError, match="clip 'x'"):
            load_clip_manifest(path)


def test_pack_ten_sixty_second_clips_single_record():
    records = pack_clips(*make_pool(10), min_s=300, max_s=1800, seed=0)
    assert len(records) == 1
    rec = records[0]
    assert rec.total_duration_s == 600.0
    assert len(rec.starts) == len(rec.ends) == len(rec.captions) == 10
    assert sorted(rec.clip_ids) == [f"clip-{i:04d}" for i in range(10)]


def test_pack_single_short_clip_yields_nothing():
    records = pack_clips(["only"], [100.0], ["too short"])
    assert records == []


def test_pack_deterministic():
    pool = make_pool(50, duration=47.0)
    a = pack_clips(*pool, seed=7)
    b = pack_clips(*pool, seed=7)
    assert a == b
    c = pack_clips(*pool, seed=8)
    assert [r.clip_ids for r in a] != [r.clip_ids for r in c]


def test_pack_skips_oversized_clip(caplog):
    ids, durations, captions = make_pool(10)
    pool = ids + ["huge"], durations + [1800.0], captions + ["a full half hour"]
    with caplog.at_level("WARNING"):
        records = pack_clips(*pool, seed=1)
    ids = [cid for r in records for cid in r.clip_ids]
    assert "huge" not in ids
    assert any("huge" in m for m in caplog.messages)


def test_pack_clips_used_at_most_once():
    pool = make_pool(123, duration=61.0)
    records = pack_clips(*pool, seed=3)
    ids = [cid for r in records for cid in r.clip_ids]
    assert len(ids) == len(set(ids))
    assert all(300 <= r.total_duration_s <= 1800 for r in records)


def test_pack_window_validation():
    with pytest.raises(ParameterError):
        pack_clips(*make_pool(2), min_s=100, max_s=1800)
    with pytest.raises(ParameterError):
        pack_clips([], [], [])


def test_pack_drops_undersized_group_on_overflow(caplog):
    # a 1750 s clip cannot join the 100 s group without passing max_s, so
    # the undersized group is dropped with a warning
    with caplog.at_level("WARNING"):
        records = pack_clips(["tiny", "big"], [100.0, 1750.0], ["x", "y"], seed=4)
    assert [r.clip_ids for r in records] == [["big"]]
    assert any("dropping group" in m for m in caplog.messages)


def test_build_record_cumulative_spans():
    rec = build_record(["a", "b", "c"], [120.0, 240.0, 180.0],
                       ["first part", "second part", "third part"])
    spans = list(zip(rec.starts, rec.ends))
    assert spans == [(0.0, 120.0), (120.0, 360.0), (360.0, 540.0)]
    assert rec.total_duration_s == 540.0
    assert rec.merged_caption.splitlines() == [
        "[00:00 - 02:00] first part",
        "[02:00 - 06:00] second part",
        "[06:00 - 09:00] third part",
    ]


def test_build_record_single_400s_clip():
    rec = build_record(["solo"], [400.0], ["one long take"])
    assert rec.merged_caption == "[00:00 - 06:40] one long take"


def test_build_record_below_minimum():
    with pytest.raises(ParameterError):
        build_record(["a"], [200.0], ["short"])


def test_build_record_rounding_half_up():
    rec = build_record(["a", "b"], [125.5, 240.0], ["x", "y"])
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


def test_segment_partition_invariant():
    records = pack_clips(*make_pool(200, duration=73.0), seed=11)
    assert records
    for rec in records:
        cursor = 0.0
        for start, end in zip(rec.starts, rec.ends):
            assert start == pytest.approx(cursor, abs=1e-9)
            cursor = end
        assert cursor == pytest.approx(rec.total_duration_s, abs=1e-9)


def test_dataset_stats_single_bucket():
    stats = dataset_stats(["a"], [600.0], ["six hundred seconds of video"])
    hits = [b for b in stats["duration_hist"] if b["count"]]
    assert len(hits) == 1
    assert (hits[0]["lo"], hits[0]["hi"]) == (600.0, 660.0)
    assert hits[0]["count"] == 1


def test_dataset_stats_conservation():
    pool = make_pool(300, duration=91.0)
    records = pack_clips(*pool, seed=13)
    stats = dataset_stats(*pool, seed=13)
    assert sum(b["count"] for b in stats["duration_hist"]) == len(records)
    assert sum(b["count"] for b in stats["caption_words_hist"]) == len(records)
    assert 300 <= stats["mean_duration_s"] <= 1800
    assert stats["count"] == len(records)


@pytest.mark.parametrize("durations, caption_words, duration_bin, word_bins", [
    ([300.0], [1], 0, [(0, 200, 1)]),  # a record of exactly 300 s: the first bin
    ([900.0, 900.0], [1, 1], 24, [(0, 200, 1)]),  # exactly 1,800 s: the last bin, closed
    # 3 + 197 words: on the edge between two bins, below the top of 250
    ([1000.0, 1000.0], [197, 247], 11, [(0, 200, 0), (200, 400, 2)]),
    # 3 + 397 words: equal to the top, in the last bin, closed
    ([1000.0, 1000.0], [397, 97], 11, [(0, 200, 1), (200, 400, 1)]),
], ids=["300s", "1800s", "word-edge", "word-top"])
def test_dataset_stats_bins_by_the_readme_rule(durations, caption_words, duration_bin,
                                               word_bins):
    ids = [f"c{i}" for i in range(len(durations))]
    captions = [" ".join(["w"] * n) for n in caption_words]
    stats = dataset_stats(ids, durations, captions)
    records = reference.pack_clips(list(zip(ids, durations, captions)))
    assert stats == reference.dataset_stats(records)
    counts = [b["count"] for b in stats["duration_hist"]]
    assert counts == [len(records) if i == duration_bin else 0 for i in range(25)]
    assert [(b["lo"], b["hi"], b["count"]) for b in stats["caption_words_hist"]] == word_bins


def test_dataset_stats_top_of_zero_words():
    # no record has fewer than 3 words, so only the summary can see a top of 0
    stats = _summarize([600.0, 1800.0], [0, 0])
    assert stats == reference.summarize([600.0, 1800.0], [0, 0])
    assert stats["caption_words_hist"] == [{"lo": 0, "hi": 200, "count": 2}]
    assert [b["count"] for b in stats["duration_hist"]][5::19] == [1, 1]


def test_dataset_stats_empty():
    # two 60 s clips pack into no record
    with pytest.raises(ParameterError, match="no records produced"):
        dataset_stats(*make_pool(2))


def test_manifest_roundtrip(tmp_path):
    path = tmp_path / "clips.json"
    path.write_text(json.dumps([
        {"id": "a", "duration": 30.5, "caption": "hello"},
        {"id": "b", "duration": 61.0, "caption": "world"},
    ]))
    ids, durations, captions = load_clip_manifest(path)
    assert ids == ["a", "b"]
    assert durations == [30.5, 61.0]
    assert captions == ["hello", "world"]


def test_manifest_malformed_json_names_offset(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('[{"id": "a", "duration": }]')
    with pytest.raises(FormatError, match=r"byte offset \d+"):
        load_clip_manifest(path)


def test_manifest_malformed_json_offset_counts_bytes(tmp_path):
    # "é" is two bytes in UTF-8, so the stray "]" is character 49 and byte 50
    path = tmp_path / "bad.json"
    path.write_bytes('[{"id": "a", "duration": 1.0, "caption": "café"},]'.encode())
    with pytest.raises(FormatError) as info:
        load_clip_manifest(path)
    assert str(info.value) == f"{path}: invalid JSON at byte offset 50"


def test_manifest_missing_field(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('[{"id": "a", "caption": "x"}]')
    with pytest.raises(FormatError, match="entry 0"):
        load_clip_manifest(path)


def test_record_to_dict_schema():
    rec = build_record(["a"], [400.0], ["text"], n_frames=4)
    (doc,) = json.loads("".join(_records_json_parts([rec])))
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
    return "".join(_records_json_parts(records))


def _record_dict(record):
    """The written schema of a LongVideoRecord."""
    return {
        "clip_ids": list(record.clip_ids),
        "total_duration_s": record.total_duration_s,
        "segments": [{"start_s": a, "end_s": b, "caption": c}
                     for a, b, c in zip(record.starts, record.ends, record.captions)],
        "merged_caption": record.merged_caption,
        "instruction": record.instruction,
    }


def _oracle(records):
    return json.dumps([_record_dict(r) for r in records], indent=2, sort_keys=True)


@settings(max_examples=60, deadline=None)
@given(
    pool=st.lists(st.tuples(_text, _duration, _text), min_size=1, max_size=40),
    seed=st.integers(0, 2**16),
    n_frames=st.integers(1, 6),
)
def test_records_json_equals_json_dumps(pool, seed, n_frames):
    records = pack_clips(*map(list, zip(*pool)), seed=seed, n_frames=n_frames)
    assert _records_json(records) == _oracle(records)


def test_records_json_long_reprs_and_empty():
    assert _records_json([]) == _oracle([]) == "[]"
    ids = [f'c"{i}\\😀' for i in range(20)]
    captions = [f"line\n{i}\t\ud800é" for i in range(20)]
    durations = [1 / 3 + 20] * 20
    records = [build_record(ids, durations, captions),
               build_record(ids[:15], durations[:15], captions[:15], n_frames=3)]
    assert repr(records[0].ends[1]) == "40.666666666666664"
    assert _records_json(records) == _oracle(records)


def test_records_json_boundaries_that_are_close_but_not_equal():
    # the writer may reuse a boundary's text only where the floats are
    # equal; 0.0 == -0.0, but their reprs differ
    rec = LongVideoRecord(clip_ids=list("abcde"), total_duration_s=400.0,
                          starts=[-5e-7, -0.0, 100.0 + 5e-7, 250.0 - 3e-7, 250.5],
                          ends=[0.0, 100.0, 250.0, 250.5, 400.0], captions=list("abcde"),
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
        rec = build_record(*make_pool(n, duration=600.0 / n))
        assert len(labelled) == n + 1
        assert rec.merged_caption.count("\n") == n - 1


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
    _, (duration,), _ = load_clip_manifest(path)
    assert type(duration) is float and duration == 60.0


# -- synth against the clip-by-clip oracle ----------------------------------------

_MALFORMED_MANIFESTS = [
    '[{"id": "a", "duration": }]',
    '[{"id": "a", "caption": "x"}]',
    *(json.dumps([_GOOD, entry]) for entry, _ in _COERCED_ENTRIES),
    '[{"id": "a", "duration": ' + "1" * 5000 + ', "caption": "x"}]',
    json.dumps([_GOOD, dict(_GOOD, id="b"), dict(_GOOD, duration=9.0)]),
    '[{"id": 1, "duration": true, "caption": 5}, {"id": "1", "duration": "60", "caption": "x"}]',
    json.dumps(_GOOD),  # not an array
    # the clip rule: a finite duration above 0 and a nonempty caption
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
    clip-by-clip packer, and the warnings it logs."""

    def pack():
        return reference.pack_clips(reference.clip_pool(entries), min_s, max_s, seed, n_frames)

    try:
        records, _, _, warnings = _with_warnings(pack)
    except ParameterError as exc:
        failed = (1, "", f"error: {exc}\n")
        return failed, failed, None
    synth = (0, json.dumps(records, indent=2, sort_keys=True) + "\n",
             f"packed {len(entries)} clips into {len(records)} records\n")
    if not records:
        return synth, (1, "", "error: no records produced; nothing to summarize\n"), warnings
    stats = (0, json.dumps(reference.dataset_stats(records), indent=2, sort_keys=True) + "\n",
             "")
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
