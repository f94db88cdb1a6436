"""Long-video caption synthesis from short annotated clips.

Clips are packed into composite records of 5 to 30 minutes; each clip
becomes one timestamped segment of the merged caption, and every record
carries the frame-sampling instruction string used for training prompts.

The work runs on manifest columns: the parallel lists of clip ids,
durations and captions that :func:`load_clip_manifest` returns. A group of
clips is a list of indices into them. :func:`pack_clips` builds the records
``synth`` writes and :func:`dataset_stats` the summary of ``synth --stats``.
"""

from __future__ import annotations

import logging
import math
from collections.abc import Iterator
from itertools import accumulate
from json.encoder import encode_basestring_ascii
from operator import lt
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .errors import FormatError, ParameterError, _check_count, _check_real, _check_seed, _read_json

logger = logging.getLogger(__name__)

MIN_DURATION_S = 300.0
MAX_DURATION_S = 1800.0
DEFAULT_RECORD_FRAMES = 32

# "MM:SS" of each whole second from 0 to MAX_DURATION_S: every boundary of
# a record rounds into this range
_MMSS = [f"{s // 60:02d}:{s % 60:02d}" for s in range(int(MAX_DURATION_S) + 1)]

# Every byte that str.split() treats as whitespace in ASCII text (those for
# which str.isspace is true) maps to b" ", every other byte to b"x"
_WORD_BYTES = bytes(32 if chr(b).isspace() else 120 for b in range(256))


class LongVideoRecord(NamedTuple):
    """A synthesized long video: clip i of *clip_ids* is segment i of the
    merged caption, spanning [starts[i], ends[i]) with captions[i]; the
    instruction is the frame-sampling prompt."""

    clip_ids: list[str]
    total_duration_s: float
    starts: list[float]
    ends: list[float]
    captions: list[str]
    merged_caption: str
    instruction: str


def _records_json_parts(records: list[LongVideoRecord]) -> Iterator[str]:
    """The text of ``json.dumps(docs, indent=2, sort_keys=True)``, one
    record at a time, written for this one schema. The doc of a record has
    its ``clip_ids``, ``total_duration_s``, ``merged_caption`` and
    ``instruction``, and ``segments``: a list of ``{"start_s", "end_s",
    "caption"}`` objects, one per clip.

    json's C encoder runs only without ``indent``; with it, json falls back
    to its pure-Python encoder, which took about three times as long as
    this on a 20,000-clip manifest.
    Keys appear in sorted order, strings go through the escaper json uses
    with ``ensure_ascii`` and floats through ``float.__repr__``, json's
    formatting of finite floats.
    """
    if not records:
        yield "[]"
        return
    enc = encode_basestring_ascii
    num = float.__repr__
    sep = "[\n"
    for clip_ids, total, starts, ends, captions, merged_caption, instruction in records:
        lines = []
        end = end_text = None
        for start, stop, caption in zip(starts, ends, captions):
            # a segment that starts where the last one ended reuses that
            # boundary's text: equal floats share one repr, except 0.0 and -0.0
            start_text = end_text if start == end and end else num(start)
            end, end_text = stop, num(stop)
            lines.append(
                f'      {{\n        "caption": {enc(caption)},\n'
                f'        "end_s": {end_text},\n'
                f'        "start_s": {start_text}\n      }}'
            )
        segments_text = ",\n".join(lines)
        clip_ids_text = ",\n      ".join(map(enc, clip_ids))
        yield (
            f'{sep}  {{\n    "clip_ids": [\n      {clip_ids_text}\n    ],\n'
            f'    "instruction": {enc(instruction)},\n'
            f'    "merged_caption": {enc(merged_caption)},\n'
            f'    "segments": [\n{segments_text}\n    ],\n'
            f'    "total_duration_s": {num(total)}\n  }}'
        )
        sep = ",\n"
    yield "\n]"


def _round_half_up(x: float) -> int:
    return int(math.floor(x + 0.5))


def format_mmss(seconds: float) -> str:
    """MM:SS with seconds rounded half-up."""
    total = math.floor(seconds + 0.5)  # _round_half_up, inlined: one call per boundary
    if 0 <= total <= MAX_DURATION_S:
        return _MMSS[total]
    return f"{total // 60:02d}:{total % 60:02d}"


def _check_segments(bounds: list[float]) -> None:
    """Reject segment boundaries that do not increase: a clip too short to
    move the running total makes an empty segment."""
    if not all(map(lt, bounds, bounds[1:])):
        start, end = next((a, b) for a, b in zip(bounds, bounds[1:]) if b <= a)
        raise ParameterError(f"segment [{start}, {end}) is empty")


def build_record(clip_ids: list[str], durations: list[float], captions: list[str],
                 n_frames: int = DEFAULT_RECORD_FRAMES) -> LongVideoRecord:
    """The record of these clips, in this order.

    Segment i spans the cumulative durations [sum(dur[:i]), sum(dur[:i+1]));
    the merged caption joins "[MM:SS - MM:SS] <caption>" blocks with
    newlines. The total duration must land in the 5 to 30 minute window,
    and no segment may be empty.
    The instruction lists the n_frames >= 1 timestamps j * total / n_frames at
    one decimal, and the total rounded half-up to whole seconds.
    """
    bounds = list(accumulate(durations, initial=0.0))
    total = bounds[-1]
    if not MIN_DURATION_S <= total <= MAX_DURATION_S:
        raise ParameterError(
            f"total duration {total:.1f}s outside [{MIN_DURATION_S:.0f}, {MAX_DURATION_S:.0f}]"
        )
    _check_segments(bounds)
    # each boundary ends one segment and starts the next: label it once
    labels = list(map(format_mmss, bounds))
    merged = "\n".join(
        [f"[{a} - {b}] {cap}" for a, b, cap in zip(labels, labels[1:], captions)]
    )
    listed = ", ".join([f"{j * total / n_frames:.1f}" for j in range(n_frames)])
    instruction = (
        f"This video samples {n_frames} frames of a "
        f"{_round_half_up(total)}-second video at {listed} seconds."
    )
    return LongVideoRecord(clip_ids, total, bounds[:-1], bounds[1:], captions, merged,
                           instruction)


def pack_clips(
    ids: list[str],
    durations: list[float],
    captions: list[str],
    min_s: float = MIN_DURATION_S,
    max_s: float = MAX_DURATION_S,
    seed: int = 0,
    n_frames: int = DEFAULT_RECORD_FRAMES,
) -> list[LongVideoRecord]:
    """Pack the clips of these columns into composite records of min_s to
    max_s seconds, each built by :func:`build_record`.

    Greedy single pass over a seeded shuffle: a group accumulates clips
    while the next clip still fits under max_s, closes when it would not,
    and is kept only if it reached min_s. Clips are used at most once;
    clips of max_s or longer are skipped with a warning. Each record is
    built as its group closes, so warnings and errors keep their order.
    *n_frames* (an integer >= 1), *seed* (a non-negative integer) and the
    window (finite numbers, 300 <= min_s <= max_s <= 1800) are checked
    before any clip is packed or any warning logged. The columns are
    trusted as :func:`load_clip_manifest` returns them and not checked
    again: a duration that is not a finite number above 0 is not an
    error, and its group may be dropped or its record wrong.
    """
    n_frames = _check_count("sample count", n_frames, 1)
    return [build_record([ids[i] for i in group], [durations[i] for i in group],
                         [captions[i] for i in group], n_frames)
            for group, _ in _pack_groups(ids, durations, min_s, max_s, seed)]


def _pack_groups(
    ids: list[str], durations: list[float], min_s: float, max_s: float, seed: int,
) -> Iterator[tuple[list[int], float]]:
    """The groups :func:`pack_clips` keeps, as clip indices, each with its
    running total, yielded as each one closes, after the pool, the window
    and the seed are checked.

    The running total is the same left fold from 0.0 as the record's
    duration, so the two are bit-identical.
    """
    if not durations:
        raise ParameterError("clip pool is empty")
    min_s, max_s = _check_real("min_s", min_s, -math.inf), _check_real("max_s", max_s, -math.inf)
    if not (MIN_DURATION_S <= min_s <= max_s <= MAX_DURATION_S):
        raise ParameterError(
            f"packing window [{min_s}, {max_s}] must lie within "
            f"[{MIN_DURATION_S:.0f}, {MAX_DURATION_S:.0f}]"
        )
    _check_seed(seed)
    order = np.random.default_rng(seed).permutation(len(durations)).tolist()

    def close(group, total):
        if total >= min_s:
            yield group, total
        elif group:
            logger.warning(
                "dropping group of %d clips (%.1fs < %.0fs minimum)",
                len(group), total, min_s,
            )

    group: list[int] = []
    total = 0.0
    for i in order:
        duration = durations[i]
        if duration >= max_s:
            logger.warning("skipping clip %r: %.1fs is not below max %.1fs",
                           ids[i], duration, max_s)
            continue
        if total + duration > max_s:
            yield from close(group, total)
            group = []
            total = 0.0
        group.append(i)
        total += duration
    yield from close(group, total)


_MANIFEST_KEYS = frozenset(("id", "duration", "caption"))


def load_clip_manifest(path: str | Path) -> tuple[list[str], list[float], list[str]]:
    """The ids, durations and captions of the manifest at *path*, in entry
    order. A manifest is a JSON array of {"id", "duration", "caption"}.

    Entries are used as written or rejected with a FormatError naming the
    entry: each must be an object with exactly those keys, a string id and
    caption, and a duration that is a JSON number (not a bool). Ids must be
    unique. A clip must also have a finite duration above 0 and a nonempty
    caption (ParameterError).
    """
    path = Path(path)
    doc = _read_json(path)
    if not isinstance(doc, list):
        raise FormatError(f"{path}: manifest must be a JSON array")
    ids, durations, captions = [], [], []
    first_seen: dict[str, int] = {}
    for i, entry in enumerate(doc):
        # json.loads builds exact types, so `type(...) is` is the isinstance
        # test, and it keeps bools out of the numbers
        try:
            clip_id, duration, caption = entry["id"], entry["duration"], entry["caption"]
            valid = (len(entry) == 3 and type(clip_id) is str and type(caption) is str
                     and type(duration) in (int, float))
        except (KeyError, TypeError):  # not an object, or a key missing
            valid = False
        if not valid:
            raise FormatError(
                f"{path}: manifest entry {i} is malformed: {_manifest_entry_problem(entry)}"
            )
        first = first_seen.setdefault(clip_id, i)
        if first != i:
            raise FormatError(f"{path}: manifest entries {first} and {i} share the id {clip_id!r}")
        try:
            duration = float(duration)
        except OverflowError:
            raise FormatError(
                f"{path}: manifest entry {i} is malformed: duration {duration} is out of range"
            ) from None
        if not (math.isfinite(duration) and duration > 0):
            raise ParameterError(f"clip {clip_id!r}: duration must be > 0, got {duration}")
        if not caption:
            raise ParameterError(f"clip {clip_id!r}: caption must be nonempty")
        ids.append(clip_id)
        durations.append(duration)
        captions.append(caption)
    return ids, durations, captions


def _manifest_entry_problem(entry) -> str:
    """What is wrong with a manifest entry that load_clip_manifest rejects."""
    if not isinstance(entry, dict):
        return f"expected an object, got {entry!r}"
    if entry.keys() != _MANIFEST_KEYS:
        return f"has keys {sorted(entry)}, expected {sorted(_MANIFEST_KEYS)}"
    for key in ("id", "caption"):
        if not isinstance(entry[key], str):
            return f"{key} must be a string, got {entry[key]!r}"
    return f"duration must be a number, got {entry['duration']!r}"


def _word_count(text: str) -> int:
    """``len(text.split())``; for ASCII text, without building the list."""
    if not text.isascii():
        return len(text.split())
    marks = text.encode("ascii").translate(_WORD_BYTES)
    return marks.count(b" x") + marks.startswith(b"x")


def dataset_stats(ids: list[str], durations: list[float], captions: list[str],
                  min_s: float = MIN_DURATION_S, max_s: float = MAX_DURATION_S,
                  seed: int = 0) -> dict:
    """Histograms of the durations (60 s bins over the 5 to 30 minute
    window) and merged-caption word counts of the records
    :func:`pack_clips` would build from the clips of these columns, plus
    simple means, computed without building the records.

    A merged-caption line is ``"[MM:SS - MM:SS] caption"`` and the labels
    hold no whitespace, so each clip adds 3 words to its caption's own. A
    clip too short to move its group's running total raises the error its
    record would: an empty segment. The window and seed are checked, and
    the columns trusted, as :func:`pack_clips` does.
    """
    sizes, words = [], []
    for group, total in _pack_groups(ids, durations, min_s, max_s, seed):
        _check_segments(list(accumulate([durations[i] for i in group], initial=0.0)))
        sizes.append(total)
        # a space between captions splits them as the merged caption's labels do
        words.append(3 * len(group) + _word_count(" ".join([captions[i] for i in group])))
    if not sizes:
        raise ParameterError("no records produced; nothing to summarize")
    return _summarize(sizes, words)


def _summarize(durations: list[float], words: list[int]) -> dict:
    """The :func:`dataset_stats` summary of records with these durations
    and word counts; each list holds one entry per record, at least one."""
    duration_hist = []
    lo = MIN_DURATION_S
    while lo < MAX_DURATION_S:
        hi = lo + 60.0
        count = sum(
            1 for d in durations
            if lo <= d < hi or (hi == MAX_DURATION_S and d == hi)
        )
        duration_hist.append({"lo": lo, "hi": hi, "count": count})
        lo = hi

    bin_w = 200
    top = max(words)
    n_bins = max(1, -(-top // bin_w))
    words_hist = []
    for b in range(n_bins):
        lo_w, hi_w = b * bin_w, (b + 1) * bin_w
        count = sum(1 for w in words if lo_w <= w < hi_w or (b == n_bins - 1 and w == hi_w))
        words_hist.append({"lo": lo_w, "hi": hi_w, "count": count})

    return {
        "count": len(durations),
        "mean_duration_s": sum(durations) / len(durations),
        "mean_caption_words": sum(words) / len(words),
        "duration_hist": duration_hist,
        "caption_words_hist": words_hist,
    }
