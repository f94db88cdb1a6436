"""Long-video caption synthesis from short annotated clips.

Clips are packed into composite records of 5 to 30 minutes; each clip
becomes one timestamped segment of the merged caption, and every record
carries the frame-sampling instruction string used for training prompts.

The work runs on manifest columns: parallel lists of clip ids, durations
and captions, with a group of clips given as a list of indices into them.
``synth`` and ``synth --stats`` use the columns alone. The object API
(:func:`load_clip_manifest`, :func:`pack_clips`, :func:`build_record`)
wraps the same code.
"""

from __future__ import annotations

import json
import logging
import math
from collections.abc import Iterator
from dataclasses import dataclass
from itertools import accumulate
from json.encoder import encode_basestring_ascii
from operator import lt
from pathlib import Path

import numpy as np

from .errors import FormatError, ParameterError

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


def _check_clip(clip_id: str, duration_s: float, caption: str) -> None:
    """A clip's rule: a finite duration above 0 and a nonempty caption."""
    if not (math.isfinite(duration_s) and duration_s > 0):
        raise ParameterError(f"clip {clip_id!r}: duration must be > 0, got {duration_s}")
    if not caption:
        raise ParameterError(f"clip {clip_id!r}: caption must be nonempty")


@dataclass(frozen=True, slots=True)
class ClipRecord:
    """A short annotated clip: id, duration in seconds, caption text."""

    id: str
    duration_s: float
    caption: str

    def __post_init__(self):
        _check_clip(self.id, self.duration_s, self.caption)


@dataclass(frozen=True, slots=True)
class Segment:
    """One clip's span inside a composite record: [start_s, end_s)."""

    start_s: float
    end_s: float
    caption: str


@dataclass(frozen=True)
class LongVideoRecord:
    """A synthesized long video: ordered clips, timestamped segments,
    merged caption, and the frame-sampling instruction string."""

    clip_ids: tuple[str, ...]
    total_duration_s: float
    segments: tuple[Segment, ...]
    merged_caption: str
    instruction: str

    def __post_init__(self):
        if not MIN_DURATION_S <= self.total_duration_s <= MAX_DURATION_S:
            raise ParameterError(
                f"record duration {self.total_duration_s:.1f}s outside "
                f"[{MIN_DURATION_S:.0f}, {MAX_DURATION_S:.0f}]"
            )
        segments = tuple(self.segments)
        if not segments or len(segments) != len(self.clip_ids):
            raise ParameterError("need one segment per clip")
        cursor = 0.0
        for seg in segments:
            if abs(seg.start_s - cursor) > 1e-6:
                raise ParameterError(
                    f"segment starting at {seg.start_s} leaves a gap after {cursor}"
                )
            if seg.end_s <= seg.start_s:
                raise ParameterError(f"segment [{seg.start_s}, {seg.end_s}) is empty")
            cursor = seg.end_s
        if abs(cursor - self.total_duration_s) > 1e-6:
            raise ParameterError(
                f"segments end at {cursor}, record duration is {self.total_duration_s}"
            )
        object.__setattr__(self, "segments", segments)
        object.__setattr__(self, "clip_ids", tuple(self.clip_ids))

    def to_dict(self) -> dict:
        return {
            "clip_ids": list(self.clip_ids),
            "total_duration_s": self.total_duration_s,
            "segments": [
                {"start_s": s.start_s, "end_s": s.end_s, "caption": s.caption}
                for s in self.segments
            ],
            "merged_caption": self.merged_caption,
            "instruction": self.instruction,
        }


def _records_json_parts(records: list[tuple]) -> Iterator[str]:
    """The text of ``json.dumps([r.to_dict() for r in records], indent=2,
    sort_keys=True)``, one record at a time, written for this one schema.

    Each record is given as the tuple :func:`_record_fields` returns,
    ``(clip_ids, total_duration_s, starts, ends, captions, merged_caption,
    instruction)``: segment i spans [starts[i], ends[i]) with captions[i].

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


def _record_fields(clip_ids: list[str], durations: list[float], captions: list[str],
                   n_frames: int) -> tuple:
    """The fields of the record of these clips, in order, as
    :func:`_records_json_parts` takes them.

    Segment i spans the cumulative durations [sum(dur[:i]), sum(dur[:i+1]));
    the merged caption joins "[MM:SS - MM:SS] <caption>" blocks with
    newlines. The total duration must land in the 5 to 30 minute window.
    The instruction lists the n_frames timestamps j * total / n_frames at
    one decimal, and the total rounded half-up to whole seconds.
    """
    if not durations:
        raise ParameterError("cannot build a record from zero clips")
    bounds = list(accumulate(durations, initial=0.0))
    total = bounds[-1]
    if not MIN_DURATION_S <= total <= MAX_DURATION_S:
        raise ParameterError(
            f"total duration {total:.1f}s outside [{MIN_DURATION_S:.0f}, {MAX_DURATION_S:.0f}]"
        )
    if n_frames < 1:
        raise ParameterError(f"sample count must be >= 1, got {n_frames}")
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
    return clip_ids, total, bounds[:-1], bounds[1:], captions, merged, instruction


def _as_record(fields: tuple) -> LongVideoRecord:
    clip_ids, total, starts, ends, captions, merged, instruction = fields
    return LongVideoRecord(tuple(clip_ids), total, tuple(map(Segment, starts, ends, captions)),
                           merged, instruction)


def _clip_columns(clips: list[ClipRecord]) -> tuple[list[str], list[float], list[str]]:
    return [c.id for c in clips], [c.duration_s for c in clips], [c.caption for c in clips]


def build_record(clips: list[ClipRecord], n_frames: int = DEFAULT_RECORD_FRAMES) -> LongVideoRecord:
    """Assemble one composite record from an ordered clip list (see
    :func:`_record_fields` for its segments, caption and instruction)."""
    return _as_record(_record_fields(*_clip_columns(clips), n_frames))


def pack_clips(
    pool: list[ClipRecord],
    min_s: float = MIN_DURATION_S,
    max_s: float = MAX_DURATION_S,
    seed: int = 0,
    n_frames: int = DEFAULT_RECORD_FRAMES,
) -> list[LongVideoRecord]:
    """Pack clips into composite records of min_s to max_s seconds.

    Greedy single pass over a seeded shuffle: a group accumulates clips
    while the next clip still fits under max_s, closes when it would not,
    and is kept only if it reached min_s. Clips are used at most once;
    clips of max_s or longer are skipped with a warning. An *n_frames*
    below 1 is rejected before any clip is packed or any warning logged.
    """
    return list(map(_as_record,
                    _packed_records(*_clip_columns(pool), min_s, max_s, seed, n_frames)))


def _packed_records(ids: list[str], durations: list[float], captions: list[str],
                    min_s: float, max_s: float, seed: int, n_frames: int) -> Iterator[tuple]:
    """The :func:`_record_fields` of each record :func:`pack_clips` builds
    from the clips of these columns, each yielded as its group closes."""
    if n_frames < 1:
        raise ParameterError(f"sample count must be >= 1, got {n_frames}")
    for group, _ in _pack_groups(ids, durations, min_s, max_s, seed):
        yield _record_fields([ids[i] for i in group], [durations[i] for i in group],
                             [captions[i] for i in group], n_frames)


def _pack_groups(
    ids: list[str], durations: list[float], min_s: float, max_s: float, seed: int,
) -> Iterator[tuple[list[int], float]]:
    """The groups :func:`pack_clips` keeps, as clip indices, each with its
    running total, yielded as each one closes so that warnings and errors
    keep their order.

    The running total is the same left fold from 0.0 as the record's
    duration, so the two are bit-identical.
    """
    if not durations:
        raise ParameterError("clip pool is empty")
    if not (MIN_DURATION_S <= min_s <= max_s <= MAX_DURATION_S):
        raise ParameterError(
            f"packing window [{min_s}, {max_s}] must lie within "
            f"[{MIN_DURATION_S:.0f}, {MAX_DURATION_S:.0f}]"
        )
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


def load_clip_manifest(path: str | Path) -> list[ClipRecord]:
    """Parse a manifest: a JSON array of {"id", "duration", "caption"}.

    Entries are used as written or rejected with a FormatError naming the
    entry: each must be an object with exactly those keys, a string id and
    caption, and a duration that is a JSON number (not a bool). Ids must be
    unique. Each clip must also pass :class:`ClipRecord`'s check
    (ParameterError).
    """
    return list(map(ClipRecord, *_read_manifest(path)))


def _read_manifest(path: str | Path) -> tuple[list[str], list[float], list[str]]:
    """The ids, durations and captions of the manifest at *path*, checked
    entry by entry as :func:`load_clip_manifest` states, in entry order."""
    path = Path(path)
    try:
        doc = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise FormatError(f"{path}: invalid JSON at byte offset {exc.pos}") from exc
    except ValueError as exc:  # an integer literal past Python's digit limit
        raise FormatError(f"{path}: {exc}") from exc
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
        _check_clip(clip_id, duration, caption)
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


def dataset_stats(records: list[LongVideoRecord]) -> dict:
    """Histograms of record durations (60 s bins over the 5 to 30 minute
    window) and merged-caption word counts, plus simple means."""
    if not records:
        raise ParameterError("no records to summarize")
    return _summarize([r.total_duration_s for r in records],
                      [len(r.merged_caption.split()) for r in records])


def _word_count(text: str) -> int:
    """``len(text.split())``; for ASCII text, without building the list."""
    if not text.isascii():
        return len(text.split())
    marks = text.encode("ascii").translate(_WORD_BYTES)
    return marks.count(b" x") + marks.startswith(b"x")


def _packed_sizes(ids: list[str], durations: list[float], captions: list[str],
                  min_s: float, max_s: float, seed: int) -> tuple[list[float], list[int]]:
    """The duration and merged-caption word count of each record
    ``pack_clips`` would build from the clips of these columns, without
    building it.

    A merged-caption line is ``"[MM:SS - MM:SS] caption"`` and the labels
    hold no whitespace, so each clip adds 3 words to its caption's own. A
    clip too short to move its group's running total raises the error its
    record would: an empty segment.
    """
    sizes, words = [], []
    for group, total in _pack_groups(ids, durations, min_s, max_s, seed):
        _check_segments(list(accumulate([durations[i] for i in group], initial=0.0)))
        sizes.append(total)
        # a space between captions splits them as the merged caption's labels do
        words.append(3 * len(group) + _word_count(" ".join([captions[i] for i in group])))
    return sizes, words


def _summarize(durations: list[float], words: list[int]) -> dict:
    """:func:`dataset_stats` of records with these durations and word counts."""
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
