"""Mutation audit of the merge engine's, the fusion fitter's and scene
selection's numerics, of how compress maps scene members back to the
input's frames, and of the feature reader, the synthetic generator's
checks, the worker runner, the one-thread BLAS region, caption packing
and the seed rule.

    python tests/mutation_audit.py

Each mutant below swaps one exact text of a framefuse module for another:
a change that keeps the code running but is wrong on some input. The audit
copies the checkout, without its .git and caches, into a temporary
directory, runs the tier-1 suite there with ``-x`` once unchanged, then
once per mutant, and prints ``killed``
(a test failed) or ``survived`` (all passed) for each. A mutant that no
input can tell apart is listed as equivalent, with the reason, which the
audit prints in place of running it. It exits 1 when a mutant survives,
the unchanged suite fails, or an old text does not occur exactly once in
its module. It is not a test file, so pytest does not collect it.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
SKIPPED = shutil.ignore_patterns(".git", "__pycache__", ".hypothesis", ".pytest_cache",
                                 ".perfbench-work")


class Mutant(NamedTuple):
    name: str
    module: str  # under src/framefuse/
    old: str
    new: str
    equivalent: str | None = None  # why no input tells it apart, if none can


MUTANTS = [
    Mutant("attnpool max shift", "merge.py",
           "        w -= w.max(axis=0)\n", ""),
    Mutant("bsm stable sort", "merge.py",
           'np.argsort(-scores[np.arange(best_b.size), best_b], kind="stable")',
           "np.argsort(-scores[np.arange(best_b.size), best_b])"),
    Mutant("bsm norm clamp", "merge.py",
           "np.maximum(np.sqrt(sums), 1e-12)", "np.maximum(np.sqrt(sums), 1e-3)"),
    Mutant("tavg +0.0 start", "merge.py",
           "np.add(frames[scene[0]], 0.0, out=acc)", "acc[...] = frames[scene[0]]"),
    Mutant("bsm minimum.at", "merge.py",
           "np.minimum.at(new_first, dst, first[2 * merged])",
           "np.maximum.at(new_first, dst, first[2 * merged])"),
    Mutant("kmeans stops at shift == tol", "select.py",
           "if shift < tol:", "if shift <= tol:"),
    Mutant("expanded-form bound an eighth as wide", "select.py",
           "err *= 2 * gamma", "err *= gamma / 4"),
    Mutant("candidates exclude lo == min(hi)", "select.py",
           "candidates = lo <= hi.min(", "candidates = lo < hi.min(",
           "a center whose lower bound equals the least upper bound could be the "
           "nearest only if its direct-form distance equalled that lower bound, but the "
           "bound is 2 gamma (|p| + |c|)^2 wide and the expanded form's error was at "
           "most 0.45 gamma (|p| + |c|)^2 on 3,000 adversarial inputs"),
    Mutant("supplement ties to the later frame", "select.py",
           "np.lexsort((cand, key))", "np.lexsort((-cand, key))"),
    Mutant("last window ends at n - 1", "select.py",
           "if i + 1 < len(rep_list) else n\n", "if i + 1 < len(rep_list) else n - 1\n"),
    Mutant("seeding skips rows with non-finite bounds", "select.py",
           "~((lo[:, 0] > d2) & np.isfinite(hi[:, 0]))", "~(lo[:, 0] > d2)",
           "unreachable past kmeans's overflow guard: an accepted row's distances "
           "stay below half the float64 maximum, so wherever the expanded form or its "
           "bound overflows, lo is NaN or -inf and lo > d2 already fails"),
    Mutant("merge reads sample positions as frame numbers", "pipeline.py",
           "merge_scenes(features.data, idx[members],", "merge_scenes(features.data, members,"),
    Mutant("uniform scene represented by its first member", "pipeline.py",
           "members[:, s // 2]", "members[:, 0]"),
    Mutant("timestamps read at sample positions", "pipeline.py",
           "for i in idx[reps])", "for i in reps)"),
    Mutant("fitter drops the scene and target count check", "merge.py",
           "if t.shape != (n, n_patches, dim):", "if t.shape[1:] != (n_patches, dim):"),
    Mutant("fitter gradient reads the first scene's frames", "merge.py",
           "grad += resid[i] * x[i]", "grad += resid[i] * x[0]"),
    Mutant("generator lets n_scenes exceed n_frames by one", "features.py",
           "if n_scenes > n_frames:", "if n_scenes > n_frames + 1:"),
    Mutant("reader checks half its skipped values", "features.py",
           "np.isfinite(scratch[:filled // 4])", "np.isfinite(scratch[:filled // 8])"),
    Mutant("reader ignores trailing bytes", "features.py",
           "if os.pread(fd, 1, HEADER_SIZE + expected):", "if False:"),
    Mutant("equal timestamps accepted", "features.py",
           "if any(b <= a for a, b in", "if any(b < a for a, b in"),
    Mutant("runner raises the last failure", "parallel.py",
           "raise failures[min(failures)]", "raise failures[max(failures)]"),
    Mutant("W not capped at the unit count", "parallel.py",
           "return min(units, len(os.sched_getaffinity(0)))",
           "return len(os.sched_getaffinity(0))"),
    Mutant("BLAS region restores nothing on exit", "parallel.py",
           "                _blas_set(_region_found)\n", "                pass\n"),
    Mutant("BLAS region ignores its depth count", "parallel.py",
           "            if _region_depth == 0:\n                _blas_set(",
           "            if True:\n                _blas_set("),
    Mutant("word count misses a leading word", "captions.py",
           'marks.count(b" x") + marks.startswith(b"x")', 'marks.count(b" x")'),
    Mutant("MM:SS rounds just below half up", "captions.py",
           "total = math.floor(seconds + 0.5)", "total = math.floor(seconds + 0.49)"),
    Mutant("packing closes a record that would end at max_s", "captions.py",
           "if total + duration > max_s:", "if total + duration >= max_s:"),
    Mutant("seed rule accepts bools", "errors.py",
           "if isinstance(seed, bool) or not", "if not"),
]


def _passes(tree: Path) -> bool:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
                           "--continue-on-collection-errors"],
                          cwd=tree, env=env, capture_output=True, text=True)
    if proc.returncode not in (0, 1):
        raise SystemExit(f"pytest exited with {proc.returncode}:\n{proc.stdout[-2000:]}")
    return proc.returncode == 0


def main() -> int:
    for m in MUTANTS:
        found = (ROOT / "src" / "framefuse" / m.module).read_text().count(m.old)
        if found != 1:
            print(f"{m.name}: its old text occurs {found} times in {m.module}, not once")
            return 1
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp) / "checkout"
        shutil.copytree(ROOT, tree, ignore=SKIPPED)
        if not _passes(tree):
            print("the unchanged suite fails; no mutant was run")
            return 1
        survived = 0
        for m in MUTANTS:
            if m.equivalent:
                print(f"{m.name}: equivalent: {m.equivalent}", flush=True)
                continue
            path = tree / "src" / "framefuse" / m.module
            text = path.read_text()
            path.write_text(text.replace(m.old, m.new))
            try:
                alive = _passes(tree)
            finally:
                path.write_text(text)
            survived += alive
            print(f"{m.name}: {'survived' if alive else 'killed'}", flush=True)
    return 1 if survived else 0


if __name__ == "__main__":
    raise SystemExit(main())
