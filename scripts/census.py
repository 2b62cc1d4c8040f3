"""Exit codes and output digests of every command on the benchmark's CLI documents.

Runs the nine th-fredholm commands in process, through cli.main, on the 120
documents of bench/gen.cli_documents (seeds 11, 12 and 13, 40 each), and then
on 30 F-matrix documents of bench/gen.fmatrix_doc (seed 2026), the only ones
whose defect numbers run rho, the rank decision and the null-vector
candidates; sweep runs from p = 1.1 to 4 in 25 steps, and curve runs once
per side (curve for c, curve-d for d).  For each block and run it prints
how many runs ended with each exit code and the SHA-256 of the concatenated
stdout, so two checkouts that give every document the same verdict and the
same bytes print the same lines.  It takes no options:

    python3 scripts/census.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import random
import sys
import tempfile
import warnings
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (11, 12, 13)
PER_SEED = 40
FMATRIX_SEED, FMATRIX_DOCS = 2026, 30
# each run's label and the arguments after the document path
RUNS = {
    "check": ["check"],
    "index": ["index"],
    "defects": ["defects"],
    "factor": ["factor"],
    "curve": ["curve"],
    "curve-d": ["curve", "--side", "d"],
    "special": ["special"],
    "verify": ["verify"],
    "sweep": ["sweep", "--p-from", "1.1", "--p-to", "4", "--steps", "25"],
    "pmap": ["pmap"],
}


def census(docs: list[dict]) -> None:
    """Print each run's exit-code counts and output digest over docs."""
    import gen
    from th_fredholm import cli

    codes = {label: Counter() for label in RUNS}
    digests = {label: hashlib.sha256() for label in RUNS}
    with tempfile.TemporaryDirectory() as tmp:
        for i, doc in enumerate(docs):
            path = Path(tmp) / f"doc{i}.json"
            path.write_text(gen.to_json(doc))
            for label, (command, *extra) in RUNS.items():
                out = io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                    with warnings.catch_warnings():
                        warnings.simplefilter("ignore")
                        code = cli.main([command, str(path), *extra])
                codes[label][code] += 1
                digests[label].update(out.getvalue().encode())
    for label in RUNS:
        counts = " ".join(f"exit {code}: {n}" for code, n in sorted(codes[label].items()))
        print(f"{label:8} {counts:40} sha256 {digests[label].hexdigest()}")


def documents(gen) -> tuple[list[dict], list[dict]]:
    """The two blocks of documents, from bench/gen: the CLI documents and the F-matrix documents."""
    docs = [doc for seed in SEEDS for _, doc, _ in gen.cli_documents(random.Random(seed), PER_SEED)]
    rng = random.Random(FMATRIX_SEED)
    return docs, [gen.fmatrix_doc(rng) for _ in range(FMATRIX_DOCS)]


def main() -> None:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]
    import gen

    docs, fmatrix = documents(gen)
    print(f"{len(docs)} documents, seeds {', '.join(map(str, SEEDS))}")
    census(docs)
    print(f"{FMATRIX_DOCS} F-matrix documents, seed {FMATRIX_SEED}")
    census(fmatrix)


if __name__ == "__main__":
    main()
