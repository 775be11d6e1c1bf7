#!/usr/bin/env python3
"""Print one SHA-256 over every report of the benchmark's predict workloads.

    python3 scripts/report_digest.py          # print the digest
    python3 scripts/report_digest.py --check  # compare with report_digest.sha256

Each ``cds_snv`` and ``divergent_indel`` request at seeds 1 and 2 runs
the ``predict --output json`` path: ``parse_fasta`` -> ``predict`` ->
``report_to_dict`` -> ``json.dumps(indent=2)``, with ``generated_at``
dropped because it reads the clock. The texts of the
``WtCodonMismatchWarning``s a request raises are hashed with its
report, sorted, so the digest also pins the warnings as a multiset.

The inputs come from the generators in ``bench/workloads.py``, written
into a temporary directory. A change that must not alter any report
leaves the digest as it is; one that alters reports on purpose commits
the new digest and says why.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import tempfile
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import workloads  # noqa: E402
from tp53scan import (  # noqa: E402
    Alphabet,
    load_db,
    load_store,
    parse_fasta,
    predict,
    report_to_dict,
)
from tp53scan.mutdb import WtCodonMismatchWarning  # noqa: E402

DIGEST_PATH = Path(__file__).resolve().with_suffix(".sha256")
WORKLOADS = ("cds_snv", "divergent_indel")
SEEDS = (1, 2)


def digest() -> str:
    sha = hashlib.sha256()
    data_dir = ROOT / "src" / "tp53scan" / "data"
    for name in WORKLOADS:
        for seed in SEEDS:
            with tempfile.TemporaryDirectory() as tmp:
                inputs = workloads.GENERATORS[name](seed, data_dir, Path(tmp))
                store, db = load_store(inputs.store_dir), load_db(inputs.db_path)
                text = inputs.requests.read_text(encoding="utf-8")
                for fasta in workloads.split_fasta(text):
                    subject = parse_fasta(fasta, Alphabet.DNA)[0]
                    with warnings.catch_warnings(record=True) as caught:
                        warnings.simplefilter("always", WtCodonMismatchWarning)
                        report = predict(store, db, subject, workloads.GENE)
                    payload = report_to_dict(report)
                    del payload["generated_at"]
                    sha.update(json.dumps(payload, indent=2).encode("ascii"))
                    texts = sorted(
                        str(w.message) for w in caught
                        if issubclass(w.category, WtCodonMismatchWarning)
                    )
                    sha.update(json.dumps(texts).encode("ascii"))
    return sha.hexdigest()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--check", action="store_true",
        help=f"compare with {DIGEST_PATH.name} instead of printing only",
    )
    args = parser.parse_args(argv)
    found = digest()
    print(found)
    if not args.check:
        return 0
    want = DIGEST_PATH.read_text(encoding="ascii").strip()
    if found != want:
        print(f"reports differ: {DIGEST_PATH.name} holds {want}", file=sys.stderr)
        return 1
    print("reports match the committed digest")
    return 0


if __name__ == "__main__":
    sys.exit(main())
