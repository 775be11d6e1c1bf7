#!/usr/bin/env python3
"""Print SHA-256 digests of the reports of the benchmark's predict workloads.

    python3 scripts/report_digest.py          # print the digests
    python3 scripts/report_digest.py --check  # compare with report_digest.sha256

Each ``cds_snv`` and ``divergent_indel`` request at seeds 1 and 2 runs
the ``predict --output json`` path: ``parse_fasta`` -> ``predict`` ->
``report_to_dict`` -> ``json.dumps(indent=2)``, with ``generated_at``
dropped because it reads the clock. The texts of the
``WtCodonMismatchWarning``s a request raises are hashed with its
report, sorted, so the digest also pins the warnings as a multiset.
Beside that overall digest, each (workload, seed) part gets its own,
over the same texts, so a failing check names the parts whose reports
changed. The digest file holds one ``<hex>  <part>`` line each, the
overall one first as ``all``.

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


def digests() -> dict[str, str]:
    """The overall digest as ``all``, then one per ``workload/seed``."""
    sha = hashlib.sha256()
    parts = {}
    data_dir = ROOT / "src" / "tp53scan" / "data"
    for name in WORKLOADS:
        for seed in SEEDS:
            part = parts[f"{name}/{seed}"] = hashlib.sha256()
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
                    texts = sorted(
                        str(w.message) for w in caught
                        if issubclass(w.category, WtCodonMismatchWarning)
                    )
                    for chunk in (json.dumps(payload, indent=2), json.dumps(texts)):
                        sha.update(chunk.encode("ascii"))
                        part.update(chunk.encode("ascii"))
    return {"all": sha.hexdigest(), **{k: v.hexdigest() for k, v in parts.items()}}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--check", action="store_true",
        help=f"compare with {DIGEST_PATH.name} instead of printing only",
    )
    args = parser.parse_args(argv)
    found = digests()
    for part, hexdigest in found.items():
        print(f"{hexdigest}  {part}")
    if not args.check:
        return 0
    lines = DIGEST_PATH.read_text(encoding="ascii").splitlines()
    want = {part: hexdigest for hexdigest, part in map(str.split, lines)}
    differ = [part for part in {**want, **found} if found.get(part) != want.get(part)]
    if differ:
        print(f"reports differ from {DIGEST_PATH.name} in: {', '.join(differ)}", file=sys.stderr)
        return 1
    print("reports match the committed digest")
    return 0


if __name__ == "__main__":
    sys.exit(main())
