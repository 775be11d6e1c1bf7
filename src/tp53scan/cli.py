"""Command-line surface: one subcommand per pipeline stage.

Exit codes: 0 success, 1 domain or I/O error (named on stderr), 2 usage
error. Codon numbers everywhere are 1-based from the first base of the
supplied sequence, so inputs should start exactly at the coding start.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields, replace

from .alignment import (
    DNA_SCHEME,
    PROTEIN_SCHEME,
    AlignOp,
    AlignmentResult,
    ScoringScheme,
    align_global,
    identity_percent,
)
from .codec import to_dict
from .composition import DEFAULT_GC_THRESHOLD, check_threshold, composition, reference_gate
from .datafiles import bundled_db_path, bundled_refstore_path
from .errors import RecordCountError, ScanError
from .mutcall import call_mutations
from .mutdb import FilterQuery, load_db, query
from .pipeline import (
    PipelineConfig,
    predict,
    render_calls,
    render_matches,
    render_text,
    report_to_dict,
)
from .refstore import load_store
from .seqio import Alphabet, FastaDocument, read_fasta, write_fasta
from .translation import translate

WRAP = 60


def _emit(payload: dict, text: str, output: str) -> None:
    if output == "json":
        print(json.dumps(payload, indent=2))
    else:
        print(text, end="" if text.endswith("\n") else "\n")


def _cmd_gc(args: argparse.Namespace) -> int:
    # a bad threshold is a usage error (exit 2) even when the file is unreadable
    check_threshold(args.threshold)
    doc = read_fasta(args.fasta, Alphabet.DNA)
    blocks: list[str] = []
    rows: list[dict] = []
    for rec in doc:
        report = composition(rec)
        decision = reference_gate(report, args.threshold)
        counts = " ".join(f"{b}={report.counts[b]}" for b in "ACGTN")
        blocks.append(
            "\n".join(
                [
                    f"record: {rec.id}",
                    f"length: {report.length}",
                    f"counts: {counts}",
                    f"gc_percent: {report.gc_percent:.2f}",
                    f"at_percent: {report.at_percent:.2f}",
                    f"gate({args.threshold:g}): {decision.value}",
                ]
            )
        )
        rows.append(
            {
                "id": rec.id,
                **to_dict(report),
                "threshold": args.threshold,
                "decision": decision.value,
            }
        )
    _emit({"records": rows}, "\n\n".join(blocks) + "\n", args.output)
    return 0


def _alignment_blocks(result: AlignmentResult) -> str:
    marks = {
        AlignOp.MATCH: "|",
        AlignOp.MISMATCH: ".",
        AlignOp.INSERT: " ",
        AlignOp.DELETE: " ",
    }
    midline = "".join(
        marks[op] for op, count in result.ops for _ in range(count)
    )
    chunks = []
    for start in range(0, len(result.aligned_a), WRAP):
        end = start + WRAP
        chunks.append(
            "\n".join(
                [
                    f"a {result.aligned_a[start:end]}",
                    f"  {midline[start:end]}",
                    f"b {result.aligned_b[start:end]}",
                ]
            )
        )
    return "\n\n".join(chunks)


def _cmd_align(args: argparse.Namespace) -> int:
    protein = args.alphabet == "protein"
    given = {f.name: getattr(args, f.name) for f in fields(ScoringScheme)}
    scheme = replace(
        PROTEIN_SCHEME if protein else DNA_SCHEME,
        **{name: value for name, value in given.items() if value is not None},
    )
    doc = read_fasta(args.fasta, Alphabet.PROTEIN if protein else Alphabet.DNA)
    if len(doc) != 2:
        raise RecordCountError(f"align needs exactly 2 records, found {len(doc)}")
    result = align_global(doc[0], doc[1], scheme)
    identity = identity_percent(result)
    ops_text = ", ".join(f"{op.value} x{count}" for op, count in result.ops)
    text = "\n".join(
        [
            f"a: {doc[0].id}",
            f"b: {doc[1].id}",
            f"score: {result.score}",
            f"identity: {identity:.2f}%",
            f"ops: {ops_text}",
            "",
            _alignment_blocks(result),
        ]
    )
    payload = {
        "a": doc[0].id,
        "b": doc[1].id,
        "identity_percent": identity,
        **to_dict(result),
    }
    _emit(payload, text + "\n", args.output)
    return 0


def _cmd_translate(args: argparse.Namespace) -> int:
    doc = read_fasta(args.fasta, Alphabet.DNA)
    proteins = tuple(translate(rec, frame=args.frame) for rec in doc)
    out_doc = FastaDocument(records=proteins)
    payload = {
        "records": [
            {"id": p.id, "description": p.description, "protein": p.residues}
            for p in proteins
        ]
    }
    _emit(payload, write_fasta(out_doc), args.output)
    return 0


def _cmd_call(args: argparse.Namespace) -> int:
    ref = read_fasta(args.ref_fasta, Alphabet.DNA)[0]
    subj = read_fasta(args.subj_fasta, Alphabet.DNA)[0]
    calls = call_mutations(align_global(ref, subj, DNA_SCHEME))
    payload = {"reference": ref.id, "subject": subj.id, **to_dict(calls)}
    lines = [f"reference: {ref.id}", f"subject: {subj.id}", *render_calls(calls)]
    _emit(payload, "\n".join(lines), args.output)
    return 0


def _cmd_query(args: argparse.Namespace) -> int:
    # a malformed clause is a usage error (exit 2) even when the db is unreadable
    q = FilterQuery.from_strings(args.where)
    result = query(load_db(args.db), q)
    _emit(to_dict(result), "\n".join(render_matches(result)), args.output)
    return 0


def _cmd_predict(args: argparse.Namespace) -> int:
    # a bad threshold is a usage error (exit 2) even when the files are unreadable
    config = PipelineConfig(
        gc_threshold=args.threshold,
        allow_partial=args.allow_partial,
    )
    store = load_store(args.refstore)
    db = load_db(args.db)
    doc = read_fasta(args.subj_fasta, Alphabet.DNA)
    if len(doc) != 1:
        raise RecordCountError(f"predict needs exactly 1 record, found {len(doc)}")
    report = predict(store, db, doc[0], args.gene, config)
    _emit(report_to_dict(report), render_text(report), args.output)
    return 0


def _add_output_flag(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--output",
        choices=("text", "json"),
        default="text",
        help="report format (default: text)",
    )


def _add_db_flag(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--db", default=bundled_db_path(),
        help="TSV database path (default: bundled fixture)",
    )


def _add_threshold_flag(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--threshold", type=float, default=DEFAULT_GC_THRESHOLD,
        help=f"GC acceptance threshold in percent (default: {DEFAULT_GC_THRESHOLD})",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tp53scan",
        description=(
            "Offline codon-level TP53 pre-cancer screening. Codon numbers are "
            "1-based from the first base of the supplied sequence."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gc = sub.add_parser("gc", help="base composition and GC gate for each record")
    p_gc.add_argument("fasta", help="DNA FASTA file")
    _add_threshold_flag(p_gc)
    _add_output_flag(p_gc)
    p_gc.set_defaults(handler=_cmd_gc)

    p_align = sub.add_parser("align", help="globally align the two records of a FASTA")
    p_align.add_argument("fasta", help="FASTA file with exactly two records")
    p_align.add_argument(
        "--alphabet", choices=("dna", "protein"), default="dna",
        help="residue alphabet (default: dna)",
    )
    for name in (f.name for f in fields(ScoringScheme)):
        p_align.add_argument(
            "--" + name.replace("_", "-"), type=int, default=None,
            help=f"{name.replace('_', ' ')} score (default: the alphabet's scheme)",
        )
    _add_output_flag(p_align)
    p_align.set_defaults(handler=_cmd_align)

    p_tr = sub.add_parser("translate", help="translate DNA records to protein FASTA")
    p_tr.add_argument("fasta", help="DNA FASTA file")
    p_tr.add_argument(
        "--frame", type=int, choices=(0, 1, 2), default=0,
        help="reading-frame offset (default: 0)",
    )
    _add_output_flag(p_tr)
    p_tr.set_defaults(handler=_cmd_translate)

    p_call = sub.add_parser(
        "call",
        help="call codon-level mutations of a subject against a reference",
        description=(
            "Aligns the first record of each file and reports per-codon "
            "substitutions in reference coordinates (1-based)."
        ),
    )
    p_call.add_argument("ref_fasta", help="reference DNA FASTA")
    p_call.add_argument("subj_fasta", help="subject DNA FASTA")
    _add_output_flag(p_call)
    p_call.set_defaults(handler=_cmd_call)

    p_query = sub.add_parser("query", help="filter the mutation database")
    _add_db_flag(p_query)
    p_query.add_argument(
        "--where",
        action="append",
        default=[],
        metavar="FIELD=VALUE",
        help="equality clause; repeat to AND clauses together",
    )
    _add_output_flag(p_query)
    p_query.set_defaults(handler=_cmd_query)

    p_pred = sub.add_parser(
        "predict",
        help="run the full prediction pipeline on a subject CDS",
        description=(
            "Ranks reference candidates, applies the GC gate, calls "
            "mutations and looks them up in the database. The subject must "
            "start at the coding start so codon numbers line up."
        ),
    )
    p_pred.add_argument("subj_fasta", help="subject DNA FASTA (one record)")
    p_pred.add_argument(
        "--refstore", default=bundled_refstore_path(),
        help="reference store directory (default: bundled fixture)",
    )
    _add_db_flag(p_pred)
    p_pred.add_argument("--gene", default="TP53", help="gene token (default: TP53)")
    _add_threshold_flag(p_pred)
    p_pred.add_argument(
        "--allow-partial", action="store_true",
        help="truncate a subject whose length is not a codon multiple",
    )
    _add_output_flag(p_pred)
    p_pred.set_defaults(handler=_cmd_predict)
    return parser


def run(argv: list[str] | None = None) -> int:
    """Parse and dispatch; returns the process exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.handler(args)
    except (ScanError, OSError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    raise SystemExit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
